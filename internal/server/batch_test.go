package server

import (
	"fmt"
	"strconv"
	"strings"
	"testing"

	"jisc/internal/plan"
	"jisc/internal/tuple"
	"jisc/internal/workload"
)

func TestServerFeedBatchCommand(t *testing.T) {
	s := newTestServer(t)
	c := dial(t, s)
	// One FEEDB line per stream, one OK per line; keys 7 and 8 both
	// complete across the three streams of the default query.
	for _, line := range []string{"FEEDB 0 7 8", "FEEDB 1 7 8", "FEEDB 2 7 8"} {
		if resp := c.cmd(t, line); resp != "OK" {
			t.Fatalf("%s -> %s", line, resp)
		}
	}
	stats := c.cmd(t, "STATS")
	if got := statField(t, stats, "input"); got != "6" {
		t.Fatalf("input = %s, want 6 (stats %q)", got, stats)
	}
	if got := statField(t, stats, "output"); got != "2" {
		t.Fatalf("output = %s, want 2 (stats %q)", got, stats)
	}
	if got := statField(t, stats, "batch_flushes"); got != "3" {
		t.Fatalf("batch_flushes = %s, want 3 (stats %q)", got, stats)
	}
	if got := statField(t, stats, "batch_fill_p50"); got != "2" {
		t.Fatalf("batch_fill_p50 = %s, want 2 (stats %q)", got, stats)
	}
	for _, bad := range []string{"FEEDB", "FEEDB 0", "FEEDB 99 1", "FEEDB 0 x", "FEEDB 0 1 x 3"} {
		if resp := c.cmd(t, bad); !strings.HasPrefix(resp, "ERR") {
			t.Fatalf("%q -> %q, want ERR", bad, resp)
		}
	}
	// A rejected batch is all-or-nothing: no tuple of "FEEDB 0 1 x 3"
	// may have been fed.
	if got := statField(t, c.cmd(t, "STATS"), "input"); got != "6" {
		t.Fatalf("input after bad batches = %s, want 6", got)
	}
}

func TestServerFeedBatchNamedQuery(t *testing.T) {
	s := newTestServer(t)
	c := dial(t, s)
	if resp := c.cmd(t, "CREATE pairs 50 (0 1)"); resp != "OK" {
		t.Fatalf("create: %s", resp)
	}
	for _, line := range []string{"FEEDB pairs 0 1 2 3", "FEEDB pairs 1 1 2 3"} {
		if resp := c.cmd(t, line); resp != "OK" {
			t.Fatalf("%s -> %s", line, resp)
		}
	}
	ps := c.cmd(t, "STATS pairs")
	if statField(t, ps, "input") != "6" || statField(t, ps, "output") != "3" {
		t.Fatalf("pairs stats = %q", ps)
	}
	if got := statField(t, c.cmd(t, "STATS"), "input"); got != "0" {
		t.Fatalf("default query got %s tuples from a scoped batch", got)
	}
}

// TestServerLongLineSurvives pins the Scanner fix: a FEEDB line well
// past the old 64 KiB token limit parses fine, a line past the 1 MiB
// cap draws an ERR, and in both cases the connection keeps working.
func TestServerLongLineSurvives(t *testing.T) {
	s := newTestServer(t)
	c := dial(t, s)
	var sb strings.Builder
	sb.WriteString("FEEDB 0")
	n := 0
	for sb.Len() < 128<<10 { // ~128 KiB: dead under the old Scanner
		sb.WriteString(" ")
		sb.WriteString(strconv.Itoa(n % 50))
		n++
	}
	if resp := c.cmd(t, sb.String()); resp != "OK" {
		t.Fatalf("128KiB FEEDB -> %s", resp)
	}
	if got := statField(t, c.cmd(t, "STATS"), "input"); got != strconv.Itoa(n) {
		t.Fatalf("input = %s, want %d", got, n)
	}

	if resp := c.cmd(t, "FEEDB 0 "+strings.Repeat("1 ", 600<<10)); !strings.HasPrefix(resp, "ERR") {
		t.Fatalf("over-long line -> %q, want ERR", resp)
	}
	// The connection survived and the stream is positioned at the next
	// line.
	if resp := c.cmd(t, "FEED 1 1"); resp != "OK" {
		t.Fatalf("feed after over-long line -> %s", resp)
	}
}

// TestServerPipelinedFeeds writes a burst of FEED lines in one send
// and expects one OK per line, in order, with every tuple ingested —
// the coalescing path must preserve the ack-per-line contract.
func TestServerPipelinedFeeds(t *testing.T) {
	s := newTestServer(t)
	c := dial(t, s)
	const n = 300
	var sb strings.Builder
	for i := 0; i < n; i++ {
		fmt.Fprintf(&sb, "FEED %d %d\n", i%3, i%10)
	}
	sb.WriteString("STATS\n")
	if _, err := c.conn.Write([]byte(sb.String())); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		resp, err := c.r.ReadString('\n')
		if err != nil {
			t.Fatal(err)
		}
		if strings.TrimSpace(resp) != "OK" {
			t.Fatalf("ack %d = %q", i, resp)
		}
	}
	stats, err := c.r.ReadString('\n')
	if err != nil {
		t.Fatal(err)
	}
	if got := statField(t, strings.TrimSpace(stats), "input"); got != strconv.Itoa(n) {
		t.Fatalf("input = %s, want %d", got, n)
	}
	// Coalescing is timing-dependent (it only folds lines already
	// buffered), so the only hard bounds are 1 ≤ flushes ≤ n.
	flushes, err := strconv.Atoi(statField(t, strings.TrimSpace(stats), "batch_flushes"))
	if err != nil || flushes < 1 || flushes > n {
		t.Fatalf("batch_flushes = %q (%v)", statField(t, strings.TrimSpace(stats), "batch_flushes"), err)
	}
}

// A pipelined burst mixing FEEDs into different queries and non-FEED
// commands must stop coalescing at each boundary and answer every
// line in order.
func TestServerCoalescingStopsAtBoundaries(t *testing.T) {
	s := newTestServer(t)
	c := dial(t, s)
	if resp := c.cmd(t, "CREATE side 50 (0 1)"); resp != "OK" {
		t.Fatalf("create: %s", resp)
	}
	burst := "FEED 0 1\nFEED 1 1\nFEED side 0 2\nFEED side 1 2\nPLAN\nFEED 2 1\n"
	if _, err := c.conn.Write([]byte(burst)); err != nil {
		t.Fatal(err)
	}
	want := []string{"OK", "OK", "OK", "OK", "PLAN ((0⋈1)⋈2)", "OK"}
	for i, w := range want {
		resp, err := c.r.ReadString('\n')
		if err != nil {
			t.Fatal(err)
		}
		if strings.TrimSpace(resp) != w {
			t.Fatalf("response %d = %q, want %q", i, strings.TrimSpace(resp), w)
		}
	}
	if got := statField(t, c.cmd(t, "STATS"), "input"); got != "3" {
		t.Fatalf("default input = %s, want 3", got)
	}
	if got := statField(t, c.cmd(t, "STATS side"), "input"); got != "2" {
		t.Fatalf("side input = %s, want 2", got)
	}
}

func TestClientFeedBatch(t *testing.T) {
	s := newTestServer(t)
	c, err := Dial(s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// Mixed streams: each run of consecutive same-stream events becomes
	// one FEEDB line on one pipelined burst — three lines here.
	var evs []workload.Event
	for st := 0; st < 3; st++ {
		for k := int64(0); k < 20; k++ {
			evs = append(evs, workload.Event{Stream: tuple.StreamID(st), Key: tuple.Value(k)})
		}
	}
	if err := c.FeedBatch(evs); err != nil {
		t.Fatal(err)
	}
	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Input != 60 || st.Output != 20 {
		t.Fatalf("stats = %+v", st)
	}
	if st.BatchFlushes == 0 {
		t.Fatalf("stats = %+v, want batch flushes recorded", st)
	}
	if err := c.FeedBatch(nil); err != nil {
		t.Fatal(err)
	}
	if err := c.FeedBatch([]workload.Event{{Stream: 99, Key: 1}}); err == nil {
		t.Fatal("bad stream accepted")
	}
	// The connection is still in lockstep after a rejected batch.
	if _, err := c.Plan(); err != nil {
		t.Fatal(err)
	}
}

func TestScopedClientFeedBatch(t *testing.T) {
	s := newTestServer(t)
	c, err := Dial(s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Create("pairs", 20, plan.MustLeftDeep(0, 1)); err != nil {
		t.Fatal(err)
	}
	sc := c.On("pairs")
	if err := sc.FeedBatch([]workload.Event{
		{Stream: 0, Key: 1}, {Stream: 0, Key: 2}, {Stream: 1, Key: 1}, {Stream: 1, Key: 2},
	}); err != nil {
		t.Fatal(err)
	}
	st, err := sc.Stats()
	if err != nil {
		t.Fatal(err)
	}
	// The two FEEDB lines go out in one burst and fold into one batch
	// when both are buffered by the time the server reads the first;
	// that is timing-dependent, so the hard bounds are 1 ≤ flushes ≤ 2.
	if st.Input != 4 || st.Output != 2 || st.BatchFlushes < 1 || st.BatchFlushes > 2 {
		t.Fatalf("scoped stats = %+v", st)
	}
	dst, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if dst.Input != 0 {
		t.Fatalf("default stats = %+v", dst)
	}
}

// FEEDB on a durable server appends batch WAL frames; the batch
// survives a restart like any acknowledged FEED.
func TestServerDurableFeedBatchRestart(t *testing.T) {
	dir := t.TempDir()
	s := startDurableServer(t, dir)
	c := dial(t, s)
	for _, line := range []string{"FEEDB 0 7 8 9", "FEEDB 1 7 8 9", "FEEDB 2 7 8 9"} {
		if resp := c.cmd(t, line); resp != "OK" {
			t.Fatalf("%s -> %s", line, resp)
		}
	}
	stats := c.cmd(t, "STATS")
	wantIn, wantOut := statField(t, stats, "input"), statField(t, stats, "output")
	if wantIn != "9" || wantOut != "3" {
		t.Fatalf("stats = %q", stats)
	}
	// Three FEEDB commands, three appends: batch framing, not
	// per-event framing.
	if got := statField(t, stats, "wal_appends"); got != "3" {
		t.Fatalf("wal_appends = %s, want 3", got)
	}
	s.Close()

	s2 := startDurableServer(t, dir)
	defer s2.Close()
	c2 := dial(t, s2)
	stats2 := c2.cmd(t, "STATS")
	if statField(t, stats2, "input") != wantIn || statField(t, stats2, "output") != wantOut {
		t.Fatalf("after restart stats = %q, want input=%s output=%s", stats2, wantIn, wantOut)
	}
	if got := statField(t, stats2, "recovered_events"); got != "9" {
		t.Fatalf("recovered_events = %s, want 9", got)
	}
	// The recovered server still takes batches.
	if resp := c2.cmd(t, "FEEDB 0 10"); resp != "OK" {
		t.Fatalf("post-recovery FEEDB: %s", resp)
	}
}

// The batch telemetry families reach /metrics with raw (unitless)
// bucket bounds.
func TestTelemetryBatchSeries(t *testing.T) {
	s := newTestServer(t)
	if err := s.ServeTelemetry("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	c := dial(t, s)
	if resp := c.cmd(t, "FEEDB 0 1 2 3"); resp != "OK" {
		t.Fatalf("feedb: %s", resp)
	}
	c.cmd(t, "STATS") // in-band barrier
	m := scrape(t, s, "/metrics")
	for _, want := range []string{
		"# TYPE jisc_batch_fill histogram",
		`jisc_batch_fill_bucket{query="default",le="3"} 1`,
		`jisc_batch_fill_sum{query="default"} 3`,
		`jisc_batch_fill_count{query="default"} 1`,
		"# TYPE jisc_batch_flush_total counter",
		`jisc_batch_flush_total{query="default"} 1`,
	} {
		if !strings.Contains(m, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}
