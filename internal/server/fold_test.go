package server

import (
	"bufio"
	"fmt"
	"net"
	"regexp"
	goruntime "runtime"
	"strings"
	"testing"
	"time"

	"jisc/internal/admission"
	"jisc/internal/core"
	"jisc/internal/engine"
	"jisc/internal/pipeline"
	"jisc/internal/plan"
)

// pipeConn serves one connection of s over an in-memory pipe. A write
// on the pipe returns once the server has read all of it, and one read
// of the server's 64 KiB buffer takes a whole write, so every line of a
// single write is buffered before the server handles the first: which
// lines fold is then deterministic, unlike over TCP.
func pipeConn(t *testing.T, s *Server) *client {
	t.Helper()
	srv, cli := net.Pipe()
	s.mu.Lock()
	s.conns[srv] = struct{}{}
	s.mu.Unlock()
	s.connWG.Add(1)
	go s.handle(srv)
	t.Cleanup(func() { cli.Close() })
	return &client{conn: cli, r: bufio.NewReader(cli)}
}

// burst writes lines in one write and returns one response per line.
func (c *client) burst(t *testing.T, lines ...string) []string {
	t.Helper()
	if _, err := c.conn.Write([]byte(strings.Join(lines, "\n") + "\n")); err != nil {
		t.Fatal(err)
	}
	resps := make([]string, len(lines))
	for i := range resps {
		resp, err := c.r.ReadString('\n')
		if err != nil {
			t.Fatalf("reading response %d: %v", i, err)
		}
		resps[i] = strings.TrimSpace(resp)
	}
	return resps
}

// checkResponses compares responses with want; a want ending in "…"
// matches as a prefix.
func checkResponses(t *testing.T, got, want []string) {
	t.Helper()
	for i, w := range want {
		if p, ok := strings.CutSuffix(w, "…"); ok && strings.HasPrefix(got[i], p) || got[i] == w {
			continue
		}
		t.Fatalf("response %d = %q, want %q (all: %q)", i, got[i], w, got)
	}
}

// TestFoldMixedFeedAndFeedB: a burst of FEED and FEEDB lines for one
// query, in any letter case, becomes one batch with one ack per line.
func TestFoldMixedFeedAndFeedB(t *testing.T) {
	s := newTestServer(t)
	c := pipeConn(t, s)
	got := c.burst(t, "FEED 0 1", "FEEDB 1 1 2", "feed 2 1", "feedb 0 3 4", "STATS")
	checkResponses(t, got, []string{"OK", "OK", "OK", "OK", "STATS input=6 output=1 …"})
	if f := statField(t, got[4], "batch_flushes"); f != "1" {
		t.Fatalf("batch_flushes = %s, want 1 (%s)", f, got[4])
	}
}

// TestFoldStopsAtBoundaries: folding stops at a line of another verb,
// another query, a line that fails to parse, and the tuple cap; every
// line is still answered in order.
func TestFoldStopsAtBoundaries(t *testing.T) {
	for _, tc := range []struct {
		name    string
		lines   []string
		want    []string
		input   string // default query
		flushes string
	}{
		{
			name:  "other verb",
			lines: []string{"FEED 0 1", "FEEDB 1 1 2", "PLAN", "FEED 2 1", "FEEDB 0 5"},
			want:  []string{"OK", "OK", "PLAN ((0⋈1)⋈2)", "OK", "OK"},
			input: "5", flushes: "2",
		},
		{
			name:  "other query",
			lines: []string{"FEED 0 1", "FEEDB side 0 1 2", "FEED side 1 1", "FEED 1 1"},
			want:  []string{"OK", "OK", "OK", "OK"},
			input: "2", flushes: "2",
		},
		{
			name:  "bad key",
			lines: []string{"FEED 0 1", "FEEDB 1 1 x", "FEED 1 1", "FEEDB 2 1"},
			want:  []string{"OK", `ERR bad key "x"`, "OK", "OK"},
			input: "3", flushes: "2",
		},
		{
			name:  "stream not in query",
			lines: []string{"FEED 0 1", "FEED 5 1", "FEEDB 1 1"},
			want:  []string{"OK", `ERR stream 5 not in query "default"`, "OK"},
			input: "2", flushes: "2",
		},
		{
			name:  "malformed",
			lines: []string{"FEEDB 0 1", "FEED 1", "FEED 1 1 1", "FEED 2 1"},
			want:  []string{"OK", "ERR FEED wants [query] <stream> <key>", "ERR FEED wants [query] <stream> <key>", "OK"},
			input: "2", flushes: "2",
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := newTestServer(t)
			c := pipeConn(t, s)
			if resp := c.cmd(t, "CREATE side 50 (0 1)"); resp != "OK" {
				t.Fatalf("create: %s", resp)
			}
			checkResponses(t, c.burst(t, tc.lines...), tc.want)
			stats := c.cmd(t, "STATS")
			if in, f := statField(t, stats, "input"), statField(t, stats, "batch_flushes"); in != tc.input || f != tc.flushes {
				t.Fatalf("input=%s batch_flushes=%s, want %s and %s (%s)", in, f, tc.input, tc.flushes, stats)
			}
		})
	}
}

// TestFoldCap: a fold takes at most maxCoalesce tuples; the next line
// starts a new batch.
func TestFoldCap(t *testing.T) {
	s := newTestServer(t)
	c := pipeConn(t, s)
	lines := make([]string, maxCoalesce+88)
	for i := range lines {
		lines[i] = fmt.Sprintf("FEED %d %d", i%3, i%10)
	}
	for i, resp := range c.burst(t, lines...) {
		if resp != "OK" {
			t.Fatalf("ack %d = %q", i, resp)
		}
	}
	stats := c.cmd(t, "STATS")
	if f := statField(t, stats, "batch_flushes"); f != "2" {
		t.Fatalf("batch_flushes = %s, want 2 (%s)", f, stats)
	}
}

// TestFoldCapAdmission: folding never builds a batch larger than one
// admission decision can take. With a token bucket of burst 8 and a
// negligible refill, twelve one-tuple lines fold as 8 (admitted) and 4
// (shed); one fold of 12 would exceed the burst and shed all twelve.
func TestFoldCapAdmission(t *testing.T) {
	s := admissionServer(t, admission.Config{Rate: 1e-3, Burst: 8}, 0, 0)
	c := pipeConn(t, s)
	lines := make([]string, 12)
	for i := range lines {
		lines[i] = fmt.Sprintf("FEED %d %d", i%3, i)
	}
	for i, resp := range c.burst(t, lines...) {
		if resp != "OK" {
			t.Fatalf("ack %d = %q", i, resp)
		}
	}
	stats := c.cmd(t, "STATS")
	if in, shed := statField(t, stats, "input"), statField(t, stats, "admission_shed"); in != "8" || shed != "4" {
		t.Fatalf("input=%s admission_shed=%s, want 8 and 4 (%s)", in, shed, stats)
	}
}

// TestFoldStopsAtDrainFence: the fence is checked per folded line. The
// handler is held inside the first line's parse (it needs s.mu, which
// the test holds) while the fence goes up, so that line is past the
// fence and the lines buffered behind it are not.
func TestFoldStopsAtDrainFence(t *testing.T) {
	s := newTestServer(t)
	c := pipeConn(t, s)
	s.mu.Lock()
	wrote := make(chan error, 1)
	go func() {
		_, err := c.conn.Write([]byte("FEED 0 1\nFEED 1 1\nFEEDB 2 1 2\n"))
		wrote <- err
	}()
	waitForStack(t, "server.(*Server).splitQuery")
	s.draining.Store(true)
	s.mu.Unlock()
	if err := <-wrote; err != nil {
		t.Fatal(err)
	}
	got := make([]string, 3)
	for i := range got {
		resp, err := c.r.ReadString('\n')
		if err != nil {
			t.Fatal(err)
		}
		got[i] = strings.TrimSpace(resp)
	}
	checkResponses(t, got, []string{"OK", "ERR BUSY draining", "ERR BUSY draining"})
	stats := c.cmd(t, "STATS") // reads still answer behind the fence
	if in, f := statField(t, stats, "input"), statField(t, stats, "batch_flushes"); in != "1" || f != "1" {
		t.Fatalf("input=%s batch_flushes=%s, want 1 and 1 (%s)", in, f, stats)
	}
}

// waitForStack waits until some goroutine's stack contains fn.
func waitForStack(t *testing.T, fn string) {
	t.Helper()
	buf := make([]byte, 1<<20)
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		if strings.Contains(string(buf[:goruntime.Stack(buf, true)]), fn) {
			return
		}
	}
	t.Fatalf("no goroutine reached %s", fn)
}

// TestFoldedBatchBusy: a folded batch the in-flight budget refuses
// answers ERR BUSY on every folded line, and Client.FeedBatch's retry
// then delivers every event exactly once.
func TestFoldedBatchBusy(t *testing.T) {
	noLeak(t)
	s := admissionServer(t, admission.Config{InflightBytes: 8 * 32}, 0, 0)
	adm := s.queries[DefaultQuery].adm
	// Hold one tuple's worth of the budget, so no batch of 8 fits.
	if dec, _ := adm.AdmitBatch(1, 32); dec != admission.Admit {
		t.Fatalf("reserving budget: %v", dec)
	}
	c := pipeConn(t, s)
	lines := make([]string, 8)
	want := make([]string, 8)
	for i := range lines {
		lines[i] = fmt.Sprintf("FEED %d %d", i%3, i)
		want[i] = "ERR BUSY in-flight budget…"
	}
	checkResponses(t, c.burst(t, lines...), want)
	if st := adm.Snapshot(); st.RejectedBatches != 1 || st.RejectedTuples != 8 {
		t.Fatalf("rejected %d batches, %d tuples; want 1 and 8", st.RejectedBatches, st.RejectedTuples)
	}

	// The typed client retries the BUSY'd lines until the budget frees.
	cl, err := Dial(s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	cl.RetryBusy, cl.RetryBase = 100, time.Millisecond
	evs := batchEvents(8)
	fed := make(chan error, 1)
	go func() { fed <- cl.FeedBatch(evs) }()
	for adm.Snapshot().RejectedBatches < 2 {
		time.Sleep(time.Millisecond)
	}
	adm.Release(32)
	if err := <-fed; err != nil {
		t.Fatalf("FeedBatch: %v", err)
	}
	st, err := cl.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Input != uint64(len(evs)) {
		t.Fatalf("input = %d, want %d (retries must deliver exactly once)", st.Input, len(evs))
	}
}

// TestOddWhitespace: commands with extra, tabbed or trailing white space
// parse as strings.Fields would split them. The responses are those
// the server gave before feed lines were parsed field by field.
func TestOddWhitespace(t *testing.T) {
	s := newTestServer(t)
	c := dial(t, s)
	for _, tc := range []struct{ line, want string }{
		{"CREATE  pairs\t 50   (0  1)", "OK"},
		{"FEED  0   7", "OK"},
		{"FEED 1\t7", "OK"},
		{"feed\t2 7", `ERR unknown command "feed\t2"`},
		{"FEED pairs\t0\t7", "OK"},
		{"FEEDB  pairs  1  7\t 8 ", "OK"},
		{"FEEDB \t2  7 8\t9", "OK"},
		{"FEED 0 7 8", "ERR FEED wants [query] <stream> <key>"},
		{"FEED  0 ", "ERR FEED wants [query] <stream> <key>"},
		{"FEEDB pairs  ", "ERR FEEDB wants [query] <stream> <key> [<key>...]"},
		{"FEED nosuch 0 7", "ERR FEED wants [query] <stream> <key>"},
		{"FEEDB 0 7\t x", `ERR bad key "x"`},
		{"FEEDB pairs\t2 7", `ERR stream 2 not in query "pairs"`},
		{"FEED 99  1", `ERR bad stream "99"`},
		{"STATS  pairs", "STATS input=3 output=1 …"},
		{"STATS\tpairs", `ERR unknown command "STATS\tpairs"`},
		{"STATS  ", "STATS input=5 output=1 …"},
		{"STATS nosuch", "STATS input=5 output=1 …"},
		{"MIGRATE   ((0  2)\t1)", "OK"},
		{"MIGRATE pairs\t (1 0) ", "OK"},
		{"PLAN\t", "PLAN ((0⋈2)⋈1)"},
		{"PLAN  pairs", "PLAN (1⋈0)"},
		{"MIGRATE  pairs", "ERR…"},
	} {
		checkResponses(t, []string{c.cmd(t, tc.line)}, []string{tc.want})
	}
}

// TestShardedResultLines: with several shards, workers build result
// lines concurrently from the query's one reused buffer; every line
// must arrive whole.
func TestShardedResultLines(t *testing.T) {
	s, err := New(Config{Pipeline: pipeline.Config{
		Engine: engine.Config{Plan: plan.MustLeftDeep(0, 1, 2), WindowSize: 100, Strategy: core.New()},
		Shards: 4,
	}})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	sub := dial(t, s)
	if resp := sub.cmd(t, "SUBSCRIBE"); resp != "OK" {
		t.Fatalf("subscribe: %s", resp)
	}
	c := dial(t, s)
	for st := 0; st < 3; st++ {
		var sb strings.Builder
		fmt.Fprintf(&sb, "FEEDB %d", st)
		for k := 0; k < 200; k++ {
			fmt.Fprintf(&sb, " %d", k)
		}
		if resp := c.cmd(t, sb.String()); resp != "OK" {
			t.Fatalf("feed: %s", resp)
		}
	}
	out := statUint(t, c.cmd(t, "STATS"), "output")
	if out == 0 {
		t.Fatal("no results")
	}
	line := regexp.MustCompile(`^RESULT \d+ 0#\d+\|1#\d+\|2#\d+$`)
	sub.conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	for i := uint64(0); i < out; i++ {
		l, err := sub.r.ReadString('\n')
		if err != nil {
			t.Fatalf("result %d of %d: %v", i, out, err)
		}
		if !line.MatchString(strings.TrimSuffix(l, "\n")) {
			t.Fatalf("result %d = %q", i, l)
		}
	}
}
