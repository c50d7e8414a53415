package server

import (
	"bufio"
	"fmt"
	"net"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"jisc/internal/core"
	"jisc/internal/engine"
	"jisc/internal/pipeline"
	"jisc/internal/plan"
)

// FuzzServerCommand throws arbitrary bytes at the full line protocol.
// The contract under fuzz: the server never panics (a panic in a
// handler fails the in-process test), never leaks a goroutine past
// Close, and always resyncs — after any garbage, a fresh connection
// gets a well-formed answer to a well-formed command.
//
// CHECKPOINT is the one verb with a filesystem side effect, so fuzzed
// checkpoint lines have their path argument confined to the test's
// temp directory before they reach the wire.
func FuzzServerCommand(f *testing.F) {
	// Seed corpus: every protocol shape the README demonstrates, plus
	// framing edge cases the parser must survive.
	for _, seed := range []string{
		"FEED 0 7\nFEED 1 7\nFEED 2 7\nMIGRATE ((0 2) 1)\nSTATS\n",
		"FEEDB 0 7 8 9\nFEEDB 1 7 8 9\nFEEDB 2 7 8 9\nSTATS\n",
		"AUTO STATUS\nPLAN\n",
		"AUTO ON\nAUTO OFF\n",
		"CREATE pairs 50 (0 1)\nFEED pairs 0 3\nFEED pairs 1 3\nSTATS pairs\nDROP pairs\nLIST\n",
		"SUBSCRIBE\nFEED 0 5\nFEED 1 5\nFEED 2 5\n",
		"CHECKPOINT /tmp/x.ckpt\n",
		"QUIT\n",
		"STATS\nPLAN\nLIST\n",
		"MIGRATE 2,0,1\nPLAN\n",
		"",
		"\n\n\n",
		"FEED\nFEED x\nFEED 0 x\nFEED 99 1\nBOGUS\n",
		"FEEDB 0\nFEEDB\nMIGRATE (((\n",
		"CREATE q 0 0,1\nCREATE 50 (0 1)\nDROP nosuch\n",
		"\x00\x01\x02\nFEED 0 1\n",
		strings.Repeat("A", 2000) + "\nSTATS\n",
		"FEED 0 1 trailing garbage here\nSUBSCRIBE nosuchquery\n",
	} {
		f.Add([]byte(seed))
	}

	ckptDir := f.TempDir()
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<14 {
			t.Skip("oversized input")
		}
		base := runtime.NumGoroutine()
		s, err := New(Config{Pipeline: pipeline.Config{Engine: engine.Config{
			Plan:       plan.MustLeftDeep(0, 1, 2),
			WindowSize: 32,
			Strategy:   core.New(),
		}}})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Listen("127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
		defer s.Close()

		conn, err := net.Dial("tcp", s.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		conn.SetDeadline(time.Now().Add(10 * time.Second))

		// Drain whatever the server says in the background so its
		// writer never blocks on a full socket.
		go func() {
			r := bufio.NewReader(conn)
			for {
				if _, err := r.ReadString('\n'); err != nil {
					return
				}
			}
		}()

		for _, line := range strings.SplitAfter(string(data), "\n") {
			if line == "" {
				continue
			}
			out := confineCheckpoint(line, ckptDir)
			if !strings.HasSuffix(out, "\n") {
				out += "\n" // an unterminated tail would just sit in the server's buffer
			}
			if _, err := conn.Write([]byte(out)); err != nil {
				break // server closed us (QUIT, oversized line): legal
			}
		}
		conn.Close()

		// Resync proof: a fresh connection speaks the protocol cleanly,
		// whatever the garbage did.
		probe, err := net.Dial("tcp", s.Addr().String())
		if err != nil {
			t.Fatalf("server stopped accepting after fuzz input %q: %v", data, err)
		}
		defer probe.Close()
		probe.SetDeadline(time.Now().Add(10 * time.Second))
		if _, err := probe.Write([]byte("PLAN\n")); err != nil {
			t.Fatalf("probe write: %v", err)
		}
		resp, err := bufio.NewReader(probe).ReadString('\n')
		if err != nil {
			t.Fatalf("no response to PLAN after fuzz input %q: %v", data, err)
		}
		if !strings.HasPrefix(resp, "PLAN ") {
			t.Fatalf("PLAN answered %q after fuzz input %q", resp, data)
		}
		// Goroutine hygiene: after Close every handler, subscriber
		// pump, and worker must unwind — a per-iteration leak would
		// compound across the fuzz run and OOM it anyway, so fail
		// fast and name the stacks.
		s.Close()
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > base {
			if time.Now().After(deadline) {
				buf := make([]byte, 1<<20)
				t.Fatalf("goroutine leak after input %q: %d live, baseline %d\n%s",
					data, runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
			}
			time.Sleep(5 * time.Millisecond)
		}
	})
}

// confineCheckpoint rewrites any line whose verb is CHECKPOINT so its
// path argument lands inside dir — fuzzed inputs must not write
// outside the test sandbox.
func confineCheckpoint(line, dir string) string {
	fields := strings.Fields(line)
	if len(fields) == 0 || !strings.EqualFold(fields[0], "CHECKPOINT") {
		return line
	}
	return "CHECKPOINT " + filepath.Join(dir, "fuzz.ckpt") + "\n"
}

// FuzzIngestCoalescing is the differential oracle for folding. The
// fuzz input decodes to a burst of FEED, FEEDB and other lines, which
// go to two fresh servers: to one in a single write, so its feed lines
// fold, and to the other one line per round trip, so none can. Both
// must answer the same responses in the same order and end with the
// same STATS input and output on both queries.
func FuzzIngestCoalescing(f *testing.F) {
	for _, seed := range []string{
		"\x00\x01\x02\x00\x11\x03\x00\x22\x04",
		"\x01\x20\x01\x02\x03\x04\x01\x41\x05\x06\x07\x01\x82\x01\x02\x03",
		"\x00\x01\x01\x05\x00\x00\x00\x02\x01\x02\x03\x00\x01\x07\x01",
		"\x02\x00\x01\x03\x21\x02\x03\x04\x01\x00\x06\x00\x02\x03\x04\x01\x03",
		"\x07\x01\x00\x01\x01\x07\x02\x00\x02\x02\x04\x01\x03\x04\x02\x05",
		"",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		lines := ingestBurst(data)
		if len(lines) == 0 {
			return
		}
		folded, foldedStats := runIngest(t, lines, true)
		single, singleStats := runIngest(t, lines, false)
		for i := range lines {
			if folded[i] != single[i] {
				t.Fatalf("line %d %q: folded %q, unfolded %q\nburst %q", i, lines[i], folded[i], single[i], lines)
			}
		}
		for i, st := range foldedStats {
			for _, k := range []string{"input", "output"} {
				if a, b := statField(t, st, k), statField(t, singleStats[i], k); a != b {
					t.Fatalf("query %d %s: folded %s, unfolded %s\nburst %q", i, k, a, b, lines)
				}
			}
		}
	})
}

// ingestBurst decodes fuzz bytes into protocol lines: mostly well-formed
// and malformed feeds for the default query (streams 0-2) and for
// "side" (streams 0-1), with some of other verbs between them.
func ingestBurst(data []byte) []string {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	var lines []string
	for len(data) > 0 && len(lines) < 256 {
		op, arg := next(), next()
		verb := [...]string{"FEED", "FEEDB", "feed", "Feedb"}[arg>>6]
		target := ""
		if op&8 != 0 {
			target = " side"
		}
		stream := arg & 3 // 3 is in neither query, 2 not in side
		switch op & 7 {
		case 0, 1, 2:
			line := fmt.Sprintf("%s%s %d %d", verb, target, stream, next()&7)
			for n := (arg >> 2) & 15; strings.EqualFold(verb, "FEEDB") && n > 0; n-- {
				line += fmt.Sprintf(" %d", next()&7)
			}
			lines = append(lines, line)
		case 3:
			lines = append(lines, fmt.Sprintf("%s%s  %d\t%d ", verb, target, stream, next()&7))
		case 4:
			lines = append(lines, [...]string{"FEED 0", "FEEDB 1 x", "FEED 0 1 2", "FEEDB"}[arg&3])
		case 5:
			lines = append(lines, "PLAN"+target)
		case 6:
			lines = append(lines, [...]string{"MIGRATE ((0 2) 1)", "MIGRATE ((1 2) 0)", "MIGRATE side (1 0)", "MIGRATE side (0 1)"}[arg&3])
		case 7:
			lines = append(lines, "BOGUS")
		}
	}
	return lines
}

// runIngest sends lines to a fresh server, in one write when folded and
// one round trip per line otherwise, and returns the responses and the
// final STATS lines of the default and side queries.
func runIngest(t *testing.T, lines []string, folded bool) ([]string, []string) {
	s, err := New(Config{Pipeline: pipeline.Config{Engine: engine.Config{
		Plan:       plan.MustLeftDeep(0, 1, 2),
		WindowSize: 16,
		Strategy:   core.New(),
	}}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.create("side", 8, plan.MustLeftDeep(0, 1)); err != nil {
		t.Fatal(err)
	}
	c := pipeConn(t, s)
	c.conn.SetDeadline(time.Now().Add(10 * time.Second))
	var resps []string
	if folded {
		resps = c.burst(t, lines...)
	} else {
		for _, l := range lines {
			resps = append(resps, c.cmd(t, l))
		}
	}
	return resps, []string{c.cmd(t, "STATS"), c.cmd(t, "STATS side")}
}
