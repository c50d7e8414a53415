// Command perfbench is the repository benchmark: one command, three
// workloads, every end-to-end metric printed by name and unit, and the
// output count checked against a single-threaded reference on every
// run. See README.md for the metrics and how each is measured.
//
//	perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// --trace 0 measures the end-to-end metrics with tracing off; --trace 1
// replays the same events up the workload's ladder of entry points and
// prints the per-layer metrics. The last line of standard output is one
// JSON object: {"correct", "attempted", "failed", "metrics"}.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime/debug"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload name")
	seed := fs.Int64("seed", 1, "workload seed: the same seed gives the same events")
	seconds := fs.Int("seconds", 10, "measured seconds per run; sets the event count")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: traced per-layer run")
	workdir := fs.String("workdir", ".bench_build", "directory for WAL, spill and span files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := specByName(*name)
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q\n", *name)
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be ≥ 1 and --trace 0 or 1")
		return 2
	}
	pinRuntime()

	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: work dir: %v\n", err)
		return 1
	}
	dir, err := os.MkdirTemp(*workdir, "run-")
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: work dir: %v\n", err)
		return 1
	}
	defer os.RemoveAll(dir)

	in, err := newInput(w, *seed, w.events(*seconds))
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	var res *result
	if *trace == 1 {
		spans := filepath.Join(*workdir, "spans", fmt.Sprintf("%s-seed%d.csv", w.name, *seed))
		res, err = traced(in, dir, spans)
	} else {
		res, err = endToEnd(in, dir)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	for _, p := range res.problems {
		fmt.Fprintf(stderr, "perfbench: %s: %s\n", w.name, p)
	}
	if err := res.print(stdout); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	return 0
}

// pinRuntime fixes the Go runtime settings an environment variable
// could otherwise change between two runs: GOGC and GOMEMLIMIT. (The
// workloads also pin StateBudget explicitly, so GOMEMLIMIT could not
// turn spilling on either way.)
func pinRuntime() {
	debug.SetGCPercent(100)
	debug.SetMemoryLimit(math.MaxInt64)
}

// result is one run's outcome: the correctness verdict, the operation
// counts, and the metrics.
type result struct {
	correct   bool
	attempted uint64
	failed    uint64
	metrics   map[string]metric
	// problems explains every correctness failure, one line each.
	problems []string
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func newResult() *result {
	return &result{correct: true, metrics: make(map[string]metric)}
}

// units maps every declared metric to its unit.
var units = func() map[string]string {
	m := make(map[string]string)
	for _, d := range append(append([]decl(nil), endToEndMetrics...), perLayerMetrics...) {
		m[d.name] = d.unit
	}
	return m
}()

// set records a declared metric; a non-finite value (a ratio over
// nothing) is reported as 0 so the JSON stays valid.
func (r *result) set(name string, v float64) {
	unit, ok := units[name]
	if !ok {
		panic("perfbench: undeclared metric " + name)
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	r.metrics[name] = metric{Value: v, Unit: unit}
}

// fail marks the run incorrect with a reason.
func (r *result) fail(format string, args ...any) {
	r.correct = false
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// ops adds operation counts from one phase.
func (r *result) ops(attempted, failed uint64) {
	r.attempted += attempted
	r.failed += failed
}

func (r *result) print(w io.Writer) error {
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted uint64            `json:"attempted"`
		Failed    uint64            `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.correct, r.attempted, r.failed, r.metrics}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}
