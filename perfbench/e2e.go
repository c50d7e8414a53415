package main

import (
	"fmt"
	"os"
	"path/filepath"
	goruntime "runtime"
	"runtime/debug"
	"sync/atomic"
	"syscall"
	"time"
)

// An end-to-end run makes closedRounds closed-loop passes over its
// events, each on a freshly built system and each split into
// closedSegments parts of equal event counts, a few tens of
// milliseconds long. The traced open-loop pass is cut into slices of
// sliceEvents events. The run reports medians over the parts, so bursts
// of noise from outside the benchmark move some parts, not the figure.
// sliceEvents is the migration period of migrate-jisc-9way, so each of
// its slices holds exactly one plan transition.
const (
	closedRounds   = 3
	closedSegments = 128
	sliceEvents    = 20000
)

// epoch is the monotonic base of every due time and latency sample.
var epoch = time.Now()

// openLoop carries the open-loop schedule of one pass: the due time of
// every event, in ns after start.
type openLoop struct {
	due   []int64
	start atomic.Int64 // ns after epoch at which the schedule starts
}

// newOpenLoop stamps every event with the due time of its batch: batch
// k is due when its last event would arrive at the workload's rate.
func newOpenLoop(in *input) *openLoop {
	o := &openLoop{due: make([]int64, len(in.events))}
	for _, b := range in.batches {
		d := int64(float64(b.to) / in.spec.rate * 1e9)
		for i := b.from; i < b.to; i++ {
			o.due[i] = d
		}
	}
	return o
}

// pass is the outcome of one pass over the run's events.
type pass struct {
	// wall runs from the first call to the end of the drain barrier.
	wall              time.Duration
	attempted, failed uint64
	firstErr          error
	// lagMax is how late the open-loop generator sent a batch at worst.
	lagMax time.Duration
	// span is the rung span of a traced pass, -1 otherwise.
	span int
	// segRates are the closed-loop tuples per second of each segment.
	segRates []float64
}

// names are the span names of one target's calls.
type names struct{ feed, migrate, barrier string }

// driveOpts selects how a pass drives a target.
type driveOpts struct {
	// open, when set, sends each batch at its due time; otherwise the
	// pass is a closed loop.
	open *openLoop
	// tr records one span per call when set, under a span for the rung.
	tr   *tracer
	rung string
	name names
	// sample runs before each open-loop send (queue-length sampling).
	sample func()
	// segments, when above 1, splits a closed loop into that many
	// segments of about equal event counts, each ended by a barrier.
	segments int
	// between, when set, runs after the barrier that ends each
	// segment, outside the segment's time.
	between func()
}

// drive feeds batches, a run of consecutive batches of the run, to t
// from the calling goroutine, applying the migration schedule, and ends
// with the drain barrier.
func drive(in *input, batches []batch, t target, o driveOpts) pass {
	p := pass{span: -1}
	if o.tr != nil {
		p.span = o.tr.begin("rung/"+o.rung, -1, -1)
	}
	call := func(name string, b int, f func() error) {
		id := -1
		if o.tr != nil {
			id = o.tr.begin(name, p.span, b)
		}
		err := f()
		if o.tr != nil {
			o.tr.end(id)
		}
		p.attempted++
		if err != nil {
			p.failed++
			if p.firstErr == nil {
				p.firstErr = fmt.Errorf("%s: %w", name, err)
			}
		}
	}
	start := time.Now()
	if o.open != nil {
		o.open.start.Store(int64(start.Sub(epoch)))
	}
	first, n := batches[0].from, batches[len(batches)-1].to-batches[0].from
	segStart, segFrom, seg := start, first, 1
	endSegment := func(to int) {
		now := time.Now()
		p.segRates = append(p.segRates, float64(to-segFrom)/now.Sub(segStart).Seconds())
		if o.between != nil {
			o.between()
			now = time.Now()
		}
		segStart, segFrom = now, to
		seg++
	}
	for _, b := range batches {
		k := b.index
		if o.open != nil {
			due := time.Duration(o.open.due[b.from])
			if wait := due - time.Since(start); wait > 0 {
				sleep(wait)
			}
			if lag := time.Since(start) - due; lag > p.lagMax {
				p.lagMax = lag
			}
			if o.sample != nil {
				o.sample()
			}
		}
		if b.mig != nil {
			call(o.name.migrate, k, func() error { return t.migrate(b.mig) })
		}
		evs := in.events[b.from:b.to]
		call(o.name.feed, k, func() error { return t.feedBatch(evs) })
		if seg < o.segments && b.to-first >= seg*n/o.segments {
			call(o.name.barrier, k, t.barrier)
			endSegment(b.to)
		}
	}
	last := batches[len(batches)-1]
	call(o.name.barrier, last.index, t.barrier)
	p.wall = time.Since(start)
	endSegment(last.to)
	if o.tr != nil {
		o.tr.end(p.span)
	}
	return p
}

// sleep blocks the calling thread in nanosleep(2). time.Sleep rounds
// short waits up to the runtime's timer granularity, about half a
// millisecond late on average for the sub-millisecond gaps between
// batches, which would add the generator's lateness to every latency
// sample.
func sleep(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
	}
}

var (
	runtimeNames = names{"runtime.FeedBatch", "runtime.Migrate", "runtime.Flush"}
	serverNames  = names{"server.Client.FeedBatch", "server.Client.Migrate", "server.Client.Stats"}
	engineNames  = names{"engine.FeedBatch", "engine.Migrate", "engine.barrier"} // the bare engine has no queue: its barrier is a no-op
)

// openSystem builds the workload's system under test: the top rung of
// its ladder.
func openSystem(in *input, dir string, s *sink) (target, names, error) {
	rungs := ladder(in.spec)
	return rungs[len(rungs)-1].open(in, dir, s)
}

// setupOnce times one set-up: from nothing until the system has
// accepted its first event.
func setupOnce(in *input, dir string) (time.Duration, error) {
	defer os.RemoveAll(dir)
	start := time.Now()
	t, _, err := openSystem(in, dir, newSink(in, nil))
	if err != nil {
		return 0, err
	}
	err = t.feedBatch(in.events[:1])
	d := time.Since(start)
	t.close()
	return d, err
}

// check fails the run unless the system produced and the benchmark
// received exactly the reference result count with no failed call.
func (r *result) check(what string, in *input, s *sink, produced uint64, p pass) {
	if got := s.n.Load(); got != in.ref || produced != in.ref {
		r.fail("%s: system produced %d and the benchmark received %d results; the reference is %d", what, produced, got, in.ref)
	}
	if bad := s.bad.Load(); bad > 0 {
		r.fail("%s: %d results name events that were never fed", what, bad)
	}
	if p.failed > 0 {
		r.fail("%s: %d of %d operations failed (first error: %v)", what, p.failed, p.attempted, p.firstErr)
	}
}

// opener builds one instance of a system under test around a sink.
type opener func(in *input, dir string, s *sink) (target, names, error)

// system is one instance of a system under test with its sink and
// private directory.
type system struct {
	t    target
	s    *sink
	name names
	dir  string
}

func newSystem(in *input, dir string, open *openLoop, o opener) (*system, error) {
	s := newSink(in, open)
	t, nm, err := o(in, dir, s)
	if err != nil {
		return nil, err
	}
	return &system{t: t, s: s, name: nm, dir: dir}, nil
}

// run drives batches through the system after a GC, so no pass starts
// with another pass's garbage.
func (sys *system) run(in *input, batches []batch, o driveOpts) pass {
	goruntime.GC()
	o.name = sys.name
	return drive(in, batches, sys.t, o)
}

// check waits for the system's last results, counts the operations of
// its passes, and checks its output count against the reference.
func (sys *system) check(r *result, in *input, what string, passes ...pass) error {
	produced, failures, err := sys.t.finish()
	if err != nil {
		return fmt.Errorf("%s: %w", what, err)
	}
	var total pass
	for _, p := range passes {
		total.attempted += p.attempted
		total.failed += p.failed
		if total.firstErr == nil {
			total.firstErr = p.firstErr
		}
	}
	total.failed += failures
	r.ops(total.attempted, total.failed)
	r.check(what, in, sys.s, produced, total)
	return nil
}

func (sys *system) close() {
	sys.t.close()
	os.RemoveAll(sys.dir)
}

// endToEnd measures the end-to-end metrics with tracing off: set-up
// time and closed-loop throughput. After each closed-loop segment, and
// outside its time, the run times one pass of the calibration kernel
// (calib.go), which rescales the segment's rate, and then one set-up,
// rescaled by the same pass; so both figures sample the whole length
// of the run. The raw wall-clock medians go to standard error.
func endToEnd(in *input, dir string) (*result, error) {
	r := newResult()
	cal := newCalibrator()
	goruntime.GC()
	debug.FreeOSMemory()
	resetPeakRSS()

	var rates, rawRates, kernelMs, setups, rawSetups []float64
	var outputs uint64
	for round := 1; round <= closedRounds; round++ {
		sys, err := newSystem(in, filepath.Join(dir, fmt.Sprintf("closed-%d", round)), nil, openSystem)
		if err != nil {
			return nil, err
		}
		var kernel []time.Duration
		var setupErr error
		between := func() {
			k := cal.run()
			kernel = append(kernel, k)
			d, err := setupOnce(in, filepath.Join(dir, fmt.Sprintf("setup-%d", len(setups))))
			if err != nil && setupErr == nil {
				setupErr = fmt.Errorf("setup: %w", err)
			}
			setups = append(setups, rescaleSeconds(d.Seconds(), k))
			rawSetups = append(rawSetups, d.Seconds())
		}
		p := sys.run(in, in.batches, driveOpts{segments: closedSegments, between: between})
		err = sys.check(r, in, fmt.Sprintf("closed loop %d", round), p)
		outputs = sys.s.n.Load()
		sys.close()
		if err == nil {
			err = setupErr
		}
		if err != nil {
			return nil, err
		}
		for i, v := range p.segRates {
			rates = append(rates, rescaleRate(v, kernel[i]))
			kernelMs = append(kernelMs, float64(kernel[i])/1e6)
		}
		rawRates = append(rawRates, p.segRates...)
	}
	fmt.Fprintf(os.Stderr, "perfbench: raw wall-clock tuples_per_sec %.6g, setup_s %.6g; calibration kernel median %.4g ms, reference %.4g ms\n",
		median(rawRates), median(rawSetups), median(kernelMs), float64(calibRef)/1e6)

	r.set("setup_s", median(setups))
	r.set("tuples_per_sec", median(rates))
	r.set("outputs", float64(outputs))
	r.set("ok_ops_frac", 1-ratio(float64(r.failed), float64(r.attempted)))
	r.set("peak_rss_mb", peakRSSMB())
	return r, nil
}
