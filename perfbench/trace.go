package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	goruntime "runtime"
	"time"

	"jisc/internal/admission"
	"jisc/internal/durable"
	"jisc/internal/engine"
	"jisc/internal/migrate"
	"jisc/internal/runtime"
)

// span is one traced call: spans of one batch share its index, and
// each call's parent is the span of the rung that made it.
type span struct {
	name          string
	parent, batch int
	start, end    int64 // ns after epoch
}

// tracer keeps spans in memory until the run ends.
type tracer struct{ spans []span }

func (t *tracer) begin(name string, parent, batch int) int {
	t.spans = append(t.spans, span{name: name, parent: parent, batch: batch, start: int64(time.Since(epoch))})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) { t.spans[id].end = int64(time.Since(epoch)) }

// durations returns the durations in ns of the spans called name under
// the rung span parent.
func (t *tracer) durations(parent int, name string) []int64 {
	var out []int64
	for _, s := range t.spans {
		if s.parent == parent && s.name == name {
			out = append(out, s.end-s.start)
		}
	}
	return out
}

// write stores the spans as CSV: id,parent,batch,name,start_ns,end_ns.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "id,parent,batch,name,start_ns,end_ns")
	for i, s := range t.spans {
		fmt.Fprintf(w, "%d,%d,%d,%s,%d,%d\n", i, s.parent, s.batch, s.name, s.start, s.end)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// rung is one entry point of a workload's ladder; each rung adds one
// layer on top of the rung below.
type rung struct {
	name string
	open opener
}

func engineRung(in *input, dir string, s *sink) (target, names, error) {
	t, err := openEngine(in, dir, s, nil)
	return t, engineNames, err
}

func runtimeRung(withAdmission, withWAL bool) opener {
	return func(in *input, dir string, s *sink) (target, names, error) {
		t, err := openRuntime(in, dir, s, withAdmission, withWAL)
		return t, runtimeNames, err
	}
}

func serverRung(in *input, dir string, s *sink) (target, names, error) {
	t, err := openTCP(in, dir, s)
	return t, serverNames, err
}

// ladder lists the workload's rungs from the bare engine upwards; the
// last rung is the system the end-to-end run measures.
func ladder(s spec) []rung {
	rungs := []rung{{"engine", engineRung}, {"runtime", runtimeRung(false, false)}}
	if s.tcp {
		rungs = append(rungs,
			rung{"admission", runtimeRung(true, false)},
			rung{"durable", runtimeRung(true, true)},
			rung{"server", serverRung})
	}
	return rungs
}

// traced replays the run's events up the workload's ladder with one
// span per call and prints the per-layer metrics. Every rung's output
// count is checked against the reference.
func traced(in *input, dir, spansPath string) (*result, error) {
	r := newResult()
	for _, d := range perLayerMetrics {
		r.set(d.name, 0) // layers off the workload's ladder report 0
	}
	n := float64(len(in.events))
	tr := &tracer{}
	busy := make(map[string]float64) // rung → wall ns per tuple
	var top pass
	rungs := ladder(in.spec)
	for i, rg := range rungs {
		sys, err := newSystem(in, filepath.Join(dir, "rung-"+rg.name), nil, rg.open)
		if err != nil {
			return nil, fmt.Errorf("rung %s: %w", rg.name, err)
		}
		var m0, m1 goruntime.MemStats
		goruntime.ReadMemStats(&m0)
		p := sys.run(in, in.batches, driveOpts{tr: tr, rung: rg.name})
		goruntime.ReadMemStats(&m1)
		err = sys.check(r, in, "rung "+rg.name, p)
		if err == nil {
			err = layerMetrics(r, in, tr, rg.name, sys.t, p, m1.Mallocs-m0.Mallocs, m1.TotalAlloc-m0.TotalAlloc)
		}
		sys.close()
		if err != nil {
			return nil, fmt.Errorf("rung %s: %w", rg.name, err)
		}
		busy[rg.name] = float64(p.wall.Nanoseconds()) / n
		if i > 0 {
			r.set(rg.name+".self_ns_per_tuple", busy[rg.name]-busy[rungs[i-1].name])
		}
		top = p
	}
	r.set("engine.ns_per_tuple", busy["engine"])

	if err := queueAndLag(r, in, dir, tr); err != nil {
		return nil, err
	}
	if in.spec.tcp {
		if err := directCalls(r, in, dir, tr); err != nil {
			return nil, err
		}
	}
	if in.spec.migrateEvery > 0 {
		if err := baselines(r, in, dir, busy["engine"]); err != nil {
			return nil, err
		}
	}

	// Tracing overhead: the top rung again on a fresh system, untraced.
	last := rungs[len(rungs)-1]
	sys, err := newSystem(in, filepath.Join(dir, "untraced"), nil, last.open)
	if err != nil {
		return nil, fmt.Errorf("untraced %s: %w", last.name, err)
	}
	p := sys.run(in, in.batches, driveOpts{})
	err = sys.check(r, in, "untraced "+last.name, p)
	sys.close()
	if err != nil {
		return nil, err
	}
	traced, untraced := n/top.wall.Seconds(), n/p.wall.Seconds()
	r.set("trace.traced_tuples_per_sec", traced)
	r.set("trace.untraced_tuples_per_sec", untraced)
	r.set("trace.traced_over_untraced", ratio(traced, untraced))

	if err := tr.write(spansPath); err != nil {
		return nil, fmt.Errorf("writing spans: %w", err)
	}
	return r, nil
}

// layerMetrics reads the counters of the layer a rung adds, after its
// closed-loop pass.
func layerMetrics(r *result, in *input, tr *tracer, rung string, t target, p pass, mallocs, allocBytes uint64) error {
	n := float64(len(in.events))
	switch rung {
	case "engine":
		m := t.(*engineTarget).eng.Metrics()
		r.set("engine.probes_per_tuple", float64(m.Probes)/n)
		r.set("engine.inserts_per_tuple", float64(m.Inserts)/n)
		r.set("engine.evictions_per_tuple", float64(m.Evictions)/n)
		r.set("engine.allocs_per_tuple", float64(mallocs)/n)
		r.set("engine.alloc_bytes_per_tuple", float64(allocBytes)/n)
		r.set("core.completions", float64(m.Completions))
		r.set("core.completed_entries", float64(m.CompletedEntries))
		r.set("core.entries_per_completion", ratio(float64(m.CompletedEntries), float64(m.Completions)))
		r.set("core.transitions", float64(m.Transitions))
	case "runtime":
		rt := t.(*runtimeTarget).rt
		if flush := tr.durations(p.span, runtimeNames.barrier); len(flush) == 1 {
			r.set("runtime.flush_ms", float64(flush[0])/1e6)
		}
		b, err := rt.StateBytes()
		if err != nil {
			return err
		}
		r.set("state.bytes", float64(b))
		m, err := rt.Metrics()
		if err != nil {
			return err
		}
		st, _ := rt.SpillStats() // zero counters when spilling is off
		r.set("statestore.faults_per_tuple", float64(st.Faults)/n)
		r.set("statestore.fault_tuples", float64(st.FaultTuples))
		r.set("statestore.hit_ratio", 1-ratio(float64(st.Faults), float64(m.Probes)))
		r.set("statestore.spills", float64(st.Spills))
		r.set("statestore.segment_bytes", float64(st.SegmentBytes))
		r.set("statestore.garbage_ratio", ratio(float64(st.GarbageBytes), float64(st.SegmentBytes)))
		r.set("statestore.compactions", float64(st.Compactions))
	case "admission":
		a := t.(*runtimeTarget).adm.Snapshot()
		r.set("admission.shed", float64(a.ShedTuples))
		r.set("admission.rejected", float64(a.RejectedTuples))
	case "durable":
		ds := t.(*runtimeTarget).rt.DurableStats()
		r.set("durable.append_bytes_per_tuple", float64(ds.AppendBytes)/n)
		r.set("durable.fsyncs", float64(ds.Fsyncs))
	case "server":
		st := t.(*tcpTarget).stats
		bursts := tr.durations(p.span, serverNames.feed)
		r.set("server.feedb_burst_us_p50", float64(quantile(bursts, 0.50))/1e3)
		r.set("server.feedb_burst_us_p99", float64(quantile(bursts, 0.99))/1e3)
		r.set("server.batch_fill_p50", float64(st.BatchFillP50))
		r.set("server.batch_flushes", float64(st.BatchFlushes))
		r.set("server.subs_dropped", float64(st.SubsDropped))
		r.set("admission.shed", r.metrics["admission.shed"].Value+float64(st.AdmissionShed))
		r.set("admission.rejected", r.metrics["admission.rejected"].Value+float64(st.Rejected))
	}
	return nil
}

// queueAndLag runs one traced open-loop pass at the workload's rate on
// the top in-process runtime rung (with admission and WAL on the TCP
// workload), sampling the runner queue before every send. FeedBatch and
// Migrate calls are timed here, where the queue holds no closed-loop
// backlog for them to wait behind.
func queueAndLag(r *result, in *input, dir string, tr *tracer) error {
	sys, err := newSystem(in, filepath.Join(dir, "open"), newOpenLoop(in), runtimeRung(in.spec.tcp, in.spec.tcp))
	if err != nil {
		return fmt.Errorf("open loop: %w", err)
	}
	defer sys.close()
	rt := sys.t.(*runtimeTarget).rt
	var lens []int64
	p := sys.run(in, in.batches, driveOpts{open: sys.s.open, tr: tr, rung: "runtime-open-loop",
		sample: func() { lens = append(lens, int64(rt.QueueLen())) }})
	if err := sys.check(r, in, "open loop", p); err != nil {
		return err
	}
	r.set("runtime.queue_len_p50", float64(quantile(lens, 0.50)))
	r.set("runtime.queue_len_max", float64(quantile(lens, 1)))
	r.set("gen.lag_ms_max", float64(p.lagMax)/1e6)
	p50, samples := sys.s.latency(0.50)
	p90, _ := sys.s.latency(0.90)
	p99, _ := sys.s.latency(0.99)
	r.set("runtime.result_latency_p50_ms", p50)
	r.set("runtime.result_latency_samples", float64(samples))
	r.set("runtime.result_latency_p90_ms", p90)
	r.set("runtime.result_latency_p99_ms", p99)
	feeds := tr.durations(p.span, runtimeNames.feed)
	r.set("runtime.feedbatch_us_p50", float64(quantile(feeds, 0.50))/1e3)
	r.set("runtime.feedbatch_us_p99", float64(quantile(feeds, 0.99))/1e3)
	migs := tr.durations(p.span, runtimeNames.migrate)
	r.set("runtime.migrate_call_ms_p50", float64(quantile(migs, 0.50))/1e6)
	r.set("runtime.migrate_call_ms_max", float64(quantile(migs, 1))/1e6)
	return nil
}

// syncEvery is how many direct WAL appends go between two timed Sync
// calls: about 1k tuples.
const syncEvery = 16

// directCalls times admission and the WAL by calling them directly on
// the workload's batches: AdmitBatch + Release on a controller with the
// workload's limits, and AppendFeedBatch (plus a Sync every syncEvery
// appends) on a fresh log with the workload's options.
func directCalls(r *result, in *input, dir string, tr *tracer) error {
	adm, err := admission.New(admissionConfig())
	if err != nil {
		return err
	}
	parent := tr.begin("rung/admission-direct", -1, -1)
	for k, b := range in.batches {
		cost := int64(b.to-b.from) * runtime.EventBytes
		id := tr.begin("admission.AdmitBatch+Release", parent, k)
		if d, _ := adm.AdmitBatch(b.to-b.from, cost); d == admission.Admit {
			adm.Release(cost)
		}
		tr.end(id)
	}
	tr.end(parent)
	r.set("admission.admit_ns_p50", float64(quantile(tr.durations(parent, "admission.AdmitBatch+Release"), 0.50)))

	wdir := filepath.Join(dir, "wal-direct")
	defer os.RemoveAll(wdir)
	rec, err := durable.RecoverShard(walOptions(wdir), 0, engine.Config{Plan: in.initial, WindowSize: in.spec.window}, nil, nil)
	if err != nil {
		return fmt.Errorf("opening WAL: %w", err)
	}
	rec.Engine.Close() // only the log is exercised here
	log := rec.Log
	parent = tr.begin("rung/durable-direct", -1, -1)
	for k, b := range in.batches {
		id := tr.begin("durable.AppendFeedBatch", parent, k)
		_, err := log.AppendFeedBatch(in.events[b.from:b.to])
		tr.end(id)
		if err != nil {
			log.Close()
			return fmt.Errorf("WAL append: %w", err)
		}
		if (k+1)%syncEvery == 0 {
			id := tr.begin("durable.Sync", parent, k)
			err := log.Sync()
			tr.end(id)
			if err != nil {
				log.Close()
				return fmt.Errorf("WAL sync: %w", err)
			}
		}
	}
	tr.end(parent)
	if err := log.Close(); err != nil {
		return fmt.Errorf("closing WAL: %w", err)
	}
	appends := tr.durations(parent, "durable.AppendFeedBatch")
	r.set("durable.append_us_p50", float64(quantile(appends, 0.50))/1e3)
	r.set("durable.append_us_p99", float64(quantile(appends, 0.99))/1e3)
	r.set("durable.sync_us_p50", float64(quantile(tr.durations(parent, "durable.Sync"), 0.50))/1e3)
	return nil
}

// baselines replays the run's events and migration schedule on the
// paper's two baselines, Moving State (eager, on the engine) and
// Parallel Track, and reports their throughput against the bare JISC
// engine rung's. Both must produce the reference result count.
func baselines(r *result, in *input, dir string, jiscNsPerTuple float64) error {
	n := float64(len(in.events))
	movingState := func(in *input, dir string, s *sink) (target, names, error) {
		t, err := openEngine(in, dir, s, migrate.MovingState{})
		return t, engineNames, err
	}
	sys, err := newSystem(in, filepath.Join(dir, "moving-state"), nil, movingState)
	if err != nil {
		return fmt.Errorf("moving state: %w", err)
	}
	p := sys.run(in, in.batches, driveOpts{})
	err = sys.check(r, in, "moving state", p)
	sys.close()
	if err != nil {
		return err
	}
	msTPS := n / p.wall.Seconds()

	var ptOut uint64
	pt, err := migrate.NewParallelTrack(migrate.PTConfig{
		Plan: in.initial, WindowSize: in.spec.window,
		Output: func(d engine.Delta) {
			if !d.Retraction {
				ptOut++
			}
		},
	})
	if err != nil {
		return fmt.Errorf("parallel track: %w", err)
	}
	goruntime.GC()
	start := time.Now()
	var attempted, failed uint64
	for _, b := range in.batches {
		if b.mig != nil {
			attempted++
			if err := pt.Migrate(b.mig); err != nil {
				failed++
			}
		}
		for _, ev := range in.events[b.from:b.to] {
			pt.Feed(ev)
		}
		attempted++
	}
	ptTPS := n / time.Since(start).Seconds()
	r.ops(attempted, failed)
	if ptOut != in.ref || failed > 0 {
		r.fail("parallel track: %d results, %d failed migrations; the reference is %d", ptOut, failed, in.ref)
	}

	jiscTPS := 1e9 / jiscNsPerTuple
	r.set("migrate.jisc_tuples_per_sec", jiscTPS)
	r.set("migrate.moving_state_tuples_per_sec", msTPS)
	r.set("migrate.parallel_track_tuples_per_sec", ptTPS)
	r.set("migrate.jisc_over_moving_state", ratio(jiscTPS, msTPS))
	r.set("migrate.jisc_over_parallel_track", ratio(jiscTPS, ptTPS))
	return nil
}
