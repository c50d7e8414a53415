package main

import (
	"path/filepath"
	"sync/atomic"
	"time"

	"jisc/internal/admission"
	"jisc/internal/engine"
	"jisc/internal/plan"
	"jisc/internal/runtime"
	"jisc/internal/server"
	"jisc/internal/workload"
)

// sink receives the results of one system instance. In an open-loop
// pass every result adds one latency sample: the time it reached the
// benchmark minus the due time of its newest constituent. lat[i] holds
// the samples whose newest constituent is among events
// [i*sliceEvents, (i+1)*sliceEvents).
type sink struct {
	in   *input
	open *openLoop // nil in a closed loop
	lat  [][]int64
	n    atomic.Uint64
	// bad counts results whose provenance named no event of the run.
	bad atomic.Uint64
}

func newSink(in *input, open *openLoop) *sink {
	s := &sink{in: in, open: open}
	if open != nil {
		s.lat = make([][]int64, (len(in.events)+sliceEvents-1)/sliceEvents)
		for i := range s.lat {
			s.lat[i] = make([]int64, 0, sliceEvents)
		}
	}
	return s
}

// result records one result whose newest constituent arrived at tick.
func (s *sink) result(tick uint64) {
	if s.open != nil {
		i := int(tick-1) / sliceEvents
		s.lat[i] = append(s.lat[i], int64(time.Since(epoch))-s.open.start.Load()-s.open.due[tick-1])
	}
	s.n.Add(1)
}

// latency returns the median over the slices of each slice's
// q-quantile latency in ms, and the sample count.
func (s *sink) latency(q float64) (ms float64, samples int) {
	per := make([]float64, 0, len(s.lat))
	for _, l := range s.lat {
		samples += len(l)
		if len(l) > 0 {
			per = append(per, float64(quantile(l, q))/1e6)
		}
	}
	return median(per), samples
}

// output is the engine.Output of in-process systems; it runs on the
// engine's goroutine.
func (s *sink) output(d engine.Delta) {
	if !d.Retraction {
		s.result(d.Tuple.Arrival)
	}
}

// target is one instance of the system under test as the feeding
// goroutine sees it.
type target interface {
	feedBatch(evs []workload.Event) error
	migrate(p *plan.Plan) error
	// barrier returns once every event fed before it is processed.
	barrier() error
	// finish waits for results still in flight to the benchmark and
	// returns the results the system reports having produced and the
	// failures it counted (sheds, rejects, dropped subscribers).
	finish() (produced, failures uint64, err error)
	close()
}

// engineTarget is the bare engine: FeedBatch processes the batch on the
// calling goroutine.
type engineTarget struct{ eng *engine.Engine }

// openEngine builds the workload's engine; a nil strategy means JISC.
func openEngine(in *input, dir string, s *sink, strategy engine.Strategy) (*engineTarget, error) {
	cfg := in.engineConfig(filepath.Join(dir, "spill"), s.output)
	if strategy != nil {
		cfg.Strategy = strategy
	}
	eng, err := engine.New(cfg)
	if err != nil {
		return nil, err
	}
	return &engineTarget{eng: eng}, nil
}

func (t *engineTarget) feedBatch(evs []workload.Event) error { t.eng.FeedBatch(evs); return nil }
func (t *engineTarget) migrate(p *plan.Plan) error           { return t.eng.Migrate(p) }
func (t *engineTarget) barrier() error                       { return nil }
func (t *engineTarget) finish() (uint64, uint64, error)      { return t.eng.Metrics().Output, 0, nil }
func (t *engineTarget) close()                               { t.eng.Close() }

// runtimeTarget is an in-process runtime.Runtime with one shard,
// optionally behind admission and a WAL.
type runtimeTarget struct {
	rt  *runtime.Runtime
	adm *admission.Controller
}

func openRuntime(in *input, dir string, s *sink, withAdmission, withWAL bool) (*runtimeTarget, error) {
	cfg := runtime.Config{
		Engine: in.engineConfig(filepath.Join(dir, "spill"), s.output),
		Shards: 1,
	}
	t := &runtimeTarget{}
	if withAdmission {
		adm, err := admission.New(admissionConfig())
		if err != nil {
			return nil, err
		}
		t.adm = adm
		cfg.Admission = adm
	}
	if withWAL {
		cfg.Durability = walOptions(filepath.Join(dir, "wal"))
	}
	rt, err := runtime.New(cfg)
	if err != nil {
		return nil, err
	}
	t.rt = rt
	return t, nil
}

func (t *runtimeTarget) feedBatch(evs []workload.Event) error { return t.rt.FeedBatch(evs) }
func (t *runtimeTarget) migrate(p *plan.Plan) error           { return t.rt.Migrate(p) }
func (t *runtimeTarget) barrier() error                       { return t.rt.Flush() }
func (t *runtimeTarget) close()                               { t.rt.Close() }

func (t *runtimeTarget) finish() (uint64, uint64, error) {
	m, err := t.rt.Metrics()
	if err != nil {
		return 0, 0, err
	}
	a := t.adm.Snapshot()
	return m.Output, t.rt.Shed() + a.ShedTuples + a.RejectedTuples + a.DeadlineShedTuples, nil
}

// tcpTarget is a jiscd-equivalent server on a loopback port, fed by one
// client connection and watched by one subscriber connection.
type tcpTarget struct {
	srv    *server.Server
	feeder *server.Client
	sub    *server.Client
	sink   *sink
	done   chan struct{}
	stats  server.Stats
}

func openTCP(in *input, dir string, s *sink) (*tcpTarget, error) {
	srv, err := server.New(server.Config{
		Pipeline: runtime.Config{
			Engine: in.engineConfig(filepath.Join(dir, "spill"), nil),
			Shards: 1,
		},
		SubscriberBuffer: subscriberBuffer,
		Durable:          walOptions(filepath.Join(dir, "wal")),
		Admission:        admissionConfig(),
	})
	if err != nil {
		return nil, err
	}
	t := &tcpTarget{srv: srv, sink: s, done: make(chan struct{})}
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		srv.Close()
		return nil, err
	}
	addr := srv.Addr().String()
	if t.feeder, err = server.Dial(addr); err != nil {
		srv.Close()
		return nil, err
	}
	if t.sub, err = server.Dial(addr); err != nil {
		t.feeder.Close()
		srv.Close()
		return nil, err
	}
	results, err := t.sub.Subscribe()
	if err != nil {
		t.sub.Close()
		t.feeder.Close()
		srv.Close()
		return nil, err
	}
	go func() {
		defer close(t.done)
		for r := range results {
			if r.Retraction {
				continue
			}
			tick, ok := in.latestTick(r.Fingerprint)
			if !ok {
				s.bad.Add(1)
				continue
			}
			s.result(tick)
		}
	}()
	return t, nil
}

func (t *tcpTarget) feedBatch(evs []workload.Event) error { return t.feeder.FeedBatch(evs) }
func (t *tcpTarget) migrate(p *plan.Plan) error           { return t.feeder.Migrate(p) }

// barrier is a STATS round trip: the server reads its counters in-band
// after every previously enqueued batch.
func (t *tcpTarget) barrier() error {
	st, err := t.feeder.Stats()
	t.stats = st
	return err
}

// finish waits until the subscriber has received every result the last
// barrier counted, then closes the subscriber so the sink is final.
func (t *tcpTarget) finish() (uint64, uint64, error) {
	want := t.stats.Output
	deadline := time.Now().Add(30 * time.Second)
	for t.sink.n.Load()+t.sink.bad.Load() < want && time.Now().Before(deadline) {
		select {
		case <-t.done:
			deadline = time.Now() // subscriber gone: nothing more will arrive
		case <-time.After(200 * time.Microsecond):
		}
	}
	t.sub.Close()
	<-t.done
	st := t.stats
	return want, st.Shed + st.AdmissionShed + st.DeadlineShed + st.Rejected + st.SubsDropped, nil
}

func (t *tcpTarget) close() {
	t.feeder.Close()
	t.sub.Close()
	t.srv.Close()
	<-t.done
}
