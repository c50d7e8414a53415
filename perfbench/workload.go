package main

import (
	"fmt"
	"time"

	"jisc/internal/admission"
	"jisc/internal/core"
	"jisc/internal/durable"
	"jisc/internal/engine"
	"jisc/internal/plan"
	"jisc/internal/tuple"
	"jisc/internal/workload"
)

// batchSize is the number of events one feed call carries, on every
// workload and in both phases.
const batchSize = 64

// openShare is the part of --seconds the traced open-loop pass lasts at
// the workload's fixed rate; it sets the run's event count. One
// closed-loop pass over the same events takes about a third as long,
// because each rate is about a third of the closed-loop throughput, so
// the closedRounds passes of an end-to-end run take about as long.
const openShare = 0.8

// spec is one workload. Every setting the environment could change is
// pinned here; README.md gives the reason for each.
type spec struct {
	name    string
	streams int
	window  int
	domain  int64
	// rate is the open-loop input rate in tuples per second, about a
	// third of the closed-loop throughput on a 2-core x86-64 VM; see
	// README.md for why a third and not a half.
	rate float64
	// migrateEvery, when positive, applies the Fig. 8 worst-case swap
	// (streams 1 and 8 exchange) every that many tuples, alternating
	// back and forth.
	migrateEvery int
	// budget is engine.Config.StateBudget: -1 pins spilling off (0
	// would let an ambient GOMEMLIMIT turn it on), a positive value is
	// the resident state budget in bytes.
	budget int64
	// tcp runs the system as a jiscd-equivalent server with WAL and
	// admission, driven through server.Client.
	tcp bool
}

var specs = []spec{
	{name: "ingest-tcp-wal", streams: 3, window: 1000, domain: 1000, rate: 100000, budget: -1, tcp: true},
	{name: "migrate-jisc-9way", streams: 9, window: 1000, domain: 1000, rate: 110000, migrateEvery: 20000, budget: -1},
	{name: "spill-half-budget", streams: 3, window: 1000, domain: 1000, rate: 16000, budget: 225000},
}

func specByName(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// events returns the run's event count for a --seconds value.
func (s spec) events(seconds int) int {
	return int(s.rate * float64(seconds) * openShare)
}

// Settings of the ingest-tcp-wal system. The admission limits are far
// above any rate a 2-core box reaches, so the admission path runs on
// every batch and never sheds or rejects.
const (
	admissionRate     = 1e9
	admissionInflight = 1 << 30
	// subscriberBuffer is the server's per-subscriber line buffer: at
	// the closed-loop rate the subscriber can fall this many result
	// lines behind before the server drops it.
	subscriberBuffer = 1 << 18
	// walFlushInterval is the FsyncBatch group-commit window (the
	// durable package default, pinned).
	walFlushInterval = 2 * time.Millisecond
)

func admissionConfig() admission.Config {
	return admission.Config{Rate: admissionRate, InflightBytes: admissionInflight}
}

// walOptions pins the WAL: group-commit fsync, and no background
// checkpoints, which would land at random points in a run.
func walOptions(dir string) durable.Options {
	return durable.Options{
		Dir:                dir,
		Fsync:              durable.FsyncBatch,
		FlushInterval:      walFlushInterval,
		CheckpointInterval: -1,
	}
}

// batch is events[from:to] of the run; mig, when set, is applied by a
// Migrate call just before the batch is fed.
type batch struct {
	index    int
	from, to int
	mig      *plan.Plan
}

// input is one run's pre-generated event sequence and everything
// derived from it before the system under test sees an event.
type input struct {
	spec    spec
	events  []workload.Event
	batches []batch
	initial *plan.Plan
	// pos[s][q-1] is the global index of the q-th event on stream s:
	// refs are stream#seq with per-stream seqs assigned by arrival
	// order on the single shard.
	pos [][]int32
	// ref is the reference output count of a bare single-threaded
	// engine on a static plan with unbounded state.
	ref uint64
}

func newInput(s spec, seed int64, n int) (*input, error) {
	if n < batchSize {
		n = batchSize
	}
	src, err := workload.NewSource(workload.Config{Streams: s.streams, Domain: s.domain, Seed: seed})
	if err != nil {
		return nil, err
	}
	order := make([]tuple.StreamID, s.streams)
	for i := range order {
		order[i] = tuple.StreamID(i)
	}
	in := &input{spec: s, events: src.Take(n), initial: plan.MustLeftDeep(order...)}
	plans := [2]*plan.Plan{in.initial, in.initial}
	if s.migrateEvery > 0 {
		if plans[1], err = in.initial.Swap(1, s.streams-1); err != nil {
			return nil, err
		}
	}
	migrations := 0
	for from := 0; from < n; {
		to := min(from+batchSize, n)
		b := batch{index: len(in.batches), from: from}
		if e := s.migrateEvery; e > 0 {
			to = min(to, (from/e+1)*e)
			if from > 0 && from%e == 0 {
				migrations++
				b.mig = plans[migrations%2]
			}
		}
		b.to = to
		in.batches = append(in.batches, b)
		from = to
	}
	in.pos = make([][]int32, s.streams)
	for i, ev := range in.events {
		in.pos[ev.Stream] = append(in.pos[ev.Stream], int32(i))
	}
	in.ref, err = in.reference()
	return in, err
}

// reference counts the results of a bare single-threaded engine on the
// same events: a static plan (JISC's result set is plan-independent)
// and unbounded state.
func (in *input) reference() (uint64, error) {
	eng, err := engine.New(engine.Config{Plan: in.initial, WindowSize: in.spec.window})
	if err != nil {
		return 0, fmt.Errorf("reference engine: %w", err)
	}
	defer eng.Close()
	for _, b := range in.batches {
		eng.FeedBatch(in.events[b.from:b.to])
	}
	return eng.Metrics().Output, nil
}

// engineConfig is the workload's engine configuration; spillDir is used
// only when the workload has a state budget.
func (in *input) engineConfig(spillDir string, out engine.Output) engine.Config {
	cfg := engine.Config{
		Plan:        in.initial,
		WindowSize:  in.spec.window,
		Strategy:    core.New(),
		StateBudget: in.spec.budget,
		Output:      out,
	}
	if in.spec.budget > 0 {
		cfg.SpillDir = spillDir
	}
	return cfg
}

// latestTick maps a result fingerprint ("0#12|1#5|2#7") to the 1-based
// arrival tick of its newest constituent, the event whose due time
// starts the latency clock.
func (in *input) latestTick(fp string) (uint64, bool) {
	best := int32(-1)
	for i := 0; i < len(fp); {
		stream, seq := 0, 0
		for ; i < len(fp) && fp[i] != '#'; i++ {
			if fp[i] < '0' || fp[i] > '9' {
				return 0, false
			}
			stream = stream*10 + int(fp[i]-'0')
		}
		i++ // '#'
		for ; i < len(fp) && fp[i] != '|'; i++ {
			if fp[i] < '0' || fp[i] > '9' {
				return 0, false
			}
			seq = seq*10 + int(fp[i]-'0')
		}
		i++ // '|'
		if stream >= len(in.pos) || seq < 1 || seq > len(in.pos[stream]) {
			return 0, false
		}
		if p := in.pos[stream][seq-1]; p > best {
			best = p
		}
	}
	return uint64(best) + 1, best >= 0
}
