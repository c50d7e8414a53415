package server

import (
	"bytes"
	"fmt"
	"io"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"

	"jisc/internal/admission"
	"jisc/internal/durable"
	"jisc/internal/engine"
	"jisc/internal/obs"
	"jisc/internal/pipeline"
	"jisc/internal/runtime"
	"jisc/internal/tuple"
)

// query is one named continuous query hosted by the server: a sharded
// runtime plus its subscriber set and observability bundle.
type query struct {
	name   string
	runner *runtime.Runtime
	// adm is the query's admission controller (rate limit, in-flight
	// budget, feed deadline, drain fence), nil when the server runs
	// without admission limits. The runtime shares the same pointer;
	// STATS and /metrics read its counters here.
	adm *admission.Controller
	// obs carries the query's latency histograms (one recorder per
	// shard) and migration-lifecycle tracer; the telemetry endpoint
	// and the STATS command read it.
	obs *obs.Set
	// subsDropped counts subscribers disconnected for falling behind
	// (buffer full). Exposed via STATS and /metrics — a silent drop
	// looks identical to a quiet query from the consumer side, so the
	// server must account for it.
	subsDropped atomic.Uint64
	// streamMask has bit i set when stream i participates in the plan.
	// The network boundary checks feeds against it: the engine treats
	// an unknown stream as programmer error and panics, which a remote
	// byte sequence must never be able to reach (MaxStreams is 64, so
	// one word covers every legal id).
	streamMask uint64
	// foldMax caps how many tuples pipelined FEED/FEEDB lines fold into
	// one batch: maxCoalesce, or fewer when one admission decision can
	// never take that many, so folding never turns lines that are
	// admittable one at a time into a batch that never is.
	foldMax int

	mu      sync.Mutex
	subs    map[int]chan string
	nextSub int
	bufSize int
	// line is broadcast's reused buffer for building result lines.
	line []byte
}

func newQuery(name string, cfg pipeline.Config, bufSize int, admCfg admission.Config) (*query, error) {
	q := &query{name: name, subs: make(map[int]chan string), bufSize: bufSize}
	if cfg.Engine.Plan != nil {
		for _, id := range cfg.Engine.Plan.Streams.Streams() {
			q.streamMask |= 1 << id
		}
	}
	q.obs = obs.NewSet(name, 0)
	cfg.Obs = q.obs
	cfg.Engine.Output = q.broadcast
	// Each query gets its own controller from the server template:
	// rate, budget, and deadline are per query (queries don't share a
	// bucket), while the connection cap stays server-wide and is
	// stripped here.
	admCfg.MaxConns = 0
	if admCfg.Enabled() {
		ctrl, err := admission.New(admCfg)
		if err != nil {
			return nil, err
		}
		q.adm = ctrl
		cfg.Admission = ctrl
	}
	q.foldMax = max(q.adm.MaxBatch(runtime.EventBytes, maxCoalesce), 1)
	if cfg.Engine.SpillDir != "" {
		// The flag-level spill dir is shared by every hosted query;
		// each query's runtime wipes its directory on open, so they
		// must not collide.
		cfg.Engine.SpillDir = filepath.Join(cfg.Engine.SpillDir, name)
	}
	r, err := runtime.New(cfg)
	if err != nil {
		return nil, err
	}
	q.runner = r
	return q, nil
}

// broadcast fans one result out to the query's subscribers; it runs on
// the query's worker goroutine and must not block, so stalled
// subscribers are dropped — counted and traced, never silently.
func (q *query) broadcast(d engine.Delta) {
	q.mu.Lock()
	if len(q.subs) == 0 {
		q.mu.Unlock()
		return
	}
	b := q.line[:0]
	if d.Retraction {
		b = append(b, "RETRACT "...)
	} else {
		b = append(b, "RESULT "...)
	}
	b = strconv.AppendInt(b, int64(d.Tuple.Key), 10)
	b = append(b, ' ')
	b = d.Tuple.AppendFingerprint(b)
	q.line = b
	line := string(b)
	for id, ch := range q.subs {
		select {
		case ch <- line:
		default:
			close(ch)
			delete(q.subs, id)
			q.subsDropped.Add(1)
			q.obs.Tracer.Emit(obs.Event{
				Kind: obs.EvSubscriberDropped, Query: q.name,
				Key:  int64(id),
				Note: fmt.Sprintf("subscriber %d fell %d lines behind; disconnected", id, q.bufSize),
			})
		}
	}
	q.mu.Unlock()
}

// dropped returns the number of subscribers disconnected for falling
// behind.
func (q *query) dropped() uint64 { return q.subsDropped.Load() }

// hasStream reports whether stream id participates in this query's
// plan; feeds for any other stream are protocol errors.
func (q *query) hasStream(id tuple.StreamID) bool {
	return q.streamMask&(1<<id) != 0
}

func (q *query) subscribe() (int, chan string) {
	q.mu.Lock()
	defer q.mu.Unlock()
	id := q.nextSub
	q.nextSub++
	ch := make(chan string, q.bufSize)
	q.subs[id] = ch
	return id, ch
}

func (q *query) unsubscribe(id int) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if ch, ok := q.subs[id]; ok {
		close(ch)
		delete(q.subs, id)
	}
}

func (q *query) subscribers() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.subs)
}

// checkpoint writes the query's state to path. A single-shard query
// produces one file; a sharded one produces path.0 … path.N-1, one
// consistent snapshot per shard (shards never exchange state, so
// per-shard files restore independently). Each file is a validated
// snapshot envelope (magic, version, CRC) written atomically via temp
// file + rename + directory fsync: a crash mid-CHECKPOINT never leaves
// a torn file under the requested name, and a load of a corrupt file
// fails with a clear error instead of undefined engine state.
func (q *query) checkpoint(path string) error {
	writeOne := func(p string, ckpt func(w io.Writer) error) error {
		var buf bytes.Buffer
		if err := ckpt(&buf); err != nil {
			return err
		}
		return durable.WriteSnapshotFile(durable.OS(), p, buf.Bytes())
	}
	if q.runner.Shards() == 1 {
		return writeOne(path, q.runner.Checkpoint)
	}
	for i := 0; i < q.runner.Shards(); i++ {
		i := i
		if err := writeOne(fmt.Sprintf("%s.%d", path, i), func(w io.Writer) error {
			return q.runner.CheckpointShard(i, w)
		}); err != nil {
			return err
		}
	}
	return nil
}

func (q *query) close() {
	q.runner.Close()
	q.mu.Lock()
	for id, ch := range q.subs {
		close(ch)
		delete(q.subs, id)
	}
	q.mu.Unlock()
}

// DefaultQuery is the name implicit commands address.
const DefaultQuery = "default"
