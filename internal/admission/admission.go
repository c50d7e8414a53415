// Package admission is the overload-robustness layer in front of the
// ingest path: per-connection caps, a token-bucket rate limiter, and a
// bounded in-flight byte budget, combined into one Controller whose
// answer to "may this batch enter?" degrades in a fixed, documented
// order instead of letting load grow unbounded:
//
//  1. queue — within the rate and the in-flight budget, a batch is
//     admitted and queued normally (backpressure, the default);
//  2. shed — a batch arriving faster than the configured ingest rate
//     is dropped whole, every tuple counted (Stats.ShedTuples), and
//     the producer sees a normal acknowledgement: shed tuples simply
//     never existed, exactly like the runtime's queue-overflow Shed
//     policy;
//  3. reject — a batch that would push the in-flight bytes past the
//     budget (the queue is backed up and memory is at its limit) is
//     refused with a retriable BUSY error; the producer backs off and
//     retries instead of the server OOMing or blocking forever.
//
// Admitted batches can also carry a deadline (Config.FeedDeadline):
// the worker that dequeues a batch whose deadline has already passed
// drops it counted (Stats.DeadlineShedTuples) rather than processing
// it late — late results are worth nothing to a streaming consumer,
// and processing them anyway is how overload snowballs.
//
// Every limit is optional; the zero Config admits everything. The
// clock is injectable (Config.Now), so the simulation harness drives
// admission decisions with a logical clock and gets bit-for-bit
// deterministic shed/reject schedules.
package admission

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// ErrBusy is the sentinel all reject-path errors match via errors.Is.
// Its message is the bare protocol token: the server renders rejects
// as "ERR BUSY <reason>" and clients detect the prefix to retry with
// backoff.
var ErrBusy = errors.New("BUSY")

// busyError carries a reject reason while matching ErrBusy.
type busyError struct{ reason string }

func (e *busyError) Error() string        { return "BUSY " + e.reason }
func (e *busyError) Is(target error) bool { return target == ErrBusy }

// Busy returns a retriable reject error: "BUSY <reason>", matching
// ErrBusy under errors.Is.
func Busy(reason string) error { return &busyError{reason: reason} }

// Decision is the admission verdict for one batch.
type Decision int

const (
	// Admit lets the batch through: its bytes are reserved against the
	// in-flight budget and the caller must arrange a matching Release
	// once the batch has been processed (or dropped downstream).
	Admit Decision = iota
	// Shed drops the batch at the door: the tuples are discarded and
	// counted, the producer is acknowledged as if they were consumed.
	Shed
	// Reject refuses the batch with a retriable BUSY error; nothing is
	// reserved and nothing must be released.
	Reject
)

func (d Decision) String() string {
	switch d {
	case Admit:
		return "admit"
	case Shed:
		return "shed"
	case Reject:
		return "reject"
	}
	return fmt.Sprintf("Decision(%d)", int(d))
}

// Config parameterizes a Controller. Every zero field disables its
// limit; the zero Config admits everything (Enabled reports false).
type Config struct {
	// MaxConns caps concurrent client connections (AcquireConn); 0 is
	// unlimited. The connection gate lives on the same controller so
	// one Stats snapshot covers the whole degradation ladder.
	MaxConns int
	// Rate is the sustained ingest admission rate in tuples per
	// second; 0 is unlimited. Arrivals beyond the rate are shed whole
	// batches at a time, counted per tuple.
	Rate float64
	// Burst is the token-bucket capacity in tuples (how far above Rate
	// a short burst may go). 0 defaults to max(1, Rate): one second of
	// sustained rate.
	Burst float64
	// InflightBytes bounds the admitted-but-unprocessed bytes; 0 is
	// unlimited. A batch that would exceed it is rejected BUSY. The
	// budget is strict — a single batch larger than the whole budget
	// is unadmittable and the producer must split it.
	InflightBytes int64
	// FeedDeadline, when > 0, stamps every admitted batch with
	// now+FeedDeadline; a worker dequeuing the batch after that point
	// sheds it counted instead of processing it late. Incompatible
	// with durability: a logged batch must be replayable, and a
	// deadline drop at dequeue would diverge from replay.
	FeedDeadline time.Duration
	// Now supplies the clock (default time.Now). The simulation
	// harness injects a logical clock here.
	Now func() time.Time
}

// Enabled reports whether any admission limit is configured.
func (c Config) Enabled() bool {
	return c.MaxConns > 0 || c.Rate > 0 || c.InflightBytes > 0 || c.FeedDeadline > 0
}

// Stats is an atomic snapshot of the controller's accounting. The
// conservation law the chaos suite and the overload smoke test assert:
// every offered tuple ends up in exactly one of engine input,
// ShedTuples, DeadlineShedTuples, RejectedTuples, or the runtime's
// queue-overflow shed counter.
type Stats struct {
	// ShedTuples counts tuples dropped by the rate limiter (ladder
	// step 2); the producer saw a normal acknowledgement.
	ShedTuples uint64
	// RejectedTuples and RejectedBatches count the BUSY rejections of
	// ladder step 3 (budget exhausted or draining), per tuple and per
	// batch.
	RejectedTuples, RejectedBatches uint64
	// DeadlineShedTuples counts admitted tuples dropped at dequeue
	// because their deadline had passed.
	DeadlineShedTuples uint64
	// ConnRejected counts connections refused by the MaxConns gate.
	ConnRejected uint64
	// InflightBytes and Conns are the current gauges.
	InflightBytes int64
	Conns         int64
	// Draining reports the drain fence: every new batch is rejected
	// BUSY while the server empties its queues.
	Draining bool
}

// Controller combines the connection gate, the rate limiter, and the
// in-flight budget behind one admission decision. All methods are safe
// for concurrent use; a nil *Controller admits everything (every
// method is nil-tolerant), so call sites need no guards.
type Controller struct {
	cfg    Config
	bucket *TokenBucket
	budget *Budget

	draining atomic.Bool

	conns        atomic.Int64
	connRejected atomic.Uint64

	shed         atomic.Uint64
	rejTuples    atomic.Uint64
	rejBatches   atomic.Uint64
	deadlineShed atomic.Uint64
}

// New builds a Controller from cfg.
func New(cfg Config) (*Controller, error) {
	if cfg.MaxConns < 0 || cfg.Rate < 0 || cfg.Burst < 0 || cfg.InflightBytes < 0 || cfg.FeedDeadline < 0 {
		return nil, fmt.Errorf("admission: negative limit in config")
	}
	c := &Controller{cfg: cfg}
	if cfg.Now == nil {
		c.cfg.Now = time.Now
	}
	if cfg.Rate > 0 {
		burst := cfg.Burst
		if burst == 0 {
			burst = cfg.Rate
			if burst < 1 {
				burst = 1
			}
		}
		c.bucket = NewTokenBucket(cfg.Rate, burst, c.cfg.Now())
	}
	if cfg.InflightBytes > 0 {
		c.budget = NewBudget(cfg.InflightBytes)
	}
	return c, nil
}

// MustNew is New but panics on error.
func MustNew(cfg Config) *Controller {
	c, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return c
}

// Now returns the controller's clock reading (the injectable clock, so
// deadline checks and token refills share one time source). Safe on a
// nil controller (falls back to time.Now).
func (c *Controller) Now() time.Time {
	if c == nil || c.cfg.Now == nil {
		return time.Now()
	}
	return c.cfg.Now()
}

// AdmitBatch runs the degradation ladder for one batch of `tuples`
// tuples costing `bytes` of in-flight memory. It returns the decision
// and, for Admit, the deadline (unix nanos, 0 = none) the batch must
// be dequeued by. On Admit the bytes are reserved; the caller must
// Release them exactly once after the batch is processed or dropped.
// Shed and Reject reserve nothing. A nil controller admits everything.
func (c *Controller) AdmitBatch(tuples int, bytes int64) (Decision, int64) {
	if c == nil {
		return Admit, 0
	}
	if c.draining.Load() {
		c.rejTuples.Add(uint64(tuples))
		c.rejBatches.Add(1)
		return Reject, 0
	}
	now := c.cfg.Now()
	// Rate before budget: traffic beyond the configured rate is shed
	// cheaply at the door, consuming no budget; only rate-admitted
	// traffic competes for in-flight memory.
	if c.bucket != nil && !c.bucket.Take(float64(tuples), now) {
		c.shed.Add(uint64(tuples))
		return Shed, 0
	}
	if c.budget != nil && !c.budget.TryAcquire(bytes) {
		c.rejTuples.Add(uint64(tuples))
		c.rejBatches.Add(1)
		return Reject, 0
	}
	var deadline int64
	if c.cfg.FeedDeadline > 0 {
		deadline = now.Add(c.cfg.FeedDeadline).UnixNano()
	}
	return Admit, deadline
}

// Release returns bytes reserved by an Admit decision to the budget.
// Nil-tolerant; a no-op without a budget.
func (c *Controller) Release(bytes int64) {
	if c == nil || c.budget == nil {
		return
	}
	c.budget.Release(bytes)
}

// DeadlineExpired reports whether an admitted batch's deadline (unix
// nanos from AdmitBatch) has passed. 0 never expires.
func (c *Controller) DeadlineExpired(deadlineNS int64) bool {
	if c == nil || deadlineNS == 0 {
		return false
	}
	return c.cfg.Now().UnixNano() > deadlineNS
}

// CountDeadlineShed records `tuples` admitted tuples dropped at
// dequeue because their deadline had passed. (Their budget bytes are
// returned by the usual Release.)
func (c *Controller) CountDeadlineShed(tuples int) {
	if c == nil {
		return
	}
	c.deadlineShed.Add(uint64(tuples))
}

// FeedDeadline returns the configured per-batch deadline (0 = none).
func (c *Controller) FeedDeadline() time.Duration {
	if c == nil {
		return 0
	}
	return c.cfg.FeedDeadline
}

// AcquireConn claims a connection slot; false means the MaxConns gate
// refused (counted). Callers that got true must ReleaseConn exactly
// once. A nil controller (or MaxConns 0) always admits.
func (c *Controller) AcquireConn() bool {
	if c == nil {
		return true
	}
	n := c.conns.Add(1)
	if c.cfg.MaxConns > 0 && n > int64(c.cfg.MaxConns) {
		c.conns.Add(-1)
		c.connRejected.Add(1)
		return false
	}
	return true
}

// ReleaseConn returns a connection slot claimed by AcquireConn.
func (c *Controller) ReleaseConn() {
	if c == nil {
		return
	}
	c.conns.Add(-1)
}

// StartDrain flips the drain fence: from now on every AdmitBatch
// rejects BUSY, so in-flight work can empty without new work racing
// in. Irreversible by design — draining ends in process exit.
func (c *Controller) StartDrain() {
	if c == nil {
		return
	}
	c.draining.Store(true)
}

// Draining reports whether the drain fence is up.
func (c *Controller) Draining() bool { return c != nil && c.draining.Load() }

// Inflight returns the currently reserved in-flight bytes (0 without
// a budget).
func (c *Controller) Inflight() int64 {
	if c == nil || c.budget == nil {
		return 0
	}
	return c.budget.Inflight()
}

// MaxBatch returns the most tuples, each costing bytesPerTuple, that
// one AdmitBatch call can ever admit: the token bucket's burst and the
// whole in-flight budget each cap a single decision. It is limit when
// neither is configured or c is nil, and never more than limit.
func (c *Controller) MaxBatch(bytesPerTuple int64, limit int) int {
	if c == nil {
		return limit
	}
	if c.bucket != nil && c.bucket.burst < float64(limit) {
		limit = int(c.bucket.burst)
	}
	if c.budget != nil && bytesPerTuple > 0 && c.budget.limit/bytesPerTuple < int64(limit) {
		limit = int(c.budget.limit / bytesPerTuple)
	}
	return limit
}

// Snapshot returns the controller's accounting. Zero for a nil
// controller.
func (c *Controller) Snapshot() Stats {
	if c == nil {
		return Stats{}
	}
	return Stats{
		ShedTuples:         c.shed.Load(),
		RejectedTuples:     c.rejTuples.Load(),
		RejectedBatches:    c.rejBatches.Load(),
		DeadlineShedTuples: c.deadlineShed.Load(),
		ConnRejected:       c.connRejected.Load(),
		InflightBytes:      c.Inflight(),
		Conns:              c.conns.Load(),
		Draining:           c.draining.Load(),
	}
}

// TokenBucket is a mutex-protected token bucket: capacity `burst`
// tokens, refilled at `rate` tokens per second of observed clock time.
// Refill happens on every Take call (successful or not), computed as
// rate × elapsed seconds since the previous call — so with a fixed
// logical clock step the token trajectory is a pure function of the
// call sequence, which the simulation harness's independent model
// reproduces bit for bit.
type TokenBucket struct {
	mu     sync.Mutex
	rate   float64
	burst  float64
	tokens float64
	last   int64 // unix nanos of the previous observation
}

// NewTokenBucket builds a bucket that starts full at `now`.
func NewTokenBucket(rate, burst float64, now time.Time) *TokenBucket {
	return &TokenBucket{rate: rate, burst: burst, tokens: burst, last: now.UnixNano()}
}

// Take refills for the elapsed time and then consumes n tokens if at
// least n are available, all-or-nothing. A non-monotonic clock reading
// (now before the previous observation) refills nothing.
func (b *TokenBucket) Take(n float64, now time.Time) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	// The watermark only moves forward: a backwards clock reading must
	// neither mint tokens now nor set up a spurious refill when the
	// clock recovers.
	ns := now.UnixNano()
	if elapsed := ns - b.last; elapsed > 0 {
		b.tokens += float64(elapsed) / 1e9 * b.rate
		if b.tokens > b.burst {
			b.tokens = b.burst
		}
		b.last = ns
	}
	if b.tokens < n {
		return false
	}
	b.tokens -= n
	return true
}

// Tokens returns the level as of the last observation (no refill).
func (b *TokenBucket) Tokens() float64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.tokens
}

// Budget is a strict bounded counter for in-flight bytes: TryAcquire
// reserves all-or-nothing and never lets the total exceed the limit;
// Release returns a reservation. Lock-free (CAS loop), so the hot
// ingest path pays two atomics per batch.
type Budget struct {
	limit int64
	cur   atomic.Int64
}

// NewBudget builds a budget of `limit` bytes.
func NewBudget(limit int64) *Budget { return &Budget{limit: limit} }

// TryAcquire reserves n bytes if the total stays within the limit;
// all-or-nothing. Acquiring n ≤ 0 succeeds trivially (reserving 0).
func (b *Budget) TryAcquire(n int64) bool {
	if n <= 0 {
		return true
	}
	for {
		cur := b.cur.Load()
		if cur+n > b.limit {
			return false
		}
		if b.cur.CompareAndSwap(cur, cur+n) {
			return true
		}
	}
}

// Release returns n bytes. Releasing more than is reserved clamps at
// zero rather than going negative (a paired-call bug elsewhere must
// not turn the budget into an admit-everything hole).
func (b *Budget) Release(n int64) {
	if n <= 0 {
		return
	}
	if cur := b.cur.Add(-n); cur < 0 {
		// Re-add the undershoot. Benign race: concurrent acquirers saw
		// a smaller total for a moment, which only under-admits.
		b.cur.Add(-cur)
	}
}

// Inflight returns the reserved total.
func (b *Budget) Inflight() int64 { return b.cur.Load() }

// Limit returns the configured bound.
func (b *Budget) Limit() int64 { return b.limit }
