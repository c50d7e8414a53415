package statestore

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"path/filepath"
	"slices"
	"sort"
	"sync/atomic"
	"time"

	"jisc/internal/obs"
	"jisc/internal/state"
	"jisc/internal/storage"
	"jisc/internal/tuple"
)

// Options configures one Store (one per engine shard).
type Options struct {
	// Budget is the resident-byte budget (TupleBytes accounting) the
	// store governs. Zero or negative means unbounded: accounting runs
	// but nothing ever spills.
	Budget int64
	// Dir is the segment directory. It is wiped on Open — spill
	// segments are a residency cache, not durable state; crash
	// recovery rebuilds state from the WAL and checkpoints, re-spilling
	// as the budget demands.
	Dir string
	// FS is the filesystem; nil means the real one.
	FS storage.FS
	// SegmentBytes rotates the active segment once it reaches this
	// size. Zero means DefaultSegmentBytes.
	SegmentBytes int64
	// GarbageRatio triggers compaction when garbage exceeds this
	// fraction of total encoded bytes. Zero means DefaultGarbageRatio.
	GarbageRatio float64
	// MinCompactBytes suppresses compaction below this total encoded
	// size, so tiny stores do not churn. Zero means
	// DefaultMinCompactBytes.
	MinCompactBytes int64
	// FaultLatency, when non-nil, records the wall-clock latency of
	// every bucket fault.
	FaultLatency *obs.Histogram
}

// Tuning defaults.
const (
	DefaultSegmentBytes    = 1 << 20
	DefaultGarbageRatio    = 0.5
	DefaultMinCompactBytes = 64 << 10
)

// ckey names one bucket: which table, which join-attribute value.
type ckey struct {
	t   *state.Table
	key tuple.Value
}

// Handle bounds: the active segment's read-write handle is always
// open; sealed segments share an LRU of at most maxSealedHandles read
// handles, reopened on demand. A running compaction holds one more, its
// output. Faults favour recently spilled segments: on spill-half-budget
// with 16 KiB segments (about 16 live), 8 handles serve all but 0.1%
// of sealed-segment faults, 4 miss 7%.
const maxSealedHandles = 8

// segment is one log-structured spill file, spill-%016x.seg. Only the
// newest (active) segment accepts appends; older ones are sealed
// (read-only) until compaction rewrites the live set and deletes them.
type segment struct {
	id   uint64
	path string
	// f is the open handle, nil while closed: the active segment's
	// read-write file, which stays open, or a sealed segment's read
	// handle while it sits in the store's LRU.
	f readHandle
	// w is f as a writer while the segment accepts appends; nil once
	// sealed.
	w    storage.File
	size int64
}

// readHandle is what reads need of an open segment file; both the
// active segment's storage.File and a reopened storage.Reader have it.
type readHandle interface {
	io.ReaderAt
	io.Closer
}

// bucketEntry locates one spilled bucket: a contiguous run of frames
// in one segment, plus the tombstone high-water mark and the live
// accounting needed to decide compaction.
type bucketEntry struct {
	seg *segment
	off int64
	n   int64 // encoded bytes of the bucket's frames

	// liveEnc/perEnc track how much of n is still live as tombstones
	// land — perEnc is the per-tuple share fixed at spill time.
	liveEnc int64
	perEnc  int64
	// memBytes/perMem are the same accounting in resident-equivalent
	// (TupleBytes) units, for the spilled-bytes statistic.
	memBytes int64
	perMem   int64

	// count is the number of live tuples; deadThrough is the tombstone
	// mark — single-ref tuples with Seq ≤ deadThrough are dead and are
	// filtered out on fault, peek, and compaction.
	count       int
	deadThrough uint64
}

// Store is the spill backend for one shard's tables. It is confined to
// the shard's goroutine like the tables themselves; only Stats may be
// called concurrently (every counter it reads is atomic).
//
// Spill writes, faults, and compaction all run synchronously on the
// shard worker, so when the disk cannot keep up the shard's input
// queue fills and the existing Block/Shed backpressure of the batch
// path takes over — the system slows or sheds instead of OOMing.
type Store struct {
	budget     int64
	dir        string
	fs         storage.FS
	segBytes   int64
	garbage    float64
	minCompact int64
	faultLat   *obs.Histogram

	index  map[*state.Table]map[tuple.Value]*bucketEntry
	segs   map[uint64]*segment
	active *segment
	next   uint64
	// lru holds the sealed segments whose read handle is open, least
	// recently read first.
	lru []*segment

	// ring/hand/inRing implement CLOCK over resident buckets. Stale
	// entries (buckets evicted or spilled since admission) are removed
	// lazily as the hand meets them.
	ring   []ckey
	hand   int
	inRing map[ckey]struct{}

	// compactBroken latches after a failed compaction so a sick disk
	// is not hammered with a rewrite attempt per tombstone; the store
	// keeps running fail-open (garbage just accumulates).
	compactBroken bool

	buf  []byte // reusable frame-encoding buffer
	rbuf []byte // reusable read buffer for faults and compaction

	resident       atomic.Int64
	peak           atomic.Int64
	spilledMem     atomic.Int64
	spilledBuckets atomic.Int64
	encTotal       atomic.Int64
	encLive        atomic.Int64
	nsegs          atomic.Int64
	spills         atomic.Uint64
	faults         atomic.Uint64
	faultTuples    atomic.Uint64
	tombstones     atomic.Uint64
	compactions    atomic.Uint64
	spillErrors    atomic.Uint64
}

// Open creates a Store over a freshly wiped Dir.
func Open(opts Options) (*Store, error) {
	if opts.Dir == "" {
		return nil, errors.New("statestore: Options.Dir is required")
	}
	fs := opts.FS
	if fs == nil {
		fs = storage.OS()
	}
	if opts.SegmentBytes <= 0 {
		opts.SegmentBytes = DefaultSegmentBytes
	}
	if opts.GarbageRatio <= 0 {
		opts.GarbageRatio = DefaultGarbageRatio
	}
	if opts.MinCompactBytes <= 0 {
		opts.MinCompactBytes = DefaultMinCompactBytes
	}
	if err := fs.RemoveAll(opts.Dir); err != nil {
		return nil, fmt.Errorf("statestore: wiping %s: %w", opts.Dir, err)
	}
	if err := fs.MkdirAll(opts.Dir); err != nil {
		return nil, fmt.Errorf("statestore: creating %s: %w", opts.Dir, err)
	}
	s := &Store{
		budget:     opts.Budget,
		dir:        opts.Dir,
		fs:         fs,
		segBytes:   opts.SegmentBytes,
		garbage:    opts.GarbageRatio,
		minCompact: opts.MinCompactBytes,
		faultLat:   opts.FaultLatency,
		index:      make(map[*state.Table]map[tuple.Value]*bucketEntry),
		segs:       make(map[uint64]*segment),
		inRing:     make(map[ckey]struct{}),
	}
	if err := s.rotate(); err != nil {
		return nil, err
	}
	return s, nil
}

// Close releases the store, deleting its segment directory (the
// contents are a cache; nothing durable lives here).
func (s *Store) Close() error {
	for _, sg := range s.segs {
		closeSegment(sg)
	}
	return s.fs.RemoveAll(s.dir)
}

// closeSegment closes sg's handle, if open. Segments are a cache, so
// a close error loses nothing.
func closeSegment(sg *segment) {
	if sg.f != nil {
		sg.f.Close()
	}
	sg.f, sg.w = nil, nil
}

func (s *Store) segPath(id uint64) string {
	return filepath.Join(s.dir, fmt.Sprintf("spill-%016x.seg", id))
}

// rotate seals the active segment, moving its handle into the LRU,
// and opens a fresh one.
func (s *Store) rotate() error {
	if s.active != nil && s.active.w != nil {
		s.evictSealed()
		s.active.w = nil
		s.lru = append(s.lru, s.active)
	}
	id := s.next
	s.next++
	seg := &segment{id: id, path: s.segPath(id)}
	w, err := s.fs.Create(seg.path)
	if err != nil {
		return fmt.Errorf("statestore: creating segment %s: %w", seg.path, err)
	}
	seg.f, seg.w = w, w
	s.segs[id] = seg
	s.active = seg
	s.nsegs.Store(int64(len(s.segs)))
	return nil
}

// Account implements state.Backend: the single resident-byte counter
// every attached table and list feeds.
func (s *Store) Account(delta int64) {
	r := s.resident.Add(delta)
	for {
		p := s.peak.Load()
		if r <= p || s.peak.CompareAndSwap(p, r) {
			return
		}
	}
}

// Admit implements state.Backend: register a resident bucket with the
// CLOCK ring. Re-admission of a bucket already in the ring is a no-op
// (its reference bit, held by the table, was just set anyway).
func (s *Store) Admit(t *state.Table, key tuple.Value) {
	ck := ckey{t, key}
	if _, ok := s.inRing[ck]; ok {
		return
	}
	s.inRing[ck] = struct{}{}
	s.ring = append(s.ring, ck)
}

// Pressured implements state.Backend: resident accounting is within
// an eighth of the budget. Reference-bit maintenance costs a map
// write per touch, so tables skip it while eviction is provably far
// away; the first CLOCK pass after pressure starts sees the untracked
// buckets cold and evicts in admission order until the bits warm up.
func (s *Store) Pressured() bool {
	return s.resident.Load() >= s.budget-s.budget>>3
}

// MaybeSpill implements state.Backend: spill cold buckets while the
// resident accounting exceeds the budget. A write failure fails open —
// the bucket stays resident and the loop stops, so a sick disk
// degrades to the old all-in-memory behavior instead of losing state.
func (s *Store) MaybeSpill() {
	if s.budget <= 0 {
		return
	}
	for s.resident.Load() > s.budget {
		ck, ok := s.victim()
		if !ok {
			return
		}
		if !s.spill(ck) {
			return
		}
	}
}

// victim runs the CLOCK hand: skip-and-clear touched buckets, drop
// stale entries, return the first cold one. The pass bound guarantees
// termination — after one full sweep every reference bit is clear.
func (s *Store) victim() (ckey, bool) {
	passes := 0
	for len(s.ring) > 0 && passes <= 2*len(s.ring)+1 {
		if s.hand >= len(s.ring) {
			s.hand = 0
		}
		ck := s.ring[s.hand]
		if len(ck.t.ResidentBucket(ck.key)) == 0 {
			s.dropAt(s.hand)
			continue
		}
		if ck.t.ClockTouched(ck.key) {
			s.hand++
			passes++
			continue
		}
		s.dropAt(s.hand)
		return ck, true
	}
	return ckey{}, false
}

// dropAt swap-removes ring[i] without advancing the hand.
func (s *Store) dropAt(i int) {
	delete(s.inRing, s.ring[i])
	last := len(s.ring) - 1
	s.ring[i] = s.ring[last]
	s.ring[last] = ckey{}
	s.ring = s.ring[:last]
}

// spill writes ck's bucket to the active segment and detaches it from
// the table. Returns false on a write failure (fail open).
func (s *Store) spill(ck ckey) bool {
	bucket := ck.t.ResidentBucket(ck.key)
	if len(bucket) == 0 {
		return true
	}
	s.buf = appendBucket(s.buf[:0], ck.key, ck.t.Set, bucket)
	n := int64(len(s.buf))
	// Rotate past the size threshold, or to replace an active segment
	// whose writer died on an earlier failure.
	if s.active.w == nil || (s.active.size > 0 && s.active.size+n > s.segBytes) {
		if err := s.rotate(); err != nil {
			s.spillErrors.Add(1)
			s.Admit(ck.t, ck.key)
			return false
		}
	}
	off := s.active.size
	// Unbuffered on purpose: the bucket leaves memory only once its
	// bytes are in the file, so a failing disk fails open here instead
	// of losing state at a later flush.
	if _, err := s.active.w.Write(s.buf); err != nil {
		// The active segment tail may now hold a torn frame; abandon it
		// for appends so offsets never point into the torn region.
		s.spillErrors.Add(1)
		s.Admit(ck.t, ck.key)
		_ = s.rotate()
		return false
	}
	s.active.size += n
	s.encTotal.Add(n)
	s.encLive.Add(n)
	mem, count := ck.t.MarkSpilled(ck.key)
	m := s.index[ck.t]
	if m == nil {
		m = make(map[tuple.Value]*bucketEntry)
		s.index[ck.t] = m
	}
	m[ck.key] = &bucketEntry{
		seg:      s.active,
		off:      off,
		n:        n,
		liveEnc:  n,
		perEnc:   n / int64(count),
		memBytes: mem,
		perMem:   mem / int64(count),
		count:    count,
	}
	s.spilledMem.Add(mem)
	s.spilledBuckets.Add(1)
	s.spills.Add(1)
	return true
}

func (s *Store) entry(t *state.Table, key tuple.Value) *bucketEntry {
	return s.index[t][key]
}

// removeEntry forgets one spilled bucket, turning its frames into
// garbage.
func (s *Store) removeEntry(t *state.Table, key tuple.Value, e *bucketEntry) {
	delete(s.index[t], key)
	if len(s.index[t]) == 0 {
		delete(s.index, t)
	}
	s.encLive.Add(-e.liveEnc)
	s.spilledMem.Add(-e.memBytes)
	s.spilledBuckets.Add(-1)
}

// Fault implements state.Backend: read the bucket back, forget its
// spilled copy, count and latency-sample the miss.
func (s *Store) Fault(t *state.Table, key tuple.Value) []*tuple.Tuple {
	start := time.Now()
	e := s.entry(t, key)
	if e == nil {
		return nil
	}
	tuples, err := s.load(e)
	if err != nil {
		// The resident copy was discarded when the bucket spilled; an
		// unreadable segment is unrecoverable state loss, not a
		// degradable condition.
		panic(fmt.Sprintf("statestore: faulting bucket key=%d of %v: %v", key, t.Set, err))
	}
	if len(tuples) != e.count {
		panic(fmt.Sprintf("statestore: bucket key=%d of %v decoded %d live tuples, accounting says %d", key, t.Set, len(tuples), e.count))
	}
	s.removeEntry(t, key, e)
	s.faults.Add(1)
	s.faultTuples.Add(uint64(len(tuples)))
	if s.faultLat != nil {
		s.faultLat.Record(time.Since(start))
	}
	s.maybeCompact()
	return tuples
}

// Peek implements state.Backend: iterate a spilled bucket without
// admitting it.
func (s *Store) Peek(t *state.Table, key tuple.Value, fn func(*tuple.Tuple) bool) bool {
	e := s.entry(t, key)
	if e == nil {
		return true
	}
	tuples, err := s.load(e)
	if err != nil {
		panic(fmt.Sprintf("statestore: peeking bucket key=%d of %v: %v", key, t.Set, err))
	}
	for _, tup := range tuples {
		if !fn(tup) {
			return false
		}
	}
	return true
}

// Tombstone implements state.Backend: record window eviction of
// spilled base tuples without faulting.
func (s *Store) Tombstone(t *state.Table, key tuple.Value, deadThrough uint64, last bool) {
	e := s.entry(t, key)
	if e == nil {
		return
	}
	s.tombstones.Add(1)
	if last {
		s.removeEntry(t, key, e)
		s.maybeCompact()
		return
	}
	if deadThrough > e.deadThrough {
		e.deadThrough = deadThrough
	}
	e.count--
	d := e.perEnc
	if d > e.liveEnc {
		d = e.liveEnc
	}
	e.liveEnc -= d
	s.encLive.Add(-d)
	dm := e.perMem
	if dm > e.memBytes {
		dm = e.memBytes
	}
	e.memBytes -= dm
	s.spilledMem.Add(-dm)
	s.maybeCompact()
}

// Drop implements state.Backend: forget every spilled bucket and ring
// entry of t (Clear, table teardown).
func (s *Store) Drop(t *state.Table) {
	for key, e := range s.index[t] {
		_ = key
		s.encLive.Add(-e.liveEnc)
		s.spilledMem.Add(-e.memBytes)
		s.spilledBuckets.Add(-1)
	}
	delete(s.index, t)
	for i := 0; i < len(s.ring); {
		if s.ring[i].t == t {
			s.dropAt(i)
		} else {
			i++
		}
	}
	if s.hand > len(s.ring) {
		s.hand = 0
	}
	s.maybeCompact()
}

// read reads n bytes at off of seg into the store's reusable read
// buffer; the result is valid until the next read. A sealed segment's
// handle is reopened if the LRU closed it, and becomes the most
// recently used.
func (s *Store) read(seg *segment, off, n int64) ([]byte, error) {
	if seg.f == nil {
		s.evictSealed()
		r, err := s.fs.Open(seg.path)
		if err != nil {
			return nil, err
		}
		seg.f = r
		s.lru = append(s.lru, seg)
	} else if seg.w == nil {
		i := slices.Index(s.lru, seg)
		s.lru = append(slices.Delete(s.lru, i, i+1), seg)
	}
	if int64(cap(s.rbuf)) < n {
		s.rbuf = make([]byte, n)
	}
	data := s.rbuf[:n]
	// ReaderAt returns an error exactly when it reads short.
	if k, err := seg.f.ReadAt(data, off); k < len(data) {
		return nil, err
	}
	return data, nil
}

// evictSealed closes the least recently used sealed handle when the
// LRU is full, making room for one more.
func (s *Store) evictSealed() {
	if len(s.lru) == maxSealedHandles {
		closeSegment(s.lru[0])
		s.lru = append(s.lru[:0], s.lru[1:]...)
	}
}

// load reads and decodes one bucket's frames, filtering tombstoned
// tuples.
func (s *Store) load(e *bucketEntry) ([]*tuple.Tuple, error) {
	data, err := s.read(e.seg, e.off, e.n)
	if err != nil {
		return nil, err
	}
	return decodeSpan(data, e)
}

// decodeSpan decodes one spilled bucket's span of frames, dropping
// tuples at or below the entry's tombstone mark.
func decodeSpan(data []byte, e *bucketEntry) ([]*tuple.Tuple, error) {
	var out []*tuple.Tuple
	off := 0
	for off < len(data) {
		payload, n, ok := storage.NextFrame(data[off:], maxSpillPayload)
		if !ok {
			return nil, fmt.Errorf("corrupt frame at %s offset %d", e.seg.path, e.off+int64(off))
		}
		_, _, tuples, err := decodeBucket(payload)
		if err != nil {
			return nil, fmt.Errorf("CRC-valid frame at %s offset %d does not decode: %w", e.seg.path, e.off+int64(off), err)
		}
		for _, tup := range tuples {
			if e.deadThrough > 0 && len(tup.Refs) == 1 && tup.Refs[0].Seq <= e.deadThrough {
				continue
			}
			out = append(out, tup)
		}
		off += n
	}
	return out, nil
}

// maybeCompact rewrites the live set once garbage crosses the
// configured ratio of total encoded bytes.
func (s *Store) maybeCompact() {
	if s.compactBroken {
		return
	}
	total := s.encTotal.Load()
	if total < s.minCompact {
		return
	}
	if float64(total-s.encLive.Load()) <= s.garbage*float64(total) {
		return
	}
	if err := s.compact(); err != nil {
		s.spillErrors.Add(1)
		s.compactBroken = true
	}
}

// compact rewrites every live bucket into one fresh segment and
// deletes the old files. A span no tombstone has touched (its live
// bytes are all of it) is copied byte for byte once every frame's CRC
// checks out; only spans holding dead tuples are decoded, filtered and
// re-encoded. The rewrite is staged: nothing in the index changes
// until the new segment is fully written, so a failure leaves the
// store exactly as it was.
func (s *Store) compact() error {
	id := s.next
	s.next++
	seg := &segment{id: id, path: s.segPath(id)}
	w, err := s.fs.Create(seg.path)
	if err != nil {
		return err
	}
	cw := bufio.NewWriterSize(w, 64<<10)
	type staged struct {
		t   *state.Table
		key tuple.Value
		e   *bucketEntry
	}
	// Visit live buckets in segment/offset order so each old segment
	// is read once.
	var live []staged
	for t, m := range s.index {
		for key, e := range m {
			live = append(live, staged{t, key, e})
		}
	}
	sort.Slice(live, func(i, j int) bool {
		if live[i].e.seg.id != live[j].e.seg.id {
			return live[i].e.seg.id < live[j].e.seg.id
		}
		return live[i].e.off < live[j].e.off
	})
	var (
		curSeg  *segment
		segData []byte
	)
	var entries []staged
	var mem int64
	for _, lv := range live {
		t, key, e := lv.t, lv.key, lv.e
		if e.seg != curSeg {
			if segData, err = s.read(e.seg, 0, e.seg.size); err != nil {
				panic(fmt.Sprintf("statestore: compacting segment %s: %v", e.seg.path, err))
			}
			curSeg = e.seg
		}
		span := segData[e.off : e.off+e.n]
		ne := *e
		if e.liveEnc == e.n {
			// No dead tuples: the span is copied as is, so its CRCs
			// are the only check its bytes get.
			for off := 0; off < len(span) && err == nil; {
				_, n, ok := storage.NextFrame(span[off:], maxSpillPayload)
				if !ok {
					err = fmt.Errorf("corrupt frame at %s offset %d", e.seg.path, e.off+int64(off))
				}
				off += n
			}
		} else {
			var tuples []*tuple.Tuple
			if tuples, err = decodeSpan(span, e); err == nil {
				if len(tuples) == 0 {
					entries = append(entries, staged{t, key, nil})
					continue
				}
				s.buf = appendBucket(s.buf[:0], key, t.Set, tuples)
				span = s.buf
				var mb int64
				for _, tup := range tuples {
					mb += state.TupleBytes(tup)
				}
				// Keep the tombstone mark: the filtered tuples are gone
				// from the rewrite, and future evictions only raise it.
				ne = bucketEntry{
					n:           int64(len(span)),
					liveEnc:     int64(len(span)),
					perEnc:      int64(len(span)) / int64(len(tuples)),
					memBytes:    mb,
					perMem:      mb / int64(len(tuples)),
					count:       len(tuples),
					deadThrough: e.deadThrough,
				}
			}
		}
		if err != nil {
			// Unreadable live data during compaction is the same
			// unrecoverable loss as a failed fault.
			panic(fmt.Sprintf("statestore: compacting bucket key=%d of %v: %v", key, t.Set, err))
		}
		// The buffered writer keeps its first error; Flush reports it.
		cw.Write(span)
		ne.seg, ne.off = seg, seg.size
		seg.size += ne.n
		mem += ne.memBytes
		entries = append(entries, staged{t, key, &ne})
	}
	if err := cw.Flush(); err != nil {
		w.Close()
		_ = s.fs.Remove(seg.path)
		return err
	}
	seg.f, seg.w = w, w
	for _, old := range s.segs {
		closeSegment(old)
		_ = s.fs.Remove(old.path)
	}
	s.lru = s.lru[:0]
	s.segs = map[uint64]*segment{seg.id: seg}
	s.active = seg
	var buckets int64
	for _, st := range entries {
		if st.e == nil {
			delete(s.index[st.t], st.key)
			if len(s.index[st.t]) == 0 {
				delete(s.index, st.t)
			}
			continue
		}
		s.index[st.t][st.key] = st.e
		buckets++
	}
	s.encTotal.Store(seg.size)
	s.encLive.Store(seg.size)
	s.spilledMem.Store(mem)
	s.spilledBuckets.Store(buckets)
	s.nsegs.Store(1)
	s.compactions.Add(1)
	return nil
}

// Stats is a point-in-time snapshot of the store's counters. Safe to
// take from any goroutine.
type Stats struct {
	// ResidentBytes is the current resident accounting across every
	// attached table and list; PeakResidentBytes is its high-water
	// mark (instantaneous, including the transient of a fault before
	// the following spill).
	ResidentBytes     int64 `json:"resident_bytes"`
	PeakResidentBytes int64 `json:"peak_resident_bytes"`
	// SpilledBytes is the resident-equivalent footprint of the spilled
	// live tuples; SpilledBuckets counts them.
	SpilledBytes   int64 `json:"spilled_bytes"`
	SpilledBuckets int64 `json:"spilled_buckets"`
	// Segments / SegmentBytes / GarbageBytes describe the on-disk
	// footprint and how much of it is dead.
	Segments     int64 `json:"segments"`
	SegmentBytes int64 `json:"segment_bytes"`
	GarbageBytes int64 `json:"garbage_bytes"`

	Spills      uint64 `json:"spills"`
	Faults      uint64 `json:"faults"`
	FaultTuples uint64 `json:"fault_tuples"`
	Tombstones  uint64 `json:"tombstones"`
	Compactions uint64 `json:"compactions"`
	SpillErrors uint64 `json:"spill_errors"`
}

// Stats returns the current counters.
func (s *Store) Stats() Stats {
	total := s.encTotal.Load()
	live := s.encLive.Load()
	return Stats{
		ResidentBytes:     s.resident.Load(),
		PeakResidentBytes: s.peak.Load(),
		SpilledBytes:      s.spilledMem.Load(),
		SpilledBuckets:    s.spilledBuckets.Load(),
		Segments:          s.nsegs.Load(),
		SegmentBytes:      total,
		GarbageBytes:      total - live,
		Spills:            s.spills.Load(),
		Faults:            s.faults.Load(),
		FaultTuples:       s.faultTuples.Load(),
		Tombstones:        s.tombstones.Load(),
		Compactions:       s.compactions.Load(),
		SpillErrors:       s.spillErrors.Load(),
	}
}

// Add merges two snapshots — per-shard stats into a runtime total.
// Peak adds (each shard has an independent budget slice).
func (a Stats) Add(b Stats) Stats {
	return Stats{
		ResidentBytes:     a.ResidentBytes + b.ResidentBytes,
		PeakResidentBytes: a.PeakResidentBytes + b.PeakResidentBytes,
		SpilledBytes:      a.SpilledBytes + b.SpilledBytes,
		SpilledBuckets:    a.SpilledBuckets + b.SpilledBuckets,
		Segments:          a.Segments + b.Segments,
		SegmentBytes:      a.SegmentBytes + b.SegmentBytes,
		GarbageBytes:      a.GarbageBytes + b.GarbageBytes,
		Spills:            a.Spills + b.Spills,
		Faults:            a.Faults + b.Faults,
		FaultTuples:       a.FaultTuples + b.FaultTuples,
		Tombstones:        a.Tombstones + b.Tombstones,
		Compactions:       a.Compactions + b.Compactions,
		SpillErrors:       a.SpillErrors + b.SpillErrors,
	}
}

var _ state.Backend = (*Store)(nil)
