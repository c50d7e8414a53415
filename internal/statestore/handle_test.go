package statestore

import (
	"bytes"
	"fmt"
	"os"
	"strings"
	"testing"

	"jisc/internal/state"
	"jisc/internal/storage"
	"jisc/internal/tuple"
)

// countingFS counts the file handles it hands out and closes, and the
// most that were open at once.
type countingFS struct {
	storage.FS
	opens, closes, peak int
}

func (c *countingFS) opened() {
	c.opens++
	c.peak = max(c.peak, c.opens-c.closes)
}

func (c *countingFS) Create(path string) (storage.File, error) {
	f, err := c.FS.Create(path)
	if err != nil {
		return nil, err
	}
	c.opened()
	return countedFile{f, c}, nil
}

func (c *countingFS) OpenAppend(path string) (storage.File, error) {
	f, err := c.FS.OpenAppend(path)
	if err != nil {
		return nil, err
	}
	c.opened()
	return countedFile{f, c}, nil
}

func (c *countingFS) Open(path string) (storage.Reader, error) {
	r, err := c.FS.Open(path)
	if err != nil {
		return nil, err
	}
	c.opened()
	return countedReader{r, c}, nil
}

type countedFile struct {
	storage.File
	c *countingFS
}

func (f countedFile) Close() error { f.c.closes++; return f.File.Close() }

type countedReader struct {
	storage.Reader
	c *countingFS
}

func (r countedReader) Close() error { r.c.closes++; return r.Reader.Close() }

// encode is the canonical byte form of a bucket, for byte-identity
// checks.
func encode(key tuple.Value, tuples []*tuple.Tuple) []byte {
	return appendBucket(nil, key, tuple.NewStreamSet(0), tuples)
}

// TestFaultAfterHandleReadIsByteIdentical spills buckets into the
// active segment after its read-write handle has already served
// faults, and checks every bucket faults back byte-identical.
func TestFaultAfterHandleReadIsByteIdentical(t *testing.T) {
	for name, fs := range map[string]storage.FS{"os": storage.OS(), "mem": storage.NewMemFS()} {
		t.Run(name, func(t *testing.T) {
			s := mustOpen(t, Options{Budget: 1, FS: fs, Dir: t.TempDir() + "/spill"})
			tbl := state.NewTable(tuple.NewStreamSet(0))
			tbl.SetBackend(s, true)
			want := map[tuple.Value][]*tuple.Tuple{}
			seq := uint64(0)
			add := func(key tuple.Value, payload int) {
				seq++
				tup := base(0, seq, key)
				for i := 0; i < payload; i++ {
					tup.Payload = append(tup.Payload, tuple.Value(seq*100+uint64(i)))
				}
				want[key] = append(want[key], tup)
				tbl.Insert(tup)
			}
			check := func(key tuple.Value) {
				t.Helper()
				if got := tbl.Probe(key); !bytes.Equal(encode(key, got), encode(key, want[key])) {
					t.Fatalf("key %d faulted back %v, spilled %v", key, got, want[key])
				}
			}
			add(0, 1)
			check(0) // the active segment's handle serves its first read
			for key := tuple.Value(1); key < 6; key++ {
				for i := 0; i < int(key); i++ {
					add(key, i)
				}
				check(key - 1)
			}
			if st := s.Stats(); st.Segments != 1 || st.Faults == 0 {
				t.Fatalf("want faults from one segment, got %+v", st)
			}
			for key := range want {
				check(key)
			}
		})
	}
}

// TestOpenHandlesBounded forces many segments and faults buckets from
// all of them: the sealed segments' handles are reopened on demand, and
// no more than the active segment's plus maxSealedHandles are ever
// open at once.
func TestOpenHandlesBounded(t *testing.T) {
	fs := &countingFS{FS: storage.NewMemFS()}
	s := mustOpen(t, Options{Budget: 1, FS: fs, SegmentBytes: 256, MinCompactBytes: 1 << 30})
	tbl := state.NewTable(tuple.NewStreamSet(0))
	tbl.SetBackend(s, true)
	fill(tbl, 200)
	if segs := s.Stats().Segments; segs <= 2*maxSealedHandles {
		t.Fatalf("only %d segments", segs)
	}
	created := fs.opens
	// Stride across segments so consecutive faults miss the LRU.
	for round := 0; round < 2; round++ {
		for i := 0; i < 200; i++ {
			key := tuple.Value(i * 37 % 200)
			if got := tbl.Probe(key); len(got) != 1 || got[0].Key != key {
				t.Fatalf("key %d: %v", key, got)
			}
		}
	}
	if fs.opens == created {
		t.Fatal("no sealed segment was reopened")
	}
	if fs.peak > maxSealedHandles+1 {
		t.Fatalf("%d handles open at once, bound %d", fs.peak, maxSealedHandles+1)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if fs.opens != fs.closes {
		t.Fatalf("after Close: %d opens, %d closes", fs.opens, fs.closes)
	}
}

// TestCompactionClosesHandles starts a compaction with every sealed
// handle in the LRU open: at most one more handle, the compaction's
// output, is open at the peak, and afterwards only the new segment's
// handle is left, until Close closes it too.
func TestCompactionClosesHandles(t *testing.T) {
	fs := &countingFS{FS: storage.NewMemFS()}
	s := mustOpen(t, Options{Budget: 1, FS: fs, SegmentBytes: 256, MinCompactBytes: 256})
	tbl := state.NewTable(tuple.NewStreamSet(0))
	tbl.SetBackend(s, true)
	fill(tbl, 64)
	// Fault a quarter back, striding across segments, to fill the LRU
	// without crossing the garbage ratio.
	for i := 0; i < 16; i++ {
		tbl.Probe(tuple.Value(i * 4))
	}
	if st := s.Stats(); st.Compactions != 0 || len(s.lru) != maxSealedHandles {
		t.Fatalf("want a full LRU before compaction, got %d handles, %+v", len(s.lru), st)
	}
	for i := 1; i < 64; i += 4 {
		tbl.RemoveRef(tuple.Value(i), tuple.Ref{Stream: 0, Seq: uint64(i + 1)})
		tbl.RemoveRef(tuple.Value(i+1), tuple.Ref{Stream: 0, Seq: uint64(i + 2)})
	}
	st := s.Stats()
	if st.Compactions == 0 || st.Segments != 1 {
		t.Fatalf("want compaction down to one segment, got %+v", st)
	}
	if bound := maxSealedHandles + 2; fs.peak > bound {
		t.Fatalf("%d handles open at once, bound %d", fs.peak, bound)
	}
	if open := fs.opens - fs.closes; open != 1 {
		t.Fatalf("%d handles open after compaction (%d opens, %d closes), want 1", open, fs.opens, fs.closes)
	}
	if names, _ := fs.ReadDir("spill"); len(names) != 1 {
		t.Fatalf("segment files after compaction: %v", names)
	}
	for i := 3; i < 64; i += 4 {
		if got := tbl.Probe(tuple.Value(i)); len(got) != 1 {
			t.Fatalf("key %d lost in compaction: %v", i, got)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if fs.opens != fs.closes {
		t.Fatalf("after Close: %d opens, %d closes", fs.opens, fs.closes)
	}
}

// TestCompactionRejectsCorruptSpan flips one byte inside a live span on
// disk and triggers compaction: both the byte-for-byte copy of an
// untouched span and the re-encode of a tombstoned one must panic with
// the corrupt-frame message a fault gives.
func TestCompactionRejectsCorruptSpan(t *testing.T) {
	for _, tombstoned := range []bool{false, true} {
		t.Run(fmt.Sprintf("tombstoned=%v", tombstoned), func(t *testing.T) {
			s := mustOpen(t, Options{Budget: 1, FS: storage.OS(), Dir: t.TempDir() + "/spill", MinCompactBytes: 256})
			tbl := state.NewTable(tuple.NewStreamSet(0))
			tbl.SetBackend(s, true)
			const victim = tuple.Value(1000)
			tbl.Insert(base(0, 1000, victim))
			tbl.Insert(base(0, 1001, victim))
			fill(tbl, 16)
			if tombstoned {
				tbl.RemoveRef(victim, tuple.Ref{Stream: 0, Seq: 1000})
			}
			e := s.entry(tbl, victim)
			if e == nil || (e.liveEnc == e.n) == tombstoned {
				t.Fatalf("victim entry %+v", e)
			}
			f, err := os.OpenFile(e.seg.path, os.O_RDWR, 0)
			if err != nil {
				t.Fatal(err)
			}
			b := make([]byte, 1)
			at := e.off + e.n - 3
			f.ReadAt(b, at)
			b[0] ^= 0x10
			if _, err := f.WriteAt(b, at); err != nil {
				t.Fatal(err)
			}
			f.Close()
			want := fmt.Sprintf("statestore: compacting bucket key=%d of %v: corrupt frame at %s offset %d", victim, tbl.Set, e.seg.path, e.off)
			msg := func() (msg string) {
				defer func() { msg, _ = recover().(string) }()
				for i := 0; i < 16; i++ {
					tbl.RemoveRef(tuple.Value(i), tuple.Ref{Stream: 0, Seq: uint64(i + 1)})
				}
				return ""
			}()
			if !strings.HasPrefix(msg, want) {
				t.Fatalf("compaction panic %q, want %q (stats %+v)", msg, want, s.Stats())
			}
		})
	}
}
