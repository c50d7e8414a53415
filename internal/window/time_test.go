package window

import (
	"testing"

	"jisc/internal/tuple"
)

func TestTimeWindowBasics(t *testing.T) {
	w := NewTime(0, 10)
	if w.Stream() != 0 || w.Span() != 10 {
		t.Fatal("accessors")
	}
	if exp := w.Slide(tuple.Ref{Stream: 0, Seq: 1}, 5, 100); len(exp) != 0 {
		t.Fatalf("expiry on first admit: %v", exp)
	}
	if exp := w.Slide(tuple.Ref{Stream: 0, Seq: 2}, 6, 105); len(exp) != 0 {
		t.Fatalf("expiry within span: %v", exp)
	}
	if w.Len() != 2 {
		t.Fatalf("Len = %d", w.Len())
	}
	// ts 111: cutoff 101 expires the ts-100 entry only.
	exp := w.Slide(tuple.Ref{Stream: 0, Seq: 3}, 7, 111)
	if len(exp) != 1 || exp[0].Ref.Seq != 1 || exp[0].Key != 5 {
		t.Fatalf("expired = %v", exp)
	}
	if w.Len() != 2 {
		t.Fatalf("Len after expiry = %d", w.Len())
	}
}

func TestTimeWindowBatchExpiry(t *testing.T) {
	w := NewTime(1, 5)
	for i := uint64(1); i <= 4; i++ {
		w.Slide(tuple.Ref{Stream: 1, Seq: i}, tuple.Value(i), 10+i)
	}
	// Jump far ahead: everything expires at once.
	exp := w.Slide(tuple.Ref{Stream: 1, Seq: 5}, 9, 100)
	if len(exp) != 4 {
		t.Fatalf("expired %d entries, want 4", len(exp))
	}
	for i, e := range exp {
		if e.Ref.Seq != uint64(i+1) {
			t.Fatalf("expiry order: %v", exp)
		}
	}
	if w.Len() != 1 {
		t.Fatalf("Len = %d", w.Len())
	}
}

func TestTimeWindowBoundaries(t *testing.T) {
	w := NewTime(0, 10)
	w.Slide(tuple.Ref{Stream: 0, Seq: 1}, 1, 100)
	// ts 110: cutoff 100 — the entry AT the cutoff expires (strictly
	// older-or-equal leaves the window).
	exp := w.Slide(tuple.Ref{Stream: 0, Seq: 2}, 2, 110)
	if len(exp) != 1 {
		t.Fatalf("boundary expiry = %v", exp)
	}
}

func TestTimeWindowCompaction(t *testing.T) {
	w := NewTime(0, 1)
	for i := uint64(1); i <= 500; i++ {
		w.Slide(tuple.Ref{Stream: 0, Seq: i}, 0, i*10)
	}
	if w.Len() != 1 {
		t.Fatalf("Len = %d, want 1 (span smaller than gaps)", w.Len())
	}
	var seen int
	w.Each(func(Entry) bool { seen++; return true })
	if seen != 1 {
		t.Fatalf("Each visited %d", seen)
	}
}

func TestTimeWindowPanics(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		fn()
	}
	mustPanic("zero span", func() { NewTime(0, 0) })
	mustPanic("cross stream", func() {
		NewTime(0, 5).Slide(tuple.Ref{Stream: 1, Seq: 1}, 0, 1)
	})
	mustPanic("time regression", func() {
		w := NewTime(0, 5)
		w.Slide(tuple.Ref{Stream: 0, Seq: 1}, 0, 10)
		w.Slide(tuple.Ref{Stream: 0, Seq: 2}, 0, 9)
	})
}

func TestCountWindowSlideAdapter(t *testing.T) {
	var s Slider = New(0, 2)
	s.Slide(tuple.Ref{Stream: 0, Seq: 1}, 1, 0)
	s.Slide(tuple.Ref{Stream: 0, Seq: 2}, 2, 0)
	exp := s.Slide(tuple.Ref{Stream: 0, Seq: 3}, 3, 0)
	if len(exp) != 1 || exp[0].Ref.Seq != 1 {
		t.Fatalf("adapter expiry = %v", exp)
	}
	if s.Len() != 2 || s.Stream() != 0 {
		t.Fatal("adapter accessors")
	}
}

// TestSlideDoesNotAllocate pins Slide's allocation-free steady state
// when called through the interface, as the engine does once per
// input tuple.
func TestSlideDoesNotAllocate(t *testing.T) {
	for name, s := range map[string]Slider{
		"count": New(0, 4),
		"time":  NewTime(0, 4),
	} {
		var seq uint64
		slide := func() {
			seq++
			s.Slide(tuple.Ref{Stream: 0, Seq: seq}, tuple.Value(seq), seq)
		}
		for i := 0; i < 256; i++ { // fill the window and grow its buffers
			slide()
		}
		if n := testing.AllocsPerRun(1000, slide); n != 0 {
			t.Errorf("%s window: %.2f allocations per Slide, want 0", name, n)
		}
	}
}
