package storage

import (
	"bytes"
	"testing"
)

func TestFrameRoundTrip(t *testing.T) {
	var data []byte
	payloads := [][]byte{[]byte("a"), bytes.Repeat([]byte{0xAB}, 300), []byte("last")}
	for _, p := range payloads {
		data = AppendFramed(data, p)
	}
	off := 0
	for i, want := range payloads {
		got, n, ok := NextFrame(data[off:], 1<<10)
		if !ok || !bytes.Equal(got, want) || n != FrameHeader+len(want) {
			t.Fatalf("frame %d: ok=%v n=%d payload=%q", i, ok, n, got)
		}
		off += n
	}
	if off != len(data) {
		t.Fatalf("consumed %d of %d bytes", off, len(data))
	}
}

func TestSealFrameMatchesAppendFramed(t *testing.T) {
	payload := []byte("built in place")
	buf := append([]byte("prefix"), make([]byte, FrameHeader)...)
	buf = append(buf, payload...)
	SealFrame(buf, len("prefix"))
	want := AppendFramed([]byte("prefix"), payload)
	if !bytes.Equal(buf, want) {
		t.Fatalf("SealFrame = %x, AppendFramed = %x", buf, want)
	}
}

func TestNextFrameRejects(t *testing.T) {
	frame := AppendFramed(nil, []byte("payload"))
	flipCRC := append([]byte(nil), frame...)
	flipCRC[4] ^= 1
	flipPayload := append([]byte(nil), frame...)
	flipPayload[FrameHeader+2] ^= 0x80
	zeroLen := append([]byte(nil), frame...)
	copy(zeroLen, []byte{0, 0, 0, 0})
	for name, data := range map[string][]byte{
		"empty":         nil,
		"torn header":   frame[:FrameHeader-1],
		"torn payload":  frame[:len(frame)-1],
		"flipped crc":   flipCRC,
		"flipped bit":   flipPayload,
		"zero length":   zeroLen,
		"above maximum": AppendFramed(nil, make([]byte, 65)),
	} {
		if _, _, ok := NextFrame(data, 64); ok {
			t.Errorf("%s: NextFrame accepted %x", name, data)
		}
	}
	// The same frame is accepted at a maximum equal to its length.
	if _, _, ok := NextFrame(AppendFramed(nil, make([]byte, 64)), 64); !ok {
		t.Error("frame at the maximum rejected")
	}
}

// FuzzNextFrame feeds arbitrary bytes to the frame scanner: it never
// panics, every frame it accepts lies within the input, and re-sealing
// an accepted payload reproduces the input bytes exactly.
func FuzzNextFrame(f *testing.F) {
	f.Add(AppendFramed(nil, []byte("seed")))
	f.Add(AppendFramed(AppendFramed(nil, []byte{1}), []byte{2, 3}))
	f.Add([]byte{1, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		for len(data) > 0 {
			payload, n, ok := NextFrame(data, 1<<16)
			if !ok {
				return
			}
			if n != FrameHeader+len(payload) || n > len(data) {
				t.Fatalf("frame length %d for %d-byte payload in %d bytes", n, len(payload), len(data))
			}
			if again := AppendFramed(nil, payload); !bytes.Equal(again, data[:n]) {
				t.Fatalf("re-sealed %x, input %x", again, data[:n])
			}
			data = data[n:]
		}
	})
}
