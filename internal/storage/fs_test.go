package storage

import (
	"errors"
	"io"
	"path/filepath"
	"testing"
)

// readAt reads n bytes at off through f, failing on a short read.
func readAt(t *testing.T, f io.ReaderAt, off int64, n int) string {
	t.Helper()
	p := make([]byte, n)
	if k, err := f.ReadAt(p, off); k != n {
		t.Fatalf("ReadAt(%d bytes at %d) = %d, %v", n, off, k, err)
	}
	return string(p)
}

// TestFileReadsItsWrites checks, on every FS, that a handle from
// Create or OpenAppend reads the bytes written through it, including
// bytes appended after an earlier read, and reports a short read at
// the end of the file.
func TestFileReadsItsWrites(t *testing.T) {
	for name, fs := range map[string]FS{
		"os":    OS(),
		"mem":   NewMemFS(),
		"crash": NewCrashFS(NewMemFS(), 1<<20),
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			for _, open := range []func(string) (File, error){fs.Create, fs.OpenAppend} {
				path := filepath.Join(dir, "f")
				_ = fs.Remove(path)
				f, err := open(path)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := f.Write([]byte("hello ")); err != nil {
					t.Fatal(err)
				}
				if got := readAt(t, f, 0, 5); got != "hello" {
					t.Fatalf("read %q", got)
				}
				if _, err := f.Write([]byte("world")); err != nil {
					t.Fatal(err)
				}
				if got := readAt(t, f, 6, 5); got != "world" {
					t.Fatalf("read after second write %q", got)
				}
				p := make([]byte, 4)
				if k, err := f.ReadAt(p, 9); k != 2 || !errors.Is(err, io.EOF) {
					t.Fatalf("short read at end = %d, %v; want 2, EOF", k, err)
				}
				if err := f.Close(); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

func TestOpenReaderAt(t *testing.T) {
	fs := NewMemFS()
	f, _ := fs.Create("seg")
	f.Write([]byte("0123456789"))
	r, err := fs.Open("seg")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	// Open is a snapshot: later writes do not show through it.
	f.Write([]byte("abc"))
	if got := readAt(t, r, 3, 4); got != "3456" {
		t.Fatalf("read %q", got)
	}
	if k, err := r.ReadAt(make([]byte, 1), 10); k != 0 || !errors.Is(err, io.EOF) {
		t.Fatalf("read past snapshot = %d, %v", k, err)
	}
	if _, err := fs.Open("missing"); err == nil {
		t.Fatal("Open of a missing file succeeded")
	}
}

func TestMemFileReadAfterRemove(t *testing.T) {
	fs := NewMemFS()
	f, _ := fs.Create("gone")
	f.Write([]byte("x"))
	fs.Remove("gone")
	if _, err := f.ReadAt(make([]byte, 1), 0); err == nil {
		t.Fatal("read of a removed file succeeded")
	}
}

// TestCrashFSReadsAfterCrash checks the CrashFS contract: once the
// write budget is spent, writes fail but reads keep working, through
// both an open handle and a fresh Open, and see the torn write's
// surviving prefix.
func TestCrashFSReadsAfterCrash(t *testing.T) {
	crash := NewCrashFS(NewMemFS(), 8)
	f, err := crash.Create("seg")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("0123456789")); !errors.Is(err, ErrCrashed) {
		t.Fatalf("write past the budget = %v, want ErrCrashed", err)
	}
	if !crash.Crashed() {
		t.Fatal("not crashed")
	}
	if _, err := f.Write([]byte("x")); !errors.Is(err, ErrCrashed) {
		t.Fatalf("write after crash = %v", err)
	}
	if _, err := crash.Create("other"); !errors.Is(err, ErrCrashed) {
		t.Fatalf("Create after crash = %v", err)
	}
	if got := readAt(t, f, 0, 8); got != "01234567" {
		t.Fatalf("handle read after crash %q", got)
	}
	r, err := crash.Open("seg")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if got := readAt(t, r, 2, 6); got != "234567" {
		t.Fatalf("Open read after crash %q", got)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}
