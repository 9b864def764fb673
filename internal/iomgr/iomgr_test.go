package iomgr

import (
	"bytes"
	"compress/gzip"
	"errors"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"

	"pioman/internal/core"
	"pioman/internal/nmad"
	"pioman/internal/topology"
)

func tempFile(t *testing.T) *os.File {
	t.Helper()
	f, err := os.CreateTemp(t.TempDir(), "iomgr-*.dat")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	return f
}

func TestWriteThenRead(t *testing.T) {
	m := New(Config{})
	defer m.Close()
	f := tempFile(t)

	payload := []byte("pioman moves the bytes")
	wr := m.WriteAt(f, payload, 0)
	if n, err := wr.Wait(); err != nil || n != len(payload) {
		t.Fatalf("WriteAt = %d, %v", n, err)
	}

	buf := make([]byte, len(payload))
	rd := m.ReadAt(f, buf, 0)
	if n, err := rd.Wait(); err != nil || n != len(payload) {
		t.Fatalf("ReadAt = %d, %v", n, err)
	}
	if !bytes.Equal(buf, payload) {
		t.Errorf("read %q, want %q", buf, payload)
	}
}

func TestReadAtOffset(t *testing.T) {
	m := New(Config{})
	defer m.Close()
	f := tempFile(t)
	if _, err := m.WriteAt(f, []byte("0123456789"), 0).Wait(); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 4)
	if _, err := m.ReadAt(f, buf, 3).Wait(); err != nil {
		t.Fatal(err)
	}
	if string(buf) != "3456" {
		t.Errorf("offset read = %q", buf)
	}
}

func TestReadErrorPropagates(t *testing.T) {
	m := New(Config{})
	defer m.Close()
	f := tempFile(t)
	if _, err := m.WriteAt(f, []byte("abc"), 0).Wait(); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 10)
	n, err := m.ReadAt(f, buf, 0).Wait()
	if !errors.Is(err, io.EOF) {
		t.Errorf("short read error = %v, want io.EOF", err)
	}
	if n != 3 {
		t.Errorf("short read n = %d, want 3", n)
	}
}

func TestManyConcurrentRequests(t *testing.T) {
	m := New(Config{})
	defer m.Close()
	f := tempFile(t)
	const chunks = 64
	const sz = 512

	var writes []*Request
	for i := 0; i < chunks; i++ {
		chunk := bytes.Repeat([]byte{byte(i)}, sz)
		writes = append(writes, m.WriteAt(f, chunk, int64(i*sz)))
	}
	if err := WaitAll(writes...); err != nil {
		t.Fatal(err)
	}

	var reads []*Request
	bufs := make([][]byte, chunks)
	for i := 0; i < chunks; i++ {
		bufs[i] = make([]byte, sz)
		reads = append(reads, m.ReadAt(f, bufs[i], int64(i*sz)))
	}
	if err := WaitAll(reads...); err != nil {
		t.Fatal(err)
	}
	for i, buf := range bufs {
		for _, b := range buf {
			if b != byte(i) {
				t.Fatalf("chunk %d corrupted", i)
			}
		}
	}
	r, w, _ := m.Stats()
	if r != chunks || w != chunks {
		t.Errorf("stats = %d reads, %d writes", r, w)
	}
}

func TestIOProgressesDuringComputation(t *testing.T) {
	// The headline property applied to storage: a read completes in the
	// background while the caller computes without touching the manager.
	m := New(Config{})
	defer m.Close()
	f := tempFile(t)
	data := bytes.Repeat([]byte("x"), 1<<20)
	if _, err := m.WriteAt(f, data, 0).Wait(); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 1<<20)
	req := m.ReadAt(f, buf, 0)
	deadline := time.Now().Add(5 * time.Second)
	for !req.Test() {
		if time.Now().After(deadline) {
			t.Fatal("read made no progress during computation")
		}
		time.Sleep(time.Millisecond) // "compute"
	}
	if n, err := req.Wait(); err != nil || n != 1<<20 {
		t.Fatalf("Wait = %d, %v", n, err)
	}
}

func TestFilterTask(t *testing.T) {
	// The paper's suggested use of idle cores for data filters: gzip a
	// buffer in a task and verify round-trip.
	m := New(Config{})
	defer m.Close()
	src := bytes.Repeat([]byte("compressible content "), 1000)
	var compressed bytes.Buffer

	req := m.Filter(func() error {
		zw := gzip.NewWriter(&compressed)
		if _, err := zw.Write(src); err != nil {
			return err
		}
		return zw.Close()
	})
	if _, err := req.Wait(); err != nil {
		t.Fatal(err)
	}
	if compressed.Len() >= len(src) {
		t.Errorf("gzip grew the payload: %d >= %d", compressed.Len(), len(src))
	}

	zr, err := gzip.NewReader(&compressed)
	if err != nil {
		t.Fatal(err)
	}
	out, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out, src) {
		t.Error("filter round-trip corrupted data")
	}
	if _, _, filters := m.Stats(); filters != 1 {
		t.Errorf("filters = %d, want 1", filters)
	}
}

func TestFilterErrorPropagates(t *testing.T) {
	m := New(Config{})
	defer m.Close()
	boom := errors.New("boom")
	if _, err := m.Filter(func() error { return boom }).Wait(); !errors.Is(err, boom) {
		t.Errorf("err = %v, want boom", err)
	}
}

func TestCloseRejectsNewRequests(t *testing.T) {
	m := New(Config{})
	f := tempFile(t)
	m.Close()
	if _, err := m.ReadAt(f, make([]byte, 1), 0).Wait(); !errors.Is(err, ErrClosed) {
		t.Errorf("err = %v, want ErrClosed", err)
	}
}

func TestParallelWritersDisjointFiles(t *testing.T) {
	m := New(Config{})
	defer m.Close()
	dir := t.TempDir()
	const files = 8
	var wg sync.WaitGroup
	for i := 0; i < files; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			f, err := os.Create(filepath.Join(dir, "f"+string(rune('a'+i))))
			if err != nil {
				t.Error(err)
				return
			}
			defer f.Close()
			payload := bytes.Repeat([]byte{byte(i)}, 4096)
			if _, err := m.WriteAt(f, payload, 0).Wait(); err != nil {
				t.Error(err)
				return
			}
			back := make([]byte, 4096)
			if _, err := m.ReadAt(f, back, 0).Wait(); err != nil {
				t.Error(err)
				return
			}
			if !bytes.Equal(back, payload) {
				t.Errorf("file %d corrupted", i)
			}
		}(i)
	}
	wg.Wait()
}

func TestSharedTaskEngineWithoutAutoProgress(t *testing.T) {
	// The generic-framework wiring: the I/O manager shares a task engine
	// that the caller schedules (here, manually).
	m := New(Config{Tasks: core.New(core.Config{})})
	defer m.Close()
	f := tempFile(t)
	req := m.WriteAt(f, []byte("manual"), 0)
	// Nothing progresses on its own; Wait's active scheduling does it.
	if n, err := req.Wait(); err != nil || n != 6 {
		t.Fatalf("Wait = %d, %v", n, err)
	}
}

// TestSharesNmadEngineUnderScheduleZero: the paper's one-engine-for-
// communication-and-I/O wiring on an explicit 8-CPU topology, so the
// host's CPU count cannot matter. Stealing is off, so CPU 0's scan
// reaches only its own path: an I/O request is only reachable if it was
// placed there.
func TestSharesNmadEngineUnderScheduleZero(t *testing.T) {
	tasks := core.New(core.Config{
		Topology:      topology.Borderline(),
		AdaptiveDrain: true,
	})
	comm := nmad.NewEngine(nmad.Config{Tasks: tasks})
	defer comm.Close()
	m := New(Config{Tasks: comm.Tasks()})
	defer m.Close()
	f := tempFile(t)

	drive := func(r *Request) {
		t.Helper()
		for pass := 0; pass < 1000 && !r.Test(); pass++ {
			tasks.Schedule(0)
		}
		if !r.Test() {
			t.Fatal("request not run within 1000 Schedule(0) passes: it is not on CPU 0's path")
		}
	}
	payload := []byte("one engine, two libraries")
	wr := m.WriteAt(f, payload, 0)
	drive(wr)
	buf := make([]byte, len(payload))
	rd := m.ReadAt(f, buf, 0)
	drive(rd)
	if _, err := wr.Wait(); err != nil {
		t.Fatal(err)
	}
	if n, err := rd.Wait(); err != nil || n != len(payload) || !bytes.Equal(buf, payload) {
		t.Fatalf("ReadAt = %d, %v, %q", n, err, buf)
	}
}

// stableGoroutines returns the goroutine count once two readings 10 ms
// apart agree, so goroutines of earlier tests that are still exiting do
// not skew a before/after comparison.
func stableGoroutines() int {
	n := runtime.NumGoroutine()
	for i := 0; i < 200; i++ {
		time.Sleep(10 * time.Millisecond)
		m := runtime.NumGoroutine()
		if m == n {
			return n
		}
		n = m
	}
	return n
}

// TestOneProgressContextServesEveryLibrary: three nmad engines in a ring
// of mem gates and an I/O manager, all on one task engine built with
// Progress, run exactly one goroutine between them — the task engine's
// progression context — and none once everything is closed.
func TestOneProgressContextServesEveryLibrary(t *testing.T) {
	before := stableGoroutines()
	tasks := core.New(core.Config{Progress: true})
	var engs []*nmad.Engine
	for i := 0; i < 3; i++ {
		engs = append(engs, nmad.NewEngine(nmad.Config{Tasks: tasks}))
	}
	for i, e := range engs {
		da, db := nmad.MemPair()
		ga, err := e.NewGate(da)
		if err != nil {
			t.Fatal(err)
		}
		gb, err := engs[(i+1)%len(engs)].NewGate(db)
		if err != nil {
			t.Fatal(err)
		}
		r := gb.Irecv(1)
		if err := ga.Send(1, []byte("ring")); err != nil {
			t.Fatal(err)
		}
		if err := r.Wait(); err != nil || string(r.Data) != "ring" {
			t.Fatalf("gate %d: %q, %v", i, r.Data, err)
		}
	}
	m := New(Config{Tasks: tasks})
	if n, err := m.WriteAt(tempFile(t), []byte("shared"), 0).Wait(); err != nil || n != 6 {
		t.Fatalf("WriteAt = %d, %v", n, err)
	}
	if n := stableGoroutines(); n != before+1 {
		t.Errorf("%d goroutines while open, want %d: one progression context", n, before+1)
	}
	m.Close()
	for _, e := range engs {
		e.Close()
	}
	tasks.Close()
	if n := stableGoroutines(); n != before {
		t.Errorf("%d goroutines after Close, want %d", n, before)
	}
}
