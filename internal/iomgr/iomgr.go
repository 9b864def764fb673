// Package iomgr is the paper's long-term direction (§VI): "the goal is
// to provide a generic framework able to optimize both communication
// and I/O in a scalable way". It delegates file and block I/O — and the
// data filters the paper suggests (compression, encoding, checksums) —
// to PIOMan tasks, so storage operations execute on idle cores, progress
// in scheduling holes, and overlap with computation exactly like the
// communication tasks of internal/nmad.
//
// Requests embed their task (no allocation beyond the request itself)
// and complete through the same active-wait or channel-based paths as
// nmad requests.
package iomgr

import (
	"errors"
	"io"
	"runtime"
	"sync/atomic"

	"pioman/internal/core"
)

// ErrClosed is returned for operations on a closed manager.
var ErrClosed = errors.New("iomgr: manager closed")

// Config parameterizes a Manager.
type Config struct {
	// Tasks is the PIOMan engine to run on. When nil the manager builds
	// a private core.NewDefault, with a progression context, and closes
	// it in Close. A shared engine progresses however its builder chose:
	// its own progression context, or Request.Wait and explicit
	// Schedule calls.
	Tasks *core.Engine
}

// waitSpins is how many passes in a row that ran nothing Wait makes
// before it blocks, kept as short as nmad's Wait keeps it.
const waitSpins = 2

// Manager executes I/O requests through PIOMan tasks.
type Manager struct {
	tasks    *core.Engine
	ownTasks bool // tasks is the private engine New built
	stopped  atomic.Bool

	reads, writes, filters atomic.Uint64
}

// New builds a manager.
func New(cfg Config) *Manager {
	m := &Manager{tasks: cfg.Tasks}
	if m.tasks == nil {
		m.tasks, m.ownTasks = core.NewDefault(), true
	}
	return m
}

// Tasks exposes the underlying task engine.
func (m *Manager) Tasks() *core.Engine { return m.tasks }

// Close fails new requests with ErrClosed and closes a private task
// engine. In-flight requests still complete if something schedules the
// engine: their Wait does.
func (m *Manager) Close() {
	if m.stopped.CompareAndSwap(false, true) && m.ownTasks {
		m.tasks.Close()
	}
}

// Stats returns (reads, writes, filter runs) submitted so far.
func (m *Manager) Stats() (reads, writes, filters uint64) {
	return m.reads.Load(), m.writes.Load(), m.filters.Load()
}

// Op identifies a request type.
type Op int

// Request operations.
const (
	OpRead Op = iota
	OpWrite
	OpFilter
)

// Request is one asynchronous I/O operation. The PIOMan task is
// embedded, mirroring nmad's packet wrapper.
type Request struct {
	task core.Task

	op  Op
	r   io.ReaderAt
	w   io.WriterAt
	fn  func() error
	buf []byte
	off int64

	n    int
	err  error
	done chan struct{}
	fin  atomic.Bool

	mgr *Manager
}

// N returns the transferred byte count (valid after Wait).
func (r *Request) N() int { return r.n }

// Done returns a channel closed at completion.
func (r *Request) Done() <-chan struct{} { return r.done }

// Test reports completion without blocking.
func (r *Request) Test() bool { return r.fin.Load() }

// Wait blocks until the request completes, helping the task engine
// meanwhile, and returns the byte count and error. Once waitSpins
// passes in a row have run nothing, it blocks on the request's
// completion instead, provided the task engine has a progression
// context to finish it; without one the caller is the only progress
// there is, and Wait keeps helping.
func (r *Request) Wait() (int, error) {
	for idle := 0; !r.fin.Load(); {
		if r.mgr.tasks.Schedule(0) > 0 {
			idle = 0
		} else if idle++; idle >= waitSpins && r.mgr.tasks.Progressing() {
			break
		} else {
			runtime.Gosched()
		}
	}
	<-r.done // synchronizes the n/err writes
	return r.n, r.err
}

func (r *Request) finish(n int, err error) {
	r.n, r.err = n, err
	r.fin.Store(true)
	close(r.done)
}

// ioTask is the task body for every request kind.
func ioTask(arg any) bool {
	r := arg.(*Request)
	switch r.op {
	case OpRead:
		n, err := r.r.ReadAt(r.buf, r.off)
		r.finish(n, err)
	case OpWrite:
		n, err := r.w.WriteAt(r.buf, r.off)
		r.finish(n, err)
	case OpFilter:
		r.finish(0, r.fn())
	}
	return true
}

func (m *Manager) submit(r *Request) *Request {
	r.mgr = m
	r.done = make(chan struct{})
	r.task.Arg = r
	r.task.Fn = ioTask
	if m.stopped.Load() {
		r.finish(0, ErrClosed)
		return r
	}
	// The §IV-B idle-core offload: an idle core's queue when one is
	// advertised, the root queue otherwise — either way the request is
	// on some scanner's path.
	if err := m.tasks.SubmitToIdle(&r.task, 0); err != nil {
		r.finish(0, err)
	}
	return r
}

// ReadAt starts an asynchronous positional read into buf.
func (m *Manager) ReadAt(src io.ReaderAt, buf []byte, off int64) *Request {
	m.reads.Add(1)
	return m.submit(&Request{op: OpRead, r: src, buf: buf, off: off})
}

// WriteAt starts an asynchronous positional write of buf.
func (m *Manager) WriteAt(dst io.WriterAt, buf []byte, off int64) *Request {
	m.writes.Add(1)
	return m.submit(&Request{op: OpWrite, w: dst, buf: buf, off: off})
}

// Filter runs an arbitrary data-transformation function as a task on an
// idle core — the paper's "data filters such as data compression,
// encryption or encoding/decoding" executed off the critical path.
func (m *Manager) Filter(fn func() error) *Request {
	m.filters.Add(1)
	return m.submit(&Request{op: OpFilter, fn: fn})
}

// WaitAll waits for every request and returns the first error.
func WaitAll(reqs ...*Request) error {
	var firstErr error
	for _, r := range reqs {
		if _, err := r.Wait(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}
