// Package mpi is a MadMPI-like message-passing interface on top of the
// nmad engine: ranks, tag matching with source selection, blocking and
// non-blocking point-to-point operations, probes and a barrier. It
// provides MPI_THREAD_MULTIPLE semantics — any number of goroutines may
// call into a Comm concurrently — because the underlying engine
// serializes only its matching structures, never the progression.
//
// Communication progresses in the background through the PIOMan task
// engine regardless of whether any rank is inside an MPI call: this is
// the property the paper's Figures 5-7 measure.
package mpi

import (
	"fmt"
	"sync"

	"pioman/internal/nmad"
)

// AnySource matches a message from any connected peer.
const AnySource = -1

// maxUserTag bounds application tags; higher tag bits are reserved for
// internal protocols (barrier).
const maxUserTag = 1 << 30

// barrierTagBase marks internal barrier messages.
const barrierTagBase = uint64(1) << 40

// Comm is one rank's communicator: a set of gates to peer ranks.
type Comm struct {
	rank int
	eng  *nmad.Engine

	mu    sync.RWMutex
	gates map[int]*nmad.Gate

	barrierSeq uint64
}

// NewComm creates a communicator for the given rank over an engine.
func NewComm(rank int, eng *nmad.Engine) *Comm {
	return &Comm{rank: rank, eng: eng, gates: make(map[int]*nmad.Gate)}
}

// Rank returns this process's rank.
func (c *Comm) Rank() int { return c.rank }

// Engine exposes the underlying nmad engine.
func (c *Comm) Engine() *nmad.Engine { return c.eng }

// Connect registers the gate leading to a peer rank.
func (c *Comm) Connect(peer int, g *nmad.Gate) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.gates[peer] = g
}

// Peers returns the connected peer ranks.
func (c *Comm) Peers() []int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]int, 0, len(c.gates))
	for r := range c.gates {
		out = append(out, r)
	}
	return out
}

func (c *Comm) gate(peer int) (*nmad.Gate, error) {
	c.mu.RLock()
	g := c.gates[peer]
	c.mu.RUnlock()
	if g == nil {
		return nil, fmt.Errorf("mpi: rank %d not connected to rank %d", c.rank, peer)
	}
	return g, nil
}

func checkTag(tag int) error {
	if tag < 0 || tag >= maxUserTag {
		return fmt.Errorf("mpi: tag %d out of range [0, %d)", tag, maxUserTag)
	}
	return nil
}

// Request is a non-blocking operation handle.
type Request struct {
	inner *nmad.Request
	// Source is the peer rank the operation addresses.
	Source int
}

// Wait blocks until completion (actively progressing tasks) and returns
// the received data for receives.
func (r *Request) Wait() ([]byte, error) {
	if err := r.inner.Wait(); err != nil {
		return nil, err
	}
	return r.inner.Data, nil
}

// Test reports completion without blocking.
func (r *Request) Test() bool { return r.inner.Test() }

// Done returns a channel closed at completion.
func (r *Request) Done() <-chan struct{} { return r.inner.Done() }

// Isend starts a non-blocking send to rank dst.
func (c *Comm) Isend(dst, tag int, data []byte) (*Request, error) {
	if err := checkTag(tag); err != nil {
		return nil, err
	}
	g, err := c.gate(dst)
	if err != nil {
		return nil, err
	}
	return &Request{inner: g.Isend(uint64(tag), data), Source: dst}, nil
}

// Irecv starts a non-blocking receive from rank src (AnySource is not
// supported in non-blocking form; use Recv or Probe).
func (c *Comm) Irecv(src, tag int) (*Request, error) {
	if err := checkTag(tag); err != nil {
		return nil, err
	}
	if src == AnySource {
		return nil, fmt.Errorf("mpi: Irecv does not support AnySource; use Recv")
	}
	g, err := c.gate(src)
	if err != nil {
		return nil, err
	}
	return &Request{inner: g.Irecv(uint64(tag)), Source: src}, nil
}

// Send sends data to rank dst and returns once the peer holds every
// byte: on the peer's ack (eager) or its FIN (rendezvous).
func (c *Comm) Send(dst, tag int, data []byte) error {
	req, err := c.Isend(dst, tag, data)
	if err != nil {
		return err
	}
	_, err = req.Wait()
	return err
}

// Recv receives the next message with the given tag from src, or from
// any connected peer when src is AnySource.
func (c *Comm) Recv(src, tag int) ([]byte, int, error) {
	if err := checkTag(tag); err != nil {
		return nil, 0, err
	}
	if src != AnySource {
		req, err := c.Irecv(src, tag)
		if err != nil {
			return nil, 0, err
		}
		data, err := req.Wait()
		return data, src, err
	}
	// AnySource: probe the unexpected queues until a peer has a match,
	// then commit a receive on that gate.
	for {
		from, ok := c.Iprobe(AnySource, tag)
		if !ok {
			// Help progression while waiting.
			c.eng.Tasks().Schedule(0)
			continue
		}
		req, err := c.Irecv(from, tag)
		if err != nil {
			return nil, 0, err
		}
		data, err := req.Wait()
		return data, from, err
	}
}

// Iprobe reports whether a message with the given tag has arrived from
// src (or any peer for AnySource) without consuming it. It returns the
// source rank of the first match.
func (c *Comm) Iprobe(src, tag int) (int, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if src != AnySource {
		if g := c.gates[src]; g != nil && g.Unexpected(uint64(tag)) {
			return src, true
		}
		return 0, false
	}
	for r, g := range c.gates {
		if g.Unexpected(uint64(tag)) {
			return r, true
		}
	}
	return 0, false
}

// Waitall waits for every request, returning the first error.
func Waitall(reqs ...*Request) error {
	var firstErr error
	for _, r := range reqs {
		if _, err := r.Wait(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// Barrier synchronizes all connected ranks with a flat exchange: every
// rank sends a token to every peer and waits for one from each. Safe
// only when all ranks call it the same number of times.
func (c *Comm) Barrier() error {
	c.mu.Lock()
	c.barrierSeq++
	seq := c.barrierSeq
	gates := make(map[int]*nmad.Gate, len(c.gates))
	for r, g := range c.gates {
		gates[r] = g
	}
	c.mu.Unlock()

	tag := barrierTagBase + seq
	var reqs []*nmad.Request
	for _, g := range gates {
		reqs = append(reqs, g.Isend(tag, nil))
	}
	for _, g := range gates {
		reqs = append(reqs, g.Irecv(tag))
	}
	for _, r := range reqs {
		if err := r.Wait(); err != nil {
			return err
		}
	}
	return nil
}

// LocalCluster builds n fully connected in-process ranks over memory
// rails — the quickest way to run multi-rank examples and tests in one
// process. Close every returned engine when done.
func LocalCluster(n int, cfg nmad.Config) ([]*Comm, []*nmad.Engine, error) {
	if n < 1 {
		return nil, nil, fmt.Errorf("mpi: cluster size %d", n)
	}
	engines := make([]*nmad.Engine, n)
	comms := make([]*Comm, n)
	for i := 0; i < n; i++ {
		engines[i] = nmad.NewEngine(cfg)
		comms[i] = NewComm(i, engines[i])
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			di, dj := nmad.MemPair()
			gi, err := engines[i].NewGate(di)
			if err != nil {
				return nil, nil, err
			}
			gj, err := engines[j].NewGate(dj)
			if err != nil {
				return nil, nil, err
			}
			comms[i].Connect(j, gi)
			comms[j].Connect(i, gj)
		}
	}
	return comms, engines, nil
}
