package nmad

import (
	"bytes"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pioman/internal/core"
	"pioman/internal/fabric"
	"pioman/internal/simtime"
)

// Close owes nothing: the receiver of a message closes its engine as
// soon as its Wait returns, and the sender, still waiting on the FIN or
// eager ack that receive owes it, must complete without error.

// closeAfterRecvSizes are one eager and one rendezvous payload.
var closeAfterRecvSizes = []struct {
	name string
	n    int
}{{"eager", 64}, {"rendezvous", 64 << 10}}

func closeAfterRecvPayload(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i*7 + 3)
	}
	return b
}

func TestCloseAfterRecvFlushesFin(t *testing.T) {
	for _, rail := range []struct {
		name string
		pair func(*testing.T) (Driver, Driver)
	}{
		{"mem", func(*testing.T) (Driver, Driver) { return MemPair() }},
		{"tcp", func(t *testing.T) (Driver, Driver) { return tcpPair(t) }},
	} {
		for _, size := range closeAfterRecvSizes {
			t.Run(rail.name+"/"+size.name, func(t *testing.T) {
				da, db := rail.pair(t)
				sender, receiver := NewEngine(Config{}), NewEngine(Config{})
				defer sender.Close()
				ga, err := sender.NewGate(da)
				if err != nil {
					t.Fatal(err)
				}
				gb, err := receiver.NewGate(db)
				if err != nil {
					t.Fatal(err)
				}
				msg := closeAfterRecvPayload(size.n)
				r := gb.Irecv(1)
				s := ga.Isend(1, msg)
				if err := r.Wait(); err != nil || !bytes.Equal(r.Data, msg) {
					t.Fatalf("receive: %v (bytes equal: %v)", err, bytes.Equal(r.Data, msg))
				}
				receiver.Close()
				if err := s.Wait(); err != nil {
					t.Fatalf("the sender failed after the receiver closed: %v", err)
				}
			})
		}
	}
	for _, size := range closeAfterRecvSizes {
		t.Run("sim/"+size.name, func(t *testing.T) {
			f := fabric.NewSimFabric(fabric.SimConfig{})
			caps := fabric.Capabilities{Latency: simtime.Microsecond, Bandwidth: 4e9, MaxInject: 16 << 10, RMA: true}
			ea, eb := fabric.Connect(f.OpenDomain(caps), f.OpenDomain(caps))
			// One task engine for both sides and no progression context:
			// the receiver's Wait, its Close and the loop below drive all.
			tasks := core.New(core.Config{Clock: func() int64 { return int64(f.Now()) }})
			sender, receiver := NewEngine(Config{Tasks: tasks}), NewEngine(Config{Tasks: tasks})
			defer sender.Close()
			ga, err := sender.NewGateEndpoints(ea)
			if err != nil {
				t.Fatal(err)
			}
			gb, err := receiver.NewGateEndpoints(eb)
			if err != nil {
				t.Fatal(err)
			}
			msg := closeAfterRecvPayload(size.n)
			r := gb.Irecv(1)
			s := ga.Isend(1, msg)
			if err := r.Wait(); err != nil || !bytes.Equal(r.Data, msg) {
				t.Fatalf("receive: %v (bytes equal: %v)", err, bytes.Equal(r.Data, msg))
			}
			receiver.Close()
			for pass := 0; pass < 10000 && !s.Test(); pass++ {
				tasks.Schedule(0)
			}
			if !s.Test() || s.Err() != nil {
				t.Fatalf("after the receiver closed, the send completed %v with error %v", s.Test(), s.Err())
			}
		})
	}
}

// stuckEndpoint is a rail whose peer stopped draining it: once stuck,
// a Send blocks until the rail is closed.
type stuckEndpoint struct {
	fabric.Endpoint
	stuck               atomic.Bool
	blocked, closed     chan struct{}
	blockOnce, shutOnce sync.Once
}

func (s *stuckEndpoint) Send(imm, payload []byte) error {
	if !s.stuck.Load() {
		return s.Endpoint.Send(imm, payload)
	}
	s.blockOnce.Do(func() { close(s.blocked) })
	<-s.closed
	return ErrClosed
}

func (s *stuckEndpoint) Close() error {
	s.shutOnce.Do(func() { close(s.closed) })
	return s.Endpoint.Close()
}

func (s *stuckEndpoint) RMARead(key fabric.RKey, offset int, local []byte, ctx any) error {
	return s.Endpoint.(fabric.RMAEndpoint).RMARead(key, offset, local, ctx)
}

func (s *stuckEndpoint) Domain() fabric.Domain { return s.Endpoint.(fabric.Domained).Domain() }

// TestCloseWithDeadPeerReturnsWithinLinger: an engine owing an eager ack
// to a peer that stopped reading lingers for it, but no longer than one
// RdvTimeout; then Close closes the rail, which unblocks the send.
func TestCloseWithDeadPeerReturnsWithinLinger(t *testing.T) {
	const linger = 100 * time.Millisecond
	e := NewEngine(Config{RdvTimeout: int64(linger)})
	near, far := fabric.NewLoopbackRMA()
	defer far.Close()
	ep := &stuckEndpoint{Endpoint: near, blocked: make(chan struct{}), closed: make(chan struct{})}
	if _, err := e.NewGateEndpoints(ep); err != nil {
		t.Fatal(err)
	}
	ep.stuck.Store(true)
	sendRaw(t, far, Header{Kind: KindEager, Tag: 1, MsgID: 1, Total: 4}, nil, []byte("ping"))
	select {
	case <-ep.blocked:
	case <-time.After(10 * time.Second):
		t.Fatal("the engine never tried to send the ack it owes")
	}
	start := time.Now()
	e.Close()
	d := time.Since(start)
	if d < linger {
		t.Errorf("Close returned after %v, without lingering for the owed ack", d)
	}
	if d > linger+time.Second {
		t.Errorf("Close took %v, past its %v linger bound", d, linger)
	}
}
