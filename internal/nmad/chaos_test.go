package nmad

import (
	"bytes"
	"errors"
	"math"
	"testing"

	"pioman/internal/fabric"
	"pioman/internal/simtime"
)

// Rendezvous under frame loss: the handshake-timeout acceptance tests.
// Every test runs on a virtual clock — the fabric's, or one the test
// steps by hand — so timeouts fire at exact modelled instants and
// failures are bounded in virtual time, not wall time.

const chaosRdvTimeout = 2 * simtime.Millisecond

// chaosRig is a two-engine pair over one RMA rail whose rendezvous
// deadlines ride the fabric clock.
type chaosRig struct {
	f                *fabric.SimFabric
	da, db           *fabric.SimDomain
	sender, receiver *Engine
	ga, gb           *Gate
}

func newChaosRig(t testing.TB, fc fabric.FaultConfig) *chaosRig {
	t.Helper()
	return newSimRig(t, fc, Config{RdvTimeout: int64(chaosRdvTimeout), RdvRetries: 4})
}

// newSimRig builds the two-engine pair with the given engine config;
// both engines read the fabric's clock.
func newSimRig(t testing.TB, fc fabric.FaultConfig, cfg Config) *chaosRig {
	t.Helper()
	r := &chaosRig{f: fabric.NewSimFabric(fabric.SimConfig{Faults: fc})}
	caps := fabric.Capabilities{Latency: simtime.Microsecond, Bandwidth: 4e9, MaxInject: 16 << 10, RMA: true}
	r.da = r.f.OpenDomain(caps)
	r.db = r.f.OpenDomain(caps)
	ea, eb := fabric.Connect(r.da, r.db)
	clock := func() int64 { return int64(r.f.Now()) }
	r.sender = newManualEngine(cfg, clock)
	r.receiver = newManualEngine(cfg, clock)
	var err error
	if r.ga, err = r.sender.NewGateEndpoints(ea); err != nil {
		t.Fatal(err)
	}
	if r.gb, err = r.receiver.NewGateEndpoints(eb); err != nil {
		t.Fatal(err)
	}
	return r
}

func (r *chaosRig) close() {
	r.sender.Close()
	r.receiver.Close()
}

// schedule runs a few progression passes on both engines.
func (r *chaosRig) schedule() {
	for i := 0; i < 8; i++ {
		r.sender.Tasks().Schedule(0)
		r.receiver.Tasks().Schedule(0)
	}
}

// drive progresses both engines until every request completes or the
// virtual-time budget runs out, expiring timeouts by advancing the
// fabric clock whenever the wire goes quiet. Returns whether all
// completed in budget.
func (r *chaosRig) drive(budget simtime.Duration, reqs ...*Request) bool {
	limit := r.f.Now() + simtime.Time(budget)
	for {
		done := true
		for _, q := range reqs {
			if !q.Test() {
				done = false
				break
			}
		}
		if done {
			return true
		}
		if r.f.Now() > limit {
			return false
		}
		r.schedule()
		r.f.Advance(chaosRdvTimeout / 4)
	}
}

func chaosPayload(n int) []byte {
	p := make([]byte, n)
	for i := range p {
		p[i] = byte(i*131 + i>>8)
	}
	return p
}

// requireClean fails the test when a quiesced gate still holds protocol
// state or pinned registrations.
func requireClean(t *testing.T, name string, g *Gate) {
	t.Helper()
	if rep := g.CheckIdle(); !rep.Clean() {
		t.Errorf("%s gate leaked after quiesce: %+v", name, rep)
	}
}

// TestRdvTimeoutRecoversDroppedRTS drops every frame the sender emits
// during a window covering the RTS, then heals the link: the timeout
// sweep retransmits the RTS and the transfer completes byte-exact.
func TestRdvTimeoutRecoversDroppedRTS(t *testing.T) {
	r := newChaosRig(t, fabric.FaultConfig{})
	defer r.close()
	payload := chaosPayload(64 << 10)

	r.da.SetFaults(&fabric.FaultConfig{DropProb: 1})
	rreq := r.gb.Irecv(1)
	sreq := r.ga.Isend(1, payload)
	r.schedule() // the RTS leaves and dies on the wire
	r.da.SetFaults(nil)

	if !r.drive(64*chaosRdvTimeout, sreq, rreq) {
		t.Fatal("transfer did not recover from a dropped RTS")
	}
	if err := sreq.Err(); err != nil {
		t.Fatalf("send failed: %v", err)
	}
	if err := rreq.Err(); err != nil {
		t.Fatalf("recv failed: %v", err)
	}
	if !bytes.Equal(rreq.Data, payload) {
		t.Fatal("payload corrupted across retransmission")
	}
	if got := r.sender.Stats().RdvRetries; got == 0 {
		t.Error("recovery without a counted retransmission")
	}
	requireClean(t, "sender", r.ga)
	requireClean(t, "receiver", r.gb)
}

// TestRdvTimeoutFailsVisibly lets the RTS cross, then makes the link
// permanently lossy both ways: every read, FIN and retransmission dies
// forever. Both halves must fail visibly within the bounded retry
// budget — virtual time, no wall-clock involved — and release every
// pinned resource.
func TestRdvTimeoutFailsVisibly(t *testing.T) {
	r := newChaosRig(t, fabric.FaultConfig{})
	defer r.close()
	payload := chaosPayload(64 << 10)

	rreq := r.gb.Irecv(1)
	sreq := r.ga.Isend(1, payload)
	// The RTS leaves loss-free (faults are drawn at send time); the
	// receiver's reads draw theirs from the serving side, da.
	for i := 0; i < 8; i++ {
		r.sender.Tasks().Schedule(0)
	}
	r.da.SetFaults(&fabric.FaultConfig{DropProb: 1})
	r.db.SetFaults(&fabric.FaultConfig{DropProb: 1})

	// Budget: retries back off exponentially (T, 2T, 4T, 8T, 16T for 4
	// retries), so 256 timeouts of virtual time is comfortable.
	if !r.drive(256*chaosRdvTimeout, sreq, rreq) {
		t.Fatalf("requests still pending after budget: send=%v recv=%v", sreq.Test(), rreq.Test())
	}
	if !errors.Is(sreq.Err(), ErrRdvTimeout) {
		t.Errorf("send error = %v, want ErrRdvTimeout", sreq.Err())
	}
	// The receiver either exhausts its own budget (ErrRdvTimeout) or is
	// told first by the sender's parting NACK (errRdvRejected) —
	// whichever lands first, the failure must be visible.
	if err := rreq.Err(); err == nil {
		t.Error("recv completed silently; want a visible failure")
	} else if !errors.Is(err, ErrRdvTimeout) && !errors.Is(err, errRdvRejected) {
		t.Errorf("recv error = %v, want ErrRdvTimeout or a rendezvous NACK", err)
	}
	if got := r.sender.Stats().RdvTimeouts; got == 0 {
		t.Error("sender timeout not counted")
	}
	requireClean(t, "sender", r.ga)
	requireClean(t, "receiver", r.gb)
}

// TestNoRdvTimeoutHangs is the broken-control ablation: with the
// handshake deadline pushed past the horizon, the same permanent loss
// leaves both requests pending forever and the sender's registrations
// pinned — the exact failure mode the timeout exists to kill.
func TestNoRdvTimeoutHangs(t *testing.T) {
	f := fabric.NewSimFabric(fabric.SimConfig{})
	caps := fabric.Capabilities{Latency: simtime.Microsecond, Bandwidth: 4e9, MaxInject: 16 << 10, RMA: true}
	da, db := f.OpenDomain(caps), f.OpenDomain(caps)
	ea, eb := fabric.Connect(da, db)
	clock := func() int64 { return int64(f.Now()) }
	cfg := Config{RdvTimeout: math.MaxInt64 / 4}
	sender, receiver := newManualEngine(cfg, clock), newManualEngine(cfg, clock)
	defer sender.Close()
	defer receiver.Close()
	ga, err := sender.NewGateEndpoints(ea)
	if err != nil {
		t.Fatal(err)
	}
	gb, err := receiver.NewGateEndpoints(eb)
	if err != nil {
		t.Fatal(err)
	}

	da.SetPartition(1) // cut before anything crosses
	rreq := gb.Irecv(1)
	sreq := ga.Isend(1, chaosPayload(64<<10))
	for i := 0; i < 50; i++ {
		sender.Tasks().Schedule(0)
		receiver.Tasks().Schedule(0)
		f.Advance(10 * chaosRdvTimeout)
	}
	if sreq.Test() || rreq.Test() {
		t.Fatal("requests completed without a handshake retransmission; the ablation is broken")
	}
	rep := ga.CheckIdle()
	if rep.SendRendezvous == 0 {
		t.Error("hung sender holds no rendezvous state; expected a leak")
	}
	if rep.RegInFlight == 0 {
		t.Error("hung sender pins no registrations; expected a leak")
	}
	// The orphaned receive is recoverable only by cancellation.
	if !rreq.Cancel() {
		t.Fatal("Cancel refused an unmatched receive")
	}
	if !errors.Is(rreq.Err(), ErrCanceled) {
		t.Errorf("canceled receive error = %v, want ErrCanceled", rreq.Err())
	}
	requireClean(t, "receiver", gb)
}

// TestRdvChaosSoup runs a batch of rendezvous transfers through a
// fabric that drops, duplicates, and delays at random (seeded): every
// transfer must either complete byte-exact or fail visibly within the
// virtual-time budget — never hang — and the gates must quiesce clean.
func TestRdvChaosSoup(t *testing.T) {
	r := newChaosRig(t, fabric.FaultConfig{
		Seed:        1789,
		DropProb:    0.15,
		DupProb:     0.10,
		DelayJitter: 20 * simtime.Microsecond,
	})
	defer r.close()

	const n = 12
	payload := chaosPayload(48 << 10)
	var sends, recvs [n]*Request
	for i := 0; i < n; i++ {
		recvs[i] = r.gb.Irecv(uint64(i))
	}
	for i := 0; i < n; i++ {
		sends[i] = r.ga.Isend(uint64(i), payload)
	}

	all := append(append([]*Request{}, sends[:]...), recvs[:]...)
	completed := r.drive(512*chaosRdvTimeout, all...)

	ok, failed := 0, 0
	for i := 0; i < n; i++ {
		switch {
		case !sends[i].Test():
			t.Errorf("send %d hung", i)
		case sends[i].Err() == nil:
			ok++
		default:
			failed++
		}
		if !recvs[i].Test() {
			// A receive whose sender gave up (and whose NACK was lost)
			// stays unmatched: cancellation is the documented cleanup.
			if !recvs[i].Cancel() {
				t.Errorf("recv %d hung and refused cancellation", i)
			}
			continue
		}
		if recvs[i].Err() == nil && !bytes.Equal(recvs[i].Data, payload) {
			t.Errorf("recv %d completed with corrupted payload", i)
		}
	}
	if !completed {
		t.Logf("budget hit with some requests pending (resolved above): ok=%d failed=%d", ok, failed)
	}
	t.Logf("soup: %d/%d transfers survived, %d failed visibly, sender retries=%d timeouts=%d",
		ok, n, failed, r.sender.Stats().RdvRetries, r.sender.Stats().RdvTimeouts)
	if ok == 0 {
		t.Error("no transfer survived DropProb 0.15; retransmission is not working")
	}

	// Quiesce: settle any stragglers the cancellations released, then
	// audit for leaks.
	r.drive(32*chaosRdvTimeout, all...)
	requireClean(t, "sender", r.ga)
	requireClean(t, "receiver", r.gb)
}
