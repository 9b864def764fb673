package nmad

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"testing"

	"pioman/internal/fabric"
	"pioman/internal/simtime"
)

// Eager traffic under frame loss: acceptance tests for the
// sequence/ack/retransmission window. Same discipline as the
// rendezvous chaos tests — both engines ride the fabric's virtual
// clock, so retry deadlines fire at exact modelled instants.

// newEagerRig builds a two-engine pair like newChaosRig but with a
// chosen small-message strategy, so the soup can cover the aggregation
// path (whose lost frames retransmit member-by-member as plain eager).
func newEagerRig(t testing.TB, fc fabric.FaultConfig, strategy StrategyKind) *chaosRig {
	t.Helper()
	r := &chaosRig{f: fabric.NewSimFabric(fabric.SimConfig{Faults: fc})}
	caps := fabric.Capabilities{Latency: simtime.Microsecond, Bandwidth: 4e9, MaxInject: 16 << 10, RMA: true}
	r.da = r.f.OpenDomain(caps)
	r.db = r.f.OpenDomain(caps)
	ea, eb := fabric.Connect(r.da, r.db)
	clock := func() int64 { return int64(r.f.Now()) }
	cfg := Config{
		Strategy:   strategy,
		RdvTimeout: int64(chaosRdvTimeout),
		RdvRetries: 4,
	}
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

// TestEagerRetryRecoversDroppedFrame drops the sender's outbound
// direction for a window covering the first transmission, then heals:
// the sweep retransmits from the window and the message lands
// byte-exact.
func TestEagerRetryRecoversDroppedFrame(t *testing.T) {
	r := newEagerRig(t, fabric.FaultConfig{}, StrategyDefault)
	defer r.close()
	payload := chaosPayload(2 << 10)

	r.da.SetFaults(&fabric.FaultConfig{DropProb: 1})
	rreq := r.gb.Irecv(1)
	sreq := r.ga.Isend(1, payload)
	r.schedule() // the frame leaves and dies on the wire
	r.da.SetFaults(nil)

	if !r.drive(64*chaosRdvTimeout, sreq, rreq) {
		t.Fatal("eager transfer did not recover from a dropped frame")
	}
	if sreq.Err() != nil || rreq.Err() != nil {
		t.Fatalf("transfer failed: send %v, recv %v", sreq.Err(), rreq.Err())
	}
	if !bytes.Equal(rreq.Data, payload) {
		t.Fatal("payload corrupted across retransmission")
	}
	if r.sender.Stats().EagerRetries == 0 {
		t.Error("recovery without a counted eager retransmission")
	}
	requireClean(t, "sender", r.ga)
	requireClean(t, "receiver", r.gb)
}

// TestEagerAckLossDoesNotDuplicate drops the receiver's outbound
// direction, so the frame lands but its ack dies: the sender
// retransmits, the receiver's settled log recognizes the duplicate,
// re-acks without redelivering, and the sender finally completes. A
// second receive on the same tag must stay unmatched — the message was
// delivered exactly once.
func TestEagerAckLossDoesNotDuplicate(t *testing.T) {
	r := newEagerRig(t, fabric.FaultConfig{}, StrategyDefault)
	defer r.close()
	payload := chaosPayload(2 << 10)

	r.db.SetFaults(&fabric.FaultConfig{DropProb: 1})
	rreq := r.gb.Irecv(1)
	sreq := r.ga.Isend(1, payload)
	r.schedule() // frame delivered; ack dies
	r.db.SetFaults(nil)

	if !r.drive(64*chaosRdvTimeout, sreq, rreq) {
		t.Fatal("sender did not recover from a dropped ack")
	}
	if sreq.Err() != nil || rreq.Err() != nil {
		t.Fatalf("transfer failed: send %v, recv %v", sreq.Err(), rreq.Err())
	}
	if !bytes.Equal(rreq.Data, payload) {
		t.Fatal("payload corrupted")
	}
	if r.sender.Stats().EagerRetries == 0 {
		t.Error("ack loss recovered without a retransmission; where did the ack come from?")
	}

	// The retransmitted duplicate must have been swallowed by the settled
	// log, not delivered to a later receive.
	extra := r.gb.Irecv(1)
	r.drive(16*chaosRdvTimeout, sreq)
	if extra.Test() {
		t.Fatal("duplicate eager frame matched a second receive; dedup failed")
	}
	if !extra.Cancel() {
		t.Fatal("Cancel refused the sentinel receive")
	}
	requireClean(t, "sender", r.ga)
	requireClean(t, "receiver", r.gb)
}

// TestEagerPermanentLossVisible cuts the sender's outbound direction
// forever: the retry budget must exhaust in bounded virtual time and
// surface ErrEagerTimeout — never a silent success, never a hang.
func TestEagerPermanentLossVisible(t *testing.T) {
	r := newEagerRig(t, fabric.FaultConfig{}, StrategyDefault)
	defer r.close()

	r.da.SetFaults(&fabric.FaultConfig{DropProb: 1})
	rreq := r.gb.Irecv(1)
	sreq := r.ga.Isend(1, chaosPayload(2<<10))

	// Budget: retries back off exponentially (T..16T for 4 retries), so
	// 256 timeouts of virtual time is comfortable.
	if !r.drive(256*chaosRdvTimeout, sreq) {
		t.Fatal("send still pending after budget; eager loss hangs")
	}
	if !errors.Is(sreq.Err(), ErrEagerTimeout) {
		t.Errorf("send error = %v, want ErrEagerTimeout", sreq.Err())
	}
	if r.sender.Stats().EagerTimeouts == 0 {
		t.Error("timeout not counted")
	}
	// The receive never saw a frame; cancellation is the documented
	// cleanup for an orphaned receive.
	if !rreq.Cancel() {
		t.Fatal("Cancel refused the orphaned receive")
	}
	requireClean(t, "sender", r.ga)
	requireClean(t, "receiver", r.gb)
}

// TestNoEagerRetryHangs is the ablation proving the window is
// load-bearing: with the retransmission deadline pushed past the
// horizon, eager through the same permanent loss never completes on
// either side — the hang the ack window's retransmission exists to
// kill — while the lost message stays visible in the sender's window.
func TestNoEagerRetryHangs(t *testing.T) {
	f := fabric.NewSimFabric(fabric.SimConfig{})
	caps := fabric.Capabilities{Latency: simtime.Microsecond, Bandwidth: 4e9, MaxInject: 16 << 10, RMA: true}
	da, db := f.OpenDomain(caps), f.OpenDomain(caps)
	ea, eb := fabric.Connect(da, db)
	clock := func() int64 { return int64(f.Now()) }
	cfg := Config{
		RdvTimeout: math.MaxInt64 / 4,
		RdvRetries: 4,
	}
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

	da.SetFaults(&fabric.FaultConfig{DropProb: 1})
	rreq := gb.Irecv(1)
	sreq := ga.Isend(1, chaosPayload(2<<10))
	for i := 0; i < 64; i++ {
		sender.Tasks().Schedule(0)
		receiver.Tasks().Schedule(0)
		f.Advance(4 * chaosRdvTimeout)
	}
	if sreq.Test() {
		t.Fatalf("send completed across a dead link without retransmission (err %v); the ablation is broken", sreq.Err())
	}
	if rreq.Test() {
		t.Fatal("receive completed across a dead link without retransmission; the ablation is broken")
	}
	if n := sender.Stats().EagerRetries; n != 0 {
		t.Errorf("ablation retransmitted %d times; the deadline is not past the horizon", n)
	}
	if n := ga.CheckIdle().EagerPending; n != 1 {
		t.Errorf("sender window holds %d pending messages, want the lost one visible", n)
	}
	if !rreq.Cancel() {
		t.Fatal("Cancel refused the orphaned receive")
	}
	requireClean(t, "receiver", gb)
}

// TestCheckIdleReportsEagerPending is the leak-audit contract for the
// new window: an unacked eager message must show up in CheckIdle (and
// fail Clean) while in flight, and leave no trace once resolved.
func TestCheckIdleReportsEagerPending(t *testing.T) {
	r := newEagerRig(t, fabric.FaultConfig{}, StrategyDefault)
	defer r.close()

	r.da.SetFaults(&fabric.FaultConfig{DropProb: 1})
	rreq := r.gb.Irecv(1)
	sreq := r.ga.Isend(1, chaosPayload(2<<10))
	r.schedule() // wire-out happened, no ack can come back; clock untouched

	rep := r.ga.CheckIdle()
	if rep.EagerPending == 0 {
		t.Fatal("in-flight unacked eager message invisible to CheckIdle")
	}
	if rep.Clean() {
		t.Fatal("CheckIdle.Clean() true while an eager message awaits its ack")
	}

	r.da.SetFaults(nil)
	if !r.drive(64*chaosRdvTimeout, sreq, rreq) {
		t.Fatal("transfer did not finish after heal")
	}
	requireClean(t, "sender", r.ga)
	requireClean(t, "receiver", r.gb)
}

// TestEagerChaosSoup pushes a mix of aggregated batches and singleton
// eager messages through a fabric that drops, duplicates, and delays
// at random (seeded): every message must complete byte-exact or fail
// visibly with ErrEagerTimeout within the virtual-time budget — never
// hang, never deliver twice — and both gates must quiesce clean.
func TestEagerChaosSoup(t *testing.T) {
	r := newEagerRig(t, fabric.FaultConfig{
		Seed:        2009,
		DropProb:    0.15,
		DupProb:     0.10,
		DelayJitter: 20 * simtime.Microsecond,
	}, StrategyAggreg)
	defer r.close()

	const n = 24
	payloads := make([][]byte, n)
	sends := make([]*Request, n)
	recvs := make([]*Request, n)
	for i := 0; i < n; i++ {
		payloads[i] = []byte(fmt.Sprintf("eager-soup-%03d-%s", i, chaosPayload(64+i*7)))
		recvs[i] = r.gb.Irecv(uint64(i))
	}
	// Post in bursts so some sends aggregate into shared frames and some
	// go out as plain singletons — both wire formats cross the soup.
	for i := 0; i < n; i++ {
		sends[i] = r.ga.Isend(uint64(i), payloads[i])
		if i%5 == 4 {
			r.schedule()
		}
	}

	all := append(append([]*Request{}, sends...), recvs...)
	r.drive(512*chaosRdvTimeout, all...)

	ok, failed := 0, 0
	for i := 0; i < n; i++ {
		if !sends[i].Test() {
			t.Errorf("send %d hung", i)
			continue
		}
		switch err := sends[i].Err(); {
		case err == nil:
			ok++
			if !recvs[i].Test() {
				t.Errorf("send %d acked but recv %d still pending", i, i)
			} else if !bytes.Equal(recvs[i].Data, payloads[i]) {
				t.Errorf("recv %d corrupted: got %d bytes", i, len(recvs[i].Data))
			}
		case errors.Is(err, ErrEagerTimeout):
			failed++
			if !recvs[i].Test() && !recvs[i].Cancel() {
				t.Errorf("recv %d of a timed-out send refused cancellation", i)
			}
		default:
			t.Errorf("send %d failed with %v, want nil or ErrEagerTimeout", i, err)
		}
	}
	st := r.sender.Stats()
	t.Logf("soup: %d/%d delivered, %d failed visibly, retries=%d timeouts=%d acks=%d",
		ok, n, failed, st.EagerRetries, st.EagerTimeouts, st.EagerAcks)
	if ok < n*4/5 {
		t.Errorf("only %d/%d messages survived DropProb 0.15; the window is not retransmitting", ok, n)
	}
	if st.EagerRetries == 0 {
		t.Error("a 15%% drop soup fired zero retransmissions")
	}

	r.drive(32*chaosRdvTimeout, all...)
	requireClean(t, "sender", r.ga)
	requireClean(t, "receiver", r.gb)
}
