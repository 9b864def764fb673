package nmad

import (
	"errors"
	"sync/atomic"
	"testing"

	"pioman/internal/admit"
)

// Admission-control acceptance tests. Every rig runs both engines on a
// manual clock with explicit progression, so admission decisions,
// wait-queue expiry, and deadline sweeps fire at exact instants.

// admitRig is a two-engine mem-rail pair whose sender runs admission
// control under the given policy and budgets.
type admitRig struct {
	clock  atomic.Int64
	reads  atomic.Int64 // clock reads by either engine
	ea, eb *Engine
	ga, gb *Gate
}

func newAdmitRig(t *testing.T, tweak func(*Config)) *admitRig {
	t.Helper()
	r := &admitRig{}
	r.clock.Store(1)
	clk := func() int64 {
		r.reads.Add(1)
		return r.clock.Load()
	}
	cfg := Config{RdvTimeout: 1 << 20, RdvRetries: 4}
	peer := cfg
	tweak(&cfg)
	r.ea = newManualEngine(cfg, clk)
	r.eb = newManualEngine(peer, clk)
	da, db := MemPair()
	var err error
	if r.ga, err = r.ea.NewGate(da); err != nil {
		t.Fatal(err)
	}
	if r.gb, err = r.eb.NewGate(db); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		r.ea.Close()
		r.eb.Close()
	})
	return r
}

// schedule runs a few progression passes on both engines.
func (r *admitRig) schedule() {
	for i := 0; i < 8; i++ {
		r.ea.Tasks().Schedule(0)
		r.eb.Tasks().Schedule(0)
	}
}

// advance moves the manual clock and runs progression so sweeps see it.
func (r *admitRig) advance(d int64) {
	r.clock.Add(d)
	r.schedule()
}

// drive progresses both engines until every request completes.
func (r *admitRig) drive(t *testing.T, reqs ...*Request) {
	t.Helper()
	for i := 0; i < 10000; i++ {
		done := true
		for _, q := range reqs {
			if !q.Test() {
				done = false
				break
			}
		}
		if done {
			return
		}
		r.schedule()
	}
	t.Fatal("requests did not complete under progression")
}

func TestAdmitRejectFailsFast(t *testing.T) {
	r := newAdmitRig(t, func(c *Config) {
		c.Admit = &admit.Config{GateRequests: 2, GateBytes: 1 << 20}
		c.AdmitPolicy = AdmitReject
	})
	recvs := []*Request{r.gb.Irecv(1), r.gb.Irecv(2), r.gb.Irecv(3)}
	s1 := r.ga.Isend(1, []byte("one"))
	s2 := r.ga.Isend(2, []byte("two"))
	s3 := r.ga.Isend(3, []byte("three"))
	if !s3.Test() || !errors.Is(s3.Err(), ErrAdmissionReject) {
		t.Fatalf("third send past a 2-request budget: Test=%v Err=%v", s3.Test(), s3.Err())
	}
	r.drive(t, s1, s2, recvs[0], recvs[1])
	if s1.Err() != nil || s2.Err() != nil {
		t.Fatalf("admitted sends failed: %v, %v", s1.Err(), s2.Err())
	}
	// Credits released on completion: the next submission is admitted.
	s4 := r.ga.Isend(3, []byte("three again"))
	r.drive(t, s4, recvs[2])
	if s4.Err() != nil {
		t.Fatalf("send after drain failed: %v", s4.Err())
	}
	st := r.ea.Stats()
	if st.AdmitAdmitted != 3 || st.AdmitRejected != 1 {
		t.Fatalf("stats: admitted %d (want 3), rejected %d (want 1)", st.AdmitAdmitted, st.AdmitRejected)
	}
	if rep := r.ga.CheckIdle(); !rep.Clean() {
		t.Fatalf("sender gate leaked after quiesce: %+v", rep)
	}
	info := r.ea.AdmitInfo()
	if !info.Enabled || info.Requests != 0 || info.Bytes != 0 || info.Degraded {
		t.Fatalf("admission plane not idle after quiesce: %+v", info)
	}
}

// TestAdmitReadsClockOnlyForDeadline counts engine clock reads per
// admitted eager Isend: without a deadline the only read is the ack
// window's retransmission deadline (trackEager); a deadline adds
// admission's expiry check.
func TestAdmitReadsClockOnlyForDeadline(t *testing.T) {
	r := newAdmitRig(t, func(c *Config) {
		c.Admit = &admit.Config{GateRequests: 4, GateBytes: 1 << 20}
		c.AdmitPolicy = AdmitBlock
		c.AdmitWait = 1 << 30
	})
	recvs := []*Request{r.gb.Irecv(1), r.gb.Irecv(2)}
	before := r.reads.Load()
	s1 := r.ga.Isend(1, []byte("no deadline"))
	if n := r.reads.Load() - before; n != 1 {
		t.Errorf("Isend without a deadline read the clock %d times, want 1", n)
	}
	before = r.reads.Load()
	s2 := r.ga.IsendDeadline(2, []byte("with deadline"), 1<<40)
	if n := r.reads.Load() - before; n != 2 {
		t.Errorf("Isend with a deadline read the clock %d times, want 2", n)
	}
	r.drive(t, s1, s2, recvs[0], recvs[1])
	if s1.Err() != nil || s2.Err() != nil {
		t.Fatalf("admitted sends failed: %v, %v", s1.Err(), s2.Err())
	}
	if st := r.ea.Stats(); st.AdmitAdmitted != 2 || st.AdmitBlocked != 0 {
		t.Fatalf("stats: admitted %d (want 2), blocked %d (want 0)", st.AdmitAdmitted, st.AdmitBlocked)
	}
}

func TestAdmitBlockDrainsOnRelease(t *testing.T) {
	r := newAdmitRig(t, func(c *Config) {
		c.Admit = &admit.Config{GateRequests: 1, GateBytes: 1 << 20}
		c.AdmitPolicy = AdmitBlock
		c.AdmitWait = 1 << 30
	})
	recvs := []*Request{r.gb.Irecv(1), r.gb.Irecv(2), r.gb.Irecv(3)}
	s1 := r.ga.Isend(1, []byte("head"))
	s2 := r.ga.Isend(2, []byte("parked"))
	s3 := r.ga.Isend(3, []byte("parked too"))
	if s2.Test() || s3.Test() {
		t.Fatal("blocked submissions completed without credits")
	}
	// Completing the head releases its credit; the parked submissions
	// inject strictly in FIFO order as credits free up.
	r.drive(t, s1, s2, s3, recvs[0], recvs[1], recvs[2])
	for i, s := range []*Request{s1, s2, s3} {
		if s.Err() != nil {
			t.Fatalf("send %d failed: %v", i+1, s.Err())
		}
	}
	st := r.ea.Stats()
	if st.AdmitBlocked != 2 || st.AdmitRejected != 0 || st.AdmitExpired != 0 {
		t.Fatalf("stats: %+v", st)
	}
	if rep := r.ga.CheckIdle(); !rep.Clean() {
		t.Fatalf("sender gate leaked: %+v", rep)
	}
}

func TestAdmitBlockWaitExpires(t *testing.T) {
	r := newAdmitRig(t, func(c *Config) {
		c.Admit = &admit.Config{GateRequests: 1, GateBytes: 1 << 20}
		c.AdmitPolicy = AdmitBlock
		c.AdmitWait = 1000
	})
	// The head send is never progressed on the receiver side, so its
	// credit is never released and the parked submission must expire.
	s1 := r.ga.Isend(1, []byte("holds the only credit"))
	s2 := r.ga.Isend(2, []byte("parked"))
	if s2.Test() {
		t.Fatal("blocked submission completed without credits")
	}
	r.advance(2000)
	if !s2.Test() || !errors.Is(s2.Err(), ErrDeadlineExpired) {
		t.Fatalf("parked submission past its wait budget: Test=%v Err=%v", s2.Test(), s2.Err())
	}
	st := r.ea.Stats()
	if st.AdmitExpired != 1 || st.DeadlineExpired != 1 {
		t.Fatalf("stats: %+v", st)
	}
	_ = s1 // still in flight; engine close fails it
}

func TestCancelAdmissionBlockedSend(t *testing.T) {
	r := newAdmitRig(t, func(c *Config) {
		c.Admit = &admit.Config{GateRequests: 1, GateBytes: 1 << 20}
		c.AdmitPolicy = AdmitBlock
		c.AdmitWait = 1 << 30
	})
	recv := r.gb.Irecv(1)
	s1 := r.ga.Isend(1, []byte("head"))
	s2 := r.ga.Isend(2, []byte("parked"))
	if !s2.Cancel() {
		t.Fatal("Cancel refused an admission-parked send")
	}
	if !errors.Is(s2.Err(), ErrCanceled) {
		t.Fatalf("canceled send: %v", s2.Err())
	}
	if s2.Cancel() {
		t.Fatal("second Cancel won on a completed request")
	}
	// The canceled waiter is out of the queue: the head completes and
	// nothing tries to inject it.
	r.drive(t, s1, recv)
	if rep := r.ga.CheckIdle(); !rep.Clean() {
		t.Fatalf("sender gate leaked after cancel: %+v", rep)
	}
	// An injected send cannot be canceled.
	recv2 := r.gb.Irecv(3)
	s3 := r.ga.Isend(3, []byte("injected"))
	if s3.Cancel() {
		t.Fatal("Cancel won on an injected send")
	}
	r.drive(t, s3, recv2)
}

func TestAdmitDegradeShedsRendezvous(t *testing.T) {
	r := newAdmitRig(t, func(c *Config) {
		c.Admit = &admit.Config{
			GateRequests: 16, GateBytes: 64 << 10,
			HighWater: 0.5, LowWater: 0.2,
		}
		c.AdmitPolicy = AdmitDegrade
	})
	payload := make([]byte, 40<<10) // 40 KiB: rendezvous-sized, 62% of the byte budget
	for i := range payload {
		payload[i] = byte(i)
	}
	recv1 := r.gb.Irecv(1)
	s1 := r.ga.Isend(1, payload)
	if !r.ea.AdmitInfo().Degraded {
		t.Fatal("gate not degraded at 62% utilization with a 50% high watermark")
	}
	// Degraded mode sheds new rendezvous offers...
	s2 := r.ga.Isend(2, make([]byte, 16<<10))
	if !s2.Test() || !errors.Is(s2.Err(), ErrAdmissionReject) {
		t.Fatalf("rendezvous send under degraded mode: Test=%v Err=%v", s2.Test(), s2.Err())
	}
	// ...while eager traffic keeps flowing.
	recv3 := r.gb.Irecv(3)
	s3 := r.ga.Isend(3, []byte("eager still admitted"))
	r.drive(t, s1, s3, recv1, recv3)
	if s1.Err() != nil || s3.Err() != nil {
		t.Fatalf("admitted traffic failed: %v, %v", s1.Err(), s3.Err())
	}
	// Drained below the low watermark: recovered, rendezvous admitted.
	if r.ea.AdmitInfo().Degraded {
		t.Fatal("still degraded after the inflight drained")
	}
	recv4 := r.gb.Irecv(4)
	s4 := r.ga.Isend(4, make([]byte, 16<<10))
	r.drive(t, s4, recv4)
	if s4.Err() != nil {
		t.Fatalf("rendezvous after recovery failed: %v", s4.Err())
	}
	st := r.ea.Stats()
	if st.AdmitShed != 1 || st.AdmitRejected != 1 {
		t.Fatalf("stats: shed %d (want 1), rejected %d (want 1)", st.AdmitShed, st.AdmitRejected)
	}
	if rep := r.ga.CheckIdle(); !rep.Clean() {
		t.Fatalf("sender gate leaked: %+v", rep)
	}
}

func TestAdmitRecvCharged(t *testing.T) {
	r := newAdmitRig(t, func(c *Config) {
		c.Admit = &admit.Config{GateRequests: 1, GateBytes: 1 << 20}
		c.AdmitPolicy = AdmitReject
	})
	// Sized receives are admitted too: the second IrecvInto is refused.
	buf1, buf2 := make([]byte, 64), make([]byte, 64)
	r1 := r.ga.IrecvInto(1, buf1)
	r2 := r.ga.IrecvInto(2, buf2)
	if !r2.Test() || !errors.Is(r2.Err(), ErrAdmissionReject) {
		t.Fatalf("second sized receive past a 1-request budget: Test=%v Err=%v", r2.Test(), r2.Err())
	}
	// Open receives carry no byte commitment and are not admitted.
	r3 := r.ga.Irecv(3)
	if r3.Test() {
		t.Fatalf("open receive was refused: %v", r3.Err())
	}
	s1 := r.gb.Isend(1, []byte("into the buffer"))
	s3 := r.gb.Isend(3, []byte("open"))
	r.drive(t, r1, r3, s1, s3)
	if r1.Err() != nil || r3.Err() != nil {
		t.Fatalf("receives failed: %v, %v", r1.Err(), r3.Err())
	}
	if rep := r.ga.CheckIdle(); !rep.Clean() {
		t.Fatalf("gate leaked: %+v", rep)
	}
}

func TestDeadlineExpiredAtAdmission(t *testing.T) {
	r := newAdmitRig(t, func(c *Config) {
		c.Admit = &admit.Config{}
		c.AdmitPolicy = AdmitReject
	})
	r.clock.Store(500)
	s := r.ga.IsendDeadline(1, []byte("too late"), 100)
	if !s.Test() || !errors.Is(s.Err(), ErrDeadlineExpired) {
		t.Fatalf("send past its deadline: Test=%v Err=%v", s.Test(), s.Err())
	}
	if st := r.ea.Stats(); st.DeadlineExpired != 1 {
		t.Fatalf("stats: %+v", st)
	}
	if rep := r.ga.CheckIdle(); !rep.Clean() {
		t.Fatalf("gate leaked: %+v", rep)
	}
}

func TestDeadlineExpiresInflightRendezvous(t *testing.T) {
	r := newAdmitRig(t, func(c *Config) {
		c.Admit = &admit.Config{}
		c.AdmitPolicy = AdmitReject
		c.RdvTimeout = 1 << 16
	})
	// The receiver never progresses: the handshake stalls and the
	// deadline sweep must fail the send with ErrDeadlineExpired — not
	// retransmit it into the ground until ErrRdvTimeout.
	s := r.ga.IsendDeadline(1, make([]byte, 32<<10), 5000)
	for i := 0; i < 64 && !s.Test(); i++ {
		r.clock.Add(1 << 13)
		for j := 0; j < 8; j++ {
			r.ea.Tasks().Schedule(0)
		}
	}
	if !s.Test() || !errors.Is(s.Err(), ErrDeadlineExpired) {
		t.Fatalf("stalled rendezvous past its deadline: Test=%v Err=%v", s.Test(), s.Err())
	}
	if st := r.ea.Stats(); st.DeadlineExpired != 1 || st.RdvTimeouts != 0 {
		t.Fatalf("stats: %+v", st)
	}
	if rep := r.ga.CheckIdle(); !rep.Clean() {
		t.Fatalf("gate leaked after deadline expiry: %+v", rep)
	}
}

func TestDeadlineExpiresInflightEager(t *testing.T) {
	r := newAdmitRig(t, func(c *Config) {
		c.Admit = &admit.Config{}
		c.AdmitPolicy = AdmitReject
		c.RdvTimeout = 1 << 16
	})
	s := r.ga.IsendDeadline(1, []byte("small but doomed"), 5000)
	for i := 0; i < 64 && !s.Test(); i++ {
		r.clock.Add(1 << 13)
		for j := 0; j < 8; j++ {
			r.ea.Tasks().Schedule(0)
		}
	}
	if !s.Test() || !errors.Is(s.Err(), ErrDeadlineExpired) {
		t.Fatalf("unacked eager past its deadline: Test=%v Err=%v", s.Test(), s.Err())
	}
	if rep := r.ga.CheckIdle(); !rep.Clean() {
		t.Fatalf("gate leaked after eager deadline expiry: %+v", rep)
	}
}

// TestOverloadBoundedWithAdmission is the tentpole's bounded-occupancy
// claim in miniature: a sender flooding a receiver that never
// progresses keeps its eager retransmission window (and so its
// protocol-state count) at the admission budget, with the excess
// failing visibly.
func TestOverloadBoundedWithAdmission(t *testing.T) {
	const flood = 64
	r := newAdmitRig(t, func(c *Config) {
		c.Admit = &admit.Config{GateRequests: 4, GateBytes: 1 << 20}
		c.AdmitPolicy = AdmitReject
	})
	var rejected int
	for i := 0; i < flood; i++ {
		s := r.ga.Isend(uint64(i), make([]byte, 512))
		if s.Test() && errors.Is(s.Err(), ErrAdmissionReject) {
			rejected++
		}
	}
	if got := r.ea.InflightStates(); got > 4 {
		t.Fatalf("inflight states %d exceed the 4-request budget", got)
	}
	if rep := r.ga.CheckIdle(); rep.EagerPending > 4 {
		t.Fatalf("eager window %d exceeds the budget", rep.EagerPending)
	}
	if rejected != flood-4 {
		t.Fatalf("%d rejects for %d submissions over a 4-request budget", rejected, flood)
	}
	if st := r.ea.Stats(); st.AdmitRejected != uint64(rejected) {
		t.Fatalf("reject errors (%d) diverge from AdmitRejected (%d)", rejected, st.AdmitRejected)
	}
}

// TestOverloadUnboundedWithoutAdmission is the ablation: the identical
// flood with admission off grows the protocol state linearly with the
// submission count — the failure mode admission control exists to
// bound.
func TestOverloadUnboundedWithoutAdmission(t *testing.T) {
	const flood = 64
	r := newAdmitRig(t, func(c *Config) {})
	for i := 0; i < flood; i++ {
		r.ga.Isend(uint64(i), make([]byte, 512))
	}
	if got := r.ea.InflightStates(); got != flood {
		t.Fatalf("inflight states %d, want unbounded growth to %d", got, flood)
	}
}
