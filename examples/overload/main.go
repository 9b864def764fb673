// Command overload demonstrates engine-level admission control under
// an incast storm: 32 sender engines each fire six 24 KiB rendezvous
// blocks at one receiver — 4.5 MiB of intent against per-gate credit
// budgets of 128 KiB — once under each submission policy:
//
//   - block:   over-budget sends park in a FIFO queue and drain as
//     earlier transfers complete. Everything lands; the queue, not the
//     receiver, absorbs the burst.
//   - reject:  over-budget sends fail fast with ErrAdmissionReject.
//     Callers with their own retry story see the overload instantly.
//   - degrade: past the 0.4 high-water utilization mark the gate turns
//     degraded and sheds NEW rendezvous offers while admitted work
//     drains — fewer transfers complete than under plain reject,
//     because the watermark bites before the hard budget does.
//
// One extra send carries an already-hopeless deadline and is refused
// at admission with ErrDeadlineExpired under every policy.
//
// The run is deterministic: a virtual clock, in-memory rails, and
// explicit progression — the table replays identically every time.
//
// Run with: go run ./examples/overload
package main

import (
	"fmt"
	"sync/atomic"

	"pioman/internal/admit"
	"pioman/internal/core"
	"pioman/internal/nmad"
)

const (
	senders  = 32
	perGate  = 6
	rdvSize  = 24 << 10
	gateCap  = 128 << 10
	demoWait = int64(1) << 40 // block policy: park until credits free
)

// outcome is one policy run's aggregated ledger.
type outcome struct {
	policy    string
	admitted  uint64
	blocked   uint64
	rejected  uint64
	shed      uint64
	deadline  uint64
	completed int
	failed    int
}

// runPolicy replays the identical incast deck under one policy.
func runPolicy(name string, policy nmad.AdmitPolicy) outcome {
	var clock atomic.Int64
	clock.Store(1)
	clk := func() int64 { return clock.Load() }

	// Every engine runs on its own task engine with no progression
	// context, on the demo's clock: the drive loop below is all the
	// progress there is.
	tasks := func() *core.Engine { return core.New(core.Config{Clock: clk}) }
	recv := nmad.NewEngine(nmad.Config{Tasks: tasks(), RdvTimeout: 1 << 30})
	defer recv.Close()
	engines := []*nmad.Engine{recv}
	var sends []*nmad.Request
	var recvs []*nmad.Request
	for s := 0; s < senders; s++ {
		e := nmad.NewEngine(nmad.Config{
			Tasks: tasks(), RdvTimeout: 1 << 30,
			Admit: &admit.Config{
				GateRequests: 64, GateBytes: gateCap,
				HighWater: 0.4, LowWater: 0.2,
			},
			AdmitPolicy: policy,
			AdmitWait:   demoWait,
		})
		defer e.Close()
		engines = append(engines, e)
		da, db := nmad.MemPair()
		gs, err := e.NewGate(da)
		if err != nil {
			panic(err)
		}
		gr, err := recv.NewGate(db)
		if err != nil {
			panic(err)
		}
		for tag := uint64(1); tag <= perGate; tag++ {
			recvs = append(recvs, gr.Irecv(tag))
			sends = append(sends, gs.Isend(tag, make([]byte, rdvSize)))
		}
		if s == 0 {
			// The doomed send: its deadline already passed, so admission
			// refuses it before a single frame exists.
			recvs = append(recvs, gr.Irecv(99))
			sends = append(sends, gs.IsendDeadline(99, make([]byte, rdvSize), clk()))
		}
	}

	for step := 0; step < 100000; step++ {
		done := true
		for _, r := range sends {
			if !r.Test() {
				done = false
				break
			}
		}
		if done {
			break
		}
		for _, e := range engines {
			e.Tasks().Schedule(0)
		}
	}
	for _, r := range recvs {
		if !r.Test() {
			r.Cancel()
		}
	}

	out := outcome{policy: name}
	for _, e := range engines[1:] {
		st := e.Stats()
		out.admitted += st.AdmitAdmitted
		out.blocked += st.AdmitBlocked
		out.rejected += st.AdmitRejected
		out.shed += st.AdmitShed
		out.deadline += st.DeadlineExpired
	}
	for _, r := range sends {
		if r.Err() == nil {
			out.completed++
		} else {
			out.failed++
		}
	}
	return out
}

func main() {
	fmt.Printf("=== admission control: 32→1 incast, %d×%d KiB per gate against a %d KiB budget ===\n\n",
		perGate, rdvSize>>10, gateCap>>10)

	results := []outcome{
		runPolicy("block", nmad.AdmitBlock),
		runPolicy("reject", nmad.AdmitReject),
		runPolicy("degrade", nmad.AdmitDegrade),
	}

	fmt.Printf("%-8s %9s %8s %9s %6s %9s %10s %7s\n",
		"policy", "admitted", "blocked", "rejected", "shed", "deadline", "completed", "failed")
	for _, o := range results {
		fmt.Printf("%-8s %9d %8d %9d %6d %9d %10d %7d\n",
			o.policy, o.admitted, o.blocked, o.rejected, o.shed, o.deadline, o.completed, o.failed)
	}

	fmt.Println(`
Reading the table:
  block    parks the over-budget sixth block per sender (32 blocked) and
           completes everything — backpressure reaches the submitter, not
           the receiver's state tables.
  reject   admits five blocks per sender (120 KiB of the 128 KiB budget)
           and fails the sixth fast: 32 visible ErrAdmissionReject errors.
  degrade  flips degraded once utilization crosses 0.4 (the third block)
           and sheds every later rendezvous offer: fewer completions than
           reject, because load-shedding starts before the budget is hard
           — that is the graceful-degradation trade.
  deadline the doomed send is refused at admission under every policy:
           a transfer whose deadline already passed never touches the wire.`)
}
