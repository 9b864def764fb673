package experiments

import (
	"runtime"
	"strings"
	"testing"
)

func TestRegistryComplete(t *testing.T) {
	want := []string{"table1", "table2", "fig4", "fig5", "fig6", "fig7", "ablation-biglock"}
	for _, id := range want {
		if _, ok := ByID(id); !ok {
			t.Errorf("experiment %q not registered", id)
		}
	}
	if len(All()) < len(want) {
		t.Errorf("All() returned %d experiments, want >= %d", len(All()), len(want))
	}
}

func TestByIDNormalizes(t *testing.T) {
	if _, ok := ByID(" Table1 "); !ok {
		t.Error("ByID should trim and lowercase")
	}
	if _, ok := ByID("nonesuch"); ok {
		t.Error("unknown id should not resolve")
	}
}

func TestAllSorted(t *testing.T) {
	ids := All()
	for i := 1; i < len(ids); i++ {
		if ids[i-1].ID >= ids[i].ID {
			t.Errorf("All() not sorted: %q before %q", ids[i-1].ID, ids[i].ID)
		}
	}
}

func TestTable1Shape(t *testing.T) {
	r, err := RunTable("borderline")
	if err != nil {
		t.Fatal(err)
	}
	if len(r.PerCore) != 8 || len(r.PerChip) != 4 {
		t.Fatalf("row lengths = %d/%d, want 8/4", len(r.PerCore), len(r.PerChip))
	}
	// Paper shape assertions for Table I.
	local := r.PerCore[0]
	if local < 600 || local > 900 {
		t.Errorf("local per-core = %.0f, want ≈770", local)
	}
	for chip, v := range r.PerChip {
		if v < local*0.9 {
			t.Errorf("per-chip[%d] = %.0f should not undercut local %.0f", chip, v, local)
		}
	}
	if r.Global < 2500 || r.Global > 8000 {
		t.Errorf("global = %.0f, want ≈4720", r.Global)
	}
	if r.Global < 2*r.PerChip[1] {
		t.Errorf("global (%.0f) must dominate per-chip (%.0f)", r.Global, r.PerChip[1])
	}
	out := r.Render()
	for _, want := range []string{"per-core queues", "paper", "4720", "global queue"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q", want)
		}
	}
}

func TestTable2Shape(t *testing.T) {
	r, err := RunTable("kwak")
	if err != nil {
		t.Fatal(err)
	}
	if len(r.PerCore) != 16 || len(r.PerChip) != 4 {
		t.Fatalf("row lengths = %d/%d, want 16/4", len(r.PerCore), len(r.PerChip))
	}
	local := r.PerCore[0]
	remote := r.PerCore[8]
	if remote-local < 600 {
		t.Errorf("kwak remote NUMA overhead = %.0f, want ≈1µs", remote-local)
	}
	if r.Global < 8000 || r.Global > 22000 {
		t.Errorf("kwak global = %.0f, want ≈13585", r.Global)
	}
	// Growth with core count: 16-core global must exceed 8-core global.
	r8, err := RunTable("borderline")
	if err != nil {
		t.Fatal(err)
	}
	if r.Global < 1.8*r8.Global {
		t.Errorf("global queue cost should grow quickly with cores (%.0f vs %.0f)", r.Global, r8.Global)
	}
}

func TestRunTableUnknownMachine(t *testing.T) {
	if _, err := RunTable("nonesuch"); err == nil {
		t.Error("unknown machine should fail")
	}
}

// mustOverlap runs one overlap measurement; RunOverlap's own audit
// (byte-exact payload, clean gates, zero-copy receive, no retransmission,
// no region left registered) fails the test through its error.
func mustOverlap(t *testing.T, policy Progression, side ComputeSide, size int, computeUS float64) float64 {
	t.Helper()
	ratio, err := RunOverlap(policy, side, size, computeUS)
	if err != nil {
		t.Fatalf("%v, computation on %v, %d B, %v µs: %v", policy, side, size, computeUS, err)
	}
	return ratio
}

func TestFig4Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock thread sweep")
	}
	measure := func(policy Progression, threads int) float64 {
		us, err := RunMTLatency(policy, threads)
		if err != nil {
			t.Fatal(err)
		}
		return us
	}
	t.Logf("host: %d CPUs, GOMAXPROCS %d", runtime.NumCPU(), runtime.GOMAXPROCS(0))
	// Best of three trials, each measuring both policies back to back so
	// they see the same host: the wall clock only ever adds noise.
	best := 0.0
	for i := 0; i < 3; i++ {
		poll1, poll64 := measure(InCall, 1), measure(InCall, 64)
		park1, park64 := measure(Background, 1), measure(Background, 64)
		t.Logf("polling: %.1f µs @1 -> %.1f µs @64 (x%.1f)", poll1, poll64, poll64/poll1)
		t.Logf("parked:  %.1f µs @1 -> %.1f µs @64 (x%.1f, flatness printed, not asserted)", park1, park64, park64/park1)
		best = max(best, poll64/park64)
	}
	// Only the wide-margin ordering is asserted: with every blocked
	// thread polling, 64 threads cost several times what parked ones do.
	if best <= 2 {
		t.Errorf("at 64 threads polling waiters cost x%.1f of parked ones in the best trial, want well over x2", best)
	}
}

// TestMTLatencyBothPolicies keeps the Figure 4 workload (echo threads,
// payload check, joined goroutines) under the race detector, where the
// timing test above is skipped.
func TestMTLatencyBothPolicies(t *testing.T) {
	for _, policy := range progressions {
		if us, err := RunMTLatency(policy, 4); err != nil || us <= 0 {
			t.Errorf("%v: latency %v µs, error %v", policy, us, err)
		}
	}
}

func TestFig5SenderSideEveryoneOverlaps(t *testing.T) {
	// At Tcomp comfortably above the transfer time, both policies reach
	// a high overlap ratio on the sender side — the same one: the pull
	// rendezvous needs no sender host.
	inCall := mustOverlap(t, InCall, ComputeSender, 1<<20, 1500)
	background := mustOverlap(t, Background, ComputeSender, 1<<20, 1500)
	for _, ratio := range []float64{inCall, background} {
		if ratio < 0.9 {
			t.Errorf("sender-side overlap @1.5ms = %.2f, want > 0.9", ratio)
		}
	}
	if inCall != background {
		t.Errorf("sender-side overlap differs by policy: in-call %.3f, background %.3f", inCall, background)
	}
}

func TestFig6ReceiverSideOnlyPIOManOverlaps(t *testing.T) {
	background := mustOverlap(t, Background, ComputeReceiver, 1<<20, 1500)
	inCall := mustOverlap(t, InCall, ComputeReceiver, 1<<20, 1500)
	if background < 0.9 {
		t.Errorf("background receiver-side overlap = %.2f, want > 0.9", background)
	}
	// In-call progression saturates near Tcomp/(Tcomp+Txfer) ≈
	// 1500/2200 ≈ 0.68.
	if inCall > 0.8 {
		t.Errorf("in-call receiver-side overlap = %.2f, want < 0.8 (no progression)", inCall)
	}
}

func TestFig7BothSidesPIOManWins(t *testing.T) {
	background := mustOverlap(t, Background, ComputeBoth, 32<<10, 150)
	inCall := mustOverlap(t, InCall, ComputeBoth, 32<<10, 150)
	if background <= inCall {
		t.Errorf("both-sides overlap: background %.2f should beat in-call %.2f", background, inCall)
	}
	if background < 0.85 {
		t.Errorf("background both-sides overlap = %.2f, want near 1", background)
	}
}

func TestOverlapRatioMonotoneInCompute(t *testing.T) {
	// More computation means more to hide: the ratio must not decrease
	// along the sweep.
	for _, policy := range progressions {
		prev := -1.0
		for _, comp := range overlapPanels[1].sweep {
			ratio := mustOverlap(t, policy, ComputeReceiver, 1<<20, comp)
			if ratio < prev-0.02 {
				t.Errorf("%v: overlap ratio dropped from %.3f to %.3f at %v µs", policy, prev, ratio, comp)
			}
			prev = ratio
		}
	}
}

func TestOverlapZeroComputeZeroRatio(t *testing.T) {
	ratio := mustOverlap(t, InCall, ComputeSender, 32<<10, 0)
	if ratio != 0 {
		t.Errorf("zero compute should give ratio 0, got %.3f", ratio)
	}
}

// TestOverlapFiguresDeterministic: Figures 5-7 run on the virtual clock,
// so their rendered text is identical from run to run.
func TestOverlapFiguresDeterministic(t *testing.T) {
	render := func() string {
		var b strings.Builder
		for _, id := range []string{"fig5", "fig6", "fig7"} {
			e, _ := ByID(id)
			out, err := e.Run()
			if err != nil {
				t.Fatal(err)
			}
			b.WriteString(out)
		}
		return b.String()
	}
	if first, second := render(), render(); first != second {
		t.Errorf("figures 5-7 differ between two runs:\n%s\n---\n%s", first, second)
	}
}

func TestExperimentRunsProduceOutput(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment renders are slow")
	}
	for _, e := range All() {
		out, err := e.Run()
		if err != nil {
			t.Errorf("%s: %v", e.ID, err)
			continue
		}
		if len(out) < 100 {
			t.Errorf("%s output suspiciously short: %q", e.ID, out)
		}
	}
}
