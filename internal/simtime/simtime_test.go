package simtime

import (
	"testing"
)

func TestEventsRunInTimeOrder(t *testing.T) {
	s := New()
	var order []int
	s.At(300, func() { order = append(order, 3) })
	s.At(100, func() { order = append(order, 1) })
	s.At(200, func() { order = append(order, 2) })
	end := s.Run()
	if end != 300 {
		t.Errorf("final time = %v, want 300", end)
	}
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Errorf("order = %v", order)
	}
}

func TestTieBreakIsSchedulingOrder(t *testing.T) {
	s := New()
	var order []string
	s.At(50, func() { order = append(order, "first") })
	s.At(50, func() { order = append(order, "second") })
	s.Run()
	if order[0] != "first" || order[1] != "second" {
		t.Errorf("tie-break violated: %v", order)
	}
}

func TestAfterIsRelative(t *testing.T) {
	s := New()
	var at Time
	s.At(100, func() {
		s.After(50, func() { at = s.Now() })
	})
	s.Run()
	if at != 150 {
		t.Errorf("After fired at %v, want 150", at)
	}
}

func TestPastSchedulingClamps(t *testing.T) {
	s := New()
	var at Time = -1
	s.At(100, func() {
		s.At(10, func() { at = s.Now() }) // in the past
	})
	s.Run()
	if at != 100 {
		t.Errorf("past event ran at %v, want clamped to 100", at)
	}
}

func TestRunUntil(t *testing.T) {
	s := New()
	ran := 0
	s.At(100, func() { ran++ })
	s.At(200, func() { ran++ })
	s.RunUntil(150)
	if ran != 1 {
		t.Errorf("ran = %d, want 1", ran)
	}
	if s.Now() != 150 {
		t.Errorf("Now = %v, want 150", s.Now())
	}
	s.Run()
	if ran != 2 {
		t.Errorf("ran = %d after Run, want 2", ran)
	}
}

func TestStepEmpty(t *testing.T) {
	s := New()
	if s.Step() {
		t.Error("Step on empty sim should report false")
	}
}

func TestProcSleepAdvancesVirtualTime(t *testing.T) {
	s := New()
	var stamps []Time
	s.Spawn("sleeper", func(p *Proc) {
		stamps = append(stamps, p.Now())
		p.Sleep(500)
		stamps = append(stamps, p.Now())
		p.Sleep(2 * Microsecond)
		stamps = append(stamps, p.Now())
	})
	s.Run()
	defer s.Close()
	want := []Time{0, 500, 2500}
	if len(stamps) != 3 {
		t.Fatalf("stamps = %v", stamps)
	}
	for i := range want {
		if stamps[i] != want[i] {
			t.Errorf("stamps = %v, want %v", stamps, want)
			break
		}
	}
}

func TestProcsInterleaveDeterministically(t *testing.T) {
	run := func() []string {
		s := New()
		defer s.Close()
		var order []string
		s.Spawn("a", func(p *Proc) {
			order = append(order, "a0")
			p.Sleep(100)
			order = append(order, "a100")
			p.Sleep(200)
			order = append(order, "a300")
		})
		s.Spawn("b", func(p *Proc) {
			order = append(order, "b0")
			p.Sleep(150)
			order = append(order, "b150")
		})
		s.Run()
		return order
	}
	first := run()
	want := []string{"a0", "b0", "a100", "b150", "a300"}
	if len(first) != len(want) {
		t.Fatalf("order = %v, want %v", first, want)
	}
	for i := range want {
		if first[i] != want[i] {
			t.Fatalf("order = %v, want %v", first, want)
		}
	}
	// Determinism: ten more runs must match exactly.
	for r := 0; r < 10; r++ {
		again := run()
		for i := range want {
			if again[i] != want[i] {
				t.Fatalf("run %d diverged: %v", r, again)
			}
		}
	}
}

func TestCloseReleasesParkedProcs(t *testing.T) {
	s := New()
	bodyFinished := false
	s.Spawn("stuck", func(p *Proc) {
		p.Sleep(Second) // never reached: the run stops first
		bodyFinished = true
	})
	s.RunUntil(Millisecond)
	s.Close() // must not hang
	if bodyFinished {
		t.Error("killed process body should not have continued")
	}
	// Double close is a no-op.
	s.Close()
}

func TestCloseReleasesNeverStartedProcs(t *testing.T) {
	s := New()
	s.Spawn("never", func(p *Proc) {
		t.Error("process should never run")
	})
	// Close without Run: the dispatch event never fires.
	s.Close()
}

func TestDeferRunsWhenProcKilled(t *testing.T) {
	s := New()
	deferRan := false
	s.Spawn("d", func(p *Proc) {
		defer func() { deferRan = true }()
		p.Sleep(Second) // still parked when the run stops
	})
	s.RunUntil(Millisecond)
	s.Close()
	if !deferRan {
		t.Error("defers in killed process bodies must run")
	}
}

func TestMixedEventsAndProcs(t *testing.T) {
	s := New()
	defer s.Close()
	var log []string
	s.At(50, func() { log = append(log, "event@50") })
	s.Spawn("p", func(p *Proc) {
		p.Sleep(25)
		log = append(log, "proc@25")
		p.Sleep(50)
		log = append(log, "proc@75")
	})
	s.Run()
	want := []string{"proc@25", "event@50", "proc@75"}
	if len(log) != 3 {
		t.Fatalf("log = %v", log)
	}
	for i := range want {
		if log[i] != want[i] {
			t.Fatalf("log = %v, want %v", log, want)
		}
	}
}

func TestTimeString(t *testing.T) {
	if got := Time(1500).String(); got != "1.500µs" {
		t.Errorf("String = %q", got)
	}
}
