package simtime

// Proc is an imperative simulation process: a goroutine whose execution
// strictly alternates with the simulation loop, so that at most one
// process (or event callback) runs at any instant. Processes advance
// virtual time with Sleep.
type Proc struct {
	sim  *Sim
	name string

	resume chan procMsg  // engine -> process
	toSim  chan struct{} // process -> engine (parked or exited)

	started bool
	parked  bool
	exited  bool
}

type procMsg int

const (
	msgRun procMsg = iota
	msgKill
)

// procKilled unwinds a killed process body; recovered in the Spawn
// wrapper.
type procKilled struct{}

// Spawn starts fn as a process at the current virtual time. fn begins
// executing when the simulation reaches that event.
func (s *Sim) Spawn(name string, fn func(*Proc)) *Proc {
	if s.closed {
		panic("simtime: Spawn on closed Sim")
	}
	p := &Proc{
		sim:    s,
		name:   name,
		resume: make(chan procMsg),
		toSim:  make(chan struct{}),
	}
	s.procs[p] = struct{}{}
	go func() {
		// The exit notification lives in a defer so it is sent only after
		// every defer in fn has finished unwinding — the engine (and thus
		// the test or model code) must never observe a half-dead process.
		defer func() {
			r := recover()
			if r != nil {
				if _, ok := r.(procKilled); !ok {
					panic(r)
				}
			}
			p.exited = true
			p.toSim <- struct{}{}
		}()
		if m := <-p.resume; m == msgKill {
			return
		}
		fn(p)
		delete(s.procs, p) // exclusive: the engine is waiting on toSim
	}()
	s.At(s.now, func() { p.dispatch() })
	return p
}

// dispatch hands control to the process goroutine and waits for it to
// park or exit — preserving the single-runner invariant.
func (p *Proc) dispatch() {
	if p.exited {
		return
	}
	p.started = true
	p.parked = false
	p.resume <- msgRun
	<-p.toSim
}

// kill releases a parked or never-started process's goroutine.
func (p *Proc) kill() {
	if p.exited {
		return
	}
	p.resume <- msgKill
	<-p.toSim
}

// killable reports whether kill can safely target the process: it must
// be waiting on its resume channel (parked, or never dispatched).
func (p *Proc) killable() bool {
	return !p.exited && (p.parked || !p.started)
}

// park returns control to the engine until dispatch resumes the process.
func (p *Proc) park() {
	p.parked = true
	p.toSim <- struct{}{}
	if m := <-p.resume; m == msgKill {
		// Unwind the body; the Spawn wrapper's defer notifies the engine
		// once every defer has run.
		panic(procKilled{})
	}
}

// Name returns the process name.
func (p *Proc) Name() string { return p.name }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.sim.Now() }

// Sim returns the owning simulator.
func (p *Proc) Sim() *Sim { return p.sim }

// Sleep suspends the process for d nanoseconds of virtual time.
func (p *Proc) Sleep(d Duration) {
	p.sim.At(p.sim.now+d, func() { p.dispatch() })
	p.park()
}
