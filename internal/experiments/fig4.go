package experiments

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync"
	"time"

	"pioman/internal/nmad"
	"pioman/internal/stats"
)

// mtRounds is how many ping-pongs each thread performs per measurement.
const mtRounds = 50

// RunMTLatency is the Figure 4 workload — the OSU multi-threaded latency
// test, one sender ping-ponging 4-byte messages with each of N receiver
// threads in turn — between two real nmad engines over in-process rails.
// It returns the median one-way latency in µs on the wall clock, which
// depends on the host's CPUs, GOMAXPROCS and load. Under InCall every
// blocked thread polls the engine for as long as it waits; under
// Background they wait in Request.Wait, which parks them once their
// passes stop finding work, and the engine's progression context polls.
func RunMTLatency(policy Progression, threads int) (oneWayUS float64, err error) {
	wait := func(_ *nmad.Engine, req *nmad.Request) error { return req.Wait() }
	if policy == InCall {
		wait = pollWait
	}
	sEng, rEng := nmad.NewEngine(nmad.Config{}), nmad.NewEngine(nmad.Config{})
	stop := func() { sEng.Close(); rEng.Close() }
	defer stop()
	ds, dr := nmad.MemPair()
	sg, serr := sEng.NewGate(ds)
	rg, rerr := rEng.NewGate(dr)
	if err := errors.Join(serr, rerr); err != nil {
		return 0, err
	}
	// An error closes both engines: that fails every pending request, so
	// no thread stays blocked on a peer that gave up.
	errs := make(chan error, threads+1) // room for one per goroutine
	abort := func(err error) {
		errs <- fmt.Errorf("mt-latency %v/%d threads: %w", policy, threads, err)
		stop()
	}

	// Receiver threads: each repeatedly receives on its own tag and
	// echoes the message back — MPI_Recv / MPI_Send in the OSU test.
	var wg sync.WaitGroup
	for th := 0; th < threads; th++ {
		wg.Add(1)
		go func(tag uint64) {
			defer wg.Done()
			for r := 0; r < mtRounds; r++ {
				req := rg.Irecv(tag)
				err := wait(rEng, req)
				if err == nil {
					err = wait(rEng, rg.Isend(replyTag+tag, req.Data))
				}
				if err != nil {
					abort(err)
					return
				}
			}
		}(uint64(th))
	}
	// The sending process ping-pongs with each thread in turn.
	rtts := make([]time.Duration, 0, mtRounds*threads)
	for i := 0; i < mtRounds*threads && len(errs) == 0; i++ {
		tag := uint64(i % threads)
		msg := []byte{byte(i), byte(i >> 8), byte(i >> 16), 0x5a}
		start := time.Now()
		rep := sg.Irecv(replyTag + tag)
		err := wait(sEng, sg.Isend(tag, msg))
		if err == nil {
			err = wait(sEng, rep)
		}
		rtts = append(rtts, time.Since(start))
		if err == nil && !bytes.Equal(rep.Data, msg) {
			err = fmt.Errorf("tag %d echoed % x for % x", tag, rep.Data, msg)
		}
		if err != nil {
			abort(err)
		}
	}
	wg.Wait()
	if len(errs) > 0 {
		return 0, <-errs
	}
	slices.Sort(rtts)
	return float64(rtts[len(rtts)/2].Nanoseconds()) / 2000, nil // RTT ns -> one-way µs
}

// pollWait waits by polling alone: every pass helps the engine and
// yields, and the thread never parks.
func pollWait(e *nmad.Engine, req *nmad.Request) error {
	for !req.Test() {
		e.Tasks().Schedule(0)
		runtime.Gosched()
	}
	return req.Err()
}

// replyTag offsets the tags echoes come back on.
const replyTag = 1_000_000

func renderFig4() (string, error) {
	fig := stats.Figure{
		Title:  "Multi-threaded latency test (Figure 4)",
		XLabel: "threads",
		YLabel: "one-way latency (µs)",
	}
	for _, policy := range progressions {
		s := fig.AddSeries(policy.String())
		for _, n := range []int{1, 2, 4, 8, 16, 32, 64, 128} { // the paper's x-axis
			lat, err := RunMTLatency(policy, n)
			if err != nil {
				return "", err
			}
			s.Add(float64(n), lat)
		}
	}
	var b strings.Builder
	b.WriteString(fig.String())
	fmt.Fprintf(&b, "host: %d CPUs, GOMAXPROCS %d — wall clock, varies with host and load\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0))
	b.WriteString("\nPaper shape: MVAPICH latency grows with receiver threads (polling\n" +
		"contention); PIOMan stays almost constant even past the core count.\n" +
		"OpenMPI is absent in the paper too: it segfaulted on this test.\n")
	return b.String(), nil
}

func init() {
	register(Experiment{
		ID:          "fig4",
		Paper:       "Figure 4",
		Description: "OSU multi-threaded latency test: 4-byte ping-pong with 1..128 receiver threads.",
		Run:         renderFig4,
	})
}
