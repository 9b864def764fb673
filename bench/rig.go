package main

import (
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"

	"pioman/internal/core"
	"pioman/internal/nmad"
	"pioman/internal/trace"
)

// buildCfg is what a workload's set-up receives. Everything the set-up
// makes — engines, rails, gates, buffers, payload bases — is timed as
// setup_s.
type buildCfg struct {
	seed int64
	// p is the closed-loop client, producer or worker count:
	// min(nproc, GOMAXPROCS, 4). No workload drives load from more
	// goroutines or over more connections than this.
	p int
	// rec and spans are set on the traced pass only.
	rec   *trace.Recorder
	spans *spanSet
	// tamper corrupts every message the load side stamps; the test uses
	// it to prove the receivers count corruption as failure.
	tamper bool
}

// rng returns the generator the workload draws its inputs from.
func (c buildCfg) rng() *rand.Rand { return rand.New(rand.NewSource(c.seed)) }

// driveCtl bounds one closed-loop stretch.
type driveCtl struct {
	until  int64 // stop starting operations once now() passes this
	maxOps int64 // and once this many completed; 0 means no cap
	full   bool  // receivers verify every byte, not only the stamped words
}

// segment is what one stretch observed.
type segment struct {
	ops     int64   // operations completed, failed ones included
	failed  int64   // operations that erred, mismatched or took over opLimit
	bytes   int64   // verified application payload bytes delivered
	elapsed int64   // nanoseconds from the first operation's start to the last one's end
	lat     []int64 // per-operation latencies in nanoseconds; valid until the next drive
}

// opLimit is the longest an operation may take before it counts as
// failed; a run in which nothing completes for this long is aborted.
const opLimit = int64(5e9)

// rig is one built workload: engines up, peers' goroutines serving,
// ready to be driven.
type rig interface {
	// drive runs the workload's closed loop on the calling goroutine
	// (and p-1 others for the multi-client workloads) and returns when
	// every operation it started has completed.
	drive(c driveCtl) segment
	// nmad returns the communication engines, for counter deltas.
	nmad() []*nmad.Engine
	// tasks returns the task engines, for counter deltas.
	tasks() []*core.Engine
	// outOfOrder returns how many messages have so far arrived out of
	// the order they were sent in on their tag.
	outOfOrder() int64
	// progress returns a count that grows while operations complete.
	progress() int64
	// abort makes every blocked call into the program return.
	abort()
	// close stops the peers' goroutines and the engines.
	close()
}

// msgRig is what the four message workloads share: the engines, the
// serving goroutines on the peer side and the failures those count.
type msgRig struct {
	engs      []*nmad.Engine
	srv       sync.WaitGroup
	closing   atomic.Bool
	completed atomic.Int64
	srvFailed atomic.Int64
	// full tells the peer's goroutines to verify every byte.
	full atomic.Bool
	// reordered counts messages that arrived out of the order they
	// were sent in on their tag.
	reordered atomic.Int64
}

func (r *msgRig) nmad() []*nmad.Engine { return r.engs }

func (r *msgRig) tasks() []*core.Engine {
	out := make([]*core.Engine, len(r.engs))
	for i, e := range r.engs {
		out[i] = e.Tasks()
	}
	return out
}

func (r *msgRig) progress() int64   { return r.completed.Load() }
func (r *msgRig) outOfOrder() int64 { return r.reordered.Load() }

// abort closes the engines, which completes every outstanding request
// with an error, so that a hung run ends as a failed one.
func (r *msgRig) abort() {
	for _, e := range r.engs {
		e.Close() //nolint:errcheck // the run is already failing
	}
}

func (r *msgRig) close() {
	r.closing.Store(true)
	r.abort()
	r.srv.Wait()
}

// serve runs fn as one of the peer's goroutines. fn returns when a
// call into the program fails; that is a failure of the run unless the
// rig is closing, when it is how the goroutine is told to stop.
func (r *msgRig) serve(fn func() error) {
	r.srv.Add(1)
	go func() {
		defer r.srv.Done()
		if err := fn(); err != nil && !r.closing.Load() {
			r.srvFailed.Add(1)
		}
	}()
}

// serveWindows is the receiving side of the two windowed workloads. It
// posts a window of n buffers on data, and for every window waits for
// its messages, checks them, posts the buffers again and only then
// sends the one-byte ack: every message of the next window finds its
// buffer waiting.
func (r *msgRig) serveWindows(g *nmad.Gate, f *flow, n int, data, ack uint64, sp *spanLog) {
	bufs := make([][]byte, n)
	posted := make([]*nmad.Request, n)
	for i := range bufs {
		bufs[i] = make([]byte, len(f.base))
		posted[i] = g.IrecvInto(data, bufs[i])
	}
	win := newWindow(f, n)
	r.serve(func() error {
		one := []byte{0}
		for seq := uint64(0); ; seq += uint64(n) {
			win.begin()
			for i, req := range posted {
				s := sp.begin("peer:nmad.Wait", -1, seq+uint64(i))
				err := req.Wait()
				sp.end(s)
				if err != nil {
					return err
				}
				if !win.add(req.Data, seq, i, r.full.Load()) {
					r.srvFailed.Add(1)
				}
			}
			r.reordered.Add(win.reordered)
			win.reordered = 0
			for i := range posted {
				posted[i] = g.IrecvInto(data, bufs[i])
			}
			one[0] = byte(seq)
			if err := g.Isend(ack, one).Wait(); err != nil {
				return err
			}
		}
	})
}

// takeSrvFailed returns the failures the peer side counted since the
// last call.
func (r *msgRig) takeSrvFailed() int64 { return r.srvFailed.Swap(0) }

// gatePair connects two fresh engines by one rail each and labels the
// two gates so that the traced pass can merge both sides of a message.
func (r *msgRig) gatePair(cfg nmad.Config, a, b nmad.Driver) (*nmad.Gate, *nmad.Gate, error) {
	ea, eb := nmad.NewEngine(cfg), nmad.NewEngine(cfg)
	r.engs = []*nmad.Engine{ea, eb}
	ga, err := ea.NewGate(a)
	if err != nil {
		return nil, nil, err
	}
	gb, err := eb.NewGate(b)
	if err != nil {
		return nil, nil, err
	}
	ga.SetTraceInfo(0, 1)
	gb.SetTraceInfo(1, 0)
	return ga, gb, nil
}

// tcpPair returns the two ends of one loopback TCP connection as rails.
func tcpPair() (nmad.Driver, nmad.Driver, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, nil, err
	}
	defer ln.Close()
	type accepted struct {
		d   nmad.Driver
		err error
	}
	ch := make(chan accepted, 1)
	go func() {
		d, err := nmad.AcceptTCP(ln)
		ch <- accepted{d, err}
	}()
	client, err := nmad.DialTCP(ln.Addr().String())
	if err != nil {
		return nil, nil, fmt.Errorf("dial: %w", err)
	}
	srv := <-ch
	if srv.err != nil {
		client.Close()
		return nil, nil, fmt.Errorf("accept: %w", srv.err)
	}
	return client, srv.d, nil
}

// opResult is what one pass of a workload's closed loop did: usually one
// operation, a whole window of them for the windowed workloads.
type opResult struct {
	ops, failed, bytes int64
	err                error // a call into the program failed: the rail is gone, stop
}

// closedLoop calls one, which starts its next operation only when the
// previous one completed, until the stretch ends. one receives the
// time it is called at.
func closedLoop(c driveCtl, completed *atomic.Int64, one func(t0 int64) opResult) segment {
	var seg segment
	start := now()
	for t := start; t < c.until && (c.maxOps == 0 || seg.ops < c.maxOps); t = now() {
		res := one(t)
		seg.ops += res.ops
		seg.failed += res.failed
		seg.bytes += res.bytes
		completed.Add(res.ops)
		if res.err != nil {
			break
		}
	}
	seg.elapsed = now() - start
	return seg
}

// fanOut drives n closed loops at once, each on a goroutine of its own
// with its share of the operation cap, and adds up what they observed.
func fanOut(n int, c driveCtl, drive func(i int, c driveCtl) segment) segment {
	if c.maxOps > 0 {
		c.maxOps = (c.maxOps + int64(n) - 1) / int64(n)
	}
	segs := make([]segment, n)
	var wg sync.WaitGroup
	for i := range segs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			segs[i] = drive(i, c)
		}()
	}
	wg.Wait()
	var sum segment
	for _, s := range segs {
		sum.ops += s.ops
		sum.failed += s.failed
		sum.bytes += s.bytes
		sum.elapsed = max(sum.elapsed, s.elapsed)
		sum.lat = append(sum.lat, s.lat...)
	}
	return sum
}

// waitAll waits for every request and returns the first error.
func waitAll(reqs []*nmad.Request) error {
	var first error
	for _, r := range reqs {
		if err := r.Wait(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
