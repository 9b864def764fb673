package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"syscall"
	"time"

	"pioman/internal/core"
	"pioman/internal/nmad"
	"pioman/internal/trace"
	"pioman/internal/trace/analyze"
)

// workload is one set of inputs the benchmark runs.
type workload struct {
	name  string
	why   string
	build func(buildCfg) (rig, error)
}

var workloads = []workload{
	{name: "task_sched", build: buildTaskSched,
		why: "core alone on real cores (paper Tables I/II): an engine change shows here, a protocol change must not"},
	{name: "pingpong_mem", build: buildPingpong,
		why: "64 B eager ping-pong over mpi on in-process rails: the latency path, core submit-to-run plus nmad eager/ack/match, wire nearly free"},
	{name: "stream_mem", build: buildStream,
		why: "1 MiB rendezvous, window of 4, in-process rails: the same nmad/fabric layers used for bandwidth (handshake, copies, allocation)"},
	{name: "inject_mt", build: buildInject,
		why: "P producers x 32 Isend of 64 B with aggregation and admission on: the multi-producer message-rate axis, engine-mutex contention"},
	{name: "rpc_tcp", build: buildRPC,
		why: "64 B request, 256 KiB response over one loopback TCP connection: the only real-socket path; the wire and Go's netpoller dominate"},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// plan sizes one run of one workload.
type plan struct {
	seed     int64
	p        int
	setupFor time.Duration // how long set-ups are repeated for; the median of the last three quarters is setup_s
	warm     time.Duration // untimed stretch before the segments
	segments int
	segLen   time.Duration
	traced   bool          // run the traced pass and the probes too
	tracedOn time.Duration // length of the traced pass, after its own warm-up
	scale    float64       // share of their full length the probes run for
	traceDir string
}

// newPlan splits seconds of measurement into segments of two seconds,
// at least five of them, behind a two-second warm-up. The warm-up is
// not optional: pingpong_mem reads about half its steady latency until
// the first garbage collections.
func newPlan(seed int64, seconds float64, traced bool, traceDir string) plan {
	segments := max(5, int(seconds/2+0.5))
	return plan{
		seed: seed, p: clients(), setupFor: time.Second,
		warm: 2 * time.Second, segments: segments, segLen: time.Duration(seconds / float64(segments) * float64(time.Second)),
		traced: traced, tracedOn: 3 * time.Second, scale: 1, traceDir: traceDir,
	}
}

// smokePlan is the test's plan: every stretch a tenth of a second or
// so, probes at a tenth of their length.
func smokePlan(seed int64, traceDir string) plan {
	return plan{
		seed: seed, p: clients(), setupFor: 50 * time.Millisecond,
		warm: 100 * time.Millisecond, segments: 3, segLen: 300 * time.Millisecond,
		traced: true, tracedOn: 300 * time.Millisecond, scale: 0.1, traceDir: traceDir,
	}
}

// clients is the closed-loop client count of every workload.
func clients() int { return min(runtime.NumCPU(), runtime.GOMAXPROCS(0), 4) }

// sample is one metric's value and how many observations it rests on.
type sample struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n"`
}

// result is one workload's run.
type result struct {
	Workload  string            `json:"workload"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Notes     []string          `json:"notes,omitempty"`
	Metrics   map[string]sample `json:"metrics"`
}

func (r *result) set(name string, v float64, n int) {
	def, ok := findMetric(name)
	if !ok {
		panic("bench: metric " + name + " is not in the table")
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	r.Metrics[name] = sample{Value: v, Unit: def.unit, N: n}
}

// counters is a snapshot of everything the layers and the process
// count, taken at the edges of the timed segments.
type counters struct {
	core core.Stats
	nmad nmad.Stats
	mem  runtime.MemStats
	cpu  float64 // user + system seconds
	ooo  int64   // messages that arrived out of per-tag order
	at   int64
}

func snapshot(r rig) counters {
	var c counters
	for _, e := range r.tasks() {
		s := e.Stats()
		c.core.Executions += s.Executions
		c.core.Requeues += s.Requeues
		c.core.Skips += s.Skips
		c.core.StealAttempts += s.StealAttempts
		c.core.StealHits += s.StealHits
		c.core.StealTasks += s.StealTasks
	}
	for _, e := range r.nmad() {
		s := e.Stats()
		c.nmad.MsgsSent += s.MsgsSent
		c.nmad.FramesSent += s.FramesSent
		c.nmad.Aggregated += s.Aggregated
		c.nmad.RdvPullBytes += s.RdvPullBytes
		c.nmad.RecvCopiedBytes += s.RecvCopiedBytes
		c.nmad.RdvRetries += s.RdvRetries
		c.nmad.EagerRetries += s.EagerRetries
		c.nmad.AdmitAdmitted += s.AdmitAdmitted
		c.nmad.AdmitRejected += s.AdmitRejected
		c.nmad.AdmitBlocked += s.AdmitBlocked
	}
	c.ooo = r.outOfOrder()
	runtime.ReadMemStats(&c.mem)
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		c.cpu = tv(ru.Utime) + tv(ru.Stime)
	}
	c.at = now()
	return c
}

func tv(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }

// ratio is a ÷ b, 0 when there is nothing to divide by.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// quantile returns the q-quantile of sorted by nearest rank.
func quantile(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := slices.Sorted(slices.Values(v))
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// guarded drives the rig with a watchdog beside it: if no operation
// completes for opLimit the rig is aborted, which fails whatever is
// outstanding instead of hanging the run.
func guarded(r rig, c driveCtl) segment {
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		tick := time.NewTicker(250 * time.Millisecond)
		defer tick.Stop()
		last, at := r.progress(), now()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				if p := r.progress(); p != last {
					last, at = p, now()
				} else if now()-at > opLimit {
					r.abort()
					return
				}
			}
		}
	}()
	seg := r.drive(c)
	close(stop)
	<-done
	// Both ends of a connection may count the same bad message.
	seg.failed = min(seg.failed, seg.ops)
	seg.bytes = max(seg.bytes, 0)
	return seg
}

// quiesce waits for the protocol tables to empty and returns how many
// states are left in them after a second. Every operation has
// completed by now, but the peer of the last one may still be waiting
// for its acknowledgement; anything that outlives that is a leak.
func quiesce(r rig) int {
	for limit := after(time.Second); ; time.Sleep(time.Millisecond) {
		inflight := 0
		for _, e := range r.nmad() {
			inflight += e.InflightStates()
		}
		if inflight == 0 || now() > limit {
			return inflight
		}
	}
}

func after(d time.Duration) int64 { return now() + int64(d) }

// run measures one workload: set-up, warm-up, the timed segments with
// the counters snapshotted around them, the quiesce check and, when
// the plan asks, the traced pass on fresh engines and the probes.
func (w *workload) run(pl plan) (*result, error) {
	res := &result{Workload: w.name, Metrics: map[string]sample{}}
	cfg := buildCfg{seed: pl.seed, p: pl.p}
	// Hand back what earlier workloads of this process left behind, so
	// that go.heap_sys_MB reads the same in a pass over all of them as
	// in a run of this one alone.
	debug.FreeOSMemory()

	// Set-up, over and over for a second: one set-up is tens of
	// microseconds to a few milliseconds and its distribution has a long
	// tail, too short and too loose to read once. The first quarter of
	// the second is not timed: until the process's heap has been through
	// a collection every allocation faults in fresh pages, and a set-up
	// costs two to three times what it does from then on.
	var r rig
	var setups []float64
	start := now()
	for timed := false; len(setups) == 0 || now()-start < int64(pl.setupFor); {
		if r != nil {
			r.close()
		}
		if !timed && now()-start > int64(pl.setupFor)/4 {
			runtime.GC()
			timed = true
		}
		t0 := now()
		var err error
		if r, err = w.build(cfg); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		if timed {
			setups = append(setups, float64(now()-t0)/1e9)
		}
	}
	res.set("setup_s", median(setups), len(setups))

	warm := guarded(r, driveCtl{until: after(pl.warm), full: true})
	res.Attempted, res.Failed = warm.ops, warm.failed

	var rates, goodputs, p50s, p90s, p99s []float64
	var ops, bytes, samples int64
	before := snapshot(r)
	for i := 0; i < pl.segments; i++ {
		seg := guarded(r, driveCtl{until: after(pl.segLen)})
		res.Attempted += seg.ops
		res.Failed += seg.failed
		ops += seg.ops
		bytes += seg.bytes
		samples += int64(len(seg.lat))
		secs := float64(seg.elapsed) / 1e9
		rates = append(rates, ratio(float64(seg.ops-seg.failed), secs))
		goodputs = append(goodputs, ratio(float64(seg.bytes), secs)/1e6)
		slices.Sort(seg.lat)
		p50s = append(p50s, float64(quantile(seg.lat, 0.50))/1e3)
		p90s = append(p90s, float64(quantile(seg.lat, 0.90))/1e3)
		p99s = append(p99s, float64(quantile(seg.lat, 0.99))/1e3)
	}
	end := snapshot(r)
	untraced := median(rates)
	res.set("ops_per_s", untraced, int(ops))
	res.set("goodput_MBps", median(goodputs), int(ops))
	res.set("lat_p50_us", median(p50s), int(samples))
	res.set("lat_p90_us", median(p90s), int(samples))
	res.set("lat_p99_us", median(p99s), int(samples))
	res.set("fail_ratio", ratio(float64(res.Failed), float64(res.Attempted)), int(res.Attempted))
	if samples/int64(pl.segments) < 1000 {
		res.Notes = append(res.Notes, fmt.Sprintf("lat_p99_us rests on %d samples a segment: fewer than 10 lie beyond it", samples/int64(pl.segments)))
	}
	if !pl.traced {
		r.close()
		return res, nil
	}

	res.set("nmad.inflight_states_end", float64(quiesce(r)), 1)
	counterMetrics(res, before, end, ops, bytes)

	r.close()
	if err := w.tracedPass(res, pl, untraced); err != nil {
		return nil, err
	}
	for name, s := range probes(pl.scale, pl.seed, pl.p) {
		res.set(name, s.Value, s.N)
	}
	// A metric that does not apply to the workload (mpi.* off
	// pingpong_mem, nmad.* on task_sched) reads 0 over 0 samples.
	for _, m := range perLayer() {
		if _, ok := res.Metrics[m.name]; !ok {
			res.set(m.name, 0, 0)
		}
	}
	return res, nil
}

// counterMetrics turns the counter deltas over the timed segments into
// per-operation and per-second figures.
func counterMetrics(res *result, a, b counters, ops, bytes int64) {
	n, secs := float64(ops), float64(b.at-a.at)/1e9
	nops := int(ops)
	execs := float64(b.core.Executions - a.core.Executions)
	res.set("core.execs_per_op", ratio(execs, n), nops)
	res.set("core.requeues_per_op", ratio(float64(b.core.Requeues-a.core.Requeues), n), nops)
	res.set("core.skips_per_exec", ratio(float64(b.core.Skips-a.core.Skips), execs), int(execs))
	attempts := float64(b.core.StealAttempts - a.core.StealAttempts)
	res.set("core.steal_hit_ratio", ratio(float64(b.core.StealHits-a.core.StealHits), attempts), int(attempts))
	res.set("core.steal_tasks_share", ratio(float64(b.core.StealTasks-a.core.StealTasks), execs), int(execs))

	msgs := float64(b.nmad.MsgsSent - a.nmad.MsgsSent)
	nmsgs := int(msgs)
	res.set("nmad.frames_per_msg", ratio(float64(b.nmad.FramesSent-a.nmad.FramesSent), msgs), nmsgs)
	res.set("nmad.aggr_ratio", ratio(float64(b.nmad.Aggregated-a.nmad.Aggregated), msgs), nmsgs)
	res.set("nmad.copied_B_per_B", ratio(float64(b.nmad.RecvCopiedBytes-a.nmad.RecvCopiedBytes), float64(bytes)), nmsgs)
	res.set("nmad.rdv_pull_share", ratio(float64(b.nmad.RdvPullBytes-a.nmad.RdvPullBytes), float64(bytes)), nmsgs)
	retries := float64(b.nmad.RdvRetries - a.nmad.RdvRetries + b.nmad.EagerRetries - a.nmad.EagerRetries)
	res.set("nmad.retries_per_kmsg", 1000*ratio(retries, msgs), nmsgs)
	res.set("nmad.reordered_per_kmsg", 1000*ratio(float64(b.ooo-a.ooo), n), nops)
	admitted := float64(b.nmad.AdmitAdmitted - a.nmad.AdmitAdmitted)
	rejected := float64(b.nmad.AdmitRejected - a.nmad.AdmitRejected)
	res.set("admit.blocked_ratio", ratio(float64(b.nmad.AdmitBlocked-a.nmad.AdmitBlocked), admitted+rejected), int(admitted+rejected))
	res.set("admit.rejected_ratio", ratio(rejected, admitted+rejected), int(admitted+rejected))

	res.set("go.alloc_B_per_op", ratio(float64(b.mem.TotalAlloc-a.mem.TotalAlloc), n), nops)
	res.set("go.allocs_per_op", ratio(float64(b.mem.Mallocs-a.mem.Mallocs), n), nops)
	gcs := int(b.mem.NumGC - a.mem.NumGC)
	res.set("go.gc_cycles_per_s", ratio(float64(gcs), secs), gcs)
	res.set("go.gc_pause_ms_per_s", ratio(float64(b.mem.PauseTotalNs-a.mem.PauseTotalNs)/1e6, secs), gcs)
	res.set("go.heap_sys_MB", float64(b.mem.HeapSys-b.mem.HeapReleased)/1e6, 1)
	cpu := b.cpu - a.cpu
	res.set("proc.cpu_s_per_kop", 1000*ratio(cpu, n), nops)
	res.set("proc.cpu_busy_ratio", ratio(cpu, secs*float64(runtime.GOMAXPROCS(0))), 1)
}

const (
	// tracedOps caps the traced pass so that the flight recorder never
	// wraps: a message leaves up to some twenty events in one ring.
	tracedOps = 8192
	ringCap   = 1 << 18
	rings     = 4 // core records under the CPU, nmad under the gate id; both stay below 4 here
)

// tracedPass repeats the load on fresh engines with one wall-clock
// flight recorder attached to them and the benchmark's own spans
// around every call it makes, then reads the phases back through
// trace/analyze and writes both timelines out.
func (w *workload) tracedPass(res *result, pl plan, untraced float64) error {
	maxOps := int64(tracedOps)
	if w.name == "task_sched" {
		maxOps = ringCap / 2 // one EvTaskRun per task, two spans per batch of 64
	}
	rec := trace.New(rings, ringCap, now)
	spans := newSpanSet(5 * tracedOps)
	r, err := w.build(buildCfg{seed: pl.seed, p: pl.p, rec: rec, spans: spans})
	if err != nil {
		return fmt.Errorf("%s: traced set-up: %w", w.name, err)
	}

	warm := guarded(r, driveCtl{until: after(pl.warm / 2), maxOps: maxOps / 4, full: true})
	mark, since := rec.Mark(), now()
	seg := guarded(r, driveCtl{until: after(pl.tracedOn), maxOps: maxOps, full: true})
	res.Attempted += warm.ops + seg.ops
	res.Failed += warm.failed + seg.failed
	quiesce(r) // let the last acknowledgements close their spans
	events := rec.EventsSince(mark)
	r.close() // the peers' goroutines write their span logs until they stop

	dropped := spans.dropped()
	for i, rs := range rec.RingStats() {
		if n := int(rs.Recorded - mark[i]); n > ringCap {
			dropped += n - ringCap
		}
	}
	rep := analyze.Analyze(events)
	for _, ph := range []string{"inject", "ackwait", "match", "handshake", "transfer"} {
		v, n := 0.0, 0
		if h := rep.Phases[ph]; h != nil {
			v, n = float64(h.Quantile(0.5))/1e3, int(h.Count())
		}
		res.set("nmad.phase_"+ph+"_p50_us", v, n)
	}
	var phaseSum, whole int64
	for _, m := range rep.Messages {
		for _, dir := range []uint64{trace.DirSend, trace.DirRecv} {
			if ps, sp, ok := m.SideCoverage(dir); ok {
				phaseSum += ps
				whole += sp
			}
		}
	}
	res.set("nmad.phase_coverage", ratio(float64(phaseSum), float64(whole)), rep.Completed)
	res.set("trace.orphan_spans", float64(rep.OrphanSpans), rep.Completed)
	res.set("trace.dropped_events", float64(dropped), len(events))
	traced := ratio(float64(seg.ops-seg.failed), float64(seg.elapsed)/1e9)
	res.set("trace.overhead_ratio", ratio(untraced, traced), int(seg.ops))
	if rep.Failed > 0 || (len(r.nmad()) > 0 && rep.Completed == 0) {
		res.Notes = append(res.Notes, fmt.Sprintf("traced pass: %d messages completed, %d failed, %d incomplete",
			rep.Completed, rep.Failed, rep.Incomplete))
	}

	for metric, name := range map[string]string{
		"mpi.send_call_us": "mpi.Send", "mpi.recv_call_us": "mpi.Recv",
		"nmad.isend_call_ns": "nmad.Isend", "nmad.wait_call_us": "nmad.Wait",
	} {
		v, n := spans.p50(name, since)
		if metric != "nmad.isend_call_ns" {
			v /= 1e3
		}
		res.set(metric, v, n)
	}

	if err := os.MkdirAll(pl.traceDir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(pl.traceDir, w.name+".engine.json"))
	if err != nil {
		return err
	}
	if err := trace.WriteTraceEvents(f, events); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	return spans.write(filepath.Join(pl.traceDir, w.name+".bench.json"))
}
