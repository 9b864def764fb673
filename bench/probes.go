package main

import (
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"time"

	"pioman/internal/admit"
	"pioman/internal/core"
	"pioman/internal/cpuset"
	"pioman/internal/fabric"
	"pioman/internal/nmad"
	"pioman/internal/spinlock"
	"pioman/internal/trace"
)

// The probes time each layer's public functions standalone, outside
// any workload, so that a change in an end-to-end figure can be laid
// beside the cost of the layers under it. spinlock.lock_ns and
// host.memcpy_GBps double as the in-run reference for the host's own
// speed. Every probe repeats its measurement and reports the median.

const probeReps = 5

var (
	probeOnce sync.Once
	probeVals map[string]sample
)

// probes runs every probe once per process; the values do not depend
// on the workload they are reported beside.
func probes(scale float64, seed int64, p int) map[string]sample {
	probeOnce.Do(func() {
		probeVals = map[string]sample{}
		pr := prober{scale: scale, seed: seed, p: p, out: probeVals}
		pr.host()
		pr.spinlock()
		pr.core()
		pr.admit()
		pr.fabric()
		pr.drivers()
		pr.trace()
	})
	return probeVals
}

type prober struct {
	scale float64
	seed  int64
	p     int
	out   map[string]sample
}

// n scales an iteration count, keeping at least a few iterations.
func (pr *prober) n(full int) int { return max(int(float64(full)*pr.scale), 8) }

// perOp records the median over probeReps of the nanoseconds per
// operation that body, which performs n operations, takes.
func (pr *prober) perOp(name string, n int, body func()) {
	pr.rate(name, n, func(ns float64) float64 { return ns / float64(n) }, body)
}

// rate records the median over probeReps of conv(elapsed nanoseconds).
func (pr *prober) rate(name string, n int, conv func(ns float64) float64, body func()) {
	var v []float64
	for i := 0; i < probeReps; i++ {
		t0 := now()
		body()
		v = append(v, conv(float64(now()-t0)))
	}
	pr.put(name, median(v), n*probeReps)
}

func (pr *prober) put(name string, v float64, n int) {
	def, _ := findMetric(name)
	pr.out[name] = sample{Value: v, Unit: def.unit, N: n}
}

// parallel runs body on p goroutines and waits for them.
func (pr *prober) parallel(body func()) {
	var wg sync.WaitGroup
	for g := 0; g < pr.p; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			body()
		}()
	}
	wg.Wait()
}

func (pr *prober) host() {
	// 32 MiB each way: several times any last-level cache this is
	// likely to meet, so the figure is memory bandwidth, not cache.
	const size = 32 << 20
	src, dst := make([]byte, size), make([]byte, size)
	rand.New(rand.NewSource(pr.seed)).Read(src[:4096])
	copy(dst, src) // fault the pages in
	n := pr.n(8)
	pr.rate("host.memcpy_GBps", n, func(ns float64) float64 { return float64(n) * size / ns }, func() {
		for i := 0; i < n; i++ {
			copy(dst, src)
		}
	})
}

func (pr *prober) spinlock() {
	n := pr.n(2_000_000)
	var l spinlock.SpinLock
	pr.perOp("spinlock.lock_ns", n, func() {
		for i := 0; i < n; i++ {
			l.Lock()
			l.Unlock()
		}
	})
	// Contended: each of p goroutines takes the lock n times; the
	// figure is the time one goroutine spends per acquisition.
	pr.perOp("spinlock.lock_contended_ns", n/4, func() {
		pr.parallel(func() {
			for i := 0; i < n/4; i++ {
				l.Lock()
				l.Unlock()
			}
		})
	})
	q := spinlock.NewMSQueue[int]()
	pr.perOp("spinlock.msqueue_op_ns", 2*n, func() {
		for i := 0; i < n; i++ {
			q.Enqueue(i)
			q.Dequeue()
		}
	})
}

func (pr *prober) core() {
	eng := newTaskEngine(nil)
	var tasks [tsBatch]core.Task
	for i := range tasks {
		tasks[i].Fn = func(any) bool { return true }
		tasks[i].CPUSet = cpuset.New(0)
	}
	rounds := pr.n(20_000)
	var submit, sched []float64
	for rep := 0; rep < probeReps; rep++ {
		var subNs, schedNs int64
		for r := 0; r < rounds; r++ {
			t0 := now()
			for i := range tasks {
				tasks[i].Reset()
				eng.MustSubmit(&tasks[i])
			}
			t1 := now()
			for done := 0; done < tsBatch; {
				done += eng.Schedule(0)
			}
			subNs += t1 - t0
			schedNs += now() - t1
		}
		submit = append(submit, float64(subNs)/float64(rounds*tsBatch))
		sched = append(sched, float64(schedNs)/float64(rounds*tsBatch))
	}
	pr.put("core.submit_ns", median(submit), rounds*tsBatch*probeReps)
	pr.put("core.schedule_ns_per_task", median(sched), rounds*tsBatch*probeReps)

	n := pr.n(2_000_000)
	pr.perOp("core.empty_scan_ns", n, func() {
		for i := 0; i < n; i++ {
			eng.Schedule(0)
		}
	})

	// The task_sched loop itself with one worker and with p: the
	// paper's scaling curve as far as this host reaches.
	rateOf := func(workers int) (float64, int) {
		var v []float64
		ops := 0
		for rep := 0; rep < 3; rep++ {
			r, _ := buildTaskSched(buildCfg{seed: pr.seed, p: workers})
			guarded(r, driveCtl{until: after(time.Duration(50e6 * pr.scale))})
			seg := guarded(r, driveCtl{until: after(time.Duration(200e6 * pr.scale))})
			v = append(v, ratio(float64(seg.ops-seg.failed), float64(seg.elapsed)/1e9))
			ops += int(seg.ops)
		}
		return median(v), ops
	}
	one, n1 := rateOf(1)
	all, np := rateOf(pr.p)
	pr.put("core.tasks_per_s_1worker", one, n1)
	pr.put("core.scaling_efficiency", ratio(all, float64(pr.p)*one), np)
}

func (pr *prober) admit() {
	n := pr.n(2_000_000)
	l := admit.NewLedger(1024, 64<<20, 0, 0)
	loop := func() {
		for i := 0; i < n; i++ {
			if ok, _ := l.TryAcquire(64); ok {
				l.Release(64)
			}
		}
	}
	pr.perOp("admit.acquire_release_ns", n, loop)
	pr.perOp("admit.acquire_release_contended_ns", n, func() { pr.parallel(loop) })
}

func (pr *prober) fabric() {
	// No workload rides a native fabric provider today: these figures
	// say what one would cost, not what any workload pays.
	a, b := fabric.NewLoopback()
	imm, payload := make([]byte, 16), make([]byte, 64)
	n := pr.n(500_000)
	pr.perOp("fabric.loopback_send_poll_ns", n, func() {
		for i := 0; i < n; i++ {
			if a.Send(imm, payload) != nil {
				return
			}
			b.Poll() //nolint:errcheck // timing only
		}
	})
	a.Close()
	b.Close()

	ra, rb := fabric.NewLoopbackRMA()
	src, dst := make([]byte, 1<<20), make([]byte, 1<<20)
	mr, err := rb.Domain().RegisterMemory(src)
	if err == nil {
		m := pr.n(400)
		pr.rate("fabric.loopback_rma_read_GBps", m, func(ns float64) float64 { return float64(m) * (1 << 20) / ns }, func() {
			for i := 0; i < m; i++ {
				if ra.RMARead(mr.Key(), 0, dst, nil) != nil {
					return
				}
				ra.Poll() //nolint:errcheck // timing only
			}
		})
		mr.Close()
	}

	cache := fabric.NewRegCache(rb.Domain(), 0)
	var bufs [4][]byte
	for i := range bufs {
		bufs[i] = make([]byte, 64<<10)
	}
	gets := pr.n(100_000)
	for i := 0; i < gets; i++ {
		if r, err := cache.Get(bufs[i%len(bufs)]); err == nil {
			r.Release()
		}
	}
	st := cache.Stats()
	pr.put("fabric.regcache_hit_ratio", ratio(float64(st.Hits), float64(st.Hits+st.Misses)), gets)
	cache.Close()
	ra.Close()
	rb.Close()
}

func (pr *prober) drivers() {
	hdr := nmad.Header{Kind: nmad.KindEager, Tag: 1, Total: 64}
	small := make([]byte, 64)

	a, b := nmad.MemPair()
	n := pr.n(500_000)
	pr.perOp("nmad.driver_mem_oneway_ns", n, func() {
		for i := 0; i < n; i++ {
			if a.Send(hdr, small) != nil {
				return
			}
			b.Poll() //nolint:errcheck // timing only
		}
	})
	a.Close()
	b.Close()

	ta, tb, err := tcpPair()
	if err != nil {
		return
	}
	defer ta.Close()
	defer tb.Close()
	// One frame at a time: Send on one end, spin on the other end's
	// Poll the way a polling task does, yielding between polls.
	awaitFrames := func(d nmad.Driver, want int) bool {
		limit := now() + opLimit
		for got := 0; got < want; {
			_, ok, err := d.Poll()
			switch {
			case err != nil || now() > limit:
				return false
			case ok:
				got++
			default:
				runtime.Gosched()
			}
		}
		return true
	}
	var hops []int64
	for i, m := 0, pr.n(50); i < m; i++ {
		t0 := now()
		if ta.Send(hdr, small) != nil || !awaitFrames(tb, 1) {
			return
		}
		hops = append(hops, now()-t0)
	}
	slices.Sort(hops)
	pr.put("nmad.driver_tcp_oneway_us", float64(quantile(hops, 0.5))/1e3, len(hops))

	big := make([]byte, 256<<10)
	bighdr := nmad.Header{Kind: nmad.KindData, Tag: 1, Total: uint32(len(big))}
	frames := pr.n(200)
	pr.rate("nmad.driver_tcp_stream_MBps", frames, func(ns float64) float64 {
		return float64(frames) * float64(len(big)) / ns * 1e3
	}, func() {
		sent := make(chan struct{})
		go func() {
			defer close(sent)
			for i := 0; i < frames; i++ {
				if ta.Send(bighdr, big) != nil {
					return
				}
			}
		}()
		if !awaitFrames(tb, frames) {
			ta.Close() // unblock the sender
		}
		<-sent
	})
}

func (pr *prober) trace() {
	rec := trace.New(1, 1<<12, nil)
	n := pr.n(2_000_000)
	pr.perOp("trace.record_ns", n, func() {
		for i := 0; i < n; i++ {
			rec.Record(0, trace.EvTaskRun, uint64(i), 0)
		}
	})
}
