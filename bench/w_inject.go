package main

import (
	"pioman/internal/admit"
	"pioman/internal/nmad"
)

const (
	injectMsg = 64
	injectWin = 32
)

// inject is the message-rate workload: p producers share one gate,
// each posting windows of 32 64-byte Isends on its own tag, then
// waiting for them and for a 1-byte credit from its consumer. The
// engines aggregate small sends and run admission control with gate
// budgets wide enough that no send ever parks: the front door is
// measured, not the waiter queue. One operation is one message; the
// latency is that of one window.
type inject struct {
	msgRig
	prod []*producer
}

// producer is one closed-loop client of the inject workload.
type producer struct {
	gate      *nmad.Gate
	flow      *flow
	data, crd uint64 // tags
	bufs      [injectWin][]byte
	credit    []byte
	seq       uint64
	lat       []int64
	sp        *spanLog
}

func buildInject(cfg buildCfg) (rig, error) {
	r := &inject{}
	a, b := nmad.MemPair()
	ga, gb, err := r.gatePair(nmad.Config{
		Strategy: nmad.StrategyAggreg,
		Admit:    &admit.Config{GateRequests: 256, GateBytes: 1 << 20},
		Trace:    cfg.rec,
	}, a, b)
	if err != nil {
		r.abort()
		return nil, err
	}
	rng := cfg.rng()
	for p := 0; p < cfg.p; p++ {
		pr := &producer{gate: ga, flow: newFlow(rng, injectMsg), data: uint64(1000 + p), crd: uint64(2000 + p)}
		pr.flow.tamper = cfg.tamper
		for i := range pr.bufs {
			pr.bufs[i] = make([]byte, injectMsg)
			pr.flow.fill(pr.bufs[i])
		}
		pr.credit = make([]byte, 1)
		pr.sp = cfg.spans.log("producer")
		r.prod = append(r.prod, pr)

		r.serveWindows(gb, pr.flow, injectWin, pr.data, pr.crd, nil)
	}
	return r, nil
}

func (r *inject) drive(c driveCtl) segment {
	r.full.Store(c.full)
	seg := fanOut(len(r.prod), c, func(i int, c driveCtl) segment { return r.prod[i].drive(c, r) })
	bad := r.takeSrvFailed()
	seg.failed += bad
	seg.bytes -= bad * injectMsg
	return seg
}

func (pr *producer) drive(c driveCtl, r *inject) segment {
	pr.lat = pr.lat[:0]
	var reqs [injectWin]*nmad.Request
	seg := closedLoop(c, &r.completed, func(t0 int64) opResult {
		win := pr.sp.begin("window", -1, pr.seq)
		credit := pr.gate.IrecvInto(pr.crd, pr.credit)
		for i := range reqs {
			pr.flow.stamp(pr.bufs[i], pr.seq+uint64(i))
			s := pr.sp.begin("nmad.Isend", win, pr.seq+uint64(i))
			reqs[i] = pr.gate.Isend(pr.data, pr.bufs[i])
			pr.sp.end(s)
		}
		s := pr.sp.begin("nmad.Wait", win, pr.seq)
		err := waitAll(reqs[:])
		if err == nil {
			err = credit.Wait()
		}
		pr.sp.end(s)
		pr.sp.end(win)
		d := now() - t0
		pr.lat = append(pr.lat, d)
		res := opResult{ops: injectWin, err: err}
		if err != nil || d > opLimit || pr.credit[0] != byte(pr.seq) {
			res.failed = injectWin
		}
		res.bytes = (injectWin - res.failed) * injectMsg
		pr.seq += injectWin
		return res
	})
	seg.lat = pr.lat
	return seg
}
