package main

import "pioman/internal/nmad"

const (
	tagData   = 10
	tagAck    = 11
	streamMsg = 1 << 20
	streamWin = 4
)

// stream is the bandwidth workload: 1 MiB rendezvous messages in
// windows of four Gate.Isend into buffers the receiver posted before
// the window started, with a 1-byte ack per window, over in-process
// rails. One operation is one message; the latency is that of one
// window, first Isend to ack. (Timed one by one, the messages of a
// window complete a quarter of a window apart, and the 99th percentile
// falls on the knee between the last position and the windows a
// garbage collection hit, where it swings by half from run to run.)
type stream struct {
	msgRig
	gate *nmad.Gate
	flow *flow
	bufs [streamWin][]byte
	ack  []byte
	seq  uint64
	lat  []int64
	sp   *spanLog
}

func buildStream(cfg buildCfg) (rig, error) {
	r := &stream{}
	a, b := nmad.MemPair()
	ga, gb, err := r.gatePair(nmad.Config{Trace: cfg.rec}, a, b)
	if err != nil {
		r.abort()
		return nil, err
	}
	r.gate = ga
	r.flow = newFlow(cfg.rng(), streamMsg)
	r.flow.tamper = cfg.tamper
	for i := range r.bufs {
		r.bufs[i] = make([]byte, streamMsg)
		r.flow.fill(r.bufs[i])
	}
	r.ack = make([]byte, 1)
	r.sp = cfg.spans.log("sender")

	r.serveWindows(gb, r.flow, streamWin, tagData, tagAck, cfg.spans.log("receiver"))
	return r, nil
}

func (r *stream) drive(c driveCtl) segment {
	r.full.Store(c.full)
	r.lat = r.lat[:0]
	var reqs [streamWin]*nmad.Request
	seg := closedLoop(c, &r.completed, func(t0 int64) opResult {
		win := r.sp.begin("window", -1, r.seq)
		ack := r.gate.IrecvInto(tagAck, r.ack)
		for i := range reqs {
			r.flow.stamp(r.bufs[i], r.seq+uint64(i))
			s := r.sp.begin("nmad.Isend", win, r.seq+uint64(i))
			reqs[i] = r.gate.Isend(tagData, r.bufs[i])
			r.sp.end(s)
		}
		res := opResult{ops: streamWin}
		for i, req := range reqs {
			s := r.sp.begin("nmad.Wait", win, r.seq+uint64(i))
			err := req.Wait()
			r.sp.end(s)
			if err != nil && res.err == nil {
				res.err = err
			}
		}
		if res.err == nil {
			res.err = ack.Wait()
		}
		r.sp.end(win)
		d := now() - t0
		r.lat = append(r.lat, d)
		if res.err != nil || d > opLimit || r.ack[0] != byte(r.seq) {
			res.failed = streamWin
		}
		res.bytes = (streamWin - res.failed) * streamMsg
		r.seq += streamWin
		return res
	})
	// The ack of a window follows the receiver's checks of it, so the
	// failures it counted belong to this stretch.
	bad := r.takeSrvFailed()
	seg.failed += bad
	seg.bytes -= bad * streamMsg
	seg.lat = r.lat
	return seg
}
