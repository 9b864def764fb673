package main

import "pioman/internal/nmad"

const (
	tagReq  = 20
	tagResp = 21
	rpcReq  = 64
	rpcResp = 256 << 10
)

// rpc is the real-socket workload: one client over one loopback TCP
// connection sends a 64-byte request (eager) and receives a 256 KiB
// response (rendezvous). One operation is one RPC.
type rpc struct {
	msgRig
	gate       *nmad.Gate
	reqs, resp *flow
	reqBuf     []byte
	respBuf    []byte
	seq        uint64
	lat        []int64
	sp         *spanLog
}

func buildRPC(cfg buildCfg) (rig, error) {
	r := &rpc{}
	a, b, err := tcpPair()
	if err != nil {
		return nil, err
	}
	ga, gb, err := r.gatePair(nmad.Config{Trace: cfg.rec}, a, b)
	if err != nil {
		r.abort()
		return nil, err
	}
	r.gate = ga
	rng := cfg.rng()
	r.reqs, r.resp = newFlow(rng, rpcReq), newFlow(rng, rpcResp)
	r.reqs.tamper = cfg.tamper
	r.reqBuf = make([]byte, rpcReq)
	r.reqs.fill(r.reqBuf)
	r.respBuf = make([]byte, rpcResp)
	r.sp = cfg.spans.log("client")

	in := make([]byte, rpcReq)
	out := make([]byte, rpcResp)
	r.resp.fill(out)
	posted := gb.IrecvInto(tagReq, in)
	ssp := cfg.spans.log("server")
	r.serve(func() error {
		for seq := uint64(0); ; seq++ {
			s := ssp.begin("peer:nmad.Wait", -1, seq)
			err := posted.Wait()
			ssp.end(s)
			if err != nil {
				return err
			}
			if !r.reqs.check(posted.Data, seq, r.full.Load()) {
				r.srvFailed.Add(1)
			}
			posted = gb.IrecvInto(tagReq, in)
			r.resp.stamp(out, seq)
			s = ssp.begin("peer:nmad.Isend+Wait", -1, seq)
			err = gb.Isend(tagResp, out).Wait()
			ssp.end(s)
			if err != nil {
				return err
			}
		}
	})
	return r, nil
}

func (r *rpc) drive(c driveCtl) segment {
	r.full.Store(c.full)
	r.lat = r.lat[:0]
	seg := closedLoop(c, &r.completed, func(t0 int64) opResult {
		op := r.sp.begin("rpc", -1, r.seq)
		resp := r.gate.IrecvInto(tagResp, r.respBuf)
		r.reqs.stamp(r.reqBuf, r.seq)
		s := r.sp.begin("nmad.Isend", op, r.seq)
		req := r.gate.Isend(tagReq, r.reqBuf)
		r.sp.end(s)
		s = r.sp.begin("nmad.Wait", op, r.seq)
		err := req.Wait()
		if err == nil {
			err = resp.Wait()
		}
		r.sp.end(s)
		r.sp.end(op)
		if err != nil {
			return opResult{ops: 1, failed: 1, err: err}
		}
		t1 := now()
		r.lat = append(r.lat, t1-t0)
		ok := r.resp.check(resp.Data, r.seq, c.full) && t1-t0 <= opLimit
		r.seq++
		if !ok {
			return opResult{ops: 1, failed: 1}
		}
		return opResult{ops: 1, bytes: rpcReq + rpcResp}
	})
	bad := r.takeSrvFailed()
	seg.failed += bad
	seg.bytes -= bad * (rpcReq + rpcResp)
	seg.lat = r.lat
	return seg
}
