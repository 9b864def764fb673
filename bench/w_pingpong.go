package main

import (
	"pioman/internal/mpi"
	"pioman/internal/nmad"
)

const (
	tagPing = 1
	tagPong = 2
)

// pingpong is the latency workload: one client bounces a 64-byte eager
// message off rank 1 through mpi.Comm.Send/Recv over in-process rails.
// One operation is one round trip.
type pingpong struct {
	msgRig
	client *mpi.Comm
	flow   *flow
	buf    []byte
	seq    uint64
	lat    []int64
	sp     *spanLog
}

func buildPingpong(cfg buildCfg) (rig, error) {
	comms, engs, err := mpi.LocalCluster(2, nmad.Config{Trace: cfg.rec})
	if err != nil {
		return nil, err
	}
	r := &pingpong{client: comms[0]}
	r.engs = engs
	for i, e := range engs {
		for _, g := range e.Gates() {
			g.SetTraceInfo(i, 1-i)
		}
	}
	r.flow = newFlow(cfg.rng(), 64)
	r.flow.tamper = cfg.tamper
	r.buf = make([]byte, 64)
	r.flow.fill(r.buf)
	r.sp = cfg.spans.log("client")

	server, ssp := comms[1], cfg.spans.log("server")
	r.serve(func() error {
		for seq := uint64(0); ; seq++ {
			s := ssp.begin("peer:mpi.Recv", -1, seq)
			data, _, err := server.Recv(0, tagPing)
			ssp.end(s)
			if err != nil {
				return err
			}
			if !r.flow.check(data, seq, r.full.Load()) {
				r.srvFailed.Add(1)
			}
			s = ssp.begin("peer:mpi.Send", -1, seq)
			err = server.Send(0, tagPong, data)
			ssp.end(s)
			if err != nil {
				return err
			}
		}
	})
	return r, nil
}

func (r *pingpong) drive(c driveCtl) segment {
	r.full.Store(c.full)
	r.lat = r.lat[:0]
	seg := closedLoop(c, &r.completed, func(t0 int64) opResult {
		op := r.sp.begin("roundtrip", -1, r.seq)
		r.flow.stamp(r.buf, r.seq)
		s := r.sp.begin("mpi.Send", op, r.seq)
		err := r.client.Send(1, tagPing, r.buf)
		r.sp.end(s)
		var data []byte
		if err == nil {
			s = r.sp.begin("mpi.Recv", op, r.seq)
			data, _, err = r.client.Recv(1, tagPong)
			r.sp.end(s)
		}
		r.sp.end(op)
		if err != nil {
			return opResult{ops: 1, failed: 1, err: err}
		}
		t1 := now()
		r.lat = append(r.lat, t1-t0)
		ok := r.flow.check(data, r.seq, c.full) && t1-t0 <= opLimit
		r.seq++
		if !ok {
			return opResult{ops: 1, failed: 1}
		}
		return opResult{ops: 1, bytes: 2 * int64(len(data))}
	})
	seg.failed += r.takeSrvFailed()
	seg.lat = r.lat
	return seg
}
