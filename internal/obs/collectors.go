package obs

import (
	"runtime"
	"strconv"

	"pioman/internal/cluster"
	"pioman/internal/core"
	"pioman/internal/nmad"
	"pioman/internal/trace"
	"pioman/internal/trace/analyze"
)

// NewCoreCollector exports a core task engine's counters, queue depth,
// and (under Config.LatencyStats) drain/steal latency histograms. Every
// counter series derives from one Stats() snapshot, so the Σenqueue =
// executions + requeues + skips tie-out holds within a single scrape.
// The engine label distinguishes multiple engines in one registry.
func NewCoreCollector(engine string, e *core.Engine) Collector {
	return CollectorFunc(func(w *MetricWriter) {
		st := e.Stats()
		l := []string{"engine", engine}
		w.Counter("pioman_core_submitted_total", "Tasks accepted by Submit.", st.Submitted, l...)
		w.Counter("pioman_core_executions_total", "Task body invocations.", st.Executions, l...)
		w.Counter("pioman_core_requeues_total", "Repeat-task re-enqueues.", st.Requeues, l...)
		w.Counter("pioman_core_skips_total", "Dequeues put back on CPU-set mismatch.", st.Skips, l...)
		w.Counter("pioman_core_steal_attempts_total", "Drains attempted on victim queues.", st.StealAttempts, l...)
		w.Counter("pioman_core_steal_hits_total", "Steal attempts that migrated at least one task.", st.StealHits, l...)
		w.Counter("pioman_core_steal_tasks_total", "Stolen tasks executed by thief CPUs.", st.StealTasks, l...)
		w.Counter("pioman_core_batch_grows_total", "Adaptive drain-batch doublings under backlog.", st.BatchGrows, l...)
		w.Counter("pioman_core_batch_shrinks_total", "Adaptive drain-batch halvings under latency pressure.", st.BatchShrinks, l...)
		for cpu, n := range st.ExecPerCPU {
			w.Counter("pioman_core_cpu_executions_total", "Task executions by CPU.", n,
				"engine", engine, "cpu", strconv.Itoa(cpu))
		}
		w.Gauge("pioman_core_pending_tasks", "Tasks currently enqueued across all queues.", float64(e.Pending()), l...)
		// The latency histograms are separate merged snapshots by
		// design: they are distributions, not counters tied to the
		// Stats() invariants, and each merge is itself consistent.
		w.Histogram("pioman_core_drain_latency_ns", "Drain pass latency in nanoseconds (Config.LatencyStats).", e.DrainLatency(), l...)
		w.Histogram("pioman_core_steal_latency_ns", "Steal attempt latency in nanoseconds (Config.LatencyStats).", e.StealLatency(), l...)
	})
}

// NewNmadCollector exports an nmad engine: the protocol counters from
// one Stats() snapshot, the dedup-log occupancy, gate health, and the
// per-gate per-rail traffic, backpressure, and calibrated capability
// estimates. The rail capability gauges are the live view of the
// internal/adapt EWMAs when Config.Calibrate is on (the rails' Caps
// then fold the calibrators' measured bandwidth and latency).
func NewNmadCollector(engine string, e *nmad.Engine) Collector {
	return CollectorFunc(func(w *MetricWriter) {
		st := e.Stats()
		l := []string{"engine", engine}
		w.Counter("pioman_nmad_msgs_sent_total", "Application messages sent.", st.MsgsSent, l...)
		w.Counter("pioman_nmad_msgs_recv_total", "Application messages received.", st.MsgsRecv, l...)
		w.Counter("pioman_nmad_frames_sent_total", "Frames put on a wire.", st.FramesSent, l...)
		w.Counter("pioman_nmad_frames_recv_total", "Frames taken off a wire.", st.FramesRecv, l...)
		w.Counter("pioman_nmad_eager_sent_total", "Messages sent eagerly.", st.EagerSent, l...)
		w.Counter("pioman_nmad_aggregated_total", "Messages that travelled inside an aggregate.", st.Aggregated, l...)
		w.Counter("pioman_nmad_aggr_frames_total", "Aggregate frames sent.", st.AggrFrames, l...)
		w.Counter("pioman_nmad_rdv_started_total", "Rendezvous handshakes initiated.", st.RdvStarted, l...)
		w.Counter("pioman_nmad_restripes_total", "Frames re-routed onto a surviving rail.", st.Restripes, l...)
		w.Counter("pioman_nmad_rdv_pulls_total", "RMA reads posted by rendezvous receives.", st.RdvPulls, l...)
		w.Counter("pioman_nmad_rdv_pull_bytes_total", "Payload bytes landed by RMA reads.", st.RdvPullBytes, l...)
		w.Counter("pioman_nmad_rdv_fins_total", "Rendezvous receives completed (FIN sent).", st.RdvFins, l...)
		w.Counter("pioman_nmad_recv_copied_bytes_total", "Payload bytes memcpy'd on the receive path.", st.RecvCopiedBytes, l...)
		w.Counter("pioman_nmad_rdv_retries_total", "Rendezvous steps retransmitted after a timeout.", st.RdvRetries, l...)
		w.Counter("pioman_nmad_rdv_timeouts_total", "Rendezvous halves failed with ErrRdvTimeout.", st.RdvTimeouts, l...)
		w.Counter("pioman_nmad_eager_retries_total", "Eager messages retransmitted after a timeout.", st.EagerRetries, l...)
		w.Counter("pioman_nmad_eager_timeouts_total", "Eager messages failed with ErrEagerTimeout.", st.EagerTimeouts, l...)
		w.Counter("pioman_nmad_eager_acks_total", "Eager messages acknowledged by the peer.", st.EagerAcks, l...)

		if ai := e.AdmitInfo(); ai.Enabled {
			// Admission-control plane: series exist only when admission is
			// on, so engines without it keep an identical exposition.
			w.Counter("pioman_nmad_admit_admitted_total", "Submissions granted admission credits.", st.AdmitAdmitted, l...)
			w.Counter("pioman_nmad_admit_rejected_total", "Submissions refused with ErrAdmissionReject.", st.AdmitRejected, l...)
			w.Counter("pioman_nmad_admit_shed_total", "Rendezvous submissions shed in degraded mode.", st.AdmitShed, l...)
			w.Counter("pioman_nmad_admit_blocked_total", "Submissions parked by the blocking policy.", st.AdmitBlocked, l...)
			w.Counter("pioman_nmad_admit_expired_total", "Parked submissions that waited past their budget.", st.AdmitExpired, l...)
			w.Counter("pioman_nmad_deadline_expired_total", "Requests failed with ErrDeadlineExpired on any path.", st.DeadlineExpired, l...)
			w.Gauge("pioman_nmad_admit_inflight_requests", "Engine-wide request credits currently held.", float64(ai.Requests), l...)
			w.Gauge("pioman_nmad_admit_inflight_bytes", "Engine-wide payload-byte credits currently held.", float64(ai.Bytes), l...)
			w.Gauge("pioman_nmad_admit_max_requests", "Engine-wide request budget.", float64(ai.MaxRequests), l...)
			w.Gauge("pioman_nmad_admit_max_bytes", "Engine-wide payload-byte budget.", float64(ai.MaxBytes), l...)
			w.Gauge("pioman_nmad_admit_waiting", "Submissions parked in the admission queue.", float64(ai.Waiting), l...)
			deg := 0.0
			if ai.Degraded {
				deg = 1
			}
			w.Gauge("pioman_nmad_admit_degraded", "Whether any scope is past its high watermark (degraded is load-shedding, not dead).", deg, l...)
		}

		w.Gauge("pioman_nmad_failed_gates", "Gates with no alive rail.", float64(e.FailedGates()), l...)

		for _, g := range e.Gates() {
			gid := strconv.Itoa(g.ID())
			for i, rs := range g.RailStats() {
				rl := []string{"engine", engine, "gate", gid, "rail", strconv.Itoa(i), "provider", rs.Provider}
				w.Counter("pioman_nmad_rail_frames_total", "Frames sent on the rail.", rs.Frames, rl...)
				w.Counter("pioman_nmad_rail_bytes_total", "Payload bytes sent on the rail.", rs.Bytes, rl...)
				w.Counter("pioman_nmad_rail_pull_bytes_total", "Payload bytes RMA-read in over the rail.", rs.PullBytes, rl...)
				w.Gauge("pioman_nmad_rail_backlog", "Current completion-queue depth of the rail.", float64(rs.Backlog), rl...)
				w.Gauge("pioman_nmad_rail_backpressure_limit", "Current backpressure threshold of the rail (frames).", float64(rs.BackpressureLimit), rl...)
				dead := 0.0
				if rs.Dead {
					dead = 1
				}
				w.Gauge("pioman_nmad_rail_dead", "Whether the rail has failed (1 = dead).", dead, rl...)
				w.Gauge("pioman_nmad_rail_bandwidth_bytes_per_second", "Rail bandwidth estimate (calibrated EWMA when Config.Calibrate is on).", rs.Caps.Bandwidth, rl...)
				w.Gauge("pioman_nmad_rail_latency_ns", "Rail latency estimate (calibrated EWMA when Config.Calibrate is on).", float64(rs.Caps.Latency), rl...)
			}
		}
	})
}

// NewClusterCollector exports the chaos suite's per-scenario results:
// transfer outcomes, retransmission pressure, and the virtual-clock
// latency percentiles the baseline gate rides. results is called once
// per scrape and must return a consistent snapshot (e.g. a copy taken
// under the caller's lock).
func NewClusterCollector(results func() []cluster.Result) Collector {
	return CollectorFunc(func(w *MetricWriter) {
		for _, r := range results() {
			l := []string{"scenario", r.Scenario}
			w.Gauge("pioman_cluster_nodes", "Cluster size of the scenario.", float64(r.Nodes), l...)
			w.Gauge("pioman_cluster_transfers", "Transfers attempted by the scenario.", float64(r.Transfers), l...)
			w.Gauge("pioman_cluster_completed", "Transfers completed byte-exact.", float64(r.Completed), l...)
			w.Gauge("pioman_cluster_failed_visibly", "Transfers failed with a visible error.", float64(r.FailedVisibly), l...)
			w.Gauge("pioman_cluster_hung", "Transfers neither completed nor failed (hangs).", float64(r.Hung), l...)
			w.Gauge("pioman_cluster_rdv_retries", "Rendezvous retransmissions across the run.", float64(r.RdvRetries), l...)
			w.Gauge("pioman_cluster_eager_retries", "Eager retransmissions across the run.", float64(r.EagerRetries), l...)
			w.Gauge("pioman_cluster_latency_p50_ns", "Median transfer latency on the virtual clock.", float64(r.LatencyP50Ns), l...)
			w.Gauge("pioman_cluster_latency_p99_ns", "99th-percentile transfer latency on the virtual clock.", float64(r.LatencyP99Ns), l...)
			w.Gauge("pioman_cluster_violations", "Invariant violations detected post-quiesce.", float64(len(r.Violations)), l...)
			if r.AdmitAdmitted+r.AdmitRejected+r.AdmitBlocked > 0 || r.PeakInflight > 0 {
				// Overload scenarios only: the admission ledger and the
				// queue-depth peak the credit plane exists to bound.
				w.Gauge("pioman_cluster_admit_admitted", "Submissions admitted across every node.", float64(r.AdmitAdmitted), l...)
				w.Gauge("pioman_cluster_admit_rejected", "Submissions rejected across every node.", float64(r.AdmitRejected), l...)
				w.Gauge("pioman_cluster_admit_shed", "Degraded-mode sheds across every node.", float64(r.AdmitShed), l...)
				w.Gauge("pioman_cluster_deadline_expired", "Deadline expiries across every node.", float64(r.DeadlineExpired), l...)
				w.Gauge("pioman_cluster_peak_inflight", "Highest per-node protocol-state count observed.", float64(r.PeakInflight), l...)
			}
		}
	})
}

// NewTraceCollector exports the flight recorder: per-ring append and
// overwrite counts (the loss visibility that tells an operator whether
// the trace they are about to drain is truncated), and per-phase
// message-latency histograms reconstructed from the recorder's span
// stream. Reconstruction runs per scrape over a bounded ring drain, so
// it costs milliseconds, not memory; rec may be nil (no series).
func NewTraceCollector(rec *trace.Recorder) Collector {
	return CollectorFunc(func(w *MetricWriter) {
		if rec == nil {
			return
		}
		for i, rs := range rec.RingStats() {
			l := []string{"ring", strconv.Itoa(i)}
			w.Counter("pioman_trace_ring_recorded_total", "Events ever appended to the ring.", rs.Recorded, l...)
			w.Counter("pioman_trace_ring_dropped_total", "Events lost to ring wraparound (nonzero = truncated trace).", rs.Dropped, l...)
		}
		rep := analyze.Analyze(rec.Events())
		w.Gauge("pioman_trace_messages", "Messages reconstructed from the current span stream.", float64(len(rep.Messages)))
		w.Gauge("pioman_trace_orphan_spans", "Unpaired phase spans on completed messages (pairing invariant).", float64(rep.OrphanSpans))
		for _, name := range rep.PhaseNames() {
			w.Histogram("pioman_trace_phase_latency_ns", "Per-phase message latency from lifecycle spans.", *rep.Phases[name], "phase", name)
		}
	})
}

// NewGoCollector exports Go runtime vitals: goroutine count and the
// allocator/GC counters operators sort a misbehaving process by.
func NewGoCollector() Collector {
	return CollectorFunc(func(w *MetricWriter) {
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		w.Gauge("pioman_go_goroutines", "Live goroutines.", float64(runtime.NumGoroutine()))
		w.Gauge("pioman_go_heap_alloc_bytes", "Bytes of allocated heap objects.", float64(m.HeapAlloc))
		w.Gauge("pioman_go_heap_objects", "Number of allocated heap objects.", float64(m.HeapObjects))
		w.Counter("pioman_go_alloc_bytes_total", "Cumulative bytes allocated for heap objects.", m.TotalAlloc)
		w.Counter("pioman_go_gc_cycles_total", "Completed GC cycles.", uint64(m.NumGC))
	})
}
