package main

import "slices"

// metricDef names one metric the benchmark prints. The table below is
// the single source of the names, units, directions and bounds:
// -list prints it, -compare applies it and BENCHMARK.json mirrors it
// (the test checks the two agree).
type metricDef struct {
	name   string
	unit   string
	higher bool    // true when a higher value is better
	bound  float64 // share of the parent's median it may worsen by; 0 on per-layer metrics
	layer  string  // module the metric measures; "" for end-to-end metrics
	moves  string  // the end-to-end metric and workload it should move
}

// gated lists the end-to-end metrics BENCHMARK.json bounds. Each is
// non-zero on every workload. Every bound is 25 %: on the 2-CPU host
// the baseline was taken on, ten runs of one commit spread (distance
// between the quartiles over the median) by 5 to 15 % in each of them,
// and the host itself drifts by about that much over minutes; README.md
// has the table. The bounded tail is the 90th percentile, not the 99th:
// a neighbour on a shared host moves the 99th by a third from one run
// to the next while the 90th keeps within a tenth.
var gated = []metricDef{
	{name: "ops_per_s", unit: "1/s", higher: true, bound: 0.25, moves: "operations completed per second, median over segments"},
	{name: "lat_p50_us", unit: "us", bound: 0.25, moves: "per-operation latency, median"},
	{name: "lat_p90_us", unit: "us", bound: 0.25, moves: "per-operation latency, 90th percentile"},
	{name: "setup_s", unit: "s", bound: 0.25, moves: "engines, rails or listener and dial, gates, buffers; median of several set-ups"},
}

// derived are end-to-end figures that are printed and compared but
// carry no bound of their own in BENCHMARK.json. Its end-to-end metrics
// may never read 0 and must repeat within their bound from run to run:
// goodput is ops_per_s times the workload's fixed payload size (0 on
// task_sched, which moves no payload), fail_ratio restates failed ÷
// attempted (0 by design), and the 99th percentile is what the host's
// other tenants move most.
var derived = []metricDef{
	{name: "lat_p99_us", unit: "us", layer: "app", moves: "per-operation latency, 99th percentile; too loose on a shared host to carry a bound"},
	{name: "goodput_MBps", unit: "MB/s", higher: true, layer: "app", moves: "verified payload bytes delivered per second; stream_mem and rpc_tcp"},
	{name: "fail_ratio", unit: "ratio", layer: "app", moves: "failed ÷ attempted; any increase is a regression"},
}

// layered lists the per-layer metrics, measured from outside each
// layer: standalone probes of its public functions, deltas of its
// public Stats counters over the timed segments, and the traced pass.
var layered = []metricDef{
	{name: "host.memcpy_GBps", unit: "GB/s", higher: true, layer: "host", moves: "host-speed reference; drift here is the host, not the program"},

	{name: "spinlock.lock_ns", unit: "ns", layer: "spinlock", moves: "ops_per_s on task_sched; doubles as the host-speed reference"},
	{name: "spinlock.lock_contended_ns", unit: "ns", layer: "spinlock", moves: "ops_per_s on task_sched"},
	{name: "spinlock.msqueue_op_ns", unit: "ns", layer: "spinlock", moves: "ops_per_s on task_sched (lock-free queue kind only)"},

	{name: "core.submit_ns", unit: "ns", layer: "core", moves: "ops_per_s and lat_p50_us on task_sched"},
	{name: "core.schedule_ns_per_task", unit: "ns", layer: "core", moves: "ops_per_s and lat_p50_us on task_sched"},
	{name: "core.empty_scan_ns", unit: "ns", layer: "core", moves: "lat_p50_us on pingpong_mem (every idle poll pays it)"},
	{name: "core.tasks_per_s_1worker", unit: "1/s", higher: true, layer: "core", moves: "ops_per_s on task_sched"},
	{name: "core.scaling_efficiency", unit: "ratio", higher: true, layer: "core", moves: "ops_per_s on task_sched; P-worker rate ÷ (P × 1-worker rate)"},
	{name: "core.skips_per_exec", unit: "ratio", layer: "core", moves: "ops_per_s on task_sched"},
	{name: "core.steal_hit_ratio", unit: "ratio", higher: true, layer: "core", moves: "ops_per_s on task_sched"},
	{name: "core.steal_tasks_share", unit: "ratio", layer: "core", moves: "ops_per_s on task_sched"},
	{name: "core.execs_per_op", unit: "count", layer: "core", moves: "lat_p50_us on pingpong_mem (polling passes burned per message)"},
	{name: "core.requeues_per_op", unit: "count", layer: "core", moves: "lat_p50_us on pingpong_mem"},

	{name: "admit.acquire_release_ns", unit: "ns", layer: "admit", moves: "ops_per_s on inject_mt"},
	{name: "admit.acquire_release_contended_ns", unit: "ns", layer: "admit", moves: "ops_per_s on inject_mt"},
	{name: "admit.blocked_ratio", unit: "ratio", layer: "admit", moves: "ops_per_s on inject_mt (expected 0)"},
	{name: "admit.rejected_ratio", unit: "ratio", layer: "admit", moves: "fail_ratio on inject_mt (expected 0)"},

	{name: "fabric.loopback_send_poll_ns", unit: "ns", layer: "fabric", moves: "nothing today: no workload rides a native provider"},
	{name: "fabric.loopback_rma_read_GBps", unit: "GB/s", higher: true, layer: "fabric", moves: "nothing today; goodput_MBps on stream_mem once mem rails are native"},
	{name: "fabric.regcache_hit_ratio", unit: "ratio", higher: true, layer: "fabric", moves: "nothing today; goodput_MBps on stream_mem once mem rails are native"},

	{name: "nmad.driver_mem_oneway_ns", unit: "ns", layer: "nmad", moves: "lat_p50_us on pingpong_mem"},
	{name: "nmad.driver_tcp_oneway_us", unit: "us", layer: "nmad", moves: "lat_p50_us on rpc_tcp (about 4 hops per RPC)"},
	{name: "nmad.driver_tcp_stream_MBps", unit: "MB/s", higher: true, layer: "nmad", moves: "goodput_MBps on rpc_tcp"},
	{name: "nmad.isend_call_ns", unit: "ns", layer: "nmad", moves: "ops_per_s on inject_mt"},
	{name: "nmad.wait_call_us", unit: "us", layer: "nmad", moves: "ops_per_s on inject_mt"},
	{name: "nmad.frames_per_msg", unit: "count", layer: "nmad", moves: "ops_per_s on inject_mt"},
	{name: "nmad.aggr_ratio", unit: "ratio", higher: true, layer: "nmad", moves: "ops_per_s on inject_mt"},
	{name: "nmad.copied_B_per_B", unit: "ratio", layer: "nmad", moves: "goodput_MBps on stream_mem"},
	{name: "nmad.rdv_pull_share", unit: "ratio", higher: true, layer: "nmad", moves: "goodput_MBps on stream_mem"},
	{name: "nmad.retries_per_kmsg", unit: "count", layer: "nmad", moves: "lat_p99_us everywhere (expected 0 on loopback)"},
	{name: "nmad.reordered_per_kmsg", unit: "count", layer: "nmad", moves: "messages that overtook an earlier one on their tag, per thousand; stream_mem and inject_mt, the two that keep several in flight"},
	{name: "nmad.inflight_states_end", unit: "count", layer: "nmad", moves: "must be 0 after quiesce"},
	{name: "nmad.phase_inject_p50_us", unit: "us", layer: "nmad", moves: "lat_p50_us on pingpong_mem and rpc_tcp"},
	{name: "nmad.phase_ackwait_p50_us", unit: "us", layer: "nmad", moves: "lat_p50_us on pingpong_mem and rpc_tcp"},
	{name: "nmad.phase_match_p50_us", unit: "us", layer: "nmad", moves: "lat_p50_us on pingpong_mem and rpc_tcp"},
	{name: "nmad.phase_handshake_p50_us", unit: "us", layer: "nmad", moves: "lat_p50_us on rpc_tcp, goodput_MBps on stream_mem"},
	{name: "nmad.phase_transfer_p50_us", unit: "us", layer: "nmad", moves: "lat_p50_us on rpc_tcp, goodput_MBps on stream_mem"},
	{name: "nmad.phase_coverage", unit: "ratio", higher: true, layer: "nmad", moves: "share of each whole-message span its phases explain"},

	{name: "mpi.send_call_us", unit: "us", layer: "mpi", moves: "lat_p50_us on pingpong_mem"},
	{name: "mpi.recv_call_us", unit: "us", layer: "mpi", moves: "lat_p50_us on pingpong_mem"},

	{name: "trace.record_ns", unit: "ns", layer: "trace", moves: "trace.overhead_ratio"},
	{name: "trace.overhead_ratio", unit: "ratio", layer: "trace", moves: "untraced ÷ traced ops_per_s of this workload"},
	{name: "trace.orphan_spans", unit: "count", layer: "trace", moves: "must be 0"},
	{name: "trace.dropped_events", unit: "count", layer: "trace", moves: "must be 0, or the phase figures are truncated"},

	{name: "go.alloc_B_per_op", unit: "B", layer: "go", moves: "lat_p50_us on pingpong_mem, goodput_MBps on stream_mem"},
	{name: "go.allocs_per_op", unit: "count", layer: "go", moves: "lat_p50_us on pingpong_mem"},
	{name: "go.gc_cycles_per_s", unit: "1/s", layer: "go", moves: "lat_p99_us everywhere"},
	{name: "go.gc_pause_ms_per_s", unit: "ms/s", layer: "go", moves: "lat_p99_us everywhere"},
	{name: "go.heap_sys_MB", unit: "MB", layer: "go", moves: "heap memory the whole process holds from the OS at the end of the segments"},
	{name: "proc.cpu_s_per_kop", unit: "s", layer: "proc", moves: "CPU burned per thousand operations"},
	{name: "proc.cpu_busy_ratio", unit: "ratio", layer: "proc", moves: "about 1 today: every waiter busy-polls"},
}

// endToEnd is what a run with -trace 0 reports; perLayer what a run
// with -trace 1 reports.
func endToEnd() []metricDef { return gated }
func perLayer() []metricDef { return slices.Concat(derived, layered) }

// findMetric returns the definition of a named metric.
func findMetric(name string) (metricDef, bool) {
	for _, set := range [][]metricDef{gated, derived, layered} {
		for _, m := range set {
			if m.name == name {
				return m, true
			}
		}
	}
	return metricDef{}, false
}
