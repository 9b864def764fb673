// Package pioman is a Go reproduction of "A scalable and generic task
// scheduling system for communication libraries" (Trahay & Denis, IEEE
// Cluster 2009) — the PIOMan I/O manager and the NewMadeleine-style
// communication engine built on top of it. The keypoints where the
// paper's Marcel thread scheduler calls into PIOMan are real code paths
// here: a request's Wait loop, the communication engine's background
// progression loop, and the explicit Schedule drivers of the experiment
// harnesses and the chaos cluster.
//
// The implementation lives under internal/:
//
//   - internal/core — the paper's contribution: the ltask engine with
//     topology-mapped hierarchical task queues (Algorithms 1 and 2),
//     overhauled for sub-context-switch overhead: cached O(1) placement
//     of pinned tasks, batched dequeue (one lock acquisition per batch
//     of up to 32 tasks), per-CPU sharded statistics and cache-line
//     padded queues (~2× faster pinned submit, 16-32× fewer
//     consumer-side lock acquisitions than lock-per-task; see
//     DESIGN.md), and topology-aware work stealing across sibling leaf
//     queues (Config.Steal + SubmitLocal: out-of-work CPUs migrate
//     locality-placed backlogs, re-homing pinned tasks rather than
//     running them off their CPU set);
//   - internal/cpuset, internal/topology — CPU sets and machine trees;
//   - internal/adapt — the measurement & feedback control plane:
//     lock-free online estimators (EWMA, windowed min/max, per-CPU
//     shards) and controllers behind adaptive drain batching
//     (Config.AdaptiveDrain), steal-window feedback (Steal.Adaptive)
//     and online rail calibration;
//   - internal/fabric — the libfabric-shaped provider layer (domains,
//     endpoints, completion queues, registered memory, per-rail
//     Capabilities), including an RDMA-style simulated rail with eager
//     inject, rendezvous-by-RMA-read and virtual-time completions, a
//     wall-clock loopback rail, and the Calibrate wrapper that turns
//     assumed capability envelopes into measured ones;
//   - internal/nmad, internal/mpi — the communication library (gates
//     over fabric rails with capability-aware multirail striping,
//     calibrated online under Config.Calibrate; each gate owns its
//     protocol state behind its own lock, and all progression work is
//     unconstrained tasks any scanning CPU finds on its own path) and
//     its MPI-flavoured interface on the real runtime stack;
//   - internal/experiments — the harnesses that regenerate every table
//     and figure of the paper's evaluation: Figures 4-7 from the real
//     nmad engine (5-7 on fabric's virtual clock, 4 on the wall clock),
//     Tables I/II from internal/simmachine, a cost model of the paper's
//     NUMA machines; internal/simtime is the discrete-event clock under
//     both the simulated fabric and that model.
//
// See docs/ARCHITECTURE.md for the package map and dependency diagram,
// DESIGN.md for the engine's hot-path, work-stealing and adaptive-
// control design with measured numbers, and examples/README.md for
// nine guided programs.
package pioman
