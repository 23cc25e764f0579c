// Simulation parameters for NetworkSim (sim/network.hpp), kept apart from
// the simulator so code that only describes a run, such as the test
// suite's reference simulator, need not see its machinery.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>

#include "sim/packet.hpp"

namespace gcube {

struct SimConfig {
  double injection_rate = 0.02;  // packets per node per cycle
  Cycle warmup_cycles = 300;
  Cycle measure_cycles = 2000;
  std::uint32_t service_rate = 4;  // packets a node may handle per cycle
  std::uint64_t seed = 42;
  /// Per-node input buffer capacity; 0 = unbounded (the paper's eager-
  /// readership model). With finite buffers a packet only moves when the
  /// downstream node has space (backpressure), injection is blocked at a
  /// full source, and sustained global stalls are reported as deadlock —
  /// the regime where channel-dependency cycles (routing/deadlock.hpp)
  /// become observable.
  std::uint32_t buffer_limit = 0;
  /// Livelock guard: a packet that has taken this many hops is dropped
  /// (detours re-planned around faults are not guaranteed monotone).
  /// 0 = auto (16 * dims + 64).
  std::uint32_t reroute_hop_limit = 0;
  /// Transient-fault recovery: how many times a stranded packet (no usable
  /// continuation at its current node) is parked for a backoff retry
  /// before it must retransmit or give up. Retry k waits
  /// retry_backoff_base << k cycles. 0 = legacy hard drop (bit-for-bit).
  /// Capped at 32 so the backoff shift stays in range.
  std::uint32_t retry_limit = 0;
  /// First retry delay in cycles (doubling per attempt). Must be >= 1.
  Cycle retry_backoff_base = 2;
  /// Per-node bound on concurrently parked retries; a stranding that finds
  /// its node's park full falls through to retransmit/give-up.
  std::uint32_t park_capacity = 8;
  /// End-to-end recovery: how many times a packet that exhausted its
  /// retries (or its park) is relaunched from its source with a fresh
  /// route. 0 = no retransmits.
  std::uint32_t retry_budget = 0;
  /// Cycles between a retransmit decision and the relaunch at the source.
  Cycle retransmit_timeout = 64;
  /// Worker threads for the sharded cycle loop. 0 = auto: the calling
  /// thread plus whatever the process-wide ThreadBudget grants, so nested
  /// sweeps never oversubscribe. N >= 1 = exactly N workers; counts above
  /// hardware_concurrency() are clamped to it (with a one-time stderr
  /// note) unless allow_oversubscribe is set. Metrics are bit-identical
  /// for any value at a fixed seed.
  std::uint32_t threads = 0;
  /// Honor a threads value above hardware_concurrency() literally instead
  /// of clamping. Oversubscription only slows the simulation down, but the
  /// determinism and TSan tests need it to run genuinely multithreaded on
  /// small machines.
  bool allow_oversubscribe = false;
  /// Accumulate per-phase wall-clock attribution into
  /// SimMetrics::phase_*_ns (bench instrumentation; adds steady_clock
  /// reads to the cycle loop, so timed runs leave it off).
  bool phase_timing = false;
  /// Periodic checkpointing: at the serial point ENTERING every cycle
  /// divisible by this, the full run state is saved to checkpoint_path
  /// (see sim/checkpoint.hpp for the format and guarantees). 0 = periodic
  /// checkpoints off; a halt-time checkpoint is still written when
  /// checkpoint_path is set.
  Cycle checkpoint_every = 0;
  /// Checkpoint file path; empty = checkpointing off entirely. Writes are
  /// atomic (tmp + rename) with a two-generation rotation ("<path>.1").
  std::string checkpoint_path;
  /// Resume from this checkpoint file instead of starting at cycle 0
  /// (falling back to its previous generation when it is corrupt or
  /// truncated). The semantic configuration must match the checkpoint's
  /// recorded parameters — threads / SIMD level may differ freely — or
  /// run() throws a CheckpointError naming the mismatched field.
  std::string resume_from;
  /// Crash-fault injection: hard std::_Exit(137) — no unwinding, no
  /// cleanup, as a kill -9 would land — at the serial point entering this
  /// cycle, AFTER any checkpoint due at that same point has been made
  /// durable. 0 = off.
  Cycle crash_at_cycle = 0;
  /// Graceful halt: when non-null and the pointee is true at a serial
  /// point, the run stops there — writing a final checkpoint first when
  /// checkpoint_path is set — and returns partial metrics with
  /// SimMetrics::interrupted_at recording the resume cycle. The pointee
  /// is typically flipped from a signal handler (sim_cli's SIGINT/
  /// SIGTERM path); atomic, so no handshake with the workers is needed.
  const std::atomic<bool>* stop_requested = nullptr;
  /// Deterministic graceful halt at the serial point entering this cycle
  /// — exactly the path a stop request takes, at a reproducible point.
  /// Test knob for checkpoint round-trips. 0 = off.
  Cycle halt_at_cycle = 0;
};

}  // namespace gcube
