// The parallel core's determinism contract, as a property test.
//
// For a fixed seed, the full SimMetrics of a run — latency histogram
// included — must be bit-identical for ANY thread count, because every
// per-node decision depends only on start-of-cycle committed state,
// per-(node, cycle) counter RNG draws, and canonical (source-ascending)
// queue order. The matrix here crosses topologies {GC(8,2), GC(10,4)},
// fault regimes {static pattern, mid-run schedule}, and thread counts
// {1, 2, 4, hardware, auto}; explicit counts above the core count
// genuinely oversubscribe (allow_oversubscribe bypasses the default clamp
// to hardware_concurrency), so this exercises real interleavings even on
// small CI machines. The same binary runs under the ThreadSanitizer CI
// job. The whole matrix runs on the fused cycle loop (one dispatch per
// run, barrier_serial commits, parity-double-buffered rings, batched
// drains) — so every case is also a regression test that fusing the
// phases changed nothing observable. The SimdLevelsEqualScalar* cases
// sweep both SIMD dispatch levels the CPU supports (scalar, AVX2) against
// the scalar threads=1 reference across table-steered FTGCR traffic and
// e-cube traffic that follows plans adopted at the source (the "Planned"
// cells), static and scheduled faults, and thread counts {1, 2, 4} — the
// vectorized classify / fabric-lookup kernels batch pure integer
// functions, so every level must reproduce the metrics exactly. The
// simulator is additionally pinned to the serial reference simulator in
// reference_sim_test.cpp.
//
// Cache counters (SimMetrics::plan_cache) are deliberately NOT
// compared: the hit/miss split depends on which worker reaches a cold key
// first. deterministic_equals() excludes them by contract.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "sim/metrics.hpp"
#include "sim/runner.hpp"
#include "sim_test_support.hpp"
#include "topology/gaussian_cube.hpp"
#include "util/simd.hpp"

namespace gcube {
namespace {

std::vector<std::uint32_t> thread_matrix() {
  unsigned hw = std::thread::hardware_concurrency();
  if (hw == 0) hw = 1;
  // 0 = auto (ThreadBudget grant) rides along: whatever it resolves to
  // must produce the same metrics too.
  return {1, 2, 4, hw, 0};
}

void expect_thread_invariant(GcSimSpec spec, const std::string& label) {
  spec.sim.threads = 1;
  const GcSimOutcome baseline = run_gc_simulation(spec);
  ASSERT_GT(baseline.metrics.generated, 0u) << label << ": inert workload";
  for (const std::uint32_t threads : thread_matrix()) {
    if (threads == 1) continue;
    spec.sim.threads = threads;
    const GcSimOutcome outcome = run_gc_simulation(spec);
    expect_identical(outcome.metrics, baseline.metrics,
                     label + " threads=" + std::to_string(threads) +
                         " vs threads=1");
  }
}

/// Pins the process-wide SIMD dispatch level for one scope and restores
/// the entry level on exit, so a failing cell cannot poison later tests.
class ScopedSimdLevel {
 public:
  explicit ScopedSimdLevel(SimdLevel level) : prior_(simd_level()) {
    set_simd_level(level);
  }
  ~ScopedSimdLevel() { set_simd_level(prior_); }
  ScopedSimdLevel(const ScopedSimdLevel&) = delete;
  ScopedSimdLevel& operator=(const ScopedSimdLevel&) = delete;

 private:
  SimdLevel prior_;
};

/// Every dispatch level this CPU can actually run. Levels above the
/// detected one are excluded rather than requested: set_simd_level would
/// clamp them, silently re-testing kernels already covered.
std::vector<SimdLevel> simd_matrix() {
  std::vector<SimdLevel> levels{SimdLevel::kScalar};
  if (detected_simd_level() >= SimdLevel::kAvx2) {
    levels.push_back(SimdLevel::kAvx2);
  }
  return levels;
}

/// The SIMD kernels (classify, fabric lookup) must be
/// BIT-IDENTICAL to the scalar reference at every dispatch level and
/// thread count: they batch pure integer functions, so vectorization may
/// reorder reads but never change a decision. One scalar threads=1
/// reference, then every available level × {1, 2, 4} threads against it.
void expect_simd_invariant(GcSimSpec spec, const std::string& label) {
  spec.sim.threads = 1;
  GcSimOutcome reference;
  {
    ScopedSimdLevel pin(SimdLevel::kScalar);
    reference = run_gc_simulation(spec);
  }
  ASSERT_GT(reference.metrics.generated, 0u) << label << ": inert workload";
  for (const SimdLevel level : simd_matrix()) {
    ScopedSimdLevel pin(level);
    for (const std::uint32_t threads : {1u, 2u, 4u}) {
      spec.sim.threads = threads;
      const GcSimOutcome outcome = run_gc_simulation(spec);
      expect_identical(outcome.metrics, reference.metrics,
                       label + " simd=" + to_string(level) + " threads=" +
                           std::to_string(threads) + " vs scalar threads=1");
    }
  }
}

GcSimSpec base_spec(Dim n, std::uint64_t modulus) {
  GcSimSpec spec;
  spec.n = n;
  spec.modulus = modulus;
  spec.router = SimRouterKind::kFtgcr;
  spec.sim.injection_rate = 0.05;
  spec.sim.warmup_cycles = 30;
  spec.sim.measure_cycles = 200;
  spec.sim.seed = 99;
  // The matrix intentionally runs more workers than this machine has
  // cores; the default clamp would quietly serialize those cells.
  spec.sim.allow_oversubscribe = true;
  return spec;
}

TEST(Determinism, Gc8x2StaticFaults) {
  GcSimSpec spec = base_spec(8, 2);
  spec.faulty_nodes = 5;
  expect_thread_invariant(spec, "GC(8,2) static");
}

TEST(Determinism, Gc8x2ScheduledFaults) {
  GcSimSpec spec = base_spec(8, 2);
  spec.schedule = scheduled_faults(pow2(spec.n));
  expect_thread_invariant(spec, "GC(8,2) scheduled");
}

TEST(Determinism, Gc10x4StaticFaults) {
  GcSimSpec spec = base_spec(10, 4);
  spec.faulty_nodes = 6;
  spec.sim.injection_rate = 0.04;
  expect_thread_invariant(spec, "GC(10,4) static");
}

TEST(Determinism, Gc10x4ScheduledFaults) {
  GcSimSpec spec = base_spec(10, 4);
  spec.sim.injection_rate = 0.04;
  spec.schedule = scheduled_faults(pow2(spec.n));
  expect_thread_invariant(spec, "GC(10,4) scheduled");
}

TEST(Determinism, FiniteBuffersBackpressureIsThreadInvariant) {
  // Exercises the snapshot-occupancy backpressure path and blocked
  // injections — the part of the contract that replaced live occupancy.
  GcSimSpec spec = base_spec(8, 2);
  spec.faulty_nodes = 3;
  spec.sim.injection_rate = 0.20;
  spec.sim.buffer_limit = 3;
  expect_thread_invariant(spec, "GC(8,2) finite buffers");
}

TEST(Determinism, RecoveryRetriesAreThreadInvariant) {
  // Transient faults that heal, with parking and retransmits on. In the
  // fused cycle loop the fault/repair application and the park wake both
  // run inside the barrier's serial section (cycle_prework), and stranded
  // packets ride the per-shard parity rings — none of which may depend on
  // how nodes are sharded.
  GcSimSpec spec = base_spec(8, 2);
  const GaussianCube gc(spec.n, spec.modulus);
  const NodeId nodes = static_cast<NodeId>(gc.node_count());
  FaultSchedule schedule;
  schedule.fail_node_at(20, nodes / 4);
  schedule.repair_node_at(70, nodes / 4);
  schedule.fail_link_at(40, nodes / 2, 1);
  schedule.repair_link_at(120, nodes / 2, 1);
  schedule.fail_node_at(100, 3 * nodes / 4);
  spec.schedule = schedule;
  spec.sim.retry_limit = 4;
  spec.sim.retry_backoff_base = 2;
  spec.sim.retry_budget = 2;
  expect_thread_invariant(spec, "GC(8,2) transient recovery");
}

TEST(Determinism, FiniteBuffersWithScheduledFaultsIsThreadInvariant) {
  // The two extra synchronization points at once: finite buffers add the
  // mid-cycle occupancy-snapshot barrier between phases A and B, and the
  // schedule adds serial fault prework between cycles. Backpressure,
  // blocked injections, and mid-run orphaning must all commute with the
  // thread count.
  GcSimSpec spec = base_spec(8, 2);
  spec.schedule = scheduled_faults(pow2(spec.n));
  spec.sim.injection_rate = 0.20;
  spec.sim.buffer_limit = 3;
  expect_thread_invariant(spec, "GC(8,2) finite buffers + schedule");
}

TEST(Determinism, SimdLevelsEqualScalarSteeredStatic) {
  GcSimSpec spec = base_spec(8, 2);
  spec.faulty_nodes = 5;
  expect_simd_invariant(spec, "GC(8,2) steered static");
}

TEST(Determinism, SimdLevelsEqualScalarSteeredScheduled) {
  GcSimSpec spec = base_spec(8, 2);
  spec.schedule = scheduled_faults(pow2(spec.n));
  expect_simd_invariant(spec, "GC(8,2) steered scheduled");
}

/// E-cube has no next-hop fabric, so every packet adopts its plan at the
/// source and the vector classify never takes the table fast path: these
/// cells pin the arrival and plan-flag lanes instead of the gathered table
/// lookups.
GcSimSpec ecube_spec() {
  GcSimSpec spec = base_spec(8, 1);
  spec.router = SimRouterKind::kEcube;
  return spec;
}

TEST(Determinism, SimdLevelsEqualScalarPlannedStatic) {
  GcSimSpec spec = ecube_spec();
  spec.faulty_nodes = 5;
  expect_simd_invariant(spec, "e-cube GC(8,1) static");
}

TEST(Determinism, SimdLevelsEqualScalarPlannedScheduled) {
  GcSimSpec spec = ecube_spec();
  spec.schedule = scheduled_faults(pow2(spec.n));
  expect_simd_invariant(spec, "e-cube GC(8,1) scheduled");
}

TEST(Determinism, RepeatedRunsOfOneSimulatorAgree) {
  // run() rebuilds all state, so the same NetworkSim must reproduce
  // itself — and the cache counters must show the sim actually exercised
  // the router's memoization during measurement.
  GcSimSpec spec = base_spec(8, 2);
  spec.faulty_nodes = 5;
  spec.sim.threads = 2;
  const GcSimOutcome a = run_gc_simulation(spec);
  const GcSimOutcome b = run_gc_simulation(spec);
  expect_identical(a.metrics, b.metrics, "repeat run");
  EXPECT_GT(a.metrics.plan_cache.lookups(), 0u);
}

}  // namespace
}  // namespace gcube
