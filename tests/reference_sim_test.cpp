// NetworkSim versus the serial reference simulator.
//
// NetworkSim must reproduce run_reference_sim (reference_sim.hpp) on every
// deterministic metric, histogram buckets included, at 1 and 4 threads.
// The reference shares none of the simulator's machinery, so a match pins
// the active set, the timing wheel and its laps, the batched advance
// at the running SIMD level, the shard mailboxes, the fault overlay and
// the next-hop fabric to the model they implement. Cells named "Planned"
// route traffic that adopts router plans: FTGCR packets at fault-adjacent
// nodes (table steering everywhere else), e-cube and unsupported-fabric
// packets at their source. The "Steered" cell never adopts one.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "fault/fault_set.hpp"
#include "fault/preconditions.hpp"
#include "reference_sim.hpp"
#include "routing/ecube.hpp"
#include "routing/ffgcr.hpp"
#include "routing/ftgcr.hpp"
#include "routing/next_hop_table.hpp"
#include "sim/network.hpp"
#include "sim_test_support.hpp"
#include "topology/gaussian_cube.hpp"
#include "util/rng.hpp"

namespace gcube {
namespace {

enum class RouterKind { kFtgcr, kFfgcr, kEcube };

SimConfig base_config() {
  SimConfig cfg;
  cfg.injection_rate = 0.05;
  cfg.warmup_cycles = 30;
  cfg.measure_cycles = 200;
  cfg.seed = 99;
  cfg.allow_oversubscribe = true;  // 4 real workers on small machines too
  return cfg;
}

struct Cell {
  std::string label{};
  Dim n = 8;
  std::uint64_t modulus = 2;
  RouterKind router = RouterKind::kFtgcr;
  std::vector<NodeId> static_faults{};  // must satisfy FTGCR's precondition
  FaultSchedule schedule{};
  SimConfig sim = base_config();
  /// Null: UniformTraffic at sim.injection_rate over the cell's faults.
  const TrafficModel* traffic = nullptr;
};

/// Runs the cell on its own cube, fault set (scheduled events mutate it),
/// router and traffic model: through the reference when `threads` is 0,
/// else through NetworkSim with that many workers.
SimMetrics run_cell(const Cell& cell, std::uint32_t threads) {
  const GaussianCube gc(cell.n, cell.modulus);
  FaultSet faults;
  for (const NodeId u : cell.static_faults) faults.fail_node(u);
  EXPECT_TRUE(check_ftgcr_precondition(gc, faults)) << cell.label;
  std::unique_ptr<Router> router;
  if (cell.router == RouterKind::kFtgcr) {
    router = std::make_unique<FtgcrRouter>(gc, faults);
  } else if (cell.router == RouterKind::kFfgcr) {
    router = std::make_unique<FfgcrRouter>(gc);
  } else {
    router = std::make_unique<EcubeRouter>(gc);
  }
  const UniformTraffic uniform(gc.node_count(), cell.sim.injection_rate,
                               faults, cell.sim.seed);
  const TrafficModel& traffic =
      cell.traffic != nullptr ? *cell.traffic : uniform;
  if (threads == 0) {
    // Where the simulator steers by the router's fabric, the reference
    // takes the same fault-free hop from FFGCR's plans on the same cube.
    const NextHopFabric* fabric = router->fabric();
    std::optional<FfgcrRouter> tables;
    if (fabric != nullptr && fabric->supported()) tables.emplace(gc);
    return run_reference_sim(gc, *router, tables ? &*tables : nullptr,
                             faults, cell.sim, traffic, cell.schedule);
  }
  SimConfig cfg = cell.sim;
  cfg.threads = threads;
  if (cell.schedule.empty()) {
    return NetworkSim(gc, *router, faults, cfg, traffic).run();
  }
  return NetworkSim(gc, *router, faults, cfg, traffic, cell.schedule).run();
}

/// Requires NetworkSim at 1 and 4 threads to match the reference field by
/// field; returns the reference metrics so a cell can check that its
/// workload exercises what it is meant to.
SimMetrics expect_matches_reference(const Cell& cell) {
  const SimMetrics want = run_cell(cell, 0);
  EXPECT_GT(want.delivered, 0u) << cell.label << ": inert workload";
  for (const std::uint32_t threads : {1u, 4u}) {
    expect_identical(run_cell(cell, threads), want,
                     cell.label + " threads=" + std::to_string(threads));
  }
  return want;
}

Cell scheduled(std::string label, Dim n, std::uint64_t modulus) {
  return {.label = std::move(label),
          .n = n,
          .modulus = modulus,
          .schedule = scheduled_faults(pow2(n))};
}

/// Finite buffers at a load that jams GC(8,2) within a few dozen cycles;
/// warmup 0 keeps the deliveries made while the buffers fill.
Cell with_finite_buffers(Cell cell) {
  cell.sim.injection_rate = 0.20;
  cell.sim.buffer_limit = 3;
  cell.sim.warmup_cycles = 0;
  return cell;
}

TEST(ReferenceSim, PlannedFtgcrGc8x2StaticFaults) {
  const SimMetrics m = expect_matches_reference(
      {.label = "GC(8,2) static", .static_faults = {223, 15, 26, 103, 38}});
  EXPECT_GT(m.reroutes, 0u);
}

TEST(ReferenceSim, PlannedFtgcrGc10x4StaticFaults) {
  const SimMetrics m =
      expect_matches_reference({.label = "GC(10,4) static",
                                .n = 10,
                                .modulus = 4,
                                .static_faults = {5, 200, 411, 630, 999}});
  EXPECT_GT(m.reroutes, 0u);
}

TEST(ReferenceSim, PlannedFtgcrGc8x2ScheduledFaults) {
  const Cell cell = scheduled("GC(8,2) scheduled", 8, 2);
  EXPECT_GT(expect_matches_reference(cell).reroutes, 0u);
}

TEST(ReferenceSim, PlannedFtgcrGc10x4ScheduledFaults) {
  const Cell cell = scheduled("GC(10,4) scheduled", 10, 4);
  EXPECT_GT(expect_matches_reference(cell).reroutes, 0u);
}

TEST(ReferenceSim, PlannedFtgcrFiniteBuffers) {
  const SimMetrics m = expect_matches_reference(with_finite_buffers(
      {.label = "GC(8,2) finite buffers", .static_faults = {3, 50, 100}}));
  EXPECT_GT(m.injections_blocked, 0u);
  EXPECT_GT(m.stalled_cycles, 0u);
}

TEST(ReferenceSim, PlannedFtgcrFiniteBuffersWithScheduledFaults) {
  const SimMetrics m = expect_matches_reference(with_finite_buffers(
      scheduled("GC(8,2) finite buffers + schedule", 8, 2)));
  EXPECT_GT(m.injections_blocked, 0u);
  EXPECT_GT(m.orphaned_by_node_fault, 0u);
}

TEST(ReferenceSim, PlannedEcubeGc8x1ScheduledFaults) {
  Cell cell = scheduled("ECUBE GC(8,1) scheduled", 8, 1);
  cell.router = RouterKind::kEcube;
  EXPECT_GT(expect_matches_reference(cell).dropped_no_route, 0u);
}

TEST(ReferenceSim, PlannedFtgcrRandomNodeFaults) {
  // Dense random node deaths under load: packets reroute, strand, orphan
  // and trip the hop-limit guard. The simulator's audited 1-in-64 sample
  // replays its recorded hops at delivery, while total_hops comes from the
  // per-packet hop count — which the reference keeps with no audit sample.
  // Re-adopted FTGCR plans do not cycle here, so the automatic guard
  // (16n + 64 hops) never fires; a 2n-hop guard drops the longest detours.
  Cell cell{.label = "GC(7,2) random node faults",
            .n = 7,
            .schedule = FaultSchedule::random_node_faults(pow2(7), 0.05, 350,
                                                          21, 12)};
  cell.sim.injection_rate = 0.15;
  cell.sim.warmup_cycles = 50;
  cell.sim.measure_cycles = 300;
  cell.sim.reroute_hop_limit = 2 * 7;
  const SimMetrics m = expect_matches_reference(cell);
  EXPECT_GT(m.reroutes, 0u);
  EXPECT_GT(m.dropped_no_route, 0u);
  EXPECT_GT(m.dropped_hop_limit, 0u);
  EXPECT_GT(m.orphaned_by_node_fault, 0u);
}

TEST(ReferenceSim, SteeredFfgcrFaultFree) {
  const SimMetrics m = expect_matches_reference({.label = "FFGCR GC(10,4)",
                                                 .n = 10,
                                                 .modulus = 4,
                                                 .router = RouterKind::kFfgcr});
  EXPECT_EQ(m.reroutes, 0u);
}

/// Nodes whose first injection fire, drawn before cycle 0 from the same
/// traffic model, lands a whole wheel span or more out yet inside the
/// run: NetworkSim passes over each of those in its bucket at least once.
std::size_t far_first_fires(const Cell& cell) {
  FaultSet faults;
  for (const NodeId u : cell.static_faults) faults.fail_node(u);
  const std::uint64_t nodes = pow2(cell.n);
  const UniformTraffic traffic(nodes, cell.sim.injection_rate, faults,
                               cell.sim.seed);
  const Cycle total = cell.sim.warmup_cycles + cell.sim.measure_cycles;
  std::size_t far = 0;
  for (NodeId u = 0; u < nodes; ++u) {
    if (!traffic.eligible(u)) continue;
    CounterRng rng(counter_key(cell.sim.seed, u, ~Cycle{0}));
    const std::uint64_t gap = traffic.injection_gap(u, rng);
    if (gap != TrafficModel::kNeverGap && gap - 1 >= NetworkSim::kWheelSize &&
        gap - 1 < total) {
      ++far;
    }
  }
  return far;
}

TEST(ReferenceSim, PlannedFtgcrLowRateReachesTheFarHeap) {
  // A mean injection gap of 2,000 cycles files some fires past the timing
  // wheel's span (where a far heap once kept them), so the wheel's lap
  // check runs on a random load.
  Cell cell{.label = "GC(10,4) rate 5e-4",
            .n = 10,
            .modulus = 4,
            .static_faults = {5, 200, 411, 630, 999}};
  cell.sim.injection_rate = 5e-4;
  cell.sim.warmup_cycles = 0;
  cell.sim.measure_cycles = 12000;
  EXPECT_GT(far_first_fires(cell), 0u);
  EXPECT_GT(expect_matches_reference(cell).reroutes, 0u);
}

TEST(ReferenceSim, SteeredFfgcrFiresSeveralLapsOut) {
  // Every fire lies two to three wheel spans out, so each is passed over
  // twice before it is due. The run ends after some nodes' third fire and
  // before the others', so `generated` depends on every fire's exact
  // cycle: a fire taken a lap early or a node dropped while it waits
  // shows.
  const LapTraffic laps(pow2(8));
  Cell cell{.label = "FFGCR GC(8,2) laps",
            .router = RouterKind::kFfgcr,
            .traffic = &laps};
  cell.sim.warmup_cycles = 0;
  cell.sim.measure_cycles = 54'000;
  // Node u fires at k * gap(u) - 1 for k = 1, 2, ... while that cycle is
  // inside the run.
  std::uint64_t fires = 0;
  for (NodeId u = 0; u < pow2(8); ++u) {
    fires += cell.sim.measure_cycles / LapTraffic::gap(u);
  }
  ASSERT_GT(fires, 2 * pow2(8)) << "no node fires a third time";
  ASSERT_LT(fires, 3 * pow2(8)) << "every node fires a third time";
  EXPECT_EQ(expect_matches_reference(cell).generated, fires);
}

TEST(ReferenceSim, PlannedFtgcrUnsupportedFabricScheduledFaults) {
  // alpha = 4 is past NextHopFabric::kMaxAlpha: no table steering, so
  // every packet adopts FTGCR's plan at its source and re-adopts one
  // wherever a scheduled fault kills its next hop.
  const GaussianCube gc(12, 16);
  const FaultSet none;
  ASSERT_FALSE(FtgcrRouter(gc, none).fabric()->supported());
  const Cell cell = scheduled("GC(12,16) scheduled", 12, 16);
  EXPECT_GT(expect_matches_reference(cell).reroutes, 0u);
}

}  // namespace
}  // namespace gcube
