#include "sim/runner.hpp"

#include <memory>

#include "fault/fault_set.hpp"
#include "fault/preconditions.hpp"
#include "routing/ecube.hpp"
#include "routing/ffgcr.hpp"
#include "routing/ftgcr.hpp"
#include "topology/gaussian_cube.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace gcube {

namespace {

/// Draws `count` distinct faulty nodes such that the FTGCR precondition
/// still holds (the paper's simulations place faults the strategy is
/// guaranteed to tolerate).
FaultSet draw_fault_pattern(const GaussianCube& gc, std::size_t count,
                            std::uint64_t seed) {
  // The draw below never ends when count exceeds the node count, and
  // traffic needs two live nodes anyway. (Every cube has at least two
  // nodes; count comes from the command line and may be near 2^64.)
  GCUBE_REQUIRE(count <= gc.node_count() - 2,
                "faulty node count leaves fewer than two live nodes in " +
                    gc.name());
  Xoshiro256 rng(seed);
  for (int attempt = 0; attempt < 1000; ++attempt) {
    FaultSet faults;
    while (faults.node_fault_count() < count) {
      faults.fail_node(static_cast<NodeId>(rng.below(gc.node_count())));
    }
    if (check_ftgcr_precondition(gc, faults)) return faults;
  }
  GCUBE_REQUIRE(false, "could not place a tolerable fault pattern in " +
                           gc.name());
  return {};
}

}  // namespace

GcSimOutcome run_gc_simulation(const GcSimSpec& spec) {
  GCUBE_REQUIRE(spec.fault_rate >= 0.0 && spec.fault_rate <= 1.0,
                "fault_rate must be a probability");
  const GaussianCube gc(spec.n, spec.modulus);
  FaultSet faults;
  if (spec.faulty_nodes > 0) {
    faults = draw_fault_pattern(gc, spec.faulty_nodes, spec.fault_seed);
  }
  // Assemble the dynamic schedule: explicit events, random arrivals
  // (optionally transient), and flapping links.
  FaultSchedule schedule = spec.schedule;
  const Cycle horizon = spec.sim.warmup_cycles + spec.sim.measure_cycles;
  if (spec.fault_rate > 0.0) {
    const std::size_t cap = spec.max_dynamic_faults != 0
                                ? spec.max_dynamic_faults
                                : static_cast<std::size_t>(
                                      gc.node_count() / 8);
    const FaultSchedule random = FaultSchedule::random_node_faults(
        gc.node_count(), spec.fault_rate, horizon,
        spec.fault_seed ^ 0x9e3779b97f4a7c15ULL, cap);
    for (const FaultEvent& e : random.events()) {
      schedule.fail_node_at(e.cycle, e.node);
      if (spec.fault_repair_after > 0) {
        schedule.repair_node_at(e.cycle + spec.fault_repair_after, e.node);
      }
    }
  }
  if (spec.flapping_links > 0) {
    std::vector<LinkId> candidates;
    for (NodeId u = 0; u < gc.node_count(); ++u) {
      for (Dim c = 0; c < gc.dims(); ++c) {
        // Each undirected link once, via its lower endpoint.
        if (gc.has_link(u, c) && bit(u, c) == 0) candidates.push_back({u, c});
      }
    }
    const FaultSchedule flaps = FaultSchedule::random_flapping_links(
        candidates, spec.flapping_links, spec.mttf, spec.mttr, horizon,
        spec.fault_seed ^ 0xc2b2ae3d27d4eb4fULL);
    for (const FaultEvent& e : flaps.events()) {
      if (e.kind == FaultEvent::Kind::kLink) {
        schedule.fail_link_at(e.cycle, e.node, e.dim);
      } else {
        schedule.repair_link_at(e.cycle, e.node, e.dim);
      }
    }
  }
  const bool dynamic = !schedule.empty();

  std::unique_ptr<Router> router;
  switch (spec.router) {
    case SimRouterKind::kAuto:
      if (faults.empty() && !dynamic) {
        router = std::make_unique<FfgcrRouter>(gc);
      } else {
        router = std::make_unique<FtgcrRouter>(gc, faults);
      }
      break;
    case SimRouterKind::kFfgcr:
      router = std::make_unique<FfgcrRouter>(gc);
      break;
    case SimRouterKind::kFtgcr:
      router = std::make_unique<FtgcrRouter>(gc, faults);
      break;
    case SimRouterKind::kEcube:
      GCUBE_REQUIRE(spec.modulus == 1,
                    "e-cube needs the full hypercube GC(n, 1)");
      router = std::make_unique<EcubeRouter>(gc);
      break;
  }

  const PatternTraffic traffic(spec.n, spec.sim.injection_rate, faults,
                               spec.sim.seed, spec.pattern, spec.hot_node,
                               spec.hotspot_fraction);
  GcSimOutcome outcome;
  outcome.faults_injected = faults.node_fault_count();
  outcome.fault_events_scheduled = schedule.size();
  if (dynamic) {
    NetworkSim sim(gc, *router, faults, spec.sim, traffic, schedule);
    outcome.metrics = sim.run();
  } else {
    NetworkSim sim(gc, *router, faults, spec.sim, traffic);
    outcome.metrics = sim.run();
  }
  return outcome;
}

}  // namespace gcube
