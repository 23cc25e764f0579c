// Serial reference simulator: the test oracle for NetworkSim's planned mode
// (SimConfig::fabric = false). It restates the model of sim/network.hpp in
// its plainest form and shares only the simulator's inputs (topology, fault
// set, router, counter-keyed TrafficModel draws), none of its machinery:
// a std::deque per node, routes from Router::plan, link usability asked of
// the topology and fault set, one next-fire cycle per node, every node
// visited every cycle in ascending order, one thread, no SIMD. Per cycle:
// due fault events apply (a node fault orphans the packets queued at or
// forwarded to the node); last cycle's forwards join their queues in
// ascending source order; due injections draw destination, then next gap,
// from counter_key(seed, u, now); each node serves up to service_rate
// packets from its queue front, stopping at the first whose link it used
// this cycle or whose next node's start-of-service queue is full. A dead
// planned hop counts a reroute and turns the packet adaptive. Repair events
// and retry recovery are outside the model and refused.
#pragma once

#include <algorithm>
#include <cstdint>
#include <deque>
#include <optional>
#include <stdexcept>
#include <utility>
#include <vector>

#include "fault/fault_set.hpp"
#include "routing/router.hpp"
#include "sim/fault_schedule.hpp"
#include "sim/metrics.hpp"
#include "sim/sim_config.hpp"
#include "sim/traffic.hpp"
#include "topology/topology.hpp"
#include "util/bits.hpp"
#include "util/rng.hpp"

namespace gcube {

/// Runs the reference model. `router` and `traffic` must consult `faults`,
/// which scheduled events mutate.
[[nodiscard]] inline SimMetrics run_reference_sim(
    const Topology& topo, const Router& router, FaultSet& faults,
    const SimConfig& cfg, const TrafficModel& traffic,
    const FaultSchedule& schedule = {}) {
  const std::vector<FaultEvent>& events = schedule.events();
  if (cfg.retry_limit != 0 || cfg.retry_budget != 0 ||
      std::any_of(events.begin(), events.end(),
                  [](const FaultEvent& e) { return e.is_repair(); })) {
    throw std::invalid_argument("reference simulator: no repairs or retries");
  }
  struct Packet {
    NodeId dst = 0;
    Cycle created = 0;
    std::vector<Dim> route;  // Router::plan's hops, consumed front to back
    std::uint32_t hops = 0;  // hops taken
    bool adaptive = false;   // a planned hop died: Router::next_hop from here
  };
  constexpr Cycle kNever = ~Cycle{0};
  const std::uint64_t nodes = topo.node_count();
  const Dim dims = topo.dims();
  const Cycle total = cfg.warmup_cycles + cfg.measure_cycles;
  const std::uint32_t hop_limit =
      cfg.reroute_hop_limit != 0 ? cfg.reroute_hop_limit : 16 * dims + 64;
  std::vector<std::deque<Packet>> queue(nodes);
  std::vector<std::vector<Packet>> incoming(nodes);  // forwarded this cycle
  std::vector<Cycle> next_fire(nodes, kNever);
  std::vector<Cycle> link_used(nodes * dims, kNever);  // per (node, dim)
  std::vector<std::size_t> occupancy(nodes, 0);  // start-of-service queues
  std::uint64_t in_flight = 0;
  SimMetrics m;
  m.measured_cycles = cfg.measure_cycles;

  const auto usable_hop = [&](NodeId u, std::optional<Dim> hop) {
    return hop && topo.has_link(u, *hop) && faults.link_usable(u, *hop)
               ? hop
               : std::nullopt;
  };
  const auto schedule_gap = [&](NodeId u, CounterRng& rng, Cycle first) {
    const std::uint64_t gap = traffic.injection_gap(u, rng);
    if (gap != TrafficModel::kNeverGap && gap < total - first) {
      next_fire[u] = first + gap;
    }
  };
  for (NodeId u = 0; u < nodes; ++u) {
    if (!traffic.eligible(u)) continue;
    // The pre-run draw stands for cycle -1: the first fire is at gap - 1.
    CounterRng rng(counter_key(cfg.seed, u, ~Cycle{0}));
    schedule_gap(u, rng, ~Cycle{0});
  }

  std::size_t next_event = 0;
  Cycle stalls = 0;
  for (Cycle now = 0; now < total; ++now) {
    const bool measuring = now >= cfg.warmup_cycles;
    for (; next_event < events.size() && events[next_event].cycle <= now;
         ++next_event) {
      const FaultEvent& e = events[next_event];
      if (measuring) ++m.fault_events;
      if (e.kind == FaultEvent::Kind::kLink) {
        faults.fail_link(e.node, e.dim);
        continue;
      }
      faults.fail_node(e.node);
      const std::uint64_t lost =
          queue[e.node].size() + incoming[e.node].size();
      queue[e.node].clear();
      incoming[e.node].clear();
      in_flight -= lost;
      if (measuring) m.orphaned_by_node_fault += lost;
    }
    for (NodeId u = 0; u < nodes; ++u) {
      for (Packet& p : incoming[u]) queue[u].push_back(std::move(p));
      incoming[u].clear();
    }
    for (NodeId u = 0; u < nodes; ++u) {
      if (next_fire[u] != now) continue;
      next_fire[u] = kNever;
      if (!traffic.eligible(u)) continue;
      CounterRng rng(counter_key(cfg.seed, u, now));
      const NodeId dst = traffic.pick_destination(u, rng);
      if (measuring) ++m.generated;
      if (cfg.buffer_limit != 0 && queue[u].size() >= cfg.buffer_limit) {
        if (measuring) ++m.injections_blocked;
      } else if (const RoutingResult plan = router.plan(u, dst);
                 !plan.delivered()) {
        if (measuring) ++m.dropped;
      } else {
        queue[u].push_back({dst, now, plan.route->hops()});
        ++in_flight;
      }
      schedule_gap(u, rng, now);
    }
    if (measuring) m.peak_in_flight = std::max(m.peak_in_flight, in_flight);
    for (NodeId u = 0; u < nodes; ++u) occupancy[u] = queue[u].size();

    bool moved = false;
    for (NodeId u = 0; u < nodes; ++u) {
      std::deque<Packet>& q = queue[u];
      for (std::uint32_t served = 0; served < cfg.service_rate && !q.empty();
           ++served) {
        Packet& p = q.front();
        std::optional<Dim> hop;
        if (p.adaptive ? u == p.dst : p.hops == p.route.size()) {
          if (measuring && p.created < cfg.warmup_cycles) {
            ++m.carryover_delivered;
          } else if (measuring) {
            ++m.delivered;
            m.total_latency += now - p.created;
            m.total_hops += p.hops;
            m.latency_histogram.record(now - p.created);
          }
          if (measuring) ++m.service_ops;
        } else if (p.adaptive && p.hops >= hop_limit) {
          if (measuring) ++m.dropped_hop_limit;
        } else {
          hop = p.adaptive ? std::nullopt : usable_hop(u, p.route[p.hops]);
          if (!p.adaptive && !hop) {
            if (measuring) ++m.reroutes;
            p.adaptive = true;
          }
          if (p.adaptive && !hop) {
            hop = usable_hop(u, router.next_hop(u, p.dst));
          }
          if (!hop && measuring) ++m.dropped_no_route;
        }
        if (!hop) {  // delivered or dropped: the packet leaves the network
          q.pop_front();
          --in_flight;
          moved = true;
          continue;
        }
        const NodeId v = flip_bit(u, *hop);
        Cycle& used = link_used[static_cast<std::size_t>(u) * dims + *hop];
        if (used == now) break;  // link busy: head-of-line blocking
        if (cfg.buffer_limit != 0 && occupancy[v] >= cfg.buffer_limit) break;
        used = now;
        if (measuring) ++m.service_ops;
        ++p.hops;
        incoming[v].push_back(std::move(p));
        q.pop_front();
        moved = true;
      }
    }
    stalls = !moved && in_flight > 0 ? stalls + 1 : 0;
    if (stalls > 0 && measuring) ++m.stalled_cycles;
    if (stalls >= 200) {
      m.deadlocked = true;
      break;
    }
  }
  m.in_flight_at_end = in_flight;
  return m;
}

}  // namespace gcube
