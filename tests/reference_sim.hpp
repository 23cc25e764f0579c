// Serial reference simulator: the test oracle for NetworkSim. It restates
// the model of sim/network.hpp in its plainest form and shares only the
// simulator's inputs (topology, fault set, routers, counter-keyed
// TrafficModel draws), none of its machinery: a std::deque per node, routes
// from Router::plan, link usability and node cleanliness asked of the
// topology and fault set, one next-fire cycle per node, every node visited
// every cycle in ascending order, one thread, no SIMD. Per cycle: due fault
// events apply (a node fault orphans the packets queued at or forwarded to
// the node); last cycle's forwards join their queues in ascending source
// order; due injections draw destination, then next gap, from
// counter_key(seed, u, now); each node serves up to service_rate packets
// from its queue front, stopping at the first whose link it used this
// cycle or whose next node's start-of-service queue is full.
//
// Routing is one decision tree. A packet at its destination is delivered;
// one that has taken hop_limit hops is dropped. A packet following an
// adopted plan takes the plan's next hop while it is usable; a dead one
// counts a reroute and the plan is dropped. A packet with no plan, at a
// clean node (every existing link usable) when the router steers by tables,
// takes the fault-free hop: the first hop of `tables`' plan. Anywhere else
// it counts a reroute if a fault blocks that fault-free hop, adopts
// router.plan from where it stands, and is dropped for want of a route
// when there is no plan or its first hop is unusable. Repair events and
// retry recovery are outside the model and refused.
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
/// which scheduled events mutate. `tables` stands for the router's
/// next-hop fabric: a fault-free router on the same cube (FFGCR, whose
/// plans the fabric compiles) when the router steers by tables, or null
/// when it has no supported fabric and every packet adopts a plan at its
/// source.
[[nodiscard]] inline SimMetrics run_reference_sim(
    const Topology& topo, const Router& router, const Router* tables,
    FaultSet& faults, const SimConfig& cfg, const TrafficModel& traffic,
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
    std::uint32_t hops = 0;   // hops taken
    std::vector<Dim> plan{};  // adopted plan; empty while table-steered
    std::size_t next = 0;     // index of the adopted plan's next hop
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

  const auto usable = [&](NodeId u, Dim c) {
    return topo.has_link(u, c) && faults.link_usable(u, c);
  };
  const auto clean = [&](NodeId u) {
    for (Dim c = 0; c < dims; ++c) {
      if (topo.has_link(u, c) && !faults.link_usable(u, c)) return false;
    }
    return true;
  };
  const auto fault_free_hop = [&](NodeId u, NodeId dst) {
    return tables->plan(u, dst).route->hops().front();
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
      } else {
        queue[u].push_back({.dst = dst, .created = now});
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
        if (u == p.dst) {
          if (measuring && p.created < cfg.warmup_cycles) {
            ++m.carryover_delivered;
          } else if (measuring) {
            ++m.delivered;
            m.total_latency += now - p.created;
            m.total_hops += p.hops;
            m.latency_histogram.record(now - p.created);
          }
          if (measuring) ++m.service_ops;
        } else if (p.hops >= hop_limit) {
          if (measuring) ++m.dropped_hop_limit;
        } else {
          if (!p.plan.empty()) {
            if (usable(u, p.plan[p.next])) {
              hop = p.plan[p.next];
            } else {
              if (measuring) ++m.reroutes;
              p.plan.clear();
            }
          }
          if (!hop && tables != nullptr && clean(u)) {
            hop = fault_free_hop(u, p.dst);
          } else if (!hop) {
            if (measuring && tables != nullptr &&
                !usable(u, fault_free_hop(u, p.dst))) {
              ++m.reroutes;
            }
            const RoutingResult plan = router.plan(u, p.dst);
            if (plan.delivered() && !plan.route->empty() &&
                usable(u, plan.route->hops().front())) {
              p.plan = plan.route->hops();
              p.next = 0;
              hop = p.plan.front();
            } else if (measuring) {
              ++m.dropped_no_route;
            }
          }
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
        if (!p.plan.empty() && ++p.next == p.plan.size()) p.plan.clear();
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
