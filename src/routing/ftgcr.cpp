#include "routing/ftgcr.hpp"

#include <algorithm>
#include <array>
#include <cstdint>
#include <utility>
#include <vector>

#include "routing/eh_embedding.hpp"
#include "routing/freh.hpp"
#include "routing/hypercube_ft.hpp"
#include "util/error.hpp"

namespace gcube {

FtgcrRouter::FtgcrRouter(const GaussianCube& gc, const FaultSet& faults)
    : gc_(gc), faults_(faults), tree_(gc.alpha()), fabric_(gc) {}

RoutingResult FtgcrRouter::plan(NodeId s, NodeId d) const {
  FtgcrStats stats;
  return plan_with_stats(s, d, stats);
}

namespace {

/// Fault-aware BFS over the whole cube — the strategy's last-resort global
/// re-plan. Returns the hop sequence from `start` to `dest`, or nothing.
/// Neighbors are visited in ascending dimension order, so the path is the
/// first shortest one in that order.
std::optional<std::vector<Dim>> global_bfs(const GaussianCube& gc,
                                           const FaultSet& faults,
                                           NodeId start, NodeId dest) {
  if (start == dest) return std::vector<Dim>{};
  // The dimension each reached node was first entered along; the source
  // and unreached nodes get sentinels no dimension can take.
  constexpr std::uint8_t kUnreached = 0xff;
  constexpr std::uint8_t kSource = 0xfe;
  std::vector<std::uint8_t> arrival(gc.node_count(), kUnreached);
  std::vector<NodeId> queue{start};
  arrival[start] = kSource;
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const NodeId u = queue[head];
    // The cube's links at u: Dim(k) of u's ending class k, plus the tree
    // dimensions below alpha whose link u carries.
    NodeId links = gc.high_dims_mask(gc.ending_class(u));
    for (Dim c = 0; c < gc.alpha(); ++c) {
      if (gc.has_link(u, c)) links |= NodeId{1} << c;
    }
    for (; links != 0; links &= links - 1) {
      const Dim c = lsb_index(links);
      const NodeId v = flip_bit(u, c);
      if (arrival[v] != kUnreached || !faults.link_usable(u, c)) continue;
      arrival[v] = static_cast<std::uint8_t>(c);
      if (v == dest) {
        std::vector<Dim> hops;
        for (NodeId w = dest; w != start; w = flip_bit(w, arrival[w])) {
          hops.push_back(arrival[w]);
        }
        std::reverse(hops.begin(), hops.end());
        return hops;
      }
      queue.push_back(v);
    }
  }
  return std::nullopt;
}

}  // namespace

std::optional<Route> FtgcrRouter::fault_free_route_if_clean(
    NodeId s, NodeId d) const {
  const std::shared_ptr<const GcRoutePlan> itinerary =
      itineraries_.get(gc_, tree_, s, d);
  Route route(s);
  NodeId cur = s;
  bool clean = true;
  // Mirrors the traversal below with all fault branches collapsed to a
  // single usability check per hop: in-class fixes flip pending bits
  // lsb-first (informed_subcube_route's direct path), crossings take the
  // tree-edge dimension, and an already-satisfied leaf detour is skipped —
  // so a clean result is hop-for-hop what the full machinery would emit.
  auto append_checked = [&](Dim c) {
    if (!faults_.link_usable(cur, c)) {
      clean = false;
      return false;
    }
    route.append(c);
    cur = flip_bit(cur, c);
    return true;
  };
  auto fix_bits = [&](NodeId mask) {
    for (NodeId m = mask; m != 0; m &= m - 1) {
      if (!append_checked(lsb_index(m))) return false;
    }
    return true;
  };
  // Pending masks copied to the stack; consumption must not touch the
  // shared itinerary.
  std::array<std::pair<NodeId, NodeId>, kMaxDimension> pending;
  std::size_t pending_count = 0;
  for (const auto& [cls, mask] : itinerary->pending_high) {
    pending[pending_count++] = {cls, mask};
  }
  auto take_pending = [&](NodeId cls) -> NodeId {
    for (std::size_t i = 0; i < pending_count; ++i) {
      if (pending[i].first != cls) continue;
      const NodeId mask = pending[i].second;
      pending[i] = pending[--pending_count];
      return mask;
    }
    return 0;
  };

  const std::vector<NodeId>& walk = itinerary->class_walk;
  if (walk.size() == 1) {
    if (!fix_bits(take_pending(walk.front()))) return std::nullopt;
    GCUBE_REQUIRE(cur == d, "fault-free route must terminate at d");
    return route;
  }
  for (std::size_t i = 0; i + 1 < walk.size();) {
    const NodeId a = walk[i];
    const NodeId b = walk[i + 1];
    const Dim c = lsb_index(a ^ b);
    const NodeId mask_a = take_pending(a);
    const NodeId mask_b = take_pending(b);
    if (!fix_bits(mask_a)) return std::nullopt;
    const bool leaf_detour = i + 2 < walk.size() && walk[i + 2] == a;
    if (leaf_detour) {
      if (mask_b == 0 || ((cur ^ d) & mask_b) == 0) {
        i += 2;  // nothing left to fix there: skip the detour entirely
        continue;
      }
      if (!append_checked(c) || !fix_bits(mask_b) || !append_checked(c)) {
        return std::nullopt;
      }
      i += 2;
      continue;
    }
    if (!append_checked(c) || !fix_bits(mask_b)) return std::nullopt;
    ++i;
  }
  if (!clean) return std::nullopt;
  GCUBE_REQUIRE(cur == d, "fault-free route must terminate at d");
  return route;
}

RoutingResult FtgcrRouter::plan_with_stats(NodeId s, NodeId d,
                                           FtgcrStats& stats) const {
  stats = FtgcrStats{};
  RoutingResult result;
  auto fail = [&](std::string why) {
    result.failure = std::move(why);
    result.faults_hit = stats.faults_encountered;
    return result;
  };
  if (faults_.node_faulty(s) || faults_.node_faulty(d)) {
    return fail("source or destination faulty");
  }

  // Fast path: when no hop of the fault-free composite route is unusable,
  // the full machinery below would reproduce exactly that route with zero
  // stats — skip it. Faults are sparse, so this is the common case.
  if (std::optional<Route> fast = fault_free_route_if_clean(s, d)) {
    result.route = std::move(*fast);
    return result;
  }

  GcRoutePlan itinerary = *itineraries_.get(gc_, tree_, s, d);
  Route route(s);
  NodeId cur = s;
  const auto usable = [this](NodeId u, Dim c) {
    return faults_.link_usable(u, c);
  };

  /// Takes the pending high-bit mask of class `cls` out of the itinerary.
  auto take_pending = [&](NodeId cls) -> NodeId {
    const auto it = itinerary.pending_high.find(cls);
    if (it == itinerary.pending_high.end()) return 0;
    const NodeId mask = it->second;
    itinerary.pending_high.erase(it);
    return mask;
  };

  // Fault-tolerant unicast inside the current GEEC (Theorem 3 mechanism).
  auto in_class_route = [&](NodeId target) -> bool {
    if (target == cur) return true;
    const NodeId cls = gc_.ending_class(cur);
    SubcubeFtStats cube_stats;
    RoutingResult leg = informed_subcube_route(
        cur, target, gc_.high_dims_mask(cls), usable, &cube_stats);
    stats.spare_hops += cube_stats.spare_hops;
    stats.faults_encountered += cube_stats.faults_encountered;
    if (!leg.delivered()) return false;
    route.append(*leg.route);
    cur = target;
    return true;
  };

  // One FREH instance over the crossing structure of classes (p, q); the
  // destination may sit on either side, so this covers folded fixes,
  // displaced crossings, and leaf detours (Cases I-IV of Algorithm 4).
  auto freh_leg = [&](NodeId p, NodeId q, NodeId target) -> bool {
    if (gc_.high_dim_count(p) == 0 || gc_.high_dim_count(q) == 0) {
      return false;  // no EH structure to detour through (Theorem 5 limit)
    }
    const EhEmbedding emb(gc_, p, q, cur);
    if (!emb.contains(target)) return false;
    const EhFaultOracle oracle{
        [&](NodeId u) { return faults_.node_faulty(emb.from_eh(u)); },
        [&](NodeId u, Dim eh_dim) {
          return usable(emb.from_eh(u), emb.to_gc_dim(eh_dim));
        }};
    FrehStats freh_stats;
    RoutingResult leg = informed_eh_route(emb.eh(), oracle, emb.to_eh(cur),
                                          emb.to_eh(target), &freh_stats);
    stats.spare_hops += freh_stats.spare_hops;
    stats.faults_encountered += freh_stats.faults_encountered;
    stats.used_fallback = stats.used_fallback || freh_stats.used_fallback;
    ++stats.freh_crossings;
    if (!leg.delivered()) return false;
    for (const Dim eh_dim : leg.route->hops()) {
      const Dim gc_dim = emb.to_gc_dim(eh_dim);
      route.append(gc_dim);
      cur = flip_bit(cur, gc_dim);
    }
    GCUBE_REQUIRE(cur == target, "FREH leg must land on its target");
    return true;
  };

  // Last resort: globally re-plan the remaining route. Handles the one
  // configuration the paper's §5 outline leaves open (a faulty forced
  // intermediate at a pass-through class) without hiding it: counted in
  // stats.global_replans.
  auto global_replan = [&]() -> bool {
    const auto tail = global_bfs(gc_, faults_, cur, d);
    if (!tail) return false;
    ++stats.global_replans;
    for (const Dim c : *tail) {
      route.append(c);
      cur = flip_bit(cur, c);
    }
    return true;
  };

  auto finish = [&]() {
    GCUBE_REQUIRE(cur == d, "FTGCR route must terminate at the destination");
    result.faults_hit = stats.faults_encountered;
    result.route = std::move(route);
    return result;
  };

  const auto& walk = itinerary.class_walk;
  // Degenerate itinerary: everything happens inside the source class.
  if (walk.size() == 1) {
    const NodeId mask = take_pending(walk.front());
    const NodeId target = (cur & ~mask) | (d & mask);
    if (in_class_route(target)) return finish();
    if (global_replan()) return finish();
    return fail("in-class routing failed and the cube is disconnected");
  }

  for (std::size_t i = 0; i + 1 < walk.size();) {
    const NodeId a = walk[i];
    const NodeId b = walk[i + 1];
    const Dim c = lsb_index(a ^ b);
    const NodeId mask_a = take_pending(a);
    const NodeId mask_b = take_pending(b);

    // Leaf detour a -> b -> a: its only purpose is fixing b's bits; run it
    // as one same-side FREH instance (Algorithm 4 Case III/IV), which
    // tolerates a faulty natural intermediate by crossing displaced.
    const bool leaf_detour = i + 2 < walk.size() && walk[i + 2] == a;
    if (leaf_detour) {
      // a's own bits must be in place before detouring (invariant).
      const NodeId a_target = (cur & ~mask_a) | (d & mask_a);
      if (!in_class_route(a_target)) {
        if (global_replan()) return finish();
        return fail("in-class fix failed before a leaf detour");
      }
      const NodeId detour_target = (cur & ~mask_b) | (d & mask_b);
      if (detour_target == cur) {
        i += 2;  // nothing left to fix there: skip the detour entirely
        continue;
      }
      // Fast path: cross, fix b inside its GEEC, cross back — assembled
      // only if every piece works, so nothing needs undoing. This is the
      // optimal detour and the common case; the EH machinery below only
      // engages when a fault obstructs it.
      if (usable(cur, c)) {
        const NodeId over = flip_bit(cur, c);
        const NodeId fixed = (over & ~mask_b) | (d & mask_b);
        SubcubeFtStats cube_stats;
        RoutingResult mid = informed_subcube_route(
            over, fixed, gc_.high_dims_mask(b), usable, &cube_stats);
        if (mid.delivered() && usable(fixed, c)) {
          stats.spare_hops += cube_stats.spare_hops;
          stats.faults_encountered += cube_stats.faults_encountered;
          route.append(c);
          for (const Dim h : mid.route->hops()) route.append(h);
          route.append(c);
          cur = flip_bit(fixed, c);
          GCUBE_REQUIRE(cur == detour_target,
                        "plain detour must land on its target");
          i += 2;
          continue;
        }
      }
      // Blocked detour: same-side FREH instance (Algorithm 4 Case III/IV),
      // which tolerates a faulty natural intermediate by crossing
      // displaced. Needs hypercube dimensions on the a side.
      if (gc_.high_dim_count(a) >= 1 && freh_leg(a, b, detour_target)) {
        i += 2;
        continue;
      }
      if (global_replan()) return finish();
      return fail("leaf-detour crossing failed (Theorem 5 limit)");
    }

    // Ordinary walk edge a -> b. Invariant target: a's bits already at the
    // destination values, b's bits set while crossing.
    const NodeId a_target = (cur & ~mask_a) | (d & mask_a);
    const NodeId over_target =
        (flip_bit(a_target, c) & ~mask_b) | (d & mask_b);
    // Fast path: in-class fix, hop, in-class fix.
    bool ok = in_class_route(a_target);
    if (ok && usable(cur, c)) {
      route.append(c);
      cur = flip_bit(cur, c);
      ok = in_class_route(over_target);
    } else {
      ok = false;
    }
    if (!ok && cur != over_target) {
      if (!freh_leg(a, b, over_target)) {
        if (global_replan()) return finish();
        return fail("crossing failed and no global detour exists");
      }
    }
    ++i;
  }

  return finish();
}

std::shared_ptr<const Route> FtgcrRouter::plan_shared(NodeId s,
                                                      NodeId d) const {
  const std::uint64_t key = pack_node_pair(s, d);
  const std::uint64_t version = faults_.version();
  if (auto hit = plan_cache_.find(key, version)) return *hit;
  RoutingResult r = plan(s, d);
  std::shared_ptr<const Route> route =
      r.delivered() ? std::make_shared<const Route>(std::move(*r.route))
                    : nullptr;
  plan_cache_.insert(key, version, route);
  return route;
}

}  // namespace gcube
