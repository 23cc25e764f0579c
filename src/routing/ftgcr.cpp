#include "routing/ftgcr.hpp"

#include <algorithm>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "routing/hypercube_ft.hpp"
#include "util/error.hpp"

namespace gcube {

FtgcrRouter::FtgcrRouter(const GaussianCube& gc, const FaultSet& faults)
    : gc_(gc), faults_(faults), ffgcr_(gc) {}

RoutingResult FtgcrRouter::plan(NodeId s, NodeId d) const {
  return plan_route(s, d, nullptr);
}

RoutingResult FtgcrRouter::plan_with_stats(NodeId s, NodeId d,
                                           FtgcrStats& stats) const {
  stats = FtgcrStats{};
  return plan_route(s, d, &stats);
}

namespace {

/// FtgcrStats' tallies for one in-class leg, read off its path: hops along
/// dimensions where the node already matched the destination, and the
/// distinct unusable `mask` links at the leg's nodes before its last. The
/// clean dimension-ordered path counts neither.
void tally_in_class_leg(const FaultSet& faults, NodeId start, NodeId dest,
                        NodeId mask, std::span<const Dim> hops,
                        FtgcrStats& stats) {
  if (hops.size() == hamming(start, dest) &&
      std::is_sorted(hops.begin(), hops.end())) {
    return;
  }
  std::vector<std::uint64_t> unusable;  // LinkId keys, with repeats
  NodeId cur = start;
  for (const Dim h : hops) {
    for (NodeId m = mask; m != 0; m &= m - 1) {
      const Dim c = lsb_index(m);
      if (faults.link_usable(cur, c)) continue;
      const LinkId l = LinkId::of(cur, c);
      unusable.push_back((std::uint64_t{l.lo} << 6) | l.dim);
    }
    if (bit(cur ^ dest, h) == 0) ++stats.spare_hops;
    cur = flip_bit(cur, h);
  }
  std::sort(unusable.begin(), unusable.end());
  stats.faults_encountered += static_cast<std::size_t>(
      std::unique(unusable.begin(), unusable.end()) - unusable.begin());
}

}  // namespace

RoutingResult FtgcrRouter::plan_route(NodeId s, NodeId d,
                                      FtgcrStats* stats) const {
  RoutingResult result;
  auto fail = [&](std::string why) {
    result.failure = std::move(why);
    return result;
  };
  if (faults_.node_faulty(s) || faults_.node_faulty(d)) {
    return fail("source or destination faulty");
  }

  // Fast path: FFGCR's route, when every hop of it is usable. The full
  // machinery below would reproduce exactly that route with zero stats, so
  // it runs only once the builder has met an unusable hop.
  if (std::optional<Route> fast = ffgcr_.build_route(s, d, &faults_)) {
    result.route = std::move(*fast);
    return result;
  }

  const std::shared_ptr<const GcRoutePlan> itinerary = ffgcr_.itinerary(s, d);
  Route route(s);
  NodeId cur = s;
  const auto usable = [this](NodeId u, Dim c) {
    return faults_.link_usable(u, c);
  };
  // Every detour is one fault_aware_search. A GEEC has every link of its
  // class's Dim(k); the crossings and the global re-plan read the cube's
  // links at each node.
  const auto every_link = [](NodeId) { return ~NodeId{0}; };
  const auto cube_links = [this](NodeId u) { return gc_.link_mask(u); };

  // The high bits still to fix; a class's bits are taken on its first
  // visit.
  NodeId pending = (s ^ d) & ~low_mask(gc_.alpha());
  auto take_pending = [&](NodeId cls) -> NodeId {
    const NodeId mask = pending & gc_.high_dims_mask(cls);
    pending &= ~mask;
    return mask;
  };

  // Fault-tolerant unicast inside the current GEEC (Theorem 3 mechanism):
  // the fault-aware shortest path, toward-destination dimensions first.
  auto in_class_route = [&](NodeId target) -> bool {
    if (target == cur) return true;
    const NodeId mask = gc_.high_dims_mask(gc_.ending_class(cur));
    const std::size_t first = route.length();
    if (!fault_aware_search(cur, target, mask, SearchOrder::kTowardFirst,
                            faults_, every_link, route)) {
      return false;
    }
    if (stats != nullptr) {
      tally_in_class_leg(faults_, cur, target, mask,
                         std::span(route.hops()).subspan(first), *stats);
    }
    cur = target;
    return true;
  };

  // A detour through the crossing structure of classes (p, q): the nodes
  // that agree with cur outside Dim(p) | Dim(q) | the tree bit, which is
  // G(p, q, ·) ≅ EH(|Dim(p)|, |Dim(q)|) (eh_embedding.hpp). The target may
  // sit on either side, so this covers folded fixes, displaced crossings,
  // and leaf detours (Cases I-IV of Algorithm 4).
  auto freh_leg = [&](NodeId p, NodeId q, NodeId target) -> bool {
    if (gc_.high_dim_count(p) == 0 || gc_.high_dim_count(q) == 0) {
      return false;  // no EH structure to detour through (Theorem 5 limit)
    }
    const NodeId structure =
        gc_.high_dims_mask(p) | gc_.high_dims_mask(q) | (p ^ q);
    if (((cur ^ target) & ~structure) != 0) return false;
    if (stats != nullptr) ++stats->freh_crossings;
    if (!fault_aware_search(cur, target, structure, SearchOrder::kAscending,
                            faults_, cube_links, route)) {
      return false;
    }
    cur = target;
    return true;
  };

  // Last resort: globally re-plan the remaining route. Handles the one
  // configuration the paper's §5 outline leaves open (a faulty forced
  // intermediate at a pass-through class) without hiding it: counted in
  // stats.global_replans.
  auto global_replan = [&]() -> bool {
    if (!fault_aware_search(cur, d, low_mask(gc_.dims()),
                            SearchOrder::kAscending, faults_, cube_links,
                            route)) {
      return false;
    }
    if (stats != nullptr) ++stats->global_replans;
    cur = d;
    return true;
  };

  auto finish = [&]() {
    GCUBE_REQUIRE(cur == d, "FTGCR route must terminate at the destination");
    result.route = std::move(route);
    return result;
  };

  const std::vector<NodeId>& walk = itinerary->class_walk;
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
      const NodeId over = flip_bit(cur, c);
      const NodeId fixed = (over & ~mask_b) | (d & mask_b);
      Route mid(over);
      if (usable(cur, c) && usable(fixed, c) &&
          fault_aware_search(over, fixed, gc_.high_dims_mask(b),
                             SearchOrder::kTowardFirst, faults_, every_link,
                             mid)) {
        if (stats != nullptr) {
          tally_in_class_leg(faults_, over, fixed, gc_.high_dims_mask(b),
                             mid.hops(), *stats);
        }
        route.append(c);
        route.append(mid);
        route.append(c);
        cur = flip_bit(fixed, c);
        GCUBE_REQUIRE(cur == detour_target,
                      "plain detour must land on its target");
        i += 2;
        continue;
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
