#include "routing/ffgcr.hpp"

#include "fault/fault_set.hpp"
#include "routing/tree_routing.hpp"
#include "util/error.hpp"

namespace gcube {

namespace {

/// The classes owning the high dimensions in which s and d differ, in
/// ascending order: bit c belongs to class c mod 2^alpha, which is at most
/// c < kMaxDimension, so one word holds the set.
std::vector<NodeId> owning_classes(const GaussianCube& gc, NodeId s,
                                   NodeId d) {
  const Dim alpha = gc.alpha();
  NodeId classes = 0;
  for (NodeId m = (s ^ d) & ~low_mask(alpha); m != 0; m &= m - 1) {
    classes |= NodeId{1} << (lsb_index(m) & low_mask(alpha));
  }
  std::vector<NodeId> owners;
  for (; classes != 0; classes &= classes - 1) {
    owners.push_back(lsb_index(classes));
  }
  return owners;
}

}  // namespace

GcRoutePlan make_gc_route_plan(const GaussianCube& gc,
                               const GaussianTree& tree, NodeId s, NodeId d) {
  GCUBE_REQUIRE(s < gc.node_count() && d < gc.node_count(),
                "node out of range");
  return {plan_tree_walk(tree, gc.ending_class(s), gc.ending_class(d),
                         owning_classes(gc, s, d))};
}

std::shared_ptr<const GcRoutePlan> GcItineraryCache::get(
    const GaussianCube& gc, const GaussianTree& tree, NodeId s,
    NodeId d) const {
  GCUBE_REQUIRE(s < gc.node_count() && d < gc.node_count(),
                "node out of range");
  const std::uint64_t key = pack_node_pair(gc.ending_class(s), s ^ d);
  if (auto hit = cache_.find(key, 0)) return *hit;
  auto plan =
      std::make_shared<const GcRoutePlan>(make_gc_route_plan(gc, tree, s, d));
  cache_.insert(key, 0, plan);
  return plan;
}

FfgcrRouter::FfgcrRouter(const GaussianCube& gc)
    : gc_(gc), tree_(gc.alpha()), fabric_(gc) {}

std::shared_ptr<const GcRoutePlan> FfgcrRouter::itinerary(NodeId s,
                                                         NodeId d) const {
  return itineraries_.get(gc_, tree_, s, d);
}

std::optional<Route> FfgcrRouter::build_route(NodeId s, NodeId d,
                                              const FaultSet* faults) const {
  const std::shared_ptr<const GcRoutePlan> plan = itinerary(s, d);
  Route route(s);
  NodeId cur = s;
  // One hop in dimension c, refused when the fault set marks its link
  // unusable.
  auto hop = [&](Dim c) {
    if (faults != nullptr && !faults->link_usable(cur, c)) return false;
    route.append(c);
    cur = flip_bit(cur, c);
    return true;
  };
  // Class cls's high bits still differing from d's: all of them on the
  // first visit, none after it (no other hop flips them).
  auto fix_high_bits = [&](NodeId cls) {
    for (NodeId m = (cur ^ d) & gc_.high_dims_mask(cls); m != 0;
         m &= m - 1) {
      if (!hop(lsb_index(m))) return false;
    }
    return true;
  };

  const std::vector<NodeId>& walk = plan->class_walk;
  if (!fix_high_bits(walk.front())) return std::nullopt;
  for (std::size_t i = 1; i < walk.size(); ++i) {
    // One cube hop realizes the tree edge: the dimension (< alpha) in which
    // the adjacent classes differ, present at every node of either class.
    if (!hop(lsb_index(walk[i - 1] ^ walk[i])) || !fix_high_bits(walk[i])) {
      return std::nullopt;
    }
  }
  GCUBE_REQUIRE(cur == d, "FFGCR route must terminate at the destination");
  return route;
}

RoutingResult FfgcrRouter::plan(NodeId s, NodeId d) const {
  RoutingResult result;
  result.route = build_route(s, d);
  return result;
}

std::size_t FfgcrRouter::optimal_length(NodeId s, NodeId d) const {
  const NodeId cs = gc_.ending_class(s);
  const NodeId cd = gc_.ending_class(d);
  std::vector<NodeId> terminals = owning_classes(gc_, s, d);
  terminals.push_back(cs);
  terminals.push_back(cd);
  const std::size_t steiner = steiner_edge_count(tree_, terminals);
  return 2 * steiner - tree_.distance(cs, cd) +
         popcount((s ^ d) & ~low_mask(gc_.alpha()));
}

}  // namespace gcube
