#include "routing/ffgcr.hpp"

#include <array>
#include <utility>

#include "routing/tree_routing.hpp"
#include "util/error.hpp"

namespace gcube {

GcRoutePlan make_gc_route_plan(const GaussianCube& gc,
                               const GaussianTree& tree, NodeId s, NodeId d) {
  GCUBE_REQUIRE(s < gc.node_count() && d < gc.node_count(),
                "node out of range");
  GcRoutePlan plan;
  const Dim alpha = gc.alpha();
  NodeId high_diff = (s ^ d) & ~low_mask(alpha);
  while (high_diff != 0) {
    const Dim c = lsb_index(high_diff);
    high_diff &= high_diff - 1;
    plan.pending_high[c & low_mask(alpha)] |= NodeId{1} << c;
  }
  std::vector<NodeId> targets;
  targets.reserve(plan.pending_high.size());
  for (const auto& [k, mask] : plan.pending_high) targets.push_back(k);
  plan.class_walk = plan_tree_walk(tree, gc.ending_class(s),
                                   gc.ending_class(d), targets);
  return plan;
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

Route FfgcrRouter::build_route(NodeId s, NodeId d) const {
  const std::shared_ptr<const GcRoutePlan> itinerary =
      itineraries_.get(gc_, tree_, s, d);
  Route route(s);
  NodeId cur = s;
  // Pending masks copied to the stack (at most one entry per dimension) so
  // first-visit consumption does not touch the shared itinerary.
  std::array<std::pair<NodeId, NodeId>, kMaxDimension> pending;
  std::size_t pending_count = 0;
  for (const auto& [cls, mask] : itinerary->pending_high) {
    pending[pending_count++] = {cls, mask};
  }
  auto fix_high_bits = [&](NodeId cls) {
    for (std::size_t i = 0; i < pending_count; ++i) {
      if (pending[i].first != cls) continue;
      NodeId mask = pending[i].second;
      while (mask != 0) {
        const Dim c = lsb_index(mask);
        mask &= mask - 1;
        route.append(c);
        cur = flip_bit(cur, c);
      }
      pending[i] = pending[--pending_count];
      return;
    }
  };

  const std::vector<NodeId>& walk = itinerary->class_walk;
  fix_high_bits(walk.front());
  for (std::size_t i = 1; i < walk.size(); ++i) {
    // One cube hop realizes the tree edge: the dimension (< alpha) in which
    // the adjacent classes differ, present at every node of either class.
    const Dim c = lsb_index(walk[i - 1] ^ walk[i]);
    route.append(c);
    cur = flip_bit(cur, c);
    fix_high_bits(walk[i]);
  }
  GCUBE_REQUIRE(cur == d, "FFGCR route must terminate at the destination");
  return route;
}

RoutingResult FfgcrRouter::plan(NodeId s, NodeId d) const {
  RoutingResult result;
  result.route = *plan_shared(s, d);
  return result;
}

std::shared_ptr<const Route> FfgcrRouter::plan_shared(NodeId s,
                                                      NodeId d) const {
  const std::uint64_t key = pack_node_pair(s, d);
  if (auto hit = plan_cache_.find(key, 0)) return *hit;
  auto route = std::make_shared<const Route>(build_route(s, d));
  plan_cache_.insert(key, 0, route);
  return route;
}

std::size_t FfgcrRouter::optimal_length(NodeId s, NodeId d) const {
  const std::shared_ptr<const GcRoutePlan> itinerary =
      itineraries_.get(gc_, tree_, s, d);
  const NodeId cs = gc_.ending_class(s);
  const NodeId cd = gc_.ending_class(d);
  std::vector<NodeId> terminals{cs, cd};
  Dim high_flips = 0;
  for (const auto& [k, mask] : itinerary->pending_high) {
    terminals.push_back(k);
    high_flips += popcount(mask);
  }
  const std::size_t steiner = steiner_edge_count(tree_, terminals);
  return 2 * steiner - tree_.distance(cs, cd) + high_flips;
}

}  // namespace gcube
