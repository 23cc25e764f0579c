// FFGCR — Fault-Free Gaussian Cube Routing (paper Algorithm 3).
//
// Plan structure for routing s -> d in GC(n, 2^alpha):
//  1. Group the high dimensions (>= alpha) in which s and d differ by the
//     ending class that owns them: bit c can only be flipped at a node of
//     class c mod 2^alpha.
//  2. Plan the inter-class itinerary: an optimal walk on the Gaussian Tree
//     T_alpha from class(s) to class(d) that visits every owning class
//     (tree_routing.hpp; the paper's PC + FindBP/B-table + CT machinery).
//  3. Execute: each tree edge is one cube hop in a dimension < alpha
//     (available at every node of the class); on first arrival at an owning
//     class, flip all its pending high bits (each flip stays inside the
//     class).
//
// The resulting route is optimal: every cube path must project onto a tree
// walk covering the same classes, and must flip the same high bits.
// Verified against BFS ground truth in the tests.
//
// Caching. The itinerary depends only on (class(s), s ^ d) — a key space
// of 2^(alpha + n), far smaller than the (s, d) pair space — so itineraries
// are memoized in a GcItineraryCache shared-ownership table and executed
// without mutation. Routes are not memoized: the simulator steers
// fault-free packets through the table (next_hop_table.hpp), and building
// a route from a cached itinerary is a walk of its hops.
//
// One route builder. build_route executes the itinerary hop by hop and is
// the only place the fault-free route is assembled: FFGCR's own plans call
// it without a fault set, and FTGCR (ftgcr.hpp) calls it with its fault set
// as the fast path, which gives up at the first unusable hop. FTGCR
// therefore keeps this route wherever no fault blocks it, by construction.
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "routing/next_hop_table.hpp"
#include "routing/router.hpp"
#include "topology/gaussian_cube.hpp"
#include "topology/gaussian_tree.hpp"
#include "util/flat_cache.hpp"

namespace gcube {

class FaultSet;

/// The source-computed plan, exposed separately so tests and the
/// fault-tolerant router can reuse the itinerary. The high bits to flip in
/// class k are (s ^ d) & gc.high_dims_mask(k), fixed on the walk's first
/// visit to k.
struct GcRoutePlan {
  /// The inter-class walk on T_alpha (front() == class(s), back() ==
  /// class(d); consecutive entries are tree neighbors), visiting every
  /// class that owns a high bit in which s and d differ.
  std::vector<NodeId> class_walk;
};

/// Computes the itinerary for routing s -> d (both < gc.node_count()).
[[nodiscard]] GcRoutePlan make_gc_route_plan(const GaussianCube& gc,
                                             const GaussianTree& tree,
                                             NodeId s, NodeId d);

/// Memoized itineraries, keyed on (class(s), s ^ d) — the pair the plan is
/// actually a function of. Itineraries are fault-independent, so entries
/// never expire; consumers treat them as immutable.
class GcItineraryCache {
 public:
  [[nodiscard]] std::shared_ptr<const GcRoutePlan> get(const GaussianCube& gc,
                                                       const GaussianTree& tree,
                                                       NodeId s,
                                                       NodeId d) const;

 private:
  mutable ShardedVersionCache<std::shared_ptr<const GcRoutePlan>> cache_;
};

class FfgcrRouter final : public Router {
 public:
  explicit FfgcrRouter(const GaussianCube& gc);

  [[nodiscard]] RoutingResult plan(NodeId s, NodeId d) const override;
  [[nodiscard]] const NextHopFabric* fabric() const override {
    return &fabric_;
  }
  [[nodiscard]] std::string name() const override { return "FFGCR"; }

  /// The optimal fault-free route length from s to d, computable without
  /// planning (used as the baseline in the +2F overhead checks).
  [[nodiscard]] std::size_t optimal_length(NodeId s, NodeId d) const;

  /// The memoized itinerary of s -> d.
  [[nodiscard]] std::shared_ptr<const GcRoutePlan> itinerary(NodeId s,
                                                             NodeId d) const;

  /// Executes the itinerary of s -> d: on first arrival at each class its
  /// pending high bits are flipped lsb-first, and each tree edge is one hop
  /// in the dimension (< alpha) where the adjacent classes differ. Without
  /// a fault set the route always exists. With one, nothing is returned as
  /// soon as a hop's link is unusable, so a route comes back only when
  /// every hop of it is usable.
  [[nodiscard]] std::optional<Route> build_route(
      NodeId s, NodeId d, const FaultSet* faults = nullptr) const;

 private:
  const GaussianCube& gc_;
  GaussianTree tree_;
  NextHopFabric fabric_;
  mutable GcItineraryCache itineraries_;
};

}  // namespace gcube
