// FTGCR — the paper's fault-tolerant routing strategy for Gaussian Cubes
// (§5, Theorems 3 and 5 combined).
//
// The fault-free itinerary (ffgcr.hpp) is kept: an optimal Gaussian-Tree
// walk from class(s) to class(d) through every class owning a high bit that
// must change. Fault handling is layered onto its two primitive moves:
//
//  * in-class fixes (A-category faults, Theorem 3): setting the pending
//    Dim(k) bits is fault-tolerant unicast inside the current GEEC
//    hypercube — adaptive routing with spare-dimension masking
//    (hypercube_ft.hpp), which succeeds while each GEEC holds fewer than
//    N(k) = |Dim(k)| faults;
//
//  * tree crossings (B/C-category faults, Theorem 5): when the dimension-c
//    link at the current node is unusable, the crossing runs FREH over the
//    crossing structure G(p, q, ·) ≅ EH(|Dim(p)|, |Dim(q)|) via the
//    explicit embedding (eh_embedding.hpp), detouring through sibling nodes
//    of both classes.
//
// Invariant maintained throughout: every bit of Dim(k) not pending for
// class k already equals the destination's bit. Each crossing into class k
// therefore targets the neighbor node with *all* Dim(k) bits set to the
// destination's values, folding that class's pending fixes into the
// crossing — which also lets a crossing land around a faulty ideal
// neighbor.
//
// Guarantees (tested): under check_ftgcr_precondition the route is always
// found, is cycle-free in the fault-free case, and is at most 2F hops
// longer than FfgcrRouter::optimal_length when F faults are encountered.
//
// Every fault test on the planning path reads the FaultSet directly: its
// dense store answers a link test in two loads, so the planner keeps no
// copy of its own and needs no lock. Plans rely on the rules the plan
// caches already rely on: the FaultSet is not mutated while a plan is
// running (the simulator mutates faults only at its serial commit), and it
// changes only through its own mutators, whose version only grows —
// assigning another FaultSet over it could rewind the version and leave
// the caches stale.
#pragma once

#include <memory>

#include "fault/fault_set.hpp"
#include "routing/ffgcr.hpp"
#include "routing/next_hop_table.hpp"
#include "routing/router.hpp"
#include "topology/gaussian_cube.hpp"
#include "topology/gaussian_tree.hpp"
#include "util/flat_cache.hpp"

namespace gcube {

struct FtgcrStats {
  std::size_t faults_encountered = 0;  // distinct unusable links met (F)
  std::size_t spare_hops = 0;
  std::size_t freh_crossings = 0;  // crossings that needed the EH machinery
  bool used_fallback = false;      // any in-cube BFS safeguard engaged
  /// Times the strategy re-planned the remaining route with a global
  /// fault-aware search. This covers the one case the paper's §5 outline
  /// does not: a pass-through class whose forced intermediate node is
  /// faulty (see EXPERIMENTS.md). Zero in the Theorem-3 regime and for all
  /// leaf-detour itineraries.
  std::size_t global_replans = 0;
};

class FtgcrRouter final : public Router {
 public:
  /// Holds references; gc and faults must outlive the router.
  FtgcrRouter(const GaussianCube& gc, const FaultSet& faults);

  [[nodiscard]] RoutingResult plan(NodeId s, NodeId d) const override;
  [[nodiscard]] RoutingResult plan_with_stats(NodeId s, NodeId d,
                                              FtgcrStats& stats) const;
  /// Memoized shared route keyed on (s, d) and stamped with
  /// FaultSet::version(): a cache hit is valid only while the fault set is
  /// unchanged, so mid-run fault arrivals force a re-plan on next use.
  /// Failures (dst dead, cube disconnected) memoize as nullptr.
  [[nodiscard]] std::shared_ptr<const Route> plan_shared(
      NodeId s, NodeId d) const override;
  /// Counters for the version-stamped route cache; `stale` tallies lookups
  /// that found an entry superseded by a FaultSet::version() move.
  [[nodiscard]] RouterCacheStats cache_stats() const override {
    return {plan_cache_.stats()};
  }
  [[nodiscard]] const NextHopFabric* fabric() const override {
    return &fabric_;
  }
  [[nodiscard]] std::string name() const override { return "FTGCR"; }

  [[nodiscard]] const GaussianTree& class_tree() const noexcept {
    return tree_;
  }

 private:
  /// The composite fault-free route (identical to what the Theorem-3/5
  /// machinery emits when it encounters zero faults), or nullopt as soon
  /// as any hop on it is unusable. The overwhelmingly common fast path:
  /// faults are sparse, so most routes never meet one.
  [[nodiscard]] std::optional<Route> fault_free_route_if_clean(
      NodeId s, NodeId d) const;

  const GaussianCube& gc_;
  const FaultSet& faults_;
  GaussianTree tree_;
  NextHopFabric fabric_;
  mutable GcItineraryCache itineraries_;
  mutable ShardedVersionCache<std::shared_ptr<const Route>> plan_cache_;
};

}  // namespace gcube
