// FTGCR — the paper's fault-tolerant routing strategy for Gaussian Cubes
// (§5, Theorems 3 and 5 combined).
//
// The fault-free itinerary (ffgcr.hpp) is kept: an optimal Gaussian-Tree
// walk from class(s) to class(d) through every class owning a high bit that
// must change. The router holds an FfgcrRouter and takes that route from
// it: FFGCR's route builder, given this router's fault set, returns the
// fault-free route when every hop of it is usable and gives up at the first
// hop that is not. That is the fast path (faults are sparse, so most routes
// never meet one), and it makes FTGCR's route equal FFGCR's wherever no
// fault blocks it. Only when the builder gives up does fault handling run,
// layered onto the itinerary's two primitive moves:
//
//  * in-class fixes (A-category faults, Theorem 3): setting the pending
//    Dim(k) bits is fault-tolerant unicast inside the current GEEC
//    hypercube — the fault-aware shortest path over mask Dim(k), which
//    succeeds while each GEEC holds fewer than N(k) = |Dim(k)| faults;
//
//  * tree crossings (B/C-category faults, Theorem 5): when the dimension-c
//    link at the current node is unusable, the crossing takes the
//    fault-aware shortest path over the crossing structure G(p, q, ·) ≅
//    EH(|Dim(p)|, |Dim(q)|), on GC labels with mask Dim(p) | Dim(q) | {c},
//    detouring through sibling nodes of both classes. That is FREH's
//    informed route (freh.hpp) read through the embedding
//    (eh_embedding.hpp), which eh_embedding_test checks hop for hop.
//
// Both, and the global re-plan below, are one fault_aware_search
// (hypercube_ft.hpp).
//
// Invariant maintained throughout: every bit of Dim(k) not pending for
// class k already equals the destination's bit. Each crossing into class k
// therefore targets the neighbor node with *all* Dim(k) bits set to the
// destination's values, folding that class's pending fixes into the
// crossing — which also lets a crossing land around a faulty ideal
// neighbor.
//
// Guarantees (tested in tests/ftgcr_test.cpp): under
// check_ftgcr_precondition the route is always found and is cycle-free in
// the fault-free case. With A-category faults only (the Theorem-3 regime)
// it is at most 2F hops longer than FfgcrRouter::optimal_length for F
// faults. With B/C faults that bound cannot hold (EXPERIMENTS.md); the
// route stays within 2F plus 6 per crossing-structure search of the
// fault-aware shortest path.
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
#include "routing/router.hpp"
#include "topology/gaussian_cube.hpp"
#include "util/flat_cache.hpp"

namespace gcube {

/// What plan_with_stats reports, derived from the legs' paths. The two
/// in-class tallies sum over the in-class legs that are not the clean
/// dimension-ordered path: faults_encountered counts each leg's distinct
/// unusable Dim(k) links at its nodes before the last (F), spare_hops its
/// hops along dimensions where the node already matched the leg's target.
struct FtgcrStats {
  std::size_t faults_encountered = 0;
  std::size_t spare_hops = 0;
  std::size_t freh_crossings = 0;  // searches over a crossing structure
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
  /// FFGCR's table: the fault-free route is the same for both routers.
  [[nodiscard]] const NextHopFabric* fabric() const override {
    return ffgcr_.fabric();
  }
  [[nodiscard]] std::string name() const override { return "FTGCR"; }

 private:
  /// plan and plan_with_stats: the tallies are derived only when `stats` is
  /// given.
  [[nodiscard]] RoutingResult plan_route(NodeId s, NodeId d,
                                         FtgcrStats* stats) const;

  const GaussianCube& gc_;
  const FaultSet& faults_;
  /// Itineraries, the fault-free route builder and the table.
  FfgcrRouter ffgcr_;
  mutable ShardedVersionCache<std::shared_ptr<const Route>> plan_cache_;
};

}  // namespace gcube
