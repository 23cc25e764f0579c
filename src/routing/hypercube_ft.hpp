// Fault-tolerant routing inside binary hypercubes.
//
// Theorem 3 of the paper reduces Gaussian-Cube routing under A-category
// faults to fault-tolerant unicast inside GEEC hypercubes, citing classical
// strategies ([4] FTCR, [5] Wu's safety levels, [6] adaptive routing) that
// deliver whenever the number of faulty components is smaller than the cube
// dimension. Two implementations are provided:
//
//  * adaptive_subcube_route — the mechanism the paper itself uses inside
//    FREH: move along a *preferred* dimension (one where the current node
//    still differs from the destination) whenever a usable link exists;
//    otherwise take a usable *spare* dimension and mask it so it is not
//    taken again. Works on a subcube spanned by an arbitrary dimension set
//    (a GEEC's Dim(k) is not contiguous), with fault knowledge abstracted
//    behind a link-usability predicate. A safeguard guards against dead
//    ends: it finishes the route with informed_subcube_route from wherever
//    the walk stopped. Under the Theorem-3 precondition the safeguard is
//    never needed (asserted by tests), and its use is reported in the stats
//    (SubcubeFtStats::used_fallback) so experiments cannot silently lean on
//    it.
//
//  * SafetyLevelRouter — Wu's safety levels [5] for full hypercubes with
//    node faults: each node's level S(u) is the largest h such that minimal
//    routing to any nonfaulty destination within distance h is guaranteed;
//    levels are computed by n-1 rounds of neighbor exchange (the paper's
//    "rounds of fault status exchange").
#pragma once

#include <functional>
#include <vector>

#include "fault/fault_set.hpp"
#include "routing/route.hpp"
#include "util/bits.hpp"

namespace gcube {

/// May a packet traverse the link in dimension c at node u?
using LinkUsablePredicate = std::function<bool(NodeId, Dim)>;

struct SubcubeFtStats {
  std::size_t spare_hops = 0;           // detour hops taken
  std::size_t faults_encountered = 0;   // distinct unusable links met (F)
  bool used_fallback = false;           // adaptive route's safeguard engaged
};

/// Routes from `start` to `dest` moving only along dimensions set in
/// `dims_mask`, using the paper's purely local mechanism (preferred
/// dimension, else masked spare, no 180-degree turns). Preconditions: start
/// and dest agree outside dims_mask; every node of the subcube has a
/// physical link in every dims_mask dimension (true for GEECs by
/// construction). Fails (with a reason) only if the subcube minus unusable
/// links disconnects start from dest. The route length is exactly
/// H(start, dest) + 2 * stats.spare_hops; with only local knowledge the
/// number of spare hops can exceed the number of distinct faults, so this
/// router alone does not meet the paper's 2F bound (see
/// informed_subcube_route and the abl_ft_hypercube benchmark).
[[nodiscard]] RoutingResult adaptive_subcube_route(
    NodeId start, NodeId dest, NodeId dims_mask,
    const LinkUsablePredicate& usable, SubcubeFtStats* stats = nullptr);

/// Fault-aware optimal routing within the subcube: BFS from the destination
/// over usable links (modeling the paper's rounds of fault-status exchange
/// within a class — §1 claim 4), then walk downhill. Produces the exact
/// fault-aware shortest path, which is at most 2 hops longer per fault in
/// the subcube; this is what FTGCR and FREH use for in-cube legs so the
/// paper's optimal+2F guarantee holds, and what adaptive_subcube_route's
/// safeguard finishes with.
[[nodiscard]] RoutingResult informed_subcube_route(
    NodeId start, NodeId dest, NodeId dims_mask,
    const LinkUsablePredicate& usable, SubcubeFtStats* stats = nullptr);

/// Wu's safety levels for the n-cube under node faults.
class SafetyLevelRouter {
 public:
  /// Computes all safety levels; `faults` should contain node faults only
  /// (link faults are outside the classical formulation and rejected).
  SafetyLevelRouter(Dim n, const FaultSet& faults);

  [[nodiscard]] Dim level(NodeId u) const { return levels_[u]; }

  /// Wu's unicast: from a node with S >= H(s, d) the route is minimal; from
  /// an unsafe source the first hop may be a spare toward a safer node.
  [[nodiscard]] RoutingResult plan(NodeId s, NodeId d) const;

  [[nodiscard]] Dim dims() const noexcept { return n_; }

 private:
  Dim n_;
  const FaultSet& faults_;
  std::vector<Dim> levels_;
};

}  // namespace gcube
