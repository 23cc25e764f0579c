// Fault-tolerant routing inside binary hypercubes, and the library's one
// fault-aware shortest-path search.
//
// Theorem 3 of the paper reduces Gaussian-Cube routing under A-category
// faults to fault-tolerant unicast inside GEEC hypercubes, citing classical
// strategies ([4] FTCR, [5] Wu's safety levels, [6] adaptive routing) that
// deliver whenever the number of faulty components is smaller than the cube
// dimension. This header provides:
//
//  * fault_aware_search — a BFS over the nodes that agree with the start
//    outside a mask of free dimensions, through links the network has and
//    the FaultSet allows. FTGCR runs it for its in-class legs (mask
//    Dim(k)), its tree crossings (mask Dim(p) | Dim(q) | the tree bit, on
//    GC labels) and its global re-plan (every dimension).
//    informed_subcube_route (below) and informed_eh_route (freh.hpp) are
//    thin wrappers over it.
//
//  * adaptive_subcube_route — the mechanism the paper itself uses inside
//    FREH: move along a *preferred* dimension (one where the current node
//    still differs from the destination) whenever a usable link exists;
//    otherwise take a usable *spare* dimension and mask it so it is not
//    taken again. Works on a subcube spanned by an arbitrary dimension set
//    (a GEEC's Dim(k) is not contiguous). A safeguard guards against dead
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

#include <array>
#include <cstdint>
#include <vector>

#include "fault/fault_set.hpp"
#include "routing/route.hpp"
#include "util/bits.hpp"
#include "util/error.hpp"

namespace gcube {

/// The order in which fault_aware_search tries a node's links.
enum class SearchOrder : std::uint8_t {
  kAscending,    // ascending dimension
  kTowardFirst,  // first the dimensions where the node still differs from
                 // the destination, then the others; each group ascending
};

/// The one fault-aware shortest-path search. A BFS from `start` over the
/// nodes that agree with it outside `free_dims`, through the links
/// `links_at(u)` names at each node u (a dimension bitmask; only its
/// free_dims bits are taken) that `faults` finds usable. It tries a node's
/// links in `order` and stops on reaching `dest`, so it finds the first
/// shortest path in that order: of all fault-aware shortest paths, the one
/// whose first differing hop takes the earlier link. The plain
/// dimension-ordered path, when all its links exist and are usable, is that
/// path under either order and is returned without a search.
///
/// On success appends the hops from start to dest to `route` and returns
/// true; otherwise leaves `route` untouched and returns false. Requires
/// start and dest to agree outside free_dims, and free_dims to lie below
/// kMaxDimension. The arrival array spans 2^|free_dims| bytes.
template <class LinksAt>
[[nodiscard]] bool fault_aware_search(NodeId start, NodeId dest,
                                      NodeId free_dims, SearchOrder order,
                                      const FaultSet& faults,
                                      const LinksAt& links_at, Route& route) {
  GCUBE_REQUIRE(((start ^ dest) & ~free_dims) == 0,
                "start and dest must agree outside the free dimensions");
  GCUBE_REQUIRE((free_dims >> kMaxDimension) == 0,
                "free dimensions must lie below kMaxDimension");
  // Fast path: the plain dimension-ordered path, taken when every link on
  // it exists and is usable (the common case: faults are sparse).
  NodeId pending = start ^ dest;
  for (NodeId cur = start; pending != 0; pending &= pending - 1) {
    const Dim c = lsb_index(pending);
    if (bit(links_at(cur), c) == 0 || !faults.link_usable(cur, c)) break;
    cur = flip_bit(cur, c);
  }
  if (pending == 0) {
    for (NodeId m = start ^ dest; m != 0; m &= m - 1) {
      route.append(lsb_index(m));
    }
    return true;
  }
  if (faults.node_faulty(dest)) return false;  // no usable link reaches it

  // A node's slot packs its free bits, relative to start's, into the low
  // bits, so the arrival array spans exactly the nodes the search can
  // reach; crossing free dimension c flips slot bit slot_bit[c].
  std::array<NodeId, kMaxDimension> slot_bit{};
  NodeId slots = 1;
  for (NodeId m = free_dims; m != 0; m &= m - 1, slots <<= 1) {
    slot_bit[lsb_index(m)] = slots;
  }
  // The dimension each reached node was first entered along; start and
  // unreached nodes get sentinels no dimension can take.
  constexpr std::uint8_t kUnreached = 0xff;
  constexpr std::uint8_t kStart = 0xfe;
  std::vector<std::uint8_t> arrival(slots, kUnreached);
  arrival[0] = kStart;
  struct Reached {
    NodeId node;
    NodeId slot;
  };
  std::vector<Reached> queue{{start, 0}};
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const auto [u, u_slot] = queue[head];
    const NodeId links = links_at(u) & free_dims;
    const NodeId first =
        order == SearchOrder::kTowardFirst ? links & (u ^ dest) : links;
    for (const NodeId group : {first, links & ~first}) {
      for (NodeId m = group; m != 0; m &= m - 1) {
        const Dim c = lsb_index(m);
        const NodeId v_slot = u_slot ^ slot_bit[c];
        if (arrival[v_slot] != kUnreached || !faults.link_usable(u, c)) {
          continue;
        }
        arrival[v_slot] = static_cast<std::uint8_t>(c);
        const NodeId v = flip_bit(u, c);
        if (v != dest) {
          queue.push_back({v, v_slot});
          continue;
        }
        std::vector<Dim> back;  // the arrival dimensions, dest to start
        for (NodeId w = v_slot; w != 0; w ^= slot_bit[arrival[w]]) {
          back.push_back(arrival[w]);
        }
        for (auto it = back.rbegin(); it != back.rend(); ++it) {
          route.append(*it);
        }
        return true;
      }
    }
  }
  return false;
}

struct SubcubeFtStats {
  std::size_t spare_hops = 0;  // detour hops taken
  bool used_fallback = false;  // adaptive route's safeguard engaged
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
    NodeId start, NodeId dest, NodeId dims_mask, const FaultSet& faults,
    SubcubeFtStats* stats = nullptr);

/// Fault-aware optimal routing within the subcube: fault_aware_search with
/// every dims_mask link present, toward-destination dimensions first. This
/// models the paper's rounds of fault-status exchange within a class (§1
/// claim 4): the exact fault-aware shortest path, at most 2 hops longer per
/// fault in the subcube, which is what FTGCR's in-class legs take so the
/// paper's optimal+2F guarantee holds, and what adaptive_subcube_route's
/// safeguard finishes with.
[[nodiscard]] RoutingResult informed_subcube_route(NodeId start, NodeId dest,
                                                   NodeId dims_mask,
                                                   const FaultSet& faults);

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
