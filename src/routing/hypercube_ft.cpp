#include "routing/hypercube_ft.hpp"

#include <algorithm>
#include <vector>

#include "util/error.hpp"

namespace gcube {

RoutingResult adaptive_subcube_route(NodeId start, NodeId dest,
                                     NodeId dims_mask, const FaultSet& faults,
                                     SubcubeFtStats* stats) {
  GCUBE_REQUIRE(((start ^ dest) & ~dims_mask) == 0,
                "start and dest must agree outside the subcube dimensions");
  SubcubeFtStats local_stats;
  SubcubeFtStats& st = stats != nullptr ? *stats : local_stats;
  st = SubcubeFtStats{};

  RoutingResult result;
  Route route(start);
  NodeId cur = start;
  NodeId masked = 0;  // spare dimensions already used (paper's mask)
  Dim last_dim = kMaxDimension + 1;  // no 180-degree turns (see below)

  // Hop budget: optimal + two per possible detour. Exceeding it means the
  // greedy is wandering; switch to the BFS safeguard.
  const std::size_t budget =
      hamming(start, dest) + 2 * popcount(dims_mask) + 2;
  auto move_along = [&](Dim c) {
    route.append(c);
    cur = flip_bit(cur, c);
    last_dim = c;
  };
  while (cur != dest) {
    if (route.length() > budget) break;
    const NodeId pref = (cur ^ dest) & dims_mask;
    bool moved = false;
    // Preferred dimensions first, but never immediately undo the previous
    // hop: a spare hop followed by a preferred hop in the same dimension
    // would ping-pong between two nodes and pay for the same fault twice.
    // The arrival dimension is taken as preferred only when it is the sole
    // usable choice.
    bool last_dim_usable_pref = false;
    for (NodeId m = pref; m != 0; m &= m - 1) {
      const Dim c = lsb_index(m);
      if (c == last_dim) {
        last_dim_usable_pref = faults.link_usable(cur, c);
        continue;
      }
      if (faults.link_usable(cur, c)) {
        move_along(c);
        moved = true;
        break;
      }
    }
    if (!moved && last_dim_usable_pref) {
      move_along(last_dim);
      moved = true;
    }
    if (moved) continue;
    // Every preferred link is down: take a usable spare dimension and mask
    // it (paper: "use the spare dimension and mask it so that it will not
    // be used again" — this is what makes the walk livelock-free).
    for (NodeId m = dims_mask & ~pref & ~masked; m != 0; m &= m - 1) {
      const Dim c = lsb_index(m);
      if (c == last_dim) continue;  // would undo the previous hop
      if (faults.link_usable(cur, c)) {
        masked |= NodeId{1} << c;
        move_along(c);
        ++st.spare_hops;
        moved = true;
        break;
      }
    }
    // Last resort: backtrack along the arrival dimension (the one move the
    // no-180 rule withheld). The next node then re-chooses with this
    // dimension masked, so the walk cannot oscillate.
    if (!moved && last_dim <= kMaxDimension &&
        faults.link_usable(cur, last_dim)) {
      masked |= NodeId{1} << last_dim;
      move_along(last_dim);
      ++st.spare_hops;
      moved = true;
    }
    if (!moved) break;  // dead end; fall through to the safeguard
  }

  if (cur == dest) {
    result.route = std::move(route);
    return result;
  }

  // Safeguard: complete the route with the informed route, a shortest path
  // over usable links. Under the Theorem-3 precondition (< dim faults per
  // GEEC) this is unreachable; tests assert used_fallback stays false
  // there. spare_hops counts the local walk only.
  st.used_fallback = true;
  const RoutingResult tail =
      informed_subcube_route(cur, dest, dims_mask, faults);
  if (!tail.delivered()) {
    result.failure = "subcube disconnected between current node and target";
    return result;
  }
  route.append(*tail.route);
  result.route = std::move(route);
  return result;
}

RoutingResult informed_subcube_route(NodeId start, NodeId dest,
                                     NodeId dims_mask,
                                     const FaultSet& faults) {
  RoutingResult result;
  Route route(start);
  // Every node of the subcube has a link in every dims_mask dimension.
  if (fault_aware_search(start, dest, dims_mask, SearchOrder::kTowardFirst,
                         faults, [](NodeId) { return ~NodeId{0}; }, route)) {
    result.route = std::move(route);
  } else {
    result.failure = "subcube disconnected between start and destination";
  }
  return result;
}

SafetyLevelRouter::SafetyLevelRouter(Dim n, const FaultSet& faults)
    : n_(n), faults_(faults) {
  GCUBE_REQUIRE(n >= 1 && n <= 20, "safety levels need 1 <= n <= 20");
  GCUBE_REQUIRE(faults.link_fault_count() == 0,
                "safety levels are defined for node faults");
  const auto nodes = static_cast<std::size_t>(pow2(n));
  levels_.assign(nodes, n);
  for (const NodeId u : faults.faulty_nodes()) levels_[u] = 0;
  // n-1 rounds of neighbor exchange reach the fixpoint (Wu 1997).
  std::vector<Dim> next(nodes);
  std::vector<Dim> sorted(n);
  for (Dim round = 0; round + 1 < n; ++round) {
    for (NodeId u = 0; u < nodes; ++u) {
      if (faults_.node_faulty(u)) {
        next[u] = 0;
        continue;
      }
      for (Dim c = 0; c < n_; ++c) sorted[c] = levels_[flip_bit(u, c)];
      std::sort(sorted.begin(), sorted.end());
      // S(u) = n if the ascending neighbor sequence dominates (0,1,..,n-1);
      // otherwise k-1 for the first position k (1-based) where it falls
      // short.
      Dim level = n_;
      for (Dim i = 0; i < n_; ++i) {
        if (sorted[i] < i) {
          level = i;  // first shortfall at 1-based position i+1 -> level i
          break;
        }
      }
      next[u] = level;
    }
    levels_.swap(next);
  }
}

RoutingResult SafetyLevelRouter::plan(NodeId s, NodeId d) const {
  RoutingResult result;
  if (faults_.node_faulty(s) || faults_.node_faulty(d)) {
    result.failure = "source or destination faulty";
    return result;
  }
  Route route(s);
  NodeId cur = s;
  // Once a node with S(cur) >= H(cur, d) is reached, each step picks a
  // nonfaulty preferred neighbor with S >= h-1, which exists by the level
  // definition; the route is then minimal from that point on.
  const std::size_t budget = hamming(s, d) + 2;
  while (cur != d) {
    if (route.length() > budget) {
      result.failure = "safety-level routing exceeded its hop budget";
      return result;
    }
    const Dim h = hamming(cur, d);
    Dim best_dim = n_;
    // Preferred: any differing dimension whose neighbor can finish the job.
    for (NodeId m = cur ^ d; m != 0; m &= m - 1) {
      const Dim c = lsb_index(m);
      const NodeId w = flip_bit(cur, c);
      if (!faults_.node_faulty(w) && (level(w) >= h - 1 || w == d)) {
        best_dim = c;
        break;
      }
    }
    if (best_dim == n_ && cur == s) {
      // Unsafe source: a spare first hop toward a sufficiently safe node
      // still guarantees delivery (at +2 hops).
      for (NodeId m = ~(cur ^ d) & low_mask(n_); m != 0; m &= m - 1) {
        const Dim c = lsb_index(m);
        const NodeId w = flip_bit(cur, c);
        if (!faults_.node_faulty(w) && level(w) >= h + 1) {
          best_dim = c;
          break;
        }
      }
    }
    if (best_dim == n_) {
      result.failure = "no neighbor with sufficient safety level";
      return result;
    }
    route.append(best_dim);
    cur = flip_bit(cur, best_dim);
  }
  result.route = std::move(route);
  return result;
}

}  // namespace gcube
