#include "routing/hypercube_ft.hpp"

#include <algorithm>
#include <cstdint>
#include <unordered_set>
#include <vector>

#include "util/error.hpp"

namespace gcube {

namespace {

/// u's bits at the dims_mask positions, packed ascending into the low bits:
/// u's slot in a flat array over the subcube spanned by dims_mask.
std::size_t subcube_slot(NodeId u, NodeId dims_mask) noexcept {
  std::size_t slot = 0;
  std::size_t slot_bit = 1;
  for (NodeId m = dims_mask; m != 0; m &= m - 1, slot_bit <<= 1) {
    if ((u & m & (~m + 1)) != 0) slot |= slot_bit;
  }
  return slot;
}

}  // namespace

RoutingResult adaptive_subcube_route(NodeId start, NodeId dest,
                                     NodeId dims_mask,
                                     const LinkUsablePredicate& usable,
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
  std::unordered_set<std::uint64_t> faults_seen;
  auto note_fault = [&](NodeId u, Dim c) {
    const LinkId l = LinkId::of(u, c);
    if (faults_seen.insert((std::uint64_t{l.lo} << 6) | l.dim).second) {
      ++st.faults_encountered;
    }
  };

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
        last_dim_usable_pref = usable(cur, c);
        continue;
      }
      if (usable(cur, c)) {
        move_along(c);
        moved = true;
        break;
      }
      note_fault(cur, c);
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
      if (usable(cur, c)) {
        masked |= NodeId{1} << c;
        move_along(c);
        ++st.spare_hops;
        moved = true;
        break;
      }
      note_fault(cur, c);
    }
    // Last resort: backtrack along the arrival dimension (the one move the
    // no-180 rule withheld). The next node then re-chooses with this
    // dimension masked, so the walk cannot oscillate.
    if (!moved && last_dim <= kMaxDimension && usable(cur, last_dim)) {
      masked |= NodeId{1} << last_dim;
      move_along(last_dim);
      ++st.spare_hops;
      moved = true;
    }
    if (!moved) break;  // dead end; fall through to the safeguard
  }

  if (cur == dest) {
    result.faults_hit = st.faults_encountered;
    result.route = std::move(route);
    return result;
  }

  // Safeguard: complete the route with the informed route, a shortest path
  // over usable links. Under the Theorem-3 precondition (< dim faults per
  // GEEC) this is unreachable; tests assert used_fallback stays false
  // there. spare_hops and faults_encountered count the local walk only, so
  // the tail's own stats are not added.
  st.used_fallback = true;
  const RoutingResult tail =
      informed_subcube_route(cur, dest, dims_mask, usable);
  if (!tail.delivered()) {
    result.failure = "subcube disconnected between current node and target";
    result.faults_hit = st.faults_encountered;
    return result;
  }
  route.append(*tail.route);
  result.faults_hit = st.faults_encountered;
  result.route = std::move(route);
  return result;
}

RoutingResult informed_subcube_route(NodeId start, NodeId dest,
                                     NodeId dims_mask,
                                     const LinkUsablePredicate& usable,
                                     SubcubeFtStats* stats) {
  GCUBE_REQUIRE(((start ^ dest) & ~dims_mask) == 0,
                "start and dest must agree outside the subcube dimensions");
  SubcubeFtStats local_stats;
  SubcubeFtStats& st = stats != nullptr ? *stats : local_stats;
  st = SubcubeFtStats{};
  RoutingResult result;

  // Fast path: the plain dimension-ordered path, taken when every link on
  // it is usable (the overwhelmingly common case — faults are sparse).
  {
    Route direct(start);
    NodeId cur = start;
    bool clean = true;
    for (NodeId m = (start ^ dest) & dims_mask; m != 0; m &= m - 1) {
      const Dim c = lsb_index(m);
      if (!usable(cur, c)) {
        clean = false;
        break;
      }
      direct.append(c);
      cur = flip_bit(cur, c);
    }
    if (clean) {
      result.route = std::move(direct);
      return result;
    }
  }

  // Fault-aware distances to the destination, learned by BFS over usable
  // links — the planner-side model of the paper's fault-status exchange
  // rounds within a class. Flat over the subcube: a node's slot is its
  // dims_mask bits gathered into 0 .. 2^|dims_mask| - 1, and flipping the
  // k-th dimension of the mask flips bit k of the slot.
  constexpr std::uint32_t kUnreached = ~std::uint32_t{0};
  std::vector<std::uint32_t> dist(std::size_t{1} << popcount(dims_mask),
                                  kUnreached);
  std::vector<NodeId> queue{dest};
  dist[subcube_slot(dest, dims_mask)] = 0;
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const NodeId u = queue[head];
    const std::size_t u_slot = subcube_slot(u, dims_mask);
    std::size_t slot_bit = 1;
    for (NodeId m = dims_mask; m != 0; m &= m - 1, slot_bit <<= 1) {
      const Dim c = lsb_index(m);
      if (!usable(u, c)) continue;
      std::uint32_t& v_dist = dist[u_slot ^ slot_bit];
      if (v_dist != kUnreached) continue;
      v_dist = dist[u_slot] + 1;
      queue.push_back(flip_bit(u, c));
    }
  }
  if (dist[subcube_slot(start, dims_mask)] == kUnreached) {
    result.failure = "subcube disconnected between start and destination";
    return result;
  }

  std::unordered_set<std::uint64_t> faults_seen;
  Route route(start);
  NodeId cur = start;
  while (cur != dest) {
    Dim chosen = kMaxDimension + 1;
    const std::size_t cur_slot = subcube_slot(cur, dims_mask);
    const std::uint32_t here = dist[cur_slot];
    std::size_t slot_bit = 1;
    for (NodeId m = dims_mask; m != 0; m &= m - 1, slot_bit <<= 1) {
      const Dim c = lsb_index(m);
      if (!usable(cur, c)) {  // an encountered fault, for the stats
        const LinkId l = LinkId::of(cur, c);
        if (faults_seen.insert((std::uint64_t{l.lo} << 6) | l.dim).second) {
          ++st.faults_encountered;
        }
        continue;
      }
      if (dist[cur_slot ^ slot_bit] != here - 1) continue;
      // Downhill neighbor; prefer a preferred dimension on ties.
      if (chosen > kMaxDimension || (bit(cur ^ dest, c) == 1 &&
                                     bit(cur ^ dest, chosen) == 0)) {
        chosen = c;
      }
    }
    GCUBE_REQUIRE(chosen <= kMaxDimension,
                  "downhill neighbor must exist on a shortest path");
    if (bit(cur ^ dest, chosen) == 0) ++st.spare_hops;
    route.append(chosen);
    cur = flip_bit(cur, chosen);
  }
  result.faults_hit = st.faults_encountered;
  result.route = std::move(route);
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
