#include "routing/freh.hpp"

#include <cstdint>
#include <unordered_set>
#include <vector>

#include "routing/hypercube_ft.hpp"
#include "util/error.hpp"

namespace gcube {

EhFaultOracle make_eh_oracle(const FaultSet& faults) {
  return EhFaultOracle{
      [&faults](NodeId u) { return faults.node_faulty(u); },
      [&faults](NodeId u, Dim c) { return faults.link_usable(u, c); }};
}

namespace {

/// Per-side geometry helpers: which EH dimensions span this side's cubes.
struct SideView {
  NodeId dims_mask;  // in-cube dimensions, as a label bitmask
  Dim dim_lo;        // first in-cube EH dimension
  Dim dim_count;
};

SideView side_view(const ExchangedHypercube& eh, std::uint32_t side) {
  if (side == 0) {  // a-part moves: dims [t+1, t+s]
    return {low_bits(low_mask(eh.t() + eh.s() + 1) & ~low_mask(eh.t() + 1),
                     eh.dims()),
            eh.t() + 1, eh.s()};
  }
  return {low_mask(eh.t() + 1) & ~NodeId{1}, 1, eh.t()};  // b-part: [1, t]
}

}  // namespace

RoutingResult freh_route(const ExchangedHypercube& eh,
                         const EhFaultOracle& oracle, NodeId r, NodeId d,
                         FrehStats* stats) {
  FrehStats local;
  FrehStats& st = stats != nullptr ? *stats : local;
  st = FrehStats{};
  RoutingResult result;
  auto fail = [&](std::string why) {
    result.failure = std::move(why);
    result.faults_hit = st.faults_encountered;
    return result;
  };
  if (oracle.node_faulty(r) || oracle.node_faulty(d)) {
    return fail("source or destination faulty");
  }

  Route route(r);
  NodeId cur = r;
  // Spare masks per side (EH label bitmasks) — the paper's dimension masks.
  NodeId mask[2] = {0, 0};
  // Cross positions (label with c cleared) already used; never reused.
  std::unordered_set<NodeId> used_cross;
  std::unordered_set<std::uint64_t> faults_seen;
  auto note_fault = [&](NodeId u, Dim c) {
    const LinkId l = LinkId::of(u, c);
    if (faults_seen.insert((std::uint64_t{l.lo} << 6) | l.dim).second) {
      ++st.faults_encountered;
    }
  };

  const std::size_t budget =
      (eh.s() + eh.t() + 2) + 2 * (eh.s() + eh.t()) + 4;

  auto in_cube_route = [&](NodeId target) -> bool {
    const SideView view = side_view(eh, eh.c_bit(cur));
    SubcubeFtStats cube_stats;
    RoutingResult leg = informed_subcube_route(cur, target, view.dims_mask,
                                               oracle.link_usable, &cube_stats);
    st.spare_hops += cube_stats.spare_hops;
    st.faults_encountered += cube_stats.faults_encountered;
    if (!leg.delivered()) return false;
    route.append(*leg.route);
    cur = target;
    return true;
  };

  while (cur != d) {
    if (route.length() > budget) {
      return fail("FREH exceeded its hop budget (precondition violated?)");
    }
    const std::uint32_t side = eh.c_bit(cur);
    if (side == eh.c_bit(d)) {
      const bool same_cube = side == 0 ? eh.b_part(cur) == eh.b_part(d)
                                       : eh.a_part(cur) == eh.a_part(d);
      if (same_cube) {
        if (!in_cube_route(d)) {
          return fail("in-cube routing to destination failed");
        }
        break;
      }
    }

    // We must cross. Candidate crossing positions within the current cube:
    // the destination's position for this side first, then its neighbors
    // (unmasked spare dimensions before masked ones).
    const SideView view = side_view(eh, side);
    const NodeId ideal_part = side == 0 ? eh.a_part(d) : eh.b_part(d);
    const NodeId ideal = side == 0
                             ? eh.make_node(ideal_part, eh.b_part(cur), 0)
                             : eh.make_node(eh.a_part(cur), ideal_part, 1);
    std::vector<NodeId> candidates{ideal};
    std::vector<NodeId> masked_candidates;
    for (Dim j = 0; j < view.dim_count; ++j) {
      const Dim dim = view.dim_lo + j;
      const NodeId cand = flip_bit(ideal, dim);
      ((mask[side] >> dim) & 1u ? masked_candidates : candidates)
          .push_back(cand);
    }
    candidates.insert(candidates.end(), masked_candidates.begin(),
                      masked_candidates.end());

    bool crossed = false;
    for (const NodeId cand : candidates) {
      if (used_cross.contains(cand & ~NodeId{1})) continue;
      if (oracle.node_faulty(cand) ||
          oracle.node_faulty(flip_bit(cand, 0)) ||
          !oracle.link_usable(cand, 0)) {
        note_fault(cand, 0);
        continue;
      }
      if (!in_cube_route(cand)) continue;
      if (cand != ideal) {
        mask[side] |= (cand ^ ideal);  // mask the displacement dimension
        ++st.spare_hops;
      }
      used_cross.insert(cand & ~NodeId{1});
      route.append(0);
      cur = flip_bit(cur, 0);
      ++st.crossings;
      crossed = true;
      break;
    }
    if (!crossed) {
      return fail("no usable crossing position (precondition violated?)");
    }
  }

  result.faults_hit = st.faults_encountered;
  result.route = std::move(route);
  return result;
}

RoutingResult informed_eh_route(const ExchangedHypercube& eh,
                                const EhFaultOracle& oracle, NodeId r,
                                NodeId d, FrehStats* stats) {
  FrehStats local;
  FrehStats& st = stats != nullptr ? *stats : local;
  st = FrehStats{};
  RoutingResult result;
  if (oracle.node_faulty(r) || oracle.node_faulty(d)) {
    result.failure = "source or destination faulty";
    return result;
  }
  // BFS from the destination over usable links (the post-initialization
  // knowledge), then walk downhill from r. Distances are flat over the
  // structure's labels.
  constexpr std::uint32_t kUnreached = ~std::uint32_t{0};
  std::vector<std::uint32_t> dist(eh.node_count(), kUnreached);
  std::vector<NodeId> queue{d};
  dist[d] = 0;
  const Dim dims = eh.dims();
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const NodeId u = queue[head];
    for (Dim c = 0; c < dims; ++c) {
      if (!eh.has_link(u, c) || !oracle.link_usable(u, c)) continue;
      const NodeId v = flip_bit(u, c);
      if (dist[v] != kUnreached) continue;
      dist[v] = dist[u] + 1;
      queue.push_back(v);
    }
  }
  if (dist[r] == kUnreached) {
    result.failure = "crossing structure disconnected under faults";
    return result;
  }
  Route route(r);
  NodeId cur = r;
  while (cur != d) {
    const std::uint32_t here = dist[cur];
    Dim chosen = kMaxDimension + 1;
    for (Dim c = 0; c < dims; ++c) {
      if (!eh.has_link(cur, c) || !oracle.link_usable(cur, c)) continue;
      if (dist[flip_bit(cur, c)] == here - 1) {
        chosen = c;
        break;
      }
    }
    GCUBE_REQUIRE(chosen <= kMaxDimension,
                  "downhill neighbor must exist on a shortest path");
    if (chosen == 0) ++st.crossings;
    route.append(chosen);
    cur = flip_bit(cur, chosen);
  }
  result.route = std::move(route);
  return result;
}

EhFaultCounts count_eh_faults(const ExchangedHypercube& eh,
                              const FaultSet& faults) {
  EhFaultCounts counts;
  for (const NodeId u : faults.faulty_nodes()) {
    (eh.c_bit(u) == 0 ? counts.f_s : counts.f_t) += 1;
  }
  for (const LinkId& l : faults.faulty_links()) {
    if (l.dim == 0) {
      if (!faults.node_faulty(l.lo) && !faults.node_faulty(l.hi())) {
        ++counts.f_0;
      }
    } else {
      (l.dim > eh.t() ? counts.f_s : counts.f_t) += 1;
    }
  }
  return counts;
}

bool theorem4_holds(const ExchangedHypercube& eh, const FaultSet& faults) {
  const EhFaultCounts counts = count_eh_faults(eh, faults);
  const bool s_ok = counts.f_s + counts.f_0 == 0 ||
                    counts.f_s + counts.f_0 < eh.s();
  const bool t_ok = counts.f_t + counts.f_0 == 0 ||
                    counts.f_t + counts.f_0 < eh.t();
  return s_ok && t_ok;
}

}  // namespace gcube
