#include "routing/freh.hpp"

#include <cstdint>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "routing/hypercube_ft.hpp"

namespace gcube {

RoutingResult freh_route(const ExchangedHypercube& eh,
                         const FaultSet& faults, NodeId r, NodeId d) {
  RoutingResult result;
  auto fail = [&](std::string why) {
    result.failure = std::move(why);
    return result;
  };
  if (faults.node_faulty(r) || faults.node_faulty(d)) {
    return fail("source or destination faulty");
  }

  Route route(r);
  NodeId cur = r;
  // Spare masks per side (EH label bitmasks) — the paper's dimension masks.
  NodeId mask[2] = {0, 0};
  // Cross positions (label with c cleared) already used; never reused.
  std::unordered_set<NodeId> used_cross;

  const std::size_t budget =
      (eh.s() + eh.t() + 2) + 2 * (eh.s() + eh.t()) + 4;

  // A side's in-cube dimensions: the node's links other than the cross.
  auto in_cube_dims = [&eh](NodeId u) {
    return eh.link_mask(u) & ~NodeId{1};
  };
  auto in_cube_route = [&](NodeId target) -> bool {
    RoutingResult leg =
        informed_subcube_route(cur, target, in_cube_dims(cur), faults);
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
    const NodeId ideal_part = side == 0 ? eh.a_part(d) : eh.b_part(d);
    const NodeId ideal = side == 0
                             ? eh.make_node(ideal_part, eh.b_part(cur), 0)
                             : eh.make_node(eh.a_part(cur), ideal_part, 1);
    std::vector<NodeId> candidates{ideal};
    std::vector<NodeId> masked_candidates;
    for (NodeId m = in_cube_dims(cur); m != 0; m &= m - 1) {
      const Dim dim = lsb_index(m);
      const NodeId cand = flip_bit(ideal, dim);
      ((mask[side] >> dim) & 1u ? masked_candidates : candidates)
          .push_back(cand);
    }
    candidates.insert(candidates.end(), masked_candidates.begin(),
                      masked_candidates.end());

    bool crossed = false;
    for (const NodeId cand : candidates) {
      if (used_cross.contains(cand & ~NodeId{1})) continue;
      if (!faults.link_usable(cand, 0)) continue;  // dead cross or endpoint
      if (!in_cube_route(cand)) continue;
      if (cand != ideal) {
        mask[side] |= (cand ^ ideal);  // mask the displacement dimension
      }
      used_cross.insert(cand & ~NodeId{1});
      route.append(0);
      cur = flip_bit(cur, 0);
      crossed = true;
      break;
    }
    if (!crossed) {
      return fail("no usable crossing position (precondition violated?)");
    }
  }

  result.route = std::move(route);
  return result;
}

RoutingResult informed_eh_route(const ExchangedHypercube& eh,
                                const FaultSet& faults, NodeId r, NodeId d) {
  RoutingResult result;
  if (faults.node_faulty(r) || faults.node_faulty(d)) {
    result.failure = "source or destination faulty";
    return result;
  }
  Route route(r);
  if (fault_aware_search(r, d, low_mask(eh.dims()), SearchOrder::kAscending,
                         faults, [&eh](NodeId u) { return eh.link_mask(u); },
                         route)) {
    result.route = std::move(route);
  } else {
    result.failure = "crossing structure disconnected under faults";
  }
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
