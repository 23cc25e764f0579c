// FREH — Fault-tolerant Routing in the Exchanged Hypercube
// (paper Algorithm 4, Theorem 4).
//
// Movement in EH(s, t) is constrained: the a-part can change only on the
// c == 0 side, the b-part only on the c == 1 side, and dimension-0 links
// switch sides. A faulty cross link is bypassed by crossing at a
// Hamming-neighbor position instead — which displaces the packet — and the
// displacement is repaired by crossing back later, possibly after a spare
// in-cube hop whose dimension is then masked (the paper's livelock guard).
//
// This implementation follows the paper's case structure through one driver:
//   * same side & same cube as the destination: fault-tolerant in-cube
//     routing finishes the job;
//   * otherwise cross, ideally at the destination's position for this side,
//     or at the nearest usable neighbor position (spare dimension masked);
//     a cross position is never reused, which together with the masks makes
//     the walk livelock-free.
//
// Theorem 4: with F_s + F_0 < s and F_t + F_0 < t the route exists and is
// at most H(r, d) + 2(F_s + F_t) + 2 hops (verified exhaustively in tests).
#pragma once

#include "fault/fault_set.hpp"
#include "routing/route.hpp"
#include "topology/exchanged_hypercube.hpp"

namespace gcube {

/// Routes r -> d in EH(s, t) under `faults`, given on EH labels. Fails with
/// a reason if no usable crossing or in-cube path exists (i.e., when the
/// Theorem-4 precondition is violated).
[[nodiscard]] RoutingResult freh_route(const ExchangedHypercube& eh,
                                       const FaultSet& faults, NodeId r,
                                       NodeId d);

/// Fault-aware optimal routing within the EH structure: fault_aware_search
/// (hypercube_ft.hpp) over EH's links in ascending dimension order. Models
/// the initialization phase of Algorithm 4 (nodes learn which cross links
/// are dead before routing), so the route commits to the right crossing
/// positions up front instead of discovering dead ends mid-dance. FTGCR runs
/// the same search on GC labels over the crossing structure, which
/// eh_embedding_test checks hop for hop against this route; freh_route
/// remains the paper's step-by-step mechanism and is compared against this
/// one in bench/abl_ft_hypercube.
[[nodiscard]] RoutingResult informed_eh_route(const ExchangedHypercube& eh,
                                              const FaultSet& faults,
                                              NodeId r, NodeId d);

/// Theorem-4 fault counts for a concrete FaultSet on EH labels:
/// f_s / f_t — faulty components among the c==0 / c==1 side nodes and their
/// in-cube links; f_0 — marked cross links between nonfaulty endpoints.
struct EhFaultCounts {
  std::size_t f_s = 0;
  std::size_t f_t = 0;
  std::size_t f_0 = 0;
};

[[nodiscard]] EhFaultCounts count_eh_faults(const ExchangedHypercube& eh,
                                            const FaultSet& faults);

/// Theorem 4 precondition (with the same zero-fault boundary reading as the
/// Theorem 5 checker: a fault-free side imposes no constraint).
[[nodiscard]] bool theorem4_holds(const ExchangedHypercube& eh,
                                  const FaultSet& faults);

}  // namespace gcube
