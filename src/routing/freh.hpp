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

#include <functional>

#include "fault/fault_set.hpp"
#include "routing/route.hpp"
#include "topology/exchanged_hypercube.hpp"

namespace gcube {

/// Fault knowledge in EH coordinates. link_usable must already account for
/// endpoint node faults (a faulty node kills its incident links).
struct EhFaultOracle {
  std::function<bool(NodeId)> node_faulty;
  std::function<bool(NodeId, Dim)> link_usable;
};

/// Oracle reading a FaultSet expressed directly in EH labels.
[[nodiscard]] EhFaultOracle make_eh_oracle(const FaultSet& faults);

/// In-cube legs run informed_subcube_route, which has no safeguard to
/// report: it is a BFS already.
struct FrehStats {
  std::size_t crossings = 0;        // dimension-0 hops taken
  std::size_t spare_hops = 0;       // displacement + in-cube spare hops
  std::size_t faults_encountered = 0;
};

/// Routes r -> d in EH(s, t) under the oracle's faults. Fails with a reason
/// if no usable crossing or in-cube path exists (i.e., when the Theorem-4
/// precondition is violated).
[[nodiscard]] RoutingResult freh_route(const ExchangedHypercube& eh,
                                       const EhFaultOracle& oracle, NodeId r,
                                       NodeId d, FrehStats* stats = nullptr);

/// Fault-aware optimal routing within the EH structure: BFS from the
/// destination over usable links. Models the initialization phase of
/// Algorithm 4 (nodes learn which cross links are dead before routing), so
/// the route commits to the right crossing positions up front instead of
/// discovering dead ends mid-dance. This is what FTGCR uses for crossing
/// legs; freh_route remains the paper's step-by-step mechanism and is
/// compared against this one in bench/abl_ft_hypercube.
[[nodiscard]] RoutingResult informed_eh_route(const ExchangedHypercube& eh,
                                              const EhFaultOracle& oracle,
                                              NodeId r, NodeId d,
                                              FrehStats* stats = nullptr);

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
