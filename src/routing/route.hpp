// Routes and route validation.
//
// A Route is a source node plus the sequence of dimensions crossed — the
// natural wire format for bit-flip topologies (the paper's O(n) message
// overhead is exactly such a header). Nothing downstream trusts a planner:
// validate() re-checks every hop against the topology's link predicate and
// the fault set, and reroute-freedom properties (no repeated node for
// fault-free optimal routes) are asserted in tests.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "fault/fault_set.hpp"
#include "topology/topology.hpp"
#include "util/bits.hpp"

namespace gcube {

class Route {
 public:
  Route() = default;
  explicit Route(NodeId src) : src_(src) {}
  Route(NodeId src, std::vector<Dim> hops)
      : src_(src), hops_(std::move(hops)) {}

  [[nodiscard]] NodeId source() const noexcept { return src_; }
  [[nodiscard]] const std::vector<Dim>& hops() const noexcept { return hops_; }
  [[nodiscard]] std::size_t length() const noexcept { return hops_.size(); }
  [[nodiscard]] bool empty() const noexcept { return hops_.empty(); }

  void append(Dim c) { hops_.push_back(c); }
  void append(const Route& tail);

  /// The node reached after all hops.
  [[nodiscard]] NodeId destination() const noexcept;

  /// Every visited node, in order (size == length() + 1).
  [[nodiscard]] std::vector<NodeId> nodes() const;

  /// True iff no node is visited twice (a cycle-free route; the paper's
  /// deadlock-freedom claim is about generated routes being cycle-free).
  [[nodiscard]] bool is_simple() const;

 private:
  NodeId src_ = 0;
  std::vector<Dim> hops_;
};

/// Result of checking a route hop-by-hop.
struct RouteCheck {
  bool ok = true;
  std::string reason;  // first problem found, empty when ok

  explicit operator bool() const noexcept { return ok; }
};

/// Checks that every hop uses an existing link of `topo`, that no traversed
/// link is unusable under `faults`, and that no visited node (including the
/// source) is faulty.
[[nodiscard]] RouteCheck validate_route(const Topology& topo,
                                        const FaultSet& faults,
                                        const Route& route);

/// Fault-free overload.
[[nodiscard]] RouteCheck validate_route(const Topology& topo,
                                        const Route& route);

/// A planner outcome: either a route or a diagnostic failure. Routing under
/// faults can legitimately fail when preconditions are violated; callers
/// must look.
struct RoutingResult {
  std::optional<Route> route;
  std::string failure;  // why planning failed, when !route

  [[nodiscard]] bool delivered() const noexcept { return route.has_value(); }
};

}  // namespace gcube
