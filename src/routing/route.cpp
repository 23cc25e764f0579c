#include "routing/route.hpp"

#include <sstream>
#include <unordered_set>

namespace gcube {

void Route::append(const Route& tail) {
  hops_.insert(hops_.end(), tail.hops_.begin(), tail.hops_.end());
}

NodeId Route::destination() const noexcept {
  NodeId u = src_;
  for (const Dim c : hops_) u = flip_bit(u, c);
  return u;
}

std::vector<NodeId> Route::nodes() const {
  std::vector<NodeId> out;
  out.reserve(hops_.size() + 1);
  NodeId u = src_;
  out.push_back(u);
  for (const Dim c : hops_) {
    u = flip_bit(u, c);
    out.push_back(u);
  }
  return out;
}

bool Route::is_simple() const {
  std::unordered_set<NodeId> seen;
  for (const NodeId u : nodes()) {
    if (!seen.insert(u).second) return false;
  }
  return true;
}

RouteCheck validate_route(const Topology& topo, const FaultSet& faults,
                          const Route& route) {
  auto fail = [](std::string why) { return RouteCheck{false, std::move(why)}; };
  NodeId u = route.source();
  if (u >= topo.node_count()) return fail("source out of range");
  if (faults.node_faulty(u)) return fail("source node is faulty");
  std::size_t i = 0;
  // The hop's position is formatted only for a failing hop: valid routes
  // are the common case, and the tests validate millions of them.
  auto fail_at = [&](Dim c, const std::string& why) {
    std::ostringstream at;
    at << "hop " << i << " (dim " << c << " at node " << u << "): " << why;
    return fail(at.str());
  };
  for (const Dim c : route.hops()) {
    if (c >= topo.dims()) return fail_at(c, "dimension out of range");
    if (!topo.has_link(u, c)) {
      return fail_at(c, "no such link in " + topo.name());
    }
    if (!faults.link_usable(u, c)) {
      return fail_at(c, "link unusable under fault set");
    }
    u = flip_bit(u, c);
    ++i;
  }
  return {};
}

RouteCheck validate_route(const Topology& topo, const Route& route) {
  return validate_route(topo, FaultSet{}, route);
}

}  // namespace gcube
