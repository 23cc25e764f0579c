// Router interface: source-route planners with an online stepwise view.
//
// Planners produce complete Routes. This matches the paper's execution
// model: the tree itinerary is computed at the source (O(n) message
// overhead), while fault handling uses only information the paper assumes
// locally available (incident link status plus fault data for same-class
// nodes); the simulator then executes routes hop by hop under queueing.
//
// FTGCR is additionally an *online, distributed* strategy (paper §5): a
// node can pick the next hop from its current fault knowledge. next_hop()
// exposes that stepwise view: the first hop of a route from the current
// node under current faults. The simulator does not call it (packets
// adopt whole plans through plan_shared); the routing tests and the
// per-layer benchmarks do. Fault-aware routers memoize these answers per
// (cur, dst) and invalidate on FaultSet::version() changes.
#pragma once

#include <memory>
#include <optional>
#include <string>

#include "routing/route.hpp"
#include "util/bits.hpp"
#include "util/cache_stats.hpp"

namespace gcube {

class NextHopFabric;

/// Lookup counters for a router's memoization layers: whole-route planning
/// (plan_shared) and stepwise next-hop re-planning. Cumulative since router
/// construction; consumers snapshot-and-subtract to scope a measurement
/// window. Diagnostics only — under concurrent lookups the split between
/// hits and misses can vary run to run even when routing results do not.
struct RouterCacheStats {
  CacheStats plan;
  CacheStats hop;

  RouterCacheStats& operator+=(const RouterCacheStats& o) noexcept {
    plan += o.plan;
    hop += o.hop;
    return *this;
  }
  [[nodiscard]] RouterCacheStats operator-(
      const RouterCacheStats& o) const noexcept {
    return {plan - o.plan, hop - o.hop};
  }
  friend bool operator==(const RouterCacheStats&,
                         const RouterCacheStats&) = default;
};

class Router {
 public:
  virtual ~Router() = default;

  /// Plans a route from s to d. A planner may fail (RoutingResult::route
  /// empty) when fault preconditions are violated; it must never return an
  /// invalid route.
  [[nodiscard]] virtual RoutingResult plan(NodeId s, NodeId d) const = 0;

  /// Shared-ownership planning for the simulator hot path: the same route
  /// as plan(), or nullptr when planning fails. Fault-aware routers
  /// override this with a (src, dst)-keyed cache of immutable routes,
  /// invalidated by FaultSet::version() stamping, so repeat planning costs
  /// one lookup and packets can reference the route without copying its
  /// hop vector. The default derives an uncached route from plan().
  [[nodiscard]] virtual std::shared_ptr<const Route> plan_shared(
      NodeId s, NodeId d) const {
    RoutingResult r = plan(s, d);
    if (!r.delivered()) return nullptr;
    return std::make_shared<const Route>(std::move(*r.route));
  }

  /// Stepwise interface: the dimension of the first hop of a route from
  /// cur to dst under the router's *current* fault knowledge, or nullopt
  /// when cur == dst or no route exists. The default derives it from
  /// plan(); fault-aware routers override with memoized re-plans.
  [[nodiscard]] virtual std::optional<Dim> next_hop(NodeId cur,
                                                    NodeId dst) const {
    if (cur == dst) return std::nullopt;
    const RoutingResult r = plan(cur, dst);
    if (!r.delivered() || r.route->empty()) return std::nullopt;
    return r.route->hops().front();
  }

  /// Cumulative cache counters for the router's plan/hop memoization.
  /// Routers without caches report all-zero stats.
  [[nodiscard]] virtual RouterCacheStats cache_stats() const { return {}; }

  /// The router's precomputed next-hop tables (routing/next_hop_table.hpp),
  /// or nullptr when it has none. Whenever the returned fabric reports
  /// supported(), the simulator steers packets through it at nodes with no
  /// fault within distance 1 and calls plan_shared only elsewhere; without
  /// one, every packet adopts plan_shared's route at its source.
  [[nodiscard]] virtual const NextHopFabric* fabric() const {
    return nullptr;
  }

  [[nodiscard]] virtual std::string name() const = 0;
};

}  // namespace gcube
