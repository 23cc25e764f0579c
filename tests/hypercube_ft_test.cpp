// Fault-tolerant hypercube routing tests.
//
// Two routers with different knowledge models:
//  * adaptive_subcube_route — the paper's purely local mechanism (preferred
//    dim, else masked spare, no 180° turns). Must deliver whenever faults
//    stay below the cube dimension; its length is exactly H + 2*spares, and
//    with only local knowledge spares can exceed the distinct fault count.
//  * informed_subcube_route — models the paper's fault-status exchange:
//    the fault-aware search from the start. Must produce the exact
//    fault-aware shortest path, which is within 2 hops per fault of the
//    fault-free optimum — the guarantee Theorem 3 builds on.
// Checked exhaustively over all link-fault sets of size < n on H_3 and a
// wide random sample on H_4/H_5, plus node faults and non-contiguous
// dimension sets. The search's tie rule (which shortest path it returns) is
// checked against brute force; Wu's safety levels are validated against
// first principles.
#include <gtest/gtest.h>

#include <functional>
#include <vector>

#include "fault/fault_set.hpp"
#include "graph/algorithms.hpp"
#include "routing/hypercube_ft.hpp"
#include "topology/exchanged_hypercube.hpp"
#include "topology/gaussian_cube.hpp"
#include "topology/topology.hpp"
#include "util/rng.hpp"

namespace gcube {
namespace {

/// All links of H_n as (node, dim) with node's bit dim == 0.
std::vector<std::pair<NodeId, Dim>> all_links(Dim n) {
  std::vector<std::pair<NodeId, Dim>> links;
  for (NodeId u = 0; u < pow2(n); ++u) {
    for (Dim c = 0; c < n; ++c) {
      if (bit(u, c) == 0) links.emplace_back(u, c);
    }
  }
  return links;
}

/// Fault-aware BFS distances in H_n (ground truth).
std::vector<std::uint32_t> true_distances(Dim n, const FaultSet& faults,
                                          NodeId src) {
  const Hypercube h(n);
  return bfs_distances(
      h, src, [&faults](NodeId u, Dim c) { return faults.link_usable(u, c); });
}

void check_adaptive_all_pairs(Dim n, const FaultSet& faults,
                              bool expect_no_fallback) {
  const NodeId dims_mask = low_mask(n);
  for (NodeId s = 0; s < pow2(n); ++s) {
    if (faults.node_faulty(s)) continue;
    for (NodeId d = 0; d < pow2(n); ++d) {
      if (faults.node_faulty(d)) continue;
      SubcubeFtStats stats;
      const RoutingResult result =
          adaptive_subcube_route(s, d, dims_mask, faults, &stats);
      ASSERT_TRUE(result.delivered())
          << "n=" << n << " s=" << s << " d=" << d << ": " << result.failure;
      const Route& route = *result.route;
      ASSERT_EQ(route.destination(), d);
      NodeId cur = s;
      for (const Dim c : route.hops()) {
        ASSERT_TRUE(faults.link_usable(cur, c));
        cur = flip_bit(cur, c);
      }
      if (expect_no_fallback) {
        ASSERT_FALSE(stats.used_fallback)
            << "n=" << n << " s=" << s << " d=" << d;
        // Without the safeguard, every hop is preferred or spare:
        ASSERT_EQ(route.length(), hamming(s, d) + 2 * stats.spare_hops);
      }
    }
  }
}

void check_informed_all_pairs(Dim n, const FaultSet& faults) {
  const NodeId dims_mask = low_mask(n);
  for (NodeId s = 0; s < pow2(n); ++s) {
    if (faults.node_faulty(s)) continue;
    const auto dist = true_distances(n, faults, s);
    for (NodeId d = 0; d < pow2(n); ++d) {
      if (faults.node_faulty(d)) continue;
      const RoutingResult result =
          informed_subcube_route(s, d, dims_mask, faults);
      ASSERT_TRUE(result.delivered())
          << "n=" << n << " s=" << s << " d=" << d << ": " << result.failure;
      const Route& route = *result.route;
      ASSERT_EQ(route.destination(), d);
      NodeId cur = s;
      for (const Dim c : route.hops()) {
        ASSERT_TRUE(faults.link_usable(cur, c));
        cur = flip_bit(cur, c);
      }
      // Exactly the fault-aware shortest path.
      ASSERT_EQ(route.length(), dist[d]) << "n=" << n << " s=" << s
                                         << " d=" << d;
      // Theorem-3-grade bound: within 2 hops per fault in the cube.
      ASSERT_LE(route.length(),
                hamming(s, d) + 2 * (faults.link_fault_count() +
                                     faults.node_fault_count()));
    }
  }
}

TEST(AdaptiveSubcube, FaultFreeIsMinimal) {
  check_adaptive_all_pairs(4, FaultSet{}, true);
}

TEST(InformedSubcube, FaultFreeIsMinimal) {
  check_informed_all_pairs(4, FaultSet{});
}

TEST(AdaptiveSubcube, ExhaustiveLinkFaultsBelowDimensionH3) {
  const Dim n = 3;
  const auto links = all_links(n);
  for (std::size_t i = 0; i < links.size(); ++i) {
    FaultSet f1;
    f1.fail_link(links[i].first, links[i].second);
    check_adaptive_all_pairs(n, f1, true);
    for (std::size_t j = i + 1; j < links.size(); ++j) {
      FaultSet f2;
      f2.fail_link(links[i].first, links[i].second);
      f2.fail_link(links[j].first, links[j].second);
      check_adaptive_all_pairs(n, f2, true);
    }
  }
}

TEST(InformedSubcube, ExhaustiveLinkFaultsBelowDimensionH3) {
  const Dim n = 3;
  const auto links = all_links(n);
  for (std::size_t i = 0; i < links.size(); ++i) {
    for (std::size_t j = i + 1; j < links.size(); ++j) {
      FaultSet f;
      f.fail_link(links[i].first, links[i].second);
      f.fail_link(links[j].first, links[j].second);
      check_informed_all_pairs(n, f);
    }
  }
}

TEST(AdaptiveSubcube, RandomLinkFaultsBelowDimensionH4H5) {
  Xoshiro256 rng(41);
  for (const Dim n : {4u, 5u}) {
    const auto links = all_links(n);
    for (int trial = 0; trial < 120; ++trial) {
      FaultSet f;
      const std::uint64_t count = 1 + rng.below(n - 1);  // < n
      while (f.link_fault_count() < count) {
        const auto& [u, c] = links[rng.below(links.size())];
        f.fail_link(u, c);
      }
      check_adaptive_all_pairs(n, f, true);
    }
  }
}

TEST(InformedSubcube, RandomLinkFaultsBelowDimensionH4H5) {
  Xoshiro256 rng(42);
  for (const Dim n : {4u, 5u}) {
    const auto links = all_links(n);
    for (int trial = 0; trial < 60; ++trial) {
      FaultSet f;
      const std::uint64_t count = 1 + rng.below(n - 1);
      while (f.link_fault_count() < count) {
        const auto& [u, c] = links[rng.below(links.size())];
        f.fail_link(u, c);
      }
      check_informed_all_pairs(n, f);
    }
  }
}

TEST(AdaptiveSubcube, NodeFaultsBelowDimension) {
  Xoshiro256 rng(43);
  for (const Dim n : {3u, 4u}) {
    for (int trial = 0; trial < 80; ++trial) {
      FaultSet f;
      const std::uint64_t count = 1 + rng.below(n - 1);
      while (f.node_fault_count() < count) {
        f.fail_node(static_cast<NodeId>(rng.below(pow2(n))));
      }
      check_adaptive_all_pairs(n, f, false);  // node faults may need repair
    }
  }
}

TEST(InformedSubcube, NodeFaultsBelowDimension) {
  Xoshiro256 rng(44);
  for (const Dim n : {3u, 4u}) {
    for (int trial = 0; trial < 80; ++trial) {
      FaultSet f;
      const std::uint64_t count = 1 + rng.below(n - 1);
      while (f.node_fault_count() < count) {
        f.fail_node(static_cast<NodeId>(rng.below(pow2(n))));
      }
      check_informed_all_pairs(n, f);
    }
  }
}

// Past the Theorem-3 regime (up to 2n link faults) the local walk can
// strand itself, and the safeguard must then finish the route: the
// adaptive route is delivered exactly when the destination is reachable
// over usable links, whichever path got it there.
TEST(AdaptiveSubcube, SafeguardDeliversExactlyWhenReachable) {
  Xoshiro256 rng(46);
  std::size_t safeguard_deliveries = 0;
  for (const Dim n : {3u, 4u}) {
    const NodeId dims_mask = low_mask(n);
    const auto links = all_links(n);
    for (int trial = 0; trial < 400; ++trial) {
      FaultSet f;
      const std::uint64_t count = 1 + rng.below(2 * n);
      while (f.link_fault_count() < count) {
        const auto& [u, c] = links[rng.below(links.size())];
        f.fail_link(u, c);
      }
      for (NodeId s = 0; s < pow2(n); ++s) {
        const auto dist = true_distances(n, f, s);
        for (NodeId d = 0; d < pow2(n); ++d) {
          SubcubeFtStats stats;
          const RoutingResult result =
              adaptive_subcube_route(s, d, dims_mask, f, &stats);
          ASSERT_EQ(result.delivered(), dist[d] != kUnreachable)
              << "n=" << n << " s=" << s << " d=" << d;
          if (!result.delivered()) continue;
          NodeId cur = s;
          for (const Dim c : result.route->hops()) {
            ASSERT_TRUE(f.link_usable(cur, c))
                << "n=" << n << " s=" << s << " d=" << d;
            cur = flip_bit(cur, c);
          }
          ASSERT_EQ(cur, d);
          if (stats.used_fallback) ++safeguard_deliveries;
        }
      }
    }
  }
  EXPECT_GT(safeguard_deliveries, 0u) << "the sweep must reach the safeguard";
}

TEST(AdaptiveSubcube, SafeguardFinishesAStrandedWalk) {
  // On H_3 the local walk from 3 to 6 strands itself among these five
  // link faults; 6 is still reachable, so the safeguard delivers.
  FaultSet f;
  f.fail_link(6, 0);
  f.fail_link(2, 2);
  f.fail_link(2, 0);
  f.fail_link(0, 1);
  f.fail_link(5, 1);
  SubcubeFtStats stats;
  const RoutingResult result =
      adaptive_subcube_route(3, 6, low_mask(3), f, &stats);
  ASSERT_TRUE(result.delivered()) << result.failure;
  EXPECT_TRUE(stats.used_fallback);
  NodeId cur = 3;
  for (const Dim c : result.route->hops()) {
    ASSERT_TRUE(f.link_usable(cur, c));
    cur = flip_bit(cur, c);
  }
  EXPECT_EQ(cur, 6u);
}

TEST(InformedSubcube, WorksOnNonContiguousDimensionSets) {
  // A GEEC-like subcube over dims {1, 3, 6} embedded in 8-bit labels.
  const NodeId dims_mask = 0b01001010;
  FaultSet f;
  f.fail_link(0b00000000, 3);
  for (const NodeId base : {NodeId{0}, NodeId{0b10100101u & ~dims_mask}}) {
    for (NodeId a = 0; a < 8; ++a) {
      for (NodeId b = 0; b < 8; ++b) {
        auto spread = [&](NodeId x) {
          return (bit(x, 0) << 1) | (bit(x, 1) << 3) | (bit(x, 2) << 6);
        };
        const NodeId s = base | spread(a);
        const NodeId d = base | spread(b);
        for (const RoutingResult& result :
             {adaptive_subcube_route(s, d, dims_mask, f),
              informed_subcube_route(s, d, dims_mask, f)}) {
          ASSERT_TRUE(result.delivered());
          ASSERT_EQ(result.route->destination(), d);
          for (const Dim c : result.route->hops()) {
            ASSERT_NE(dims_mask & (NodeId{1} << c), 0u)
                << "route never leaves the subcube";
          }
        }
      }
    }
  }
}

TEST(SubcubeRouters, RejectMismatchedEndpoints) {
  const FaultSet none;
  EXPECT_THROW((void)adaptive_subcube_route(0b100, 0b001, 0b001, none),
               std::invalid_argument);
  EXPECT_THROW((void)informed_subcube_route(0b100, 0b001, 0b001, none),
               std::invalid_argument);
}

TEST(SubcubeRouters, ReportDisconnection) {
  // Isolate node 0 in H_2 entirely.
  FaultSet f;
  f.fail_link(0, 0);
  f.fail_link(0, 1);
  for (const RoutingResult& result : {adaptive_subcube_route(0, 3, 0b11, f),
                                      informed_subcube_route(0, 3, 0b11, f)}) {
    EXPECT_FALSE(result.delivered());
    EXPECT_FALSE(result.failure.empty());
  }
}

/// Every fault-aware shortest path from s to d in `topo`, enumerated
/// exhaustively: each is a hop sequence that enters one BFS layer from s
/// further per hop over a usable link and ends at d.
std::vector<std::vector<Dim>> all_shortest_paths(const Topology& topo,
                                                 const FaultSet& faults,
                                                 NodeId s, NodeId d) {
  const auto dist = bfs_distances(
      topo, s, [&faults](NodeId u, Dim c) { return faults.link_usable(u, c); });
  std::vector<std::vector<Dim>> paths;
  if (dist[d] == kUnreachable) return paths;
  std::vector<Dim> hops;
  const std::function<void(NodeId)> extend = [&](NodeId u) {
    if (hops.size() == dist[d]) {
      if (u == d) paths.push_back(hops);
      return;
    }
    for (Dim c = 0; c < topo.dims(); ++c) {
      const NodeId v = flip_bit(u, c);
      if (!topo.has_link(u, c) || !faults.link_usable(u, c) ||
          dist[v] != dist[u] + 1) {
        continue;
      }
      hops.push_back(c);
      extend(v);
      hops.pop_back();
    }
  };
  extend(s);
  return paths;
}

/// True iff path a comes before path b (same source and destination) in
/// the search's order: at the first hop where they part, from the node they
/// share, a takes the earlier link.
bool earlier(const std::vector<Dim>& a, const std::vector<Dim>& b, NodeId s,
             NodeId d, SearchOrder order) {
  NodeId u = s;
  for (std::size_t i = 0; i < a.size() && i < b.size(); ++i) {
    if (a[i] != b[i]) {
      auto rank = [&](Dim c) {
        const bool later =
            order == SearchOrder::kTowardFirst && bit(u ^ d, c) == 0;
        return (later ? kMaxDimension : 0) + c;
      };
      return rank(a[i]) < rank(b[i]);
    }
    u = flip_bit(u, a[i]);
  }
  return false;
}

// The search's tie rule, against brute force: for every pair it returns
// the first of all fault-aware shortest paths under its stated order.
// Under either order on H_4, GC(6,2) and EH(2,2), with seeded node and link
// faults.
TEST(FaultAwareSearch, TieRuleMatchesBruteForce) {
  const Hypercube h4(4);
  const GaussianCube gc(6, 2);
  const ExchangedHypercube eh(2, 2);
  const auto all_links = [](NodeId) { return ~NodeId{0}; };
  const auto gc_links = [&gc](NodeId u) { return gc.link_mask(u); };
  const auto eh_links = [&eh](NodeId u) { return eh.link_mask(u); };
  Xoshiro256 rng(48);
  std::size_t tied_pairs = 0;  // pairs with more than one shortest path
  auto check = [&](const Topology& topo, const auto& links_at) {
    for (int trial = 0; trial < 4; ++trial) {
      FaultSet f;
      const std::uint64_t nodes = rng.below(3);
      const std::uint64_t links = 1 + rng.below(4);
      while (f.node_fault_count() < nodes) {
        f.fail_node(static_cast<NodeId>(rng.below(topo.node_count())));
      }
      while (f.link_fault_count() < links) {
        const auto u = static_cast<NodeId>(rng.below(topo.node_count()));
        const auto c = static_cast<Dim>(rng.below(topo.dims()));
        if (topo.has_link(u, c)) f.fail_link(u, c);
      }
      for (NodeId s = 0; s < topo.node_count(); ++s) {
        if (f.node_faulty(s)) continue;
        for (NodeId d = 0; d < topo.node_count(); ++d) {
          const auto paths = all_shortest_paths(topo, f, s, d);
          tied_pairs += paths.size() > 1 ? 1u : 0u;
          for (const SearchOrder order :
               {SearchOrder::kAscending, SearchOrder::kTowardFirst}) {
            Route route(s);
            const bool found =
                fault_aware_search(s, d, low_mask(topo.dims()), order, f,
                                   links_at, route);
            ASSERT_EQ(found, !paths.empty())
                << topo.name() << " s=" << s << " d=" << d;
            if (!found) continue;
            std::vector<Dim> first = paths.front();
            for (const auto& path : paths) {
              if (earlier(path, first, s, d, order)) first = path;
            }
            ASSERT_EQ(route.hops(), first)
                << topo.name() << " s=" << s << " d=" << d << " order="
                << static_cast<int>(order);
          }
        }
      }
    }
  };
  check(h4, all_links);
  check(gc, gc_links);
  check(eh, eh_links);
  EXPECT_GT(tied_pairs, 0u) << "the sweep must reach ties";
}

TEST(SafetyLevels, FaultFreeAllSafe) {
  const FaultSet none;
  const SafetyLevelRouter router(4, none);
  for (NodeId u = 0; u < 16; ++u) EXPECT_EQ(router.level(u), 4u);
}

TEST(SafetyLevels, FaultyNodeIsZero) {
  FaultSet f;
  f.fail_node(5);
  const SafetyLevelRouter router(4, f);
  EXPECT_EQ(router.level(5), 0u);
}

TEST(SafetyLevels, TwoFaultyNeighborsLowerTheLevel) {
  // In H_3, a node with two faulty neighbors can only guarantee distance 1.
  FaultSet f;
  f.fail_node(0b001);
  f.fail_node(0b010);
  const SafetyLevelRouter router(3, f);
  EXPECT_EQ(router.level(0b000), 1u);
}

TEST(SafetyLevels, SemanticGuarantee) {
  // Property from Wu's definition: if S(u) >= h, minimal routing to any
  // nonfaulty destination at distance <= h succeeds.
  Xoshiro256 rng(47);
  const Dim n = 4;
  for (int trial = 0; trial < 60; ++trial) {
    FaultSet f;
    const std::uint64_t count = 1 + rng.below(n - 1);
    while (f.node_fault_count() < count) {
      f.fail_node(static_cast<NodeId>(rng.below(pow2(n))));
    }
    const SafetyLevelRouter router(n, f);
    for (NodeId s = 0; s < pow2(n); ++s) {
      if (f.node_faulty(s)) continue;
      for (NodeId d = 0; d < pow2(n); ++d) {
        if (f.node_faulty(d) || d == s) continue;
        if (hamming(s, d) <= router.level(s)) {
          const auto result = router.plan(s, d);
          ASSERT_TRUE(result.delivered())
              << "S(" << s << ")=" << router.level(s) << " d=" << d;
          ASSERT_EQ(result.route->length(), hamming(s, d))
              << "safe sources route minimally";
          ASSERT_EQ(result.route->destination(), d);
        }
      }
    }
  }
}

TEST(SafetyLevels, RejectsLinkFaults) {
  FaultSet f;
  f.fail_link(0, 0);
  EXPECT_THROW(SafetyLevelRouter(3, f), std::invalid_argument);
}

TEST(SafetyLevels, FaultyEndpointsRejectedAtPlanTime) {
  FaultSet f;
  f.fail_node(1);
  const SafetyLevelRouter router(3, f);
  EXPECT_FALSE(router.plan(1, 4).delivered());
  EXPECT_FALSE(router.plan(4, 1).delivered());
}

}  // namespace
}  // namespace gcube
