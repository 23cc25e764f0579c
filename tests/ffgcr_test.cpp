// FFGCR tests (paper Algorithm 3): validity, termination at the
// destination, simplicity (cycle-freedom), and — the paper's optimality
// claim — route length equal to the BFS shortest path for every pair of
// every small GC, across moduli.
#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>
#include <vector>

#include "graph/algorithms.hpp"
#include "topology/gaussian_tree.hpp"
#include "util/rng.hpp"
#include "graph/graph.hpp"
#include "graph/graph.hpp"
#include "routing/ecube.hpp"
#include "routing/ffgcr.hpp"
#include "topology/gaussian_cube.hpp"

namespace gcube {
namespace {

class FfgcrExhaustiveTest
    : public ::testing::TestWithParam<std::tuple<Dim, Dim>> {};

TEST_P(FfgcrExhaustiveTest, OptimalForEveryPair) {
  const auto [n, alpha] = GetParam();
  if (alpha > n) GTEST_SKIP();
  const GaussianCube gc(n, pow2(alpha));
  const FfgcrRouter router(gc);
  const Graph g(gc);
  for (NodeId s = 0; s < gc.node_count(); ++s) {
    const auto dist = bfs_distances(g, s);
    for (NodeId d = 0; d < gc.node_count(); ++d) {
      const RoutingResult result = router.plan(s, d);
      ASSERT_TRUE(result.delivered());
      const Route& route = *result.route;
      ASSERT_TRUE(validate_route(gc, route).ok)
          << validate_route(gc, route).reason;
      ASSERT_EQ(route.source(), s);
      ASSERT_EQ(route.destination(), d);
      ASSERT_TRUE(route.is_simple()) << "fault-free routes are cycle-free";
      // The paper's optimality claim, against BFS ground truth:
      ASSERT_EQ(route.length(), dist[d]) << gc.name() << " s=" << s
                                         << " d=" << d;
      // And the closed-form optimal length agrees.
      ASSERT_EQ(router.optimal_length(s, d), dist[d]);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    SmallCubes, FfgcrExhaustiveTest,
    ::testing::Combine(::testing::Values<Dim>(2, 3, 4, 5, 6, 7, 8),
                       ::testing::Values<Dim>(0, 1, 2, 3)));

TEST(Ffgcr, SelfRouteIsEmpty) {
  const GaussianCube gc(8, 4);
  const FfgcrRouter router(gc);
  const auto result = router.plan(123, 123);
  ASSERT_TRUE(result.delivered());
  EXPECT_TRUE(result.route->empty());
}

TEST(Ffgcr, ModulusOneReducesToHypercubeRouting) {
  const GaussianCube gc(6, 1);
  const FfgcrRouter router(gc);
  for (NodeId s = 0; s < 64; s += 7) {
    for (NodeId d = 0; d < 64; d += 5) {
      const auto result = router.plan(s, d);
      ASSERT_TRUE(result.delivered());
      EXPECT_EQ(result.route->length(), hamming(s, d));
    }
  }
}

TEST(Ffgcr, PureTreeCaseWhenModulusDominates) {
  // M >= 2^n: the cube *is* the Gaussian Tree; routes equal tree paths.
  const GaussianCube gc(5, 32);
  const FfgcrRouter router(gc);
  const GaussianTree tree(5);
  for (NodeId s = 0; s < 32; ++s) {
    for (NodeId d = 0; d < 32; ++d) {
      const auto result = router.plan(s, d);
      ASSERT_TRUE(result.delivered());
      EXPECT_EQ(result.route->length(), tree.distance(s, d));
    }
  }
}

TEST(Ffgcr, MessageOverheadIsLinear) {
  // The header (hop list) of an optimal route is bounded by the network
  // diameter — O(n) per the paper's claim 1.
  const GaussianCube gc(10, 4);
  const FfgcrRouter router(gc);
  const std::size_t diam = 4 * 10;  // generous linear envelope
  Xoshiro256 rng(5);
  for (int i = 0; i < 500; ++i) {
    const auto s = static_cast<NodeId>(rng.below(gc.node_count()));
    const auto d = static_cast<NodeId>(rng.below(gc.node_count()));
    const auto result = router.plan(s, d);
    ASSERT_TRUE(result.delivered());
    EXPECT_LE(result.route->length(), diam);
  }
}

TEST(GcRoutePlan, GroupsHighBitsByOwningClass) {
  const GaussianCube gc(10, 4);  // alpha = 2
  const GaussianTree tree(2);
  const NodeId s = 0;
  const NodeId d = (NodeId{1} << 6) | (NodeId{1} << 7) | 1u;
  const auto plan = make_gc_route_plan(gc, tree, s, d);
  // Bit 6 belongs to class 6 % 4 = 2 and bit 7 to class 3, so the walk
  // visits both; bit 0 is a tree dimension, crossed on the way to class 1.
  const std::vector<NodeId>& walk = plan.class_walk;
  EXPECT_NE(std::find(walk.begin(), walk.end(), 2u), walk.end());
  EXPECT_NE(std::find(walk.begin(), walk.end(), 3u), walk.end());
  EXPECT_EQ(plan.class_walk.front(), gc.ending_class(s));
  EXPECT_EQ(plan.class_walk.back(), gc.ending_class(d));
}

TEST(Ecube, MatchesHammingOnHypercube) {
  const Hypercube h(6);
  const EcubeRouter router(h);
  for (NodeId s = 0; s < 64; s += 3) {
    for (NodeId d = 0; d < 64; d += 7) {
      const auto result = router.plan(s, d);
      ASSERT_TRUE(result.delivered());
      EXPECT_EQ(result.route->length(), hamming(s, d));
      EXPECT_TRUE(validate_route(h, *result.route).ok);
      EXPECT_EQ(result.route->destination(), d);
    }
  }
}

TEST(Ecube, RejectsDilutedCube) {
  const GaussianCube gc(6, 4);
  const EcubeRouter router(gc);
  // Some pair requires a missing link under dimension order.
  EXPECT_THROW((void)router.plan(0, 0b111100), std::invalid_argument);
}

}  // namespace
}  // namespace gcube
