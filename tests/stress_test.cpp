// Cross-module randomized stress tests at moderate scale: larger networks
// than the exhaustive suites, sampled pairs, every invariant at once.
// Deterministic seeds keep failures reproducible.
#include <gtest/gtest.h>

#include "fault/preconditions.hpp"
#include "graph/algorithms.hpp"
#include "routing/collectives.hpp"
#include "routing/deadlock.hpp"
#include "routing/ffgcr.hpp"
#include "routing/ftgcr.hpp"
#include "topology/gaussian_cube.hpp"
#include "util/rng.hpp"

namespace gcube {
namespace {

struct Config {
  Dim n;
  std::uint64_t m;
};

const Config kConfigs[] = {{11, 2}, {12, 2}, {11, 4}, {12, 8}, {13, 2}};

TEST(Stress, FfgcrSampledOptimalityOnLargeCubes) {
  // BFS per sampled source is affordable; FFGCR must match it exactly.
  Xoshiro256 rng(201);
  for (const auto& [n, m] : kConfigs) {
    const GaussianCube gc(n, m);
    const FfgcrRouter router(gc);
    for (int trial = 0; trial < 4; ++trial) {
      const auto s = static_cast<NodeId>(rng.below(gc.node_count()));
      const auto dist =
          bfs_distances(gc, s, [](NodeId, Dim) { return true; });
      for (int i = 0; i < 200; ++i) {
        const auto d = static_cast<NodeId>(rng.below(gc.node_count()));
        const auto result = router.plan(s, d);
        ASSERT_TRUE(result.delivered());
        ASSERT_EQ(result.route->length(), dist[d])
            << gc.name() << " s=" << s << " d=" << d;
        ASSERT_EQ(result.route->destination(), d);
        ASSERT_TRUE(result.route->is_simple());
      }
    }
  }
}

TEST(Stress, FtgcrUnderMultipleFaultsOnLargeCubes) {
  Xoshiro256 rng(203);
  // Moduli where classes keep enough hypercube dimensions for multi-fault
  // patterns to be tolerable (GC(12,8) has |Dim(k)| == 1 for most classes,
  // so almost no node fault passes the Theorem-5 precondition there).
  const Config ft_configs[] = {{11, 2}, {12, 2}, {11, 4}, {13, 2}};
  for (const auto& [n, m] : ft_configs) {
    const GaussianCube gc(n, m);
    FaultSet faults;
    int guard = 0;
    do {
      faults.clear();
      while (faults.node_fault_count() < 3) {
        faults.fail_node(static_cast<NodeId>(rng.below(gc.node_count())));
      }
      const auto u = static_cast<NodeId>(rng.below(gc.node_count()));
      const auto dims = gc.high_dims(gc.ending_class(u));
      if (!dims.empty()) faults.fail_link(u, dims[rng.below(dims.size())]);
    } while (!check_ftgcr_precondition(gc, faults) && ++guard < 300);
    ASSERT_TRUE(check_ftgcr_precondition(gc, faults))
        << gc.name() << ": sampler should find a tolerable pattern";
    const FtgcrRouter router(gc, faults);
    for (int i = 0; i < 400; ++i) {
      NodeId s, d;
      do {
        s = static_cast<NodeId>(rng.below(gc.node_count()));
      } while (faults.node_faulty(s));
      do {
        d = static_cast<NodeId>(rng.below(gc.node_count()));
      } while (faults.node_faulty(d));
      FtgcrStats stats;
      const auto result = router.plan_with_stats(s, d, stats);
      ASSERT_TRUE(result.delivered()) << gc.name() << " s=" << s
                                      << " d=" << d << ": " << result.failure;
      ASSERT_TRUE(validate_route(gc, faults, *result.route).ok);
    }
  }
}

TEST(Stress, VirtualChannelBudgetStaysBoundedOnLargeCubes) {
  // The vc budget tracks the modulus, not the dimension (EXPERIMENTS.md):
  // a descent can only happen at tree-walk edges, and an inter-class walk
  // has at most 2*(2^alpha - 1) of them (every tree edge at most twice).
  Xoshiro256 rng(205);
  for (const auto& [n, m] : kConfigs) {
    const GaussianCube gc(n, m);
    const FfgcrRouter router(gc);
    std::uint32_t max_vcs = 0;
    for (int i = 0; i < 2000; ++i) {
      const auto s = static_cast<NodeId>(rng.below(gc.node_count()));
      const auto d = static_cast<NodeId>(rng.below(gc.node_count()));
      const auto planned = router.plan(s, d);
      max_vcs = std::max(max_vcs, virtual_channels_required(*planned.route));
    }
    EXPECT_LE(max_vcs, 2 * gc.modulus() + 2) << gc.name();
  }
}

TEST(Stress, BroadcastFromRandomRootsOnLargeCubes) {
  Xoshiro256 rng(207);
  for (const auto& [n, m] : kConfigs) {
    const GaussianCube gc(n, m);
    for (int i = 0; i < 3; ++i) {
      const auto root = static_cast<NodeId>(rng.below(gc.node_count()));
      const auto tree = build_bfs_spanning_tree(gc, root);
      ASSERT_EQ(tree.reached, gc.node_count());
      const auto rounds = single_port_broadcast_rounds(tree);
      EXPECT_GE(rounds, static_cast<std::uint64_t>(n));
      EXPECT_LE(rounds, static_cast<std::uint64_t>(8) * n)
          << gc.name() << " root=" << root;
    }
  }
}

}  // namespace
}  // namespace gcube
