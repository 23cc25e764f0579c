// FTGCR tests — the paper's headline guarantees (§1 claims 3 & 6, Theorems
// 3 and 5):
//  * fault-free: FTGCR degenerates to the optimal FFGCR route;
//  * under any fault set passing check_ftgcr_precondition, every nonfaulty
//    pair is delivered with a route valid under the faults;
//  * in the A-only Theorem-3 regime the route is at most 2F hops longer
//    than the fault-free optimum (the paper's claim, verbatim); for B/C
//    faults the claim cannot hold as stated and the asserted envelope is
//    relative to the fault-aware optimum (see check_all_pairs).
//
// Route identity: every route, failure and FtgcrStats field over fixed
// fault fixtures is folded into one FNV-1a hash per fixture and pinned to a
// recorded constant, so a change that only makes planning cheaper can show
// it moved nothing.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "fault/categorize.hpp"
#include "fault/fault_set.hpp"
#include "fault/preconditions.hpp"
#include "graph/algorithms.hpp"
#include "graph/graph.hpp"
#include "routing/ffgcr.hpp"
#include "routing/ftgcr.hpp"
#include "topology/gaussian_cube.hpp"
#include "util/rng.hpp"

namespace gcube {
namespace {

// Hop-bound checks. The paper claims optimal + 2F; that holds verbatim in
// the A-only Theorem-3 regime (strict_2f). For B/C faults the claim cannot
// hold as stated — there are single-fault configurations where the
// *fault-aware shortest path itself* exceeds optimal + 2F (e.g. GC(5,2)
// with the 0-1 tree link cut: the true optimum between nodes 0 and 1 is 7
// hops versus a fault-free optimum of 1; even Theorem 4's own
// H + 2(F_s+F_t) + 2 is violated by the optimum). See EXPERIMENTS.md. The
// meaningful guarantee, asserted here: FTGCR stays within 2 hops per fault
// plus 6 hops per engaged EH crossing (a blocked crossing costs up to a
// displacement, two extra crossings, and a repair) of the *fault-aware*
// shortest path —
// the cost of the two-level discipline (tree itinerary + structure-confined
// detours) versus an omniscient router. Measured average excess is ~0.01
// hops per pair (bench/abl_route_overhead).
void check_all_pairs(const GaussianCube& gc, const FaultSet& faults,
                     bool strict_2f = false) {
  const FtgcrRouter router(gc, faults);
  const FfgcrRouter baseline(gc);
  const std::size_t total_faults =
      faults.node_fault_count() + faults.link_fault_count();
  for (NodeId s = 0; s < gc.node_count(); ++s) {
    if (faults.node_faulty(s)) continue;
    const auto dist_f = bfs_distances(gc, s, [&faults](NodeId u, Dim c) {
      return faults.link_usable(u, c);
    });
    for (NodeId d = 0; d < gc.node_count(); ++d) {
      if (faults.node_faulty(d)) continue;
      FtgcrStats stats;
      const RoutingResult result = router.plan_with_stats(s, d, stats);
      ASSERT_TRUE(result.delivered()) << gc.name() << " s=" << s << " d=" << d
                                      << ": " << result.failure;
      const Route& route = *result.route;
      ASSERT_EQ(route.source(), s);
      ASSERT_EQ(route.destination(), d);
      const auto check = validate_route(gc, faults, route);
      ASSERT_TRUE(check.ok) << check.reason;
      ASSERT_LE(route.length(), dist_f[d] + 2 * total_faults +
                                    6 * stats.freh_crossings)
          << gc.name() << " s=" << s << " d=" << d
          << " (vs fault-aware optimum " << dist_f[d] << ")";
      if (strict_2f) {
        ASSERT_LE(route.length(),
                  baseline.optimal_length(s, d) + 2 * total_faults)
            << gc.name() << " s=" << s << " d=" << d;
        // The Theorem-3 regime never needs the global re-plan.
        ASSERT_EQ(stats.global_replans, 0u)
            << gc.name() << " s=" << s << " d=" << d;
      }
    }
  }
}

class FtgcrGridTest : public ::testing::TestWithParam<std::tuple<Dim, Dim>> {};

TEST_P(FtgcrGridTest, FaultFreeMatchesFfgcrExactly) {
  const auto [n, alpha] = GetParam();
  if (alpha > n) GTEST_SKIP();
  const GaussianCube gc(n, pow2(alpha));
  const FaultSet none;
  const FtgcrRouter ft(gc, none);
  const FfgcrRouter ff(gc);
  for (NodeId s = 0; s < gc.node_count(); ++s) {
    for (NodeId d = 0; d < gc.node_count(); ++d) {
      const auto a = ft.plan(s, d);
      const auto b = ff.plan(s, d);
      ASSERT_TRUE(a.delivered());
      ASSERT_EQ(a.route->hops(), b.route->hops());
      ASSERT_TRUE(a.route->is_simple());
    }
  }
}

TEST_P(FtgcrGridTest, SingleLinkFaultsExhaustive) {
  const auto [n, alpha] = GetParam();
  if (alpha > n) GTEST_SKIP();
  const GaussianCube gc(n, pow2(alpha));
  for (NodeId u = 0; u < gc.node_count(); ++u) {
    for (Dim c = 0; c < n; ++c) {
      if (!gc.has_link(u, c) || bit(u, c) != 0) continue;
      FaultSet f;
      f.fail_link(u, c);
      if (!check_ftgcr_precondition(gc, f)) continue;
      check_all_pairs(gc, f);
    }
  }
}

TEST_P(FtgcrGridTest, SingleNodeFaultsExhaustive) {
  const auto [n, alpha] = GetParam();
  if (alpha > n) GTEST_SKIP();
  const GaussianCube gc(n, pow2(alpha));
  for (NodeId u = 0; u < gc.node_count(); ++u) {
    FaultSet f;
    f.fail_node(u);
    if (!check_ftgcr_precondition(gc, f)) continue;
    check_all_pairs(gc, f);
  }
}

INSTANTIATE_TEST_SUITE_P(
    SmallCubes, FtgcrGridTest,
    ::testing::Combine(::testing::Values<Dim>(4, 5, 6, 7),
                       ::testing::Values<Dim>(0, 1, 2)));

TEST(Ftgcr, RandomMultiFaultCampaign) {
  Xoshiro256 rng(71);
  const std::vector<std::pair<Dim, Dim>> shapes = {
      {6, 1}, {7, 1}, {7, 2}, {8, 1}, {8, 2}};
  for (const auto& [n, alpha] : shapes) {
    const GaussianCube gc(n, pow2(alpha));
    int accepted = 0;
    for (int trial = 0; trial < 300 && accepted < 25; ++trial) {
      FaultSet f;
      const std::uint64_t budget = 1 + rng.below(4);
      for (std::uint64_t i = 0; i < budget; ++i) {
        if (rng.chance(0.4)) {
          f.fail_node(static_cast<NodeId>(rng.below(gc.node_count())));
        } else {
          const auto u = static_cast<NodeId>(rng.below(gc.node_count()));
          const auto c = static_cast<Dim>(rng.below(n));
          if (gc.has_link(u, c)) f.fail_link(u, c);
        }
      }
      if (f.empty() || !check_ftgcr_precondition(gc, f)) continue;
      ++accepted;
      check_all_pairs(gc, f);
    }
    EXPECT_GT(accepted, 5) << gc.name();
  }
}

TEST(Ftgcr, TheoremThreeRegimeNeverUsesFallback) {
  // A-category link faults only, under the per-GEEC limit: the paper's
  // machinery must suffice with no global BFS re-plan.
  Xoshiro256 rng(73);
  const GaussianCube gc(9, 2);
  int accepted = 0;
  for (int trial = 0; trial < 300 && accepted < 30; ++trial) {
    FaultSet f;
    const std::uint64_t budget = 1 + rng.below(3);
    for (std::uint64_t i = 0; i < budget; ++i) {
      const auto u = static_cast<NodeId>(rng.below(gc.node_count()));
      const auto dims = gc.high_dims(gc.ending_class(u));
      if (dims.empty()) continue;
      f.fail_link(u, dims[rng.below(dims.size())]);
    }
    if (f.empty() || !check_theorem3(gc, f)) continue;
    ++accepted;
    check_all_pairs(gc, f, /*strict_2f=*/true);
  }
  EXPECT_GT(accepted, 10);
}

TEST(Ftgcr, FaultySourceOrDestinationRejected) {
  const GaussianCube gc(6, 2);
  FaultSet f;
  f.fail_node(5);
  const FtgcrRouter router(gc, f);
  EXPECT_FALSE(router.plan(5, 9).delivered());
  EXPECT_FALSE(router.plan(9, 5).delivered());
}

TEST(Ftgcr, ReportsHonestFailureWhenPreconditionViolated) {
  // Class 1 of GC(5, 4) has no hypercube dimensions; kill the only tree
  // link between two specific classes' lanes and routing must fail rather
  // than lie.
  const GaussianCube gc(5, 4);
  FaultSet f;
  f.fail_node(0b00001);  // B-category fault in a dimensionless class
  ASSERT_FALSE(check_ftgcr_precondition(gc, f));
  const FtgcrRouter router(gc, f);
  // A pair whose itinerary must pass class 1's faulty lane.
  const auto result = router.plan(0b00000, 0b00011);
  if (result.delivered()) {
    // If a route was found it must still be valid.
    EXPECT_TRUE(validate_route(gc, f, *result.route).ok);
  } else {
    EXPECT_FALSE(result.failure.empty());
  }
}

TEST(Ftgcr, RouteLengthDegradesGracefullyWithFaults) {
  // Average route overhead grows with the number of faults but stays within
  // the 2F bound (claim 3). Aggregate check over random pairs.
  const GaussianCube gc(9, 2);
  Xoshiro256 rng(79);
  const FfgcrRouter baseline(gc);
  for (std::size_t num_faults : {1u, 2u, 3u}) {
    FaultSet f;
    int guard = 0;
    do {
      f.clear();
      while (f.node_fault_count() < num_faults) {
        f.fail_node(static_cast<NodeId>(rng.below(gc.node_count())));
      }
    } while (!check_ftgcr_precondition(gc, f) && ++guard < 200);
    ASSERT_TRUE(check_ftgcr_precondition(gc, f));
    const FtgcrRouter router(gc, f);
    for (int i = 0; i < 300; ++i) {
      NodeId s, d;
      do {
        s = static_cast<NodeId>(rng.below(gc.node_count()));
      } while (f.node_faulty(s));
      do {
        d = static_cast<NodeId>(rng.below(gc.node_count()));
      } while (f.node_faulty(d));
      FtgcrStats stats;
      const auto result = router.plan_with_stats(s, d, stats);
      ASSERT_TRUE(result.delivered());
      const auto dist_f = bfs_distances(gc, s, [&f](NodeId u, Dim c) {
        return f.link_usable(u, c);
      });
      ASSERT_LE(result.route->length(),
                dist_f[d] + 2 * num_faults + 6 * stats.freh_crossings);
    }
  }
}

// ------------------------------------------------------------ route identity

void fnv1a(std::uint64_t& hash, std::uint64_t value) {
  for (int byte = 0; byte < 8; ++byte) {
    hash ^= (value >> (8 * byte)) & 0xffu;
    hash *= 0x100000001b3ULL;
  }
}

/// Node faults redrawn until the FTGCR precondition holds (the experiment
/// runner's idiom), deterministic in `seed`.
FaultSet precondition_node_faults(const GaussianCube& gc, std::size_t count,
                                  std::uint64_t seed) {
  Xoshiro256 rng(seed);
  for (int attempt = 0; attempt < 1000; ++attempt) {
    FaultSet faults;
    while (faults.node_fault_count() < count) {
      faults.fail_node(static_cast<NodeId>(rng.below(gc.node_count())));
    }
    if (check_ftgcr_precondition(gc, faults)) return faults;
  }
  ADD_FAILURE() << "no tolerable fault pattern for " << gc.name();
  return {};
}

/// `nodes` random node faults, then `links` random marked links, with no
/// precondition check.
FaultSet random_faults(const GaussianCube& gc, std::size_t nodes,
                       std::size_t links, std::uint64_t seed) {
  Xoshiro256 rng(seed);
  FaultSet faults;
  while (faults.node_fault_count() < nodes) {
    faults.fail_node(static_cast<NodeId>(rng.below(gc.node_count())));
  }
  while (faults.link_fault_count() < links) {
    const auto u = static_cast<NodeId>(rng.below(gc.node_count()));
    const auto c = static_cast<Dim>(rng.below(gc.dims()));
    if (gc.has_link(u, c)) faults.fail_link(u, c);
  }
  return faults;
}

using NodePairs = std::vector<std::pair<NodeId, NodeId>>;

NodePairs all_pairs(const GaussianCube& gc) {
  NodePairs pairs;
  pairs.reserve(gc.node_count() * gc.node_count());
  for (NodeId s = 0; s < gc.node_count(); ++s) {
    for (NodeId d = 0; d < gc.node_count(); ++d) pairs.emplace_back(s, d);
  }
  return pairs;
}

/// Every nonfaulty source with an unusable link (a neighbor of a faulty
/// node or an endpoint of a marked link) times every destination — the
/// pairs that miss the fault-free fast path — plus `random` seeded pairs.
NodePairs fault_adjacent_pairs(const GaussianCube& gc, const FaultSet& faults,
                               std::size_t random, std::uint64_t seed) {
  NodePairs pairs;
  for (NodeId s = 0; s < gc.node_count(); ++s) {
    if (faults.node_faulty(s)) continue;
    bool adjacent = false;
    for (Dim c = 0; c < gc.dims() && !adjacent; ++c) {
      adjacent = gc.has_link(s, c) && !faults.link_usable(s, c);
    }
    if (!adjacent) continue;
    for (NodeId d = 0; d < gc.node_count(); ++d) pairs.emplace_back(s, d);
  }
  Xoshiro256 rng(seed);
  for (std::size_t i = 0; i < random; ++i) {
    const auto s = static_cast<NodeId>(rng.below(gc.node_count()));
    pairs.emplace_back(s, static_cast<NodeId>(rng.below(gc.node_count())));
  }
  return pairs;
}

/// How many plans took each of the planner's expensive paths, so a fixture
/// can be checked to exercise what it is there for.
struct PathCounts {
  std::size_t failures = 0;
  std::size_t freh = 0;
  std::size_t global_bfs = 0;
  std::size_t faults_met = 0;
};

std::uint64_t route_identity_hash(const GaussianCube& gc,
                                  const FaultSet& faults,
                                  const NodePairs& pairs, PathCounts& counts) {
  const FtgcrRouter router(gc, faults);
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const auto& [s, d] : pairs) {
    FtgcrStats stats;
    const RoutingResult result = router.plan_with_stats(s, d, stats);
    fnv1a(hash, (std::uint64_t{s} << 32) | d);
    fnv1a(hash, result.delivered() ? 1u : 0u);
    if (result.delivered()) {
      fnv1a(hash, result.route->length());
      for (const Dim c : result.route->hops()) fnv1a(hash, c);
    }
    fnv1a(hash, stats.faults_encountered);
    fnv1a(hash, stats.spare_hops);
    fnv1a(hash, stats.freh_crossings);
    // The slot of a removed stats flag that was always false; hashing 0
    // keeps the constants recorded with it.
    fnv1a(hash, 0u);
    fnv1a(hash, stats.global_replans);
    counts.failures += result.delivered() ? 0u : 1u;
    counts.freh += stats.freh_crossings > 0 ? 1u : 0u;
    counts.global_bfs += stats.global_replans > 0 ? 1u : 0u;
    counts.faults_met += stats.faults_encountered > 0 ? 1u : 0u;
  }
  return hash;
}

// The constants were recorded with the planner that tested links through
// FaultSet's hash probes and ran its searches on hash maps; the planner
// reading the dense fault view must reproduce them exactly.
TEST(FtgcrRouteIdentity, PinnedHashesOnFaultFixtures) {
  const GaussianCube gc10(10, 4);
  const GaussianCube gc8(8, 2);
  const GaussianCube gc9(9, 8);
  const GaussianCube gc7(7, 1);
  struct Fixture {
    std::string name;
    const GaussianCube& gc;
    FaultSet faults;
    NodePairs pairs;
    std::uint64_t expected;
  };
  std::vector<Fixture> fixtures;
  auto add = [&](std::string name, const GaussianCube& gc, FaultSet faults,
                 bool all, std::uint64_t expected) {
    NodePairs pairs = all ? all_pairs(gc)
                          : fault_adjacent_pairs(gc, faults, 2000,
                                                 fixtures.size() + 1);
    fixtures.push_back(
        {std::move(name), gc, std::move(faults), std::move(pairs), expected});
  };
  add("GC(10,4) 12 node faults, seed 1", gc10,
      precondition_node_faults(gc10, 12, 1), false, 0x185b1d7c83bca244ULL);
  add("GC(10,4) 12 node faults, seed 2", gc10,
      precondition_node_faults(gc10, 12, 2), false, 0x8df73af84a76330eULL);
  add("GC(10,4) 40 marked links", gc10, random_faults(gc10, 0, 40, 3), false,
      0x0147c1ee6282a527ULL);
  add("GC(10,4) 6 node + 20 link faults", gc10, random_faults(gc10, 6, 20, 4),
      false, 0xb509b57bd895eaf2ULL);
  add("GC(8,2) 30 node + 30 link faults", gc8, random_faults(gc8, 30, 30, 5),
      true, 0xc6ff46c0b28ba8e7ULL);
  add("GC(9,8) 3 node + 6 link faults", gc9, random_faults(gc9, 3, 6, 6),
      true, 0x8bf117a7baa5b4ddULL);
  add("GC(7,1) 6 node + 10 link faults", gc7, random_faults(gc7, 6, 10, 7),
      true, 0x6d325686e11bd309ULL);
  ASSERT_FALSE(check_ftgcr_precondition(gc8, fixtures[4].faults))
      << "the GC(8,2) fixture is there to break the precondition";

  PathCounts total;
  for (const Fixture& f : fixtures) {
    PathCounts counts;
    const std::uint64_t hash =
        route_identity_hash(f.gc, f.faults, f.pairs, counts);
    EXPECT_EQ(hash, f.expected)
        << f.name << ": " << f.pairs.size() << " pairs, " << counts.failures
        << " failures, " << counts.freh << " FREH, " << counts.global_bfs
        << " global BFS, " << counts.faults_met << " meeting faults";
    total.failures += counts.failures;
    total.freh += counts.freh;
    total.global_bfs += counts.global_bfs;
    total.faults_met += counts.faults_met;
  }
  // The fixtures must reach every planner path the hashes pin.
  EXPECT_GT(total.failures, 0u);
  EXPECT_GT(total.freh, 0u);
  EXPECT_GT(total.global_bfs, 0u);
  EXPECT_GT(total.faults_met, 0u);
}

}  // namespace
}  // namespace gcube
