// FREH tests (paper Algorithm 4 / Theorem 4): delivery for every nonfaulty
// pair whenever F_s + F_0 < s and F_t + F_0 < t, route validity under the
// fault set, and the hop bound H(r, d) + 2(F_s + F_t) + 2.
#include <gtest/gtest.h>

#include <tuple>
#include <vector>

#include "fault/fault_set.hpp"
#include "graph/algorithms.hpp"
#include "graph/graph.hpp"
#include "routing/freh.hpp"
#include "util/rng.hpp"

namespace gcube {
namespace {

struct PairStats {
  std::size_t pairs = 0;
  std::size_t dead_ends = 0;  // dance dead-ends repaired by informed routing
  std::size_t total_excess = 0;  // hops above the fault-aware optimum
};

// Checks every nonfaulty pair under `faults`. The step-by-step dance as
// literally specified (ideal crossing first, Hamming-1 alternatives, masked
// spares) can dead-end in rare configurations even under the Theorem-4
// precondition — its candidate rule may exhaust the cross positions around
// the ideal while a route through a farther cube exists (a reproduction
// finding; see EXPERIMENTS.md). Such dead-ends must be rare and must never
// correspond to a genuine disconnection, which we prove by requiring the
// informed router to succeed there.
// Note on Theorem 4's hop bound: as stated — H + 2(F_s + F_t) + 2 — it does
// not hold even for the fault-aware *optimal* route. A single dead cross
// link forces a displace / cross / fix / cross-back / repair detour worth up
// to 6 extra hops (EH(2,2), r = (0,0,0), d = (0,0,1), cross link (0,0)
// dead: the true optimum is 7 hops versus H = 1). We therefore assert what
// the mechanism actually guarantees: termination within its livelock budget
// (H_max + 2(s+t) + 4), hop-by-hop validity, and near-optimality in
// aggregate. EXPERIMENTS.md discusses the discrepancy.
void check_all_pairs(const ExchangedHypercube& eh, const FaultSet& faults,
                     PairStats& tally) {
  const auto link_ok = [&faults](NodeId u, Dim c) {
    return faults.link_usable(u, c);
  };
  const std::size_t budget =
      (eh.s() + eh.t() + 2) + 2 * (eh.s() + eh.t()) + 4;
  for (NodeId r = 0; r < eh.node_count(); ++r) {
    if (faults.node_faulty(r)) continue;
    const auto dist_f = bfs_distances(eh, r, link_ok);  // fault-aware optimum
    for (NodeId d = 0; d < eh.node_count(); ++d) {
      if (faults.node_faulty(d)) continue;
      ++tally.pairs;
      const RoutingResult result = freh_route(eh, faults, r, d);
      if (!result.delivered()) {
        ++tally.dead_ends;
        ASSERT_TRUE(informed_eh_route(eh, faults, r, d).delivered())
            << "dance dead-end must not be a real disconnect: " << eh.name()
            << " r=" << r << " d=" << d;
        continue;
      }
      const Route& route = *result.route;
      ASSERT_EQ(route.source(), r);
      ASSERT_EQ(route.destination(), d);
      ASSERT_TRUE(validate_route(eh, faults, route).ok)
          << validate_route(eh, faults, route).reason;
      ASSERT_LE(route.length(), budget + 1)
          << "livelock-freedom budget " << eh.name() << " r=" << r
          << " d=" << d;
      ASSERT_GE(route.length(), dist_f[d]);
      tally.total_excess += route.length() - dist_f[d];
    }
  }
}

TEST(Freh, FaultFreeIsNearOptimal) {
  const ExchangedHypercube eh(3, 2);
  const FaultSet none;
  const Graph g(eh);
  for (NodeId r = 0; r < eh.node_count(); ++r) {
    const auto dist = bfs_distances(g, r);
    for (NodeId d = 0; d < eh.node_count(); ++d) {
      const auto result = freh_route(eh, none, r, d);
      ASSERT_TRUE(result.delivered());
      ASSERT_EQ(result.route->destination(), d);
      // Without faults the driver takes the paper's canonical path, which
      // is within 2 hops of optimal (cases III/IV may cross via the
      // destination position rather than the nearest one).
      ASSERT_LE(result.route->length(), dist[d] + 2);
      ASSERT_GE(result.route->length(), dist[d]);
    }
  }
}

class FrehFaultTest : public ::testing::TestWithParam<std::tuple<Dim, Dim>> {};

TEST_P(FrehFaultTest, ExhaustiveSingleFaults) {
  const auto [s, t] = GetParam();
  const ExchangedHypercube eh(s, t);
  PairStats tally;
  // Every single link fault satisfying Theorem 4.
  for (NodeId u = 0; u < eh.node_count(); ++u) {
    for (Dim c = 0; c < eh.dims(); ++c) {
      if (!eh.has_link(u, c) || bit(u, c) != 0) continue;
      FaultSet f;
      f.fail_link(u, c);
      if (!theorem4_holds(eh, f)) continue;
      check_all_pairs(eh, f, tally);
    }
  }
  // Every single node fault satisfying Theorem 4.
  for (NodeId u = 0; u < eh.node_count(); ++u) {
    FaultSet f;
    f.fail_node(u);
    if (!theorem4_holds(eh, f)) continue;
    check_all_pairs(eh, f, tally);
  }
  // Single faults never dead-end the dance, and the detour cost stays small
  // on average (well under one extra hop per pair).
  EXPECT_EQ(tally.dead_ends, 0u);
  ASSERT_GT(tally.pairs, 0u);
  EXPECT_LT(static_cast<double>(tally.total_excess),
            0.5 * static_cast<double>(tally.pairs));
}

TEST_P(FrehFaultTest, RandomMultiFaultSets) {
  const auto [s, t] = GetParam();
  const ExchangedHypercube eh(s, t);
  Xoshiro256 rng(61 + s * 8 + t);
  PairStats tally;
  int accepted = 0;
  for (int trial = 0; trial < 400 && accepted < 40; ++trial) {
    FaultSet f;
    const std::uint64_t budget = 1 + rng.below(s + t - 1);
    for (std::uint64_t i = 0; i < budget; ++i) {
      if (rng.chance(0.5)) {
        f.fail_node(static_cast<NodeId>(rng.below(eh.node_count())));
      } else {
        const auto u = static_cast<NodeId>(rng.below(eh.node_count()));
        const auto c = static_cast<Dim>(rng.below(eh.dims()));
        if (eh.has_link(u, c)) f.fail_link(u, c);
      }
    }
    if (!theorem4_holds(eh, f)) continue;
    ++accepted;
    check_all_pairs(eh, f, tally);
  }
  EXPECT_GT(accepted, 5) << "sampler should find tolerable fault sets";
  // Multi-fault dead-ends of the literal dance are possible but must stay
  // rare (well under 1% of pairs), and the aggregate detour cost small.
  ASSERT_GT(tally.pairs, 0u);
  EXPECT_LT(static_cast<double>(tally.dead_ends),
            0.01 * static_cast<double>(tally.pairs));
  EXPECT_LT(static_cast<double>(tally.total_excess),
            0.75 * static_cast<double>(tally.pairs));
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, FrehFaultTest,
    ::testing::Combine(::testing::Values<Dim>(2, 3), ::testing::Values<Dim>(2, 3)));

class InformedEhTest : public ::testing::TestWithParam<std::tuple<Dim, Dim>> {
};

TEST_P(InformedEhTest, ExactlyFaultAwareOptimal) {
  const auto [s, t] = GetParam();
  const ExchangedHypercube eh(s, t);
  Xoshiro256 rng(77 + s * 16 + t);
  int accepted = 0;
  for (int trial = 0; trial < 200 && accepted < 25; ++trial) {
    FaultSet f;
    const std::uint64_t budget = 1 + rng.below(s + t - 1);
    for (std::uint64_t i = 0; i < budget; ++i) {
      if (rng.chance(0.5)) {
        f.fail_node(static_cast<NodeId>(rng.below(eh.node_count())));
      } else {
        const auto u = static_cast<NodeId>(rng.below(eh.node_count()));
        const auto c = static_cast<Dim>(rng.below(eh.dims()));
        if (eh.has_link(u, c)) f.fail_link(u, c);
      }
    }
    if (!theorem4_holds(eh, f)) continue;
    ++accepted;
    for (NodeId r = 0; r < eh.node_count(); ++r) {
      if (f.node_faulty(r)) continue;
      const auto dist = bfs_distances(
          eh, r, [&f](NodeId u, Dim c) { return f.link_usable(u, c); });
      for (NodeId d = 0; d < eh.node_count(); ++d) {
        if (f.node_faulty(d)) continue;
        const auto result = informed_eh_route(eh, f, r, d);
        ASSERT_TRUE(result.delivered())
            << eh.name() << " r=" << r << " d=" << d;
        ASSERT_EQ(result.route->destination(), d);
        ASSERT_TRUE(validate_route(eh, f, *result.route).ok);
        ASSERT_EQ(result.route->length(), dist[d])
            << "informed routing is exactly the fault-aware optimum";
      }
    }
  }
  EXPECT_GT(accepted, 5);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, InformedEhTest,
    ::testing::Combine(::testing::Values<Dim>(2, 3),
                       ::testing::Values<Dim>(2, 3)));

TEST(InformedEh, ReportsDisconnectionAndFaultyEndpoints) {
  const ExchangedHypercube eh(2, 2);
  FaultSet f;
  f.fail_node(0b00010);
  EXPECT_FALSE(informed_eh_route(eh, f, 0b00010, 0).delivered());
  EXPECT_FALSE(informed_eh_route(eh, f, 0, 0b00010).delivered());
}

TEST(Freh, FaultySourceOrDestinationRejected) {
  const ExchangedHypercube eh(2, 2);
  FaultSet f;
  f.fail_node(0);
  EXPECT_FALSE(freh_route(eh, f, 0, 5).delivered());
  EXPECT_FALSE(freh_route(eh, f, 5, 0).delivered());
}

TEST(Freh, CountsMatchDefinition) {
  const ExchangedHypercube eh(2, 3);  // dims: 0 cross, 1-3 b, 4-5 a
  FaultSet f;
  f.fail_node(0b000000);  // c=0 side
  f.fail_node(0b000001);  // c=1 side
  f.fail_link(0b000010, 0);   // cross link, endpoints nonfaulty
  f.fail_link(0b000000, 0);   // cross link with faulty endpoint: excluded
  f.fail_link(0b000100, 4);   // a-dim link (c=0 side)
  f.fail_link(0b000011, 1);   // b-dim link (c=1 side)
  const EhFaultCounts counts = count_eh_faults(eh, f);
  EXPECT_EQ(counts.f_s, 2u);  // node 0 + a-link
  EXPECT_EQ(counts.f_t, 2u);  // node 1 + b-link
  EXPECT_EQ(counts.f_0, 1u);
}

TEST(Freh, Theorem4BoundaryReading) {
  const ExchangedHypercube eh(2, 2);
  FaultSet f;
  EXPECT_TRUE(theorem4_holds(eh, f));  // no faults: vacuously fine
  f.fail_link(0b00100, 3);             // one a-dim fault: f_s = 1 < s = 2
  EXPECT_TRUE(theorem4_holds(eh, f));
  f.fail_link(0b00000, 4);             // second side-s fault: 2 >= 2
  EXPECT_FALSE(theorem4_holds(eh, f));
}

}  // namespace
}  // namespace gcube
