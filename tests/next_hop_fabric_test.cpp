// Next-hop fabric property tests.
//
// The fabric compiles FFGCR's stepwise decision into flat tables
// (routing/next_hop_table.hpp) and the fault overlay keeps a bitmap of the
// nodes whose every link is usable (fault/overlay.hpp). The simulator steers
// packets through the composite (clean node -> fabric lookup, patched node
// -> full FTGCR machinery), so the properties checked here are exactly the
// ones the hot path relies on:
//
//  * the table answer is byte-identical to the plan machinery's first hop
//    for FFGCR always, and for FTGCR whenever the fault set is empty;
//  * following fabric hops reproduces the full optimal route;
//  * the overlay agrees bit-for-bit with the FaultSet, refreshed step by
//    step through failures and repairs or rebuilt from scratch;
//  * at overlay-clean nodes the fabric hop is usable as-is; at patched
//    nodes the machinery's (version-stamped) answer is what steering uses.
#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "fault/fault_set.hpp"
#include "fault/overlay.hpp"
#include "fault/preconditions.hpp"
#include "routing/ffgcr.hpp"
#include "routing/ftgcr.hpp"
#include "routing/next_hop_table.hpp"
#include "routing/route.hpp"
#include "topology/gaussian_cube.hpp"
#include "util/rng.hpp"

namespace gcube {
namespace {

struct Shape {
  Dim n;
  std::uint64_t modulus;
  std::size_t tolerable_faults;  // count check_ftgcr_precondition accepts
};

const Shape kShapes[] = {{8, 2, 3}, {10, 4, 8}, {12, 8, 4}};

FaultSet draw_faults(const GaussianCube& gc, std::size_t count,
                     std::uint64_t seed) {
  // Draw faulty nodes from the ending class with the largest GEEC
  // dimension: shapes like GC(12,8) have mostly 1-dimensional GEECs whose
  // tolerance bound (< |Dim(k)| faults per GEEC) admits no fault at all,
  // so unrestricted draws can never satisfy the precondition.
  NodeId cls = 0;
  for (NodeId k = 1; k < gc.class_count(); ++k) {
    if (gc.high_dim_count(k) > gc.high_dim_count(cls)) cls = k;
  }
  const std::uint64_t members = gc.node_count() >> gc.alpha();
  Xoshiro256 rng(seed);
  for (int attempt = 0; attempt < 1000; ++attempt) {
    FaultSet faults;
    while (faults.node_fault_count() < count) {
      faults.fail_node(
          static_cast<NodeId>((rng.below(members) << gc.alpha()) | cls));
    }
    if (check_ftgcr_precondition(gc, faults)) return faults;
  }
  ADD_FAILURE() << "no tolerable fault pattern found for " << gc.name();
  return {};
}

std::vector<std::pair<NodeId, NodeId>> sample_pairs(const GaussianCube& gc,
                                                    const FaultSet& faults,
                                                    std::size_t count,
                                                    std::uint64_t seed) {
  Xoshiro256 rng(seed);
  std::vector<std::pair<NodeId, NodeId>> pairs;
  while (pairs.size() < count) {
    const auto s = static_cast<NodeId>(rng.below(gc.node_count()));
    const auto d = static_cast<NodeId>(rng.below(gc.node_count()));
    if (s == d || faults.node_faulty(s) || faults.node_faulty(d)) continue;
    pairs.emplace_back(s, d);
  }
  return pairs;
}

TEST(NextHopFabricTest, FfgcrTableMatchesPlanMachineryByteForByte) {
  for (const Shape shape : kShapes) {
    const GaussianCube gc(shape.n, shape.modulus);
    const FfgcrRouter router(gc);
    const NextHopFabric* fabric = router.fabric();
    ASSERT_NE(fabric, nullptr);
    ASSERT_TRUE(fabric->supported()) << gc.name();
    for (const auto& [s, d] : sample_pairs(gc, FaultSet{}, 400, 11)) {
      // The plan path exercises the full itinerary + build_route machinery;
      // the fabric must reproduce its first hop exactly.
      const RoutingResult plan = router.plan(s, d);
      ASSERT_TRUE(plan.delivered());
      EXPECT_EQ(fabric->fault_free_hop(s, d), plan.route->hops().front())
          << gc.name() << " s=" << s << " d=" << d;
      // And next_hop, the router's stepwise view, agrees with it.
      EXPECT_EQ(router.next_hop(s, d),
                std::optional<Dim>(plan.route->hops().front()));
    }
  }
}

TEST(NextHopFabricTest, FollowingFabricHopsWalksTheFullOptimalRoute) {
  for (const Shape shape : kShapes) {
    const GaussianCube gc(shape.n, shape.modulus);
    const FfgcrRouter router(gc);
    const NextHopFabric& fabric = *router.fabric();
    for (const auto& [s, d] : sample_pairs(gc, FaultSet{}, 150, 23)) {
      const RoutingResult plan = router.plan(s, d);
      ASSERT_TRUE(plan.delivered());
      // Stepwise table iteration must retrace the planned route hop by hop
      // (memoryless re-derivation), so it terminates in exactly
      // optimal_length hops.
      NodeId cur = s;
      for (const Dim planned : plan.route->hops()) {
        ASSERT_NE(cur, d);
        const Dim c = fabric.fault_free_hop(cur, d);
        ASSERT_EQ(c, planned) << gc.name() << " s=" << s << " d=" << d
                              << " at=" << cur;
        ASSERT_TRUE(gc.has_link(cur, c));
        cur = flip_bit(cur, c);
      }
      EXPECT_EQ(cur, d);
      EXPECT_EQ(plan.route->length(), router.optimal_length(s, d));
    }
  }
}

TEST(NextHopFabricTest, FtgcrFaultFreeNextHopIsTheTableAnswer) {
  for (const Shape shape : kShapes) {
    const GaussianCube gc(shape.n, shape.modulus);
    const FaultSet empty;
    const FtgcrRouter router(gc, empty);
    const NextHopFabric& fabric = *router.fabric();
    ASSERT_TRUE(fabric.supported());
    for (const auto& [s, d] : sample_pairs(gc, empty, 300, 37)) {
      // With zero faults the machinery's composite route is the fault-free
      // one, so its first hop must be byte-identical to the table's.
      const RoutingResult plan = router.plan(s, d);
      ASSERT_TRUE(plan.delivered());
      EXPECT_EQ(fabric.fault_free_hop(s, d), plan.route->hops().front());
      EXPECT_EQ(router.next_hop(s, d),
                std::optional<Dim>(fabric.fault_free_hop(s, d)));
    }
  }
}

TEST(NextHopFabricTest, OverlayAgreesWithFaultSet) {
  for (const Shape shape : kShapes) {
    const GaussianCube gc(shape.n, shape.modulus);
    FaultSet faults = draw_faults(gc, shape.tolerable_faults, 91 + shape.n);
    faults.fail_link(1, 0);  // mix in a marked-link fault
    FaultOverlay overlay;
    overlay.attach(gc);
    overlay.refresh(faults);
    for (NodeId u = 0; u < gc.node_count(); ++u) {
      bool clean = true;
      std::uint32_t usable = 0;
      for (Dim c = 0; c < gc.dims(); ++c) {
        if (!gc.has_link(u, c)) continue;
        if (faults.link_usable(u, c)) {
          usable |= std::uint32_t{1} << c;
        } else {
          clean = false;
        }
      }
      ASSERT_EQ(overlay.usable_mask(u), usable) << gc.name() << " u=" << u;
      ASSERT_EQ(overlay.clean_window(u) & 1, clean ? 1u : 0u)
          << gc.name() << " u=" << u;
    }
  }
}

TEST(NextHopFabricTest, RefreshedOverlayMatchesFreshRebuild) {
  const GaussianCube gc(10, 4);
  FaultSet faults;
  FaultOverlay refreshed;
  refreshed.attach(gc);
  refreshed.refresh(faults);
  const auto expect_fresh = [&](int step) {
    FaultOverlay fresh;
    fresh.attach(gc);
    fresh.refresh(faults);
    for (NodeId base = 0; base < gc.node_count(); base += 64) {
      ASSERT_EQ(refreshed.clean_window(base), fresh.clean_window(base))
          << "step=" << step << " base=" << base;
    }
    for (NodeId u = 0; u < gc.node_count(); ++u) {
      ASSERT_EQ(refreshed.usable_mask(u), fresh.usable_mask(u))
          << "step=" << step << " u=" << u;
    }
  };
  Xoshiro256 rng(77);
  for (int step = 0; step < 18; ++step) {
    if (step % 3 == 2) {
      faults.fail_link(static_cast<NodeId>(rng.below(gc.node_count())),
                       static_cast<Dim>(rng.below(gc.alpha() + 1)));
    } else if (step % 6 == 4) {
      // A repair must clean the node and its neighbors again.
      const std::vector<NodeId>& dead = faults.faulty_nodes();
      ASSERT_TRUE(faults.repair_node(dead[rng.below(dead.size())]));
    } else {
      faults.fail_node(static_cast<NodeId>(rng.below(gc.node_count())));
    }
    refreshed.refresh(faults);
    expect_fresh(step);
  }
  // clear() + regrow past the old list lengths must still be seen.
  faults.clear();
  for (int i = 0; i < 20; ++i) {
    faults.fail_node(static_cast<NodeId>(rng.below(gc.node_count())));
  }
  refreshed.refresh(faults);
  expect_fresh(-1);
}

TEST(NextHopFabricTest, SteeringCompositeMatchesRoutersUnderFaults) {
  for (const Shape shape : kShapes) {
    const GaussianCube gc(shape.n, shape.modulus);
    const FaultSet faults =
        draw_faults(gc, shape.tolerable_faults, 137 + shape.n);
    const FfgcrRouter ffgcr(gc);
    const FtgcrRouter ftgcr(gc, faults);
    const NextHopFabric& fabric = *ftgcr.fabric();
    FaultOverlay overlay;
    overlay.attach(gc);
    overlay.refresh(faults);
    for (const auto& [s, d] : sample_pairs(gc, faults, 400, 53)) {
      // The table stays byte-identical to fault-blind FFGCR under any
      // fault set (FFGCR never consults faults).
      const std::optional<Dim> blind = ffgcr.plan(s, d).route->hops().front();
      ASSERT_EQ(std::optional<Dim>(fabric.fault_free_hop(s, d)), blind);
      if ((overlay.clean_window(s) & 1) != 0) {
        // Clean node: the simulator takes the fabric hop unchecked, so it
        // must be an existing, usable link.
        const Dim c = fabric.fault_free_hop(s, d);
        ASSERT_TRUE(gc.has_link(s, c)) << gc.name() << " s=" << s;
        ASSERT_TRUE(faults.link_usable(s, c)) << gc.name() << " s=" << s;
      } else {
        // Patched node: steering defers to the FTGCR machinery, and the
        // hop it returns must itself be traversable.
        const std::optional<Dim> hop = ftgcr.next_hop(s, d);
        ASSERT_TRUE(hop.has_value()) << gc.name() << " s=" << s;
        ASSERT_TRUE(gc.has_link(s, *hop));
        ASSERT_TRUE(faults.link_usable(s, *hop));
      }
    }
  }
}

TEST(NextHopFabricTest, LargeModulusFallsBackUnsupported) {
  // alpha = 4 would need a 2^24-entry tree table; the fabric declines and
  // the simulator adopts plans at the source.
  const GaussianCube gc(12, 16);
  const FfgcrRouter router(gc);
  ASSERT_NE(router.fabric(), nullptr);
  EXPECT_FALSE(router.fabric()->supported());
  for (const auto& [s, d] : sample_pairs(gc, FaultSet{}, 50, 7)) {
    const RoutingResult plan = router.plan(s, d);
    ASSERT_TRUE(plan.delivered());
    EXPECT_EQ(router.next_hop(s, d),
              std::optional<Dim>(plan.route->hops().front()));
  }
}

TEST(NextHopFabricTest, TableFootprintStaysSparse) {
  EXPECT_LE(NextHopFabric(GaussianCube(10, 4)).table_bytes(), 512u);
  // alpha = 3: 8 * 8 * 256 tree entries + 8 class masks = 16 KiB + 32 B.
  EXPECT_LE(NextHopFabric(GaussianCube(12, 8)).table_bytes(), 17u * 1024u);
}

}  // namespace
}  // namespace gcube
