// Repair-invalidation property test: after ANY interleaving of fail and
// repair events, a long-lived router (whose version-stamped plan/hop
// caches were populated at every intermediate fault state) must answer
// byte-identically to a fresh router built over the same *final* fault
// set, and a FaultOverlay refreshed at every step must equal a
// from-scratch rebuild. This is exactly the stale-state bug class repairs
// introduce: failures only ever shrink the usable link set (so a stale
// "usable" answer is caught by the per-hop checks), while repairs grow it
// — a stale "unusable" answer silently degrades routing instead of
// crashing, and only this equivalence check catches it.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "fault/fault_set.hpp"
#include "fault/overlay.hpp"
#include "routing/ftgcr.hpp"
#include "topology/gaussian_cube.hpp"
#include "util/rng.hpp"

namespace gcube {
namespace {

struct Case {
  Dim n;
  std::uint64_t modulus;
};

class RepairInvalidationTest : public ::testing::TestWithParam<Case> {};

/// Touches the router's caches on a deterministic sample of (src, dst)
/// pairs so later queries can hit version-stamped entries from this state.
void exercise_router(const FtgcrRouter& router, std::uint64_t node_count,
                     Xoshiro256& rng) {
  for (int i = 0; i < 24; ++i) {
    const auto s = static_cast<NodeId>(rng.below(node_count));
    const auto d = static_cast<NodeId>(rng.below(node_count));
    (void)router.plan_shared(s, d);
    (void)router.next_hop(s, d);
  }
}

TEST_P(RepairInvalidationTest, RouterAndOverlayMatchFreshRebuild) {
  const Case c = GetParam();
  const GaussianCube gc(c.n, c.modulus);
  const std::uint64_t nodes = gc.node_count();

  FaultSet live;
  const FtgcrRouter router(gc, live);
  FaultOverlay overlay;
  overlay.attach(gc);
  overlay.refresh(live);

  Xoshiro256 rng(0xfeedULL + c.n);
  // Random fail/repair interleaving. Repairs target *known* faulty
  // elements half the time (so they actually fire) and arbitrary ones
  // otherwise (no-op repairs must be harmless).
  for (int step = 0; step < 120; ++step) {
    const std::uint64_t op = rng.below(6);
    const auto u = static_cast<NodeId>(rng.below(nodes));
    const auto dim = static_cast<Dim>(rng.below(gc.dims()));
    switch (op) {
      case 0:
        live.fail_node(u);
        break;
      case 1:
        live.fail_link(u, dim);
        break;
      case 2:
        if (!live.faulty_nodes().empty()) {
          const auto& v = live.faulty_nodes();
          EXPECT_TRUE(live.repair_node(v[rng.below(v.size())]));
        }
        break;
      case 3:
        if (!live.faulty_links().empty()) {
          const auto& v = live.faulty_links();
          const LinkId l = v[rng.below(v.size())];
          EXPECT_TRUE(live.repair_link(l.lo, l.dim));
        }
        break;
      case 4:
        (void)live.repair_node(u);  // may or may not be faulty
        break;
      default:
        (void)live.repair_link(u, dim);
        break;
    }
    overlay.refresh(live);
    // Populate caches against the *current* intermediate state; these
    // entries must all read as stale once the fault set moves again.
    exercise_router(router, nodes, rng);
  }

  // Fresh state rebuilt from the final membership only.
  FaultSet fresh;
  for (const NodeId v : live.faulty_nodes()) fresh.fail_node(v);
  for (const LinkId l : live.faulty_links()) fresh.fail_link(l.lo, l.dim);
  const FtgcrRouter fresh_router(gc, fresh);
  FaultOverlay fresh_overlay;
  fresh_overlay.attach(gc);
  fresh_overlay.refresh(fresh);

  for (NodeId u = 0; u < nodes; ++u) {
    ASSERT_EQ(overlay.usable_mask(u), fresh_overlay.usable_mask(u))
        << "overlay mask diverged at node " << u;
    ASSERT_EQ(overlay.clean_window(u) & 1, fresh_overlay.clean_window(u) & 1)
        << "clean bit diverged at node " << u;
  }

  Xoshiro256 probe(0xabcdULL + c.n);
  for (int i = 0; i < 400; ++i) {
    const auto s = static_cast<NodeId>(probe.below(nodes));
    const auto d = static_cast<NodeId>(probe.below(nodes));
    const std::shared_ptr<const Route> a = router.plan_shared(s, d);
    const std::shared_ptr<const Route> b = fresh_router.plan_shared(s, d);
    ASSERT_EQ(a == nullptr, b == nullptr)
        << "plan feasibility diverged for " << s << " -> " << d;
    if (a != nullptr) {
      ASSERT_EQ(a->source(), b->source());
      ASSERT_EQ(a->hops(), b->hops())
          << "plan hops diverged for " << s << " -> " << d;
    }
    ASSERT_EQ(router.next_hop(s, d), fresh_router.next_hop(s, d))
        << "next_hop diverged for " << s << " -> " << d;
  }
}

TEST(RepairSemantics, RepairIsIdempotentAndVersioned) {
  FaultSet f;
  EXPECT_FALSE(f.repair_node(3));  // nothing to repair
  f.fail_node(3);
  const std::uint64_t v1 = f.version();
  EXPECT_TRUE(f.repair_node(3));
  EXPECT_FALSE(f.node_faulty(3));
  EXPECT_GT(f.version(), v1);      // caches must go stale
  EXPECT_FALSE(f.repair_node(3));  // second repair is a no-op
  EXPECT_TRUE(f.empty());

  f.fail_link(4, 2);  // the dimension-2 link {0, 4}
  const std::uint64_t v2 = f.version();
  EXPECT_TRUE(f.repair_link(0, 2));  // either endpoint addresses the link
  EXPECT_GT(f.version(), v2);
  EXPECT_FALSE(f.link_marked(4, 2));
  EXPECT_TRUE(f.empty());
}

TEST(RepairSemantics, NodeRepairKeepsIndependentLinkMarks) {
  FaultSet f;
  f.fail_node(5);
  f.fail_link(5, 0);
  EXPECT_TRUE(f.repair_node(5));
  EXPECT_FALSE(f.node_faulty(5));
  EXPECT_TRUE(f.link_marked(5, 0));    // the A/B link error persists
  EXPECT_FALSE(f.link_usable(5, 0));   // so the link is still unusable
  EXPECT_TRUE(f.link_usable(5, 1));    // other dims recovered with the node
  EXPECT_TRUE(f.repair_link(5, 0));
  EXPECT_TRUE(f.empty());
}

std::string case_name(const ::testing::TestParamInfo<Case>& param) {
  return "GC" + std::to_string(param.param.n) + "m" +
         std::to_string(param.param.modulus);
}

INSTANTIATE_TEST_SUITE_P(Cubes, RepairInvalidationTest,
                         ::testing::Values(Case{8, 2}, Case{10, 4}),
                         case_name);

}  // namespace
}  // namespace gcube
