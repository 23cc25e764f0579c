// Fault model tests: FaultSet, A/B/C categorization (Definitions 3-5),
// N(k)/t_k closed form, and the T(GC) tolerance bound (Figure 4).
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <utility>
#include <vector>

#include "fault/categorize.hpp"
#include "fault/fault_set.hpp"
#include "fault/tolerance_bound.hpp"
#include "topology/gaussian_cube.hpp"
#include "util/rng.hpp"

namespace gcube {
namespace {

TEST(FaultSet, NodeFaults) {
  FaultSet f;
  EXPECT_TRUE(f.empty());
  f.fail_node(3);
  f.fail_node(3);  // idempotent
  EXPECT_EQ(f.node_fault_count(), 1u);
  EXPECT_TRUE(f.node_faulty(3));
  EXPECT_FALSE(f.node_faulty(4));
}

TEST(FaultSet, LinkFaultsCanonicalizeEndpoints) {
  FaultSet f;
  f.fail_link(0b101, 1);  // same link as at 0b111
  EXPECT_TRUE(f.link_marked(0b101, 1));
  EXPECT_TRUE(f.link_marked(0b111, 1));
  f.fail_link(0b111, 1);  // idempotent from either end
  EXPECT_EQ(f.link_fault_count(), 1u);
}

TEST(FaultSet, LinkUsableIncludesEndpointNodes) {
  FaultSet f;
  EXPECT_TRUE(f.link_usable(0, 2));
  f.fail_node(0b100);
  EXPECT_FALSE(f.link_usable(0, 2));      // endpoint faulty
  EXPECT_TRUE(f.link_usable(0, 1));       // unrelated link fine
  f.fail_link(0, 1);
  EXPECT_FALSE(f.link_usable(0, 1));
  EXPECT_FALSE(f.link_usable(0b010, 1));  // other endpoint view
}

TEST(FaultSet, ClearResets) {
  FaultSet f;
  f.fail_node(1);
  f.fail_link(0, 0);
  f.clear();
  EXPECT_TRUE(f.empty());
  EXPECT_TRUE(f.link_usable(0, 0));
}

/// A plain model of FaultSet: ordered sets for membership, vectors for
/// the insertion order, and a counter of the mutations that changed it.
struct FaultModel {
  std::set<NodeId> nodes;
  std::set<std::pair<NodeId, Dim>> links;  // (lower endpoint, dim)
  std::vector<NodeId> node_order;
  std::vector<LinkId> link_order;
  std::uint64_t changes = 0;

  static std::pair<NodeId, Dim> key(NodeId u, Dim c) {
    return {u & ~(NodeId{1} << c), c};
  }
  bool marked(NodeId u, Dim c) const { return links.contains(key(u, c)); }
  bool usable(NodeId u, Dim c) const {
    return !marked(u, c) && !nodes.contains(u) &&
           !nodes.contains(flip_bit(u, c));
  }
  void fail_node(NodeId u) {
    if (nodes.insert(u).second) {
      node_order.push_back(u);
      ++changes;
    }
  }
  void fail_link(NodeId u, Dim c) {
    if (links.insert(key(u, c)).second) {
      link_order.push_back(LinkId::of(u, c));
      ++changes;
    }
  }
  bool repair_node(NodeId u) {
    if (nodes.erase(u) == 0) return false;
    std::erase(node_order, u);
    ++changes;
    return true;
  }
  bool repair_link(NodeId u, Dim c) {
    if (links.erase(key(u, c)) == 0) return false;
    std::erase(link_order, LinkId::of(u, c));
    ++changes;
    return true;
  }
  void clear() {
    if (nodes.empty() && links.empty()) return;
    nodes.clear();
    links.clear();
    node_order.clear();
    link_order.clear();
    ++changes;
  }
};

/// Every read of `f` on labels [0, reach) and dimensions [0, dims) must
/// agree with the model, and so must the lists, counts and emptiness.
void expect_matches(const FaultSet& f, const FaultModel& m, NodeId reach,
                    Dim dims) {
  ASSERT_EQ(f.faulty_nodes(), m.node_order);
  ASSERT_EQ(f.faulty_links(), m.link_order);
  ASSERT_EQ(f.node_fault_count(), m.nodes.size());
  ASSERT_EQ(f.link_fault_count(), m.links.size());
  ASSERT_EQ(f.empty(), m.nodes.empty() && m.links.empty());
  for (NodeId u = 0; u < reach; ++u) {
    ASSERT_EQ(f.node_faulty(u), m.nodes.contains(u)) << "u=" << u;
    for (Dim c = 0; c < dims; ++c) {
      ASSERT_EQ(f.link_marked(u, c), m.marked(u, c)) << u << "/" << c;
      ASSERT_EQ(f.link_usable(u, c), m.usable(u, c)) << u << "/" << c;
    }
  }
}

TEST(FaultSet, MatchesSetModelUnderRandomMutations) {
  // Random fail / repair / clear sequences over GC(10,4) labels. Reads
  // reach past the largest label touched (the store grows on demand and
  // answers "not faulty" beyond its end) and past the cube's dimensions.
  const GaussianCube gc(10, 4);
  const auto nodes = static_cast<NodeId>(gc.node_count());
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    Xoshiro256 rng(seed);
    FaultSet f;
    FaultModel m;
    const std::uint64_t base = f.version();
    for (int step = 0; step < 300; ++step) {
      const auto u = static_cast<NodeId>(rng.below(nodes));
      const auto c = static_cast<Dim>(rng.below(gc.dims()));
      const std::uint64_t op = rng.below(20);
      if (op < 5) {
        f.fail_node(u);
        m.fail_node(u);
      } else if (op < 11) {
        f.fail_link(u, c);
        m.fail_link(u, c);
      } else if (op < 14 && !m.node_order.empty()) {
        const NodeId v = m.node_order[rng.below(m.node_order.size())];
        ASSERT_TRUE(f.repair_node(v));
        ASSERT_TRUE(m.repair_node(v));
      } else if (op < 17 && !m.link_order.empty()) {
        const LinkId l = m.link_order[rng.below(m.link_order.size())];
        // Either endpoint names the link.
        const NodeId end = rng.below(2) == 0 ? l.lo : l.hi();
        ASSERT_TRUE(f.repair_link(end, l.dim));
        ASSERT_TRUE(m.repair_link(end, l.dim));
      } else if (op < 18) {
        ASSERT_EQ(f.repair_node(u), m.repair_node(u));
      } else if (op < 19) {
        ASSERT_EQ(f.repair_link(u, c), m.repair_link(u, c));
      } else if (rng.below(4) == 0) {
        f.clear();
        m.clear();
      }
      ASSERT_EQ(f.version() - base, m.changes) << "seed=" << seed;
      if (step % 25 == 0 || step == 299) {
        expect_matches(f, m, 2 * nodes, gc.dims() + 2);
      } else {
        // Between sweeps, check the touched label and its link.
        ASSERT_EQ(f.node_faulty(u), m.nodes.contains(u));
        ASSERT_EQ(f.link_marked(u, c), m.marked(u, c));
        ASSERT_EQ(f.link_usable(u, c), m.usable(u, c));
      }
    }
  }
}

TEST(FaultSet, RejectsOutOfRangeLabelsAndDimensions) {
  FaultSet f;
  f.fail_node(5);
  const std::uint64_t v = f.version();
  const NodeId too_big = NodeId{1} << kMaxDimension;
  EXPECT_THROW(f.fail_node(too_big), std::invalid_argument);
  EXPECT_THROW(f.fail_link(too_big, 0), std::invalid_argument);
  EXPECT_THROW(f.fail_link(0, kMaxDimension), std::invalid_argument);
  EXPECT_THROW(f.fail_link(0, 40), std::invalid_argument);
  EXPECT_THROW((void)f.repair_node(too_big), std::invalid_argument);
  EXPECT_THROW((void)f.repair_link(~NodeId{0}, 0), std::invalid_argument);
  EXPECT_THROW((void)f.repair_link(5, kMaxDimension), std::invalid_argument);
  EXPECT_EQ(f.version(), v);  // a refused mutation changes nothing
  EXPECT_EQ(f.faulty_nodes(), std::vector<NodeId>{5});
  EXPECT_TRUE(f.faulty_links().empty());
  // Reads are never refused: past the store's end nothing is faulty.
  EXPECT_FALSE(f.node_faulty(too_big));
  EXPECT_FALSE(f.link_marked(too_big, kMaxDimension));
  EXPECT_TRUE(f.link_usable(too_big, 0));
}

TEST(LinkId, HiEndpoint) {
  const LinkId l = LinkId::of(0b1011, 1);
  EXPECT_EQ(l.lo, 0b1001u);
  EXPECT_EQ(l.hi(), 0b1011u);
}

TEST(Categorize, LinkFaultsByDimension) {
  const GaussianCube gc(8, 4);  // alpha = 2
  EXPECT_EQ(categorize_link_fault(gc, 0), FaultCategory::B);
  EXPECT_EQ(categorize_link_fault(gc, 1), FaultCategory::B);
  EXPECT_EQ(categorize_link_fault(gc, 2), FaultCategory::A);
  EXPECT_EQ(categorize_link_fault(gc, 7), FaultCategory::A);
}

TEST(Categorize, NodeFaultsByClassDims) {
  // GC(5, 4): alpha = 2, classes 0..3. Dim(k) = {c in [2,4] : c ≡ k mod 4}:
  // Dim(0) = {4}, Dim(1) = {}, Dim(2) = {2}, Dim(3) = {3}.
  const GaussianCube gc(5, 4);
  EXPECT_EQ(gc.high_dim_count(1), 0u);
  EXPECT_EQ(categorize_node_fault(gc, 0b00001), FaultCategory::B);
  EXPECT_EQ(categorize_node_fault(gc, 0b00000), FaultCategory::C);
  EXPECT_EQ(categorize_node_fault(gc, 0b00010), FaultCategory::C);
}

TEST(Categorize, CountsAll) {
  const GaussianCube gc(5, 4);
  FaultSet f;
  f.fail_link(0b00000, 4);  // A (dim 4 >= alpha)
  f.fail_link(0b00000, 0);  // B (tree dim)
  f.fail_node(0b00001);     // B (class 1 has no high dims)
  f.fail_node(0b00010);     // C
  const CategoryCounts counts = categorize_all(gc, f);
  EXPECT_EQ(counts.a, 1u);
  EXPECT_EQ(counts.b, 2u);
  EXPECT_EQ(counts.c, 1u);
  EXPECT_EQ(counts.total(), 4u);
  EXPECT_FALSE(counts.only_a());
}

TEST(Categorize, ToString) {
  EXPECT_EQ(to_string(FaultCategory::A), "A");
  EXPECT_EQ(to_string(FaultCategory::B), "B");
  EXPECT_EQ(to_string(FaultCategory::C), "C");
}

// The closed-form t_k must equal |Dim(k)| by direct enumeration — this is
// the OCR-reconstructed formula of Theorem 3 / Figure 4.
class TkFormulaTest : public ::testing::TestWithParam<std::tuple<Dim, Dim>> {};

TEST_P(TkFormulaTest, ClosedFormMatchesEnumeration) {
  const auto [n, alpha] = GetParam();
  if (alpha > n) GTEST_SKIP();
  const GaussianCube gc(n, pow2(alpha));
  for (NodeId k = 0; k < gc.class_count(); ++k) {
    EXPECT_EQ(t_k_closed_form(n, alpha, k), gc.high_dim_count(k))
        << "n=" << n << " alpha=" << alpha << " k=" << k;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, TkFormulaTest,
    ::testing::Combine(::testing::Values<Dim>(2, 3, 5, 8, 11, 14, 20),
                       ::testing::Values<Dim>(0, 1, 2, 3, 4)));

TEST(ToleranceBound, HypercubeCase) {
  // alpha = 0: one class, t_0 = n, a single GEEC (the whole cube), which
  // tolerates n - 1 faults.
  for (const Dim n : {3u, 5u, 8u}) {
    EXPECT_EQ(max_tolerable_faults(n, 0), n - 1);
  }
}

TEST(ToleranceBound, MatchesPerGeecSum) {
  // Independent recomputation: sum over classes of
  // (#GEECs) * (t_k - 1), using the topology's own Dim(k).
  for (const Dim n : {6u, 9u, 12u}) {
    for (const Dim a : {1u, 2u, 3u}) {
      const GaussianCube gc(n, pow2(a));
      std::uint64_t expected = 0;
      for (NodeId k = 0; k < gc.class_count(); ++k) {
        const Dim tk = gc.high_dim_count(k);
        if (tk >= 1) {
          expected += (pow2(n - a) / pow2(tk)) * (tk - 1);
        }
      }
      EXPECT_EQ(max_tolerable_faults(gc), expected)
          << "n=" << n << " alpha=" << a;
    }
  }
}

TEST(ToleranceBound, GrowsWithDimension) {
  // Figure 4's dominant trend: log2 T grows steadily with n at fixed alpha.
  for (const Dim a : {1u, 2u, 3u, 4u}) {
    std::uint64_t prev = 0;
    for (Dim n = a + 4; n <= 20; ++n) {
      const std::uint64_t t = max_tolerable_faults(n, a);
      EXPECT_GE(t, prev) << "n=" << n << " alpha=" << a;
      prev = t;
    }
  }
}

TEST(ToleranceBound, AlphaTradeoff) {
  // Across alpha the bound is NOT monotone: larger alpha means more,
  // smaller GEECs — each tolerates fewer faults but there are more of
  // them, and for large n the count wins. Pin the tradeoff down at both
  // ends (measured behavior; EXPERIMENTS.md discusses the shape).
  EXPECT_GT(max_tolerable_faults(20, 2), max_tolerable_faults(20, 1));
  EXPECT_GT(max_tolerable_faults(20, 3), max_tolerable_faults(20, 2));
  // For small n the dilution wins: fewer usable dimensions per class.
  EXPECT_LT(max_tolerable_faults(6, 3), max_tolerable_faults(6, 1));
}

TEST(ToleranceBound, Log2Helper) {
  EXPECT_DOUBLE_EQ(log2_max_tolerable_faults(3, 0), 1.0);  // T = 2
  EXPECT_DOUBLE_EQ(log2_max_tolerable_faults(1, 1), -1.0);  // T = 0
}

TEST(ToleranceBound, RejectsInvalidParameters) {
  EXPECT_THROW((void)max_tolerable_faults(3, 4), std::invalid_argument);
}

}  // namespace
}  // namespace gcube
