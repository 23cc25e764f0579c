// EH embedding tests: the GC crossing structure G(p, q, k) must map to
// EH(|Dim(p)|, |Dim(q)|) as an exact graph isomorphism, and a fault-aware
// crossing searched on GC labels must equal FREH's informed route on EH.
#include <gtest/gtest.h>

#include <set>
#include <tuple>
#include <vector>

#include "fault/fault_set.hpp"
#include "routing/eh_embedding.hpp"
#include "routing/freh.hpp"
#include "routing/hypercube_ft.hpp"
#include "topology/gaussian_tree.hpp"
#include "util/rng.hpp"

namespace gcube {
namespace {

/// Enumerates every node of the structure containing `anchor` by brute
/// force over all GC labels.
std::set<NodeId> structure_nodes(const GaussianCube& gc,
                                 const EhEmbedding& emb) {
  std::set<NodeId> nodes;
  for (NodeId u = 0; u < gc.node_count(); ++u) {
    if (emb.contains(u)) nodes.insert(u);
  }
  return nodes;
}

class EmbeddingTest : public ::testing::TestWithParam<std::tuple<Dim, Dim>> {};

TEST_P(EmbeddingTest, BijectionAndIsomorphism) {
  const auto [n, alpha] = GetParam();
  if (alpha > n) GTEST_SKIP();
  const GaussianCube gc(n, pow2(alpha));
  const GaussianTree tree(alpha);
  // Every tree edge with both classes carrying hypercube dimensions.
  for (NodeId p = 0; p < gc.class_count(); ++p) {
    for (const NodeId q : tree.neighbors(p)) {
      if (p > q) continue;
      if (gc.high_dim_count(p) == 0 || gc.high_dim_count(q) == 0) continue;
      const EhEmbedding emb(gc, p, q, /*anchor=*/p);
      const auto& eh = emb.eh();
      EXPECT_EQ(eh.s(), gc.high_dim_count(p));
      EXPECT_EQ(eh.t(), gc.high_dim_count(q));

      const auto nodes = structure_nodes(gc, emb);
      ASSERT_EQ(nodes.size(), eh.node_count());

      // Bijection: to_eh is injective onto all EH labels; from_eh inverts.
      std::set<NodeId> images;
      for (const NodeId u : nodes) {
        const NodeId x = emb.to_eh(u);
        ASSERT_LT(x, eh.node_count());
        images.insert(x);
        ASSERT_EQ(emb.from_eh(x), u);
        // Class <-> c-bit correspondence.
        ASSERT_EQ(eh.c_bit(x) == 1, gc.ending_class(u) == q);
      }
      ASSERT_EQ(images.size(), eh.node_count());

      // Isomorphism: EH links map exactly onto GC links inside the
      // structure (via to_gc_dim), and the GC link exists.
      for (NodeId x = 0; x < eh.node_count(); ++x) {
        const NodeId u = emb.from_eh(x);
        for (Dim c = 0; c < eh.dims(); ++c) {
          const bool eh_link = eh.has_link(x, c);
          const Dim gc_dim = emb.to_gc_dim(c);
          const NodeId v = flip_bit(u, gc_dim);
          const bool gc_link = gc.has_link(u, gc_dim) && emb.contains(v) &&
                               emb.from_eh(flip_bit(x, c)) == v;
          ASSERT_EQ(eh_link, gc_link)
              << gc.name() << " p=" << p << " q=" << q << " x=" << x
              << " ehdim=" << c;
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, EmbeddingTest,
    ::testing::Combine(::testing::Values<Dim>(5, 6, 7, 8, 9, 10),
                       ::testing::Values<Dim>(1, 2, 3)));

// FTGCR searches its crossings on GC labels, over the nodes that agree with
// the anchor outside Dim(p) | Dim(q) | {c}, in ascending GC dimension order.
// That route must equal Algorithm 4's informed crossing on EH(s, t) hop for
// hop, with the faults carried to EH labels through to_eh and the EH hops
// mapped back through to_gc_dim; where one fails, so must the other. Every
// tree edge of GC(n, 2^alpha), n = 6..9, alpha = 1..3, under two seeded
// sets of node and link faults inside the structure.
TEST(Embedding, GcLabelCrossingEqualsInformedEhRoute) {
  std::size_t routed = 0;
  std::size_t failed = 0;
  for (const Dim n : {6u, 7u, 8u, 9u}) {
    for (const Dim alpha : {1u, 2u, 3u}) {
      const GaussianCube gc(n, pow2(alpha));
      const GaussianTree tree(alpha);
      const auto gc_links = [&gc](NodeId u) { return gc.link_mask(u); };
      Xoshiro256 rng(500 + 4 * n + alpha);
      for (NodeId p = 0; p < gc.class_count(); ++p) {
        for (const NodeId q : tree.neighbors(p)) {
          if (p > q) continue;
          if (gc.high_dim_count(p) == 0 || gc.high_dim_count(q) == 0) continue;
          const EhEmbedding emb(gc, p, q, /*anchor=*/p);
          const ExchangedHypercube& eh = emb.eh();
          const NodeId structure =
              gc.high_dims_mask(p) | gc.high_dims_mask(q) | (p ^ q);
          const auto eh_dim_of = [&](Dim gc_dim) {
            Dim c = 0;
            while (emb.to_gc_dim(c) != gc_dim) ++c;
            return c;
          };
          for (int trial = 0; trial < 2; ++trial) {
            FaultSet gc_faults;
            const std::uint64_t nodes = rng.below(3);
            const std::uint64_t links = 1 + rng.below(3);
            while (gc_faults.node_fault_count() < nodes) {
              gc_faults.fail_node(emb.from_eh(
                  static_cast<NodeId>(rng.below(eh.node_count()))));
            }
            while (gc_faults.link_fault_count() < links) {
              const auto x = static_cast<NodeId>(rng.below(eh.node_count()));
              const auto c = static_cast<Dim>(rng.below(eh.dims()));
              if (eh.has_link(x, c)) {
                gc_faults.fail_link(emb.from_eh(x), emb.to_gc_dim(c));
              }
            }
            FaultSet eh_faults;
            for (const NodeId u : gc_faults.faulty_nodes()) {
              eh_faults.fail_node(emb.to_eh(u));
            }
            for (const LinkId& l : gc_faults.faulty_links()) {
              eh_faults.fail_link(emb.to_eh(l.lo), eh_dim_of(l.dim));
            }
            for (NodeId x = 0; x < eh.node_count(); ++x) {
              const NodeId u = emb.from_eh(x);
              if (gc_faults.node_faulty(u)) continue;  // no walk stands there
              for (NodeId y = 0; y < eh.node_count(); ++y) {
                Route on_gc(u);
                const bool found = fault_aware_search(
                    u, emb.from_eh(y), structure, SearchOrder::kAscending,
                    gc_faults, gc_links, on_gc);
                const RoutingResult on_eh =
                    informed_eh_route(eh, eh_faults, x, y);
                ASSERT_EQ(found, on_eh.delivered())
                    << gc.name() << " p=" << p << " q=" << q << " x=" << x
                    << " y=" << y;
                if (!found) {
                  ++failed;
                  continue;
                }
                ++routed;
                std::vector<Dim> mapped;
                for (const Dim c : on_eh.route->hops()) {
                  mapped.push_back(emb.to_gc_dim(c));
                }
                ASSERT_EQ(on_gc.hops(), mapped)
                    << gc.name() << " p=" << p << " q=" << q << " x=" << x
                    << " y=" << y;
              }
            }
          }
        }
      }
    }
  }
  EXPECT_GT(routed, 0u);
  EXPECT_GT(failed, 0u) << "the faults must cut some pairs off";
}

TEST(Embedding, RejectsDimensionlessClass) {
  const GaussianCube gc(5, 4);  // Dim(1) is empty
  EXPECT_THROW(EhEmbedding(gc, 0, 1, 0), std::invalid_argument);
}

TEST(Embedding, RejectsNonNeighborClasses) {
  const GaussianCube gc(10, 4);
  // Classes 0 and 3 differ in two bits: not a tree edge.
  EXPECT_THROW(EhEmbedding(gc, 0, 3, 0), std::invalid_argument);
}

TEST(Embedding, AnchorSelectsInstance) {
  const GaussianCube gc(10, 2);
  // Dim(0) = {2,4,6,8}, Dim(1) = {1,3,5,7,9}: no fixed bits remain outside
  // the structure, so there is exactly one instance.
  const EhEmbedding emb(gc, 0, 1, 0);
  for (NodeId u = 0; u < gc.node_count(); ++u) {
    EXPECT_TRUE(emb.contains(u));
  }
}

}  // namespace
}  // namespace gcube
