// Embedding of a Gaussian-Cube crossing structure into an Exchanged
// Hypercube (paper §5, the step enabling Theorem 5).
//
// For two classes p, q adjacent in the Gaussian Tree (differing in exactly
// one tree dimension c), fix every label bit outside
// [0, alpha) ∪ Dim(p) ∪ Dim(q) to an anchor value k. The induced subgraph
// G(p, q, k) of GC is isomorphic to EH(|Dim(p)|, |Dim(q)|):
//
//   GC bits at Dim(p) positions  <->  EH a-part   (movable while in class p)
//   GC bits at Dim(q) positions  <->  EH b-part   (movable while in class q)
//   low alpha bits == p or q     <->  EH c-bit 0 or 1
//   GC links in tree dimension c <->  EH dimension-0 (cross) links
//
// EhEmbedding realizes the bijection in both directions and translates
// dimensions. Dimensions map to dimensions in ascending order within each
// class, so FTGCR searches the structure directly on GC labels and never
// translates (ftgcr.hpp); the tests use this embedding to check that
// search against FREH's informed route in EH coordinates.
#pragma once

#include <vector>

#include "topology/exchanged_hypercube.hpp"
#include "topology/gaussian_cube.hpp"
#include "util/bits.hpp"

namespace gcube {

class EhEmbedding {
 public:
  /// p, q: adjacent classes in T_alpha (differ in exactly one bit < alpha,
  /// and both |Dim| >= 1 — required for EH(s,t)); anchor: any GC node of
  /// class p or q whose fixed bits select the structure instance.
  EhEmbedding(const GaussianCube& gc, NodeId p, NodeId q, NodeId anchor);

  [[nodiscard]] const ExchangedHypercube& eh() const noexcept { return eh_; }
  /// True iff the GC node belongs to this structure instance.
  [[nodiscard]] bool contains(NodeId gc_node) const noexcept;

  /// GC -> EH label. Precondition: contains(gc_node).
  [[nodiscard]] NodeId to_eh(NodeId gc_node) const;

  /// EH -> GC label.
  [[nodiscard]] NodeId from_eh(NodeId eh_node) const;

  /// EH dimension -> GC dimension (0 maps to the tree dimension where p and
  /// q differ).
  [[nodiscard]] Dim to_gc_dim(Dim eh_dim) const;

 private:
  NodeId p_;           // the c-bit-0 class
  NodeId q_;           // the c-bit-1 class
  Dim cross_dim_;      // tree dimension where p and q differ
  NodeId fixed_bits_;  // anchored bits outside the structure's free bits
  NodeId fixed_mask_;
  std::vector<Dim> a_dims_;  // Dim(p), ascending: EH dims t+1 .. t+s
  std::vector<Dim> b_dims_;  // Dim(q), ascending: EH dims 1 .. t
  ExchangedHypercube eh_;
};

}  // namespace gcube
