// Exchanged Hypercube EH(s, t) — paper Definition 7.
//
// EH(s, t) has 2^(s+t+1) nodes labeled  a_{s-1}..a_0 | b_{t-1}..b_0 | c :
// bit 0 is the "exchange" bit c, bits [1, t] are the b-part, bits
// [t+1, t+s] are the a-part. Links:
//   * every node has a dimension-0 link (flipping c);
//   * nodes with c == 1 have links in the b-part dimensions [1, t];
//   * nodes with c == 0 have links in the a-part dimensions [t+1, t+s].
// So the c==0 nodes form 2^t disjoint s-dimensional hypercubes B_s(k) (one
// per b-part value k), the c==1 nodes form 2^s disjoint t-dimensional
// hypercubes B_t(l) (one per a-part value l), and dimension-0 links stitch
// them together.
//
// In the paper this is the substrate of Theorem 5: for two classes p, q
// adjacent in the Gaussian Tree, the subgraph of GC induced by the pair
// (with all other label bits fixed) is isomorphic to EH(|Dim(p)|, |Dim(q)|),
// which is where B/C-category faults are routed around (algorithm FREH).
#pragma once

#include <string>

#include "topology/topology.hpp"
#include "util/bits.hpp"

namespace gcube {

class ExchangedHypercube final : public Topology {
 public:
  /// Requires s >= 1, t >= 1, s + t + 1 <= kMaxDimension.
  ExchangedHypercube(Dim s, Dim t);

  [[nodiscard]] Dim dims() const noexcept override { return s_ + t_ + 1; }
  [[nodiscard]] bool has_link(NodeId u, Dim c) const noexcept override {
    if (c == 0) return true;
    return (c <= t_) == (bit(u, 0) == 1);
  }
  [[nodiscard]] std::string name() const override;

  [[nodiscard]] Dim s() const noexcept { return s_; }
  [[nodiscard]] Dim t() const noexcept { return t_; }

  /// The dimensions of u's links as a bitmask: the cross link, plus the
  /// b-part when c == 1 or the a-part when c == 0.
  [[nodiscard]] NodeId link_mask(NodeId u) const noexcept {
    return c_bit(u) == 1 ? low_mask(t_ + 1)
                         : (low_mask(dims()) & ~low_mask(t_ + 1)) | 1u;
  }

  /// The exchange bit c of node u.
  [[nodiscard]] std::uint32_t c_bit(NodeId u) const noexcept {
    return bit(u, 0);
  }
  /// The b-part (t bits) of node u.
  [[nodiscard]] NodeId b_part(NodeId u) const noexcept {
    return low_bits(u >> 1, t_);
  }
  /// The a-part (s bits) of node u.
  [[nodiscard]] NodeId a_part(NodeId u) const noexcept {
    return low_bits(u >> (t_ + 1), s_);
  }
  /// Rebuild a label from its parts.
  [[nodiscard]] NodeId make_node(NodeId a, NodeId b, std::uint32_t c) const noexcept {
    return (a << (t_ + 1)) | (b << 1) | (c & 1u);
  }

 private:
  Dim s_;
  Dim t_;
};

}  // namespace gcube
