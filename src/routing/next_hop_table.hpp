// Next-hop fabric: FFGCR's stepwise decision compiled into flat tables.
//
// The paper's two-level decomposition makes the fault-free next hop from
// cur toward dst a pure function of very little state (Theorem 1 / Dim(k)):
//
//  * if any high bit owned by cur's ending class still differs
//    (pending = (cur ^ dst) & Dim(class(cur)) mask), FFGCR fixes it next,
//    lowest dimension first — no table needed;
//  * otherwise the move is a tree edge of T_alpha, and the edge depends
//    only on (class(cur), class(dst), set of classes owning remaining high
//    diff bits) — a key space of 2^alpha * 2^alpha * 2^(2^alpha), shared
//    by ALL nodes. We precompute the first walk edge for every key once at
//    construction via plan_tree_walk.
//
// fault_free_hop(cur, dst) is therefore two or three array loads plus bit
// ops: no hashing, no shared_ptr, no cache-stats bookkeeping — the move
// from route computation to table lookup. Because FFGCR's stepwise
// re-derivation is memoryless (next_hop(cur, dst) is the first hop of a
// fresh plan from cur), the table result is byte-identical to the plan
// machinery's answer; the property tests enforce this.
//
// Supported for alpha <= kMaxAlpha: the tree table is 2^(2alpha + 2^alpha)
// bytes — 16 B at alpha 1, 256 B at alpha 2, 16 KiB at alpha 3 — and grows
// doubly-exponentially beyond that, so larger moduli fall back to the
// plan-based path. alpha == 0 is supported trivially: every differing bit
// is pending (e-cube lsb order) and the tree table is never consulted.
#pragma once

#include <cstdint>
#include <vector>

#include "topology/gaussian_cube.hpp"
#include "util/simd.hpp"

namespace gcube {

class NextHopFabric {
 public:
  /// Largest alpha the tree table is built for (16 KiB at 3).
  static constexpr Dim kMaxAlpha = 3;

  explicit NextHopFabric(const GaussianCube& gc);

  /// False when gc.alpha() > kMaxAlpha; fault_free_hop must not be called.
  [[nodiscard]] bool supported() const noexcept { return supported_; }

  /// First hop of the fault-free FFGCR route cur -> dst. Preconditions:
  /// supported(), cur != dst, both labels in range. The returned dimension
  /// is always an existing link of cur (pending dims are in Dim(class),
  /// tree-edge dims are present at every node of either adjacent class).
  [[nodiscard]] Dim fault_free_hop(NodeId cur, NodeId dst) const noexcept {
    const NodeId diff = cur ^ dst;
    const NodeId k = cur & class_mask_;
    const NodeId pending = diff & high_dims_[k];
    if (pending != 0) return lsb_index(pending);
    // Fold the remaining high diff bits into a class subset: bit c lands on
    // bit (c mod 2^alpha) because chunks are 2^alpha wide and the low alpha
    // bits were cleared first.
    std::uint32_t subset = 0;
    for (NodeId f = diff & high_mask_; f != 0; f >>= class_count_) {
      subset |= static_cast<std::uint32_t>(f) & chunk_mask_;
    }
    return tree_edge_[((((k << alpha_) | (dst & class_mask_))
                        << class_count_) |
                       subset)];
  }

  /// Batched fault_free_hop: out[i] = fault_free_hop(cur[i], dst[i]) for
  /// i < count. Same preconditions per element. The batched advance hands
  /// a whole active-word's worth of (cur, dst) pairs here so the pending
  /// mask + tree-edge loads run in a tight non-branchy loop instead of
  /// interleaved with queue and link bookkeeping.
  void fault_free_hops(std::size_t count, const NodeId* cur,
                       const NodeId* dst, Dim* out) const noexcept;

  /// SIMD-dispatched batch lookup: same contract as fault_free_hops, with
  /// the AVX2 path doing the pending-mask test, tzcnt (via the float
  /// exponent of the isolated low bit — exact for any power of two below
  /// 2^31, and labels stop at kMaxDimension = 26) and both table loads as
  /// 8-lane gathers; the scalar level runs the loop above. Bit-identical
  /// at both levels.
  void fault_free_hops(SimdLevel level, std::size_t count, const NodeId* cur,
                       const NodeId* dst, Dim* out) const noexcept;

  /// Total bytes of precomputed tables (diagnostics / EXPERIMENTS.md).
  [[nodiscard]] std::size_t table_bytes() const noexcept {
    return (tree_edge_.size() - kGatherPad) * sizeof(std::uint8_t) +
           high_dims_.size() * sizeof(NodeId);
  }

 private:
  /// The AVX2 path reads tree_edge_ bytes with 4-byte gathers, so the table
  /// carries this much zero padding past its last real entry.
  static constexpr std::size_t kGatherPad = 3;

  void fault_free_hops_avx2(std::size_t count, const NodeId* cur,
                            const NodeId* dst, Dim* out) const noexcept;

  bool supported_ = false;
  Dim alpha_ = 0;
  std::uint32_t class_count_ = 1;  // 2^alpha
  NodeId class_mask_ = 0;          // class_count_ - 1
  NodeId high_mask_ = 0;           // label bits >= alpha
  std::uint32_t chunk_mask_ = 0;   // low class_count_ bits of a fold chunk
  std::uint32_t fold_iters_ = 0;   // subset-fold rounds: ceil(dims/2^alpha)
  std::vector<NodeId> high_dims_;  // Dim(k) mask per ending class
  // First tree-walk edge per (class(cur), class(dst), owning-class subset),
  // 0xFF where cur == dst would be the only way to reach the key.
  std::vector<std::uint8_t> tree_edge_;
};

}  // namespace gcube
