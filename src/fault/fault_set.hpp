// Fault sets: which nodes and links of a network are broken.
//
// Simulation assumption (3) of the paper: a faulty node makes all of its
// incident links faulty. FaultSet therefore distinguishes a link being
// *marked* faulty (an A/B-category link error) from a link being *unusable*
// (marked faulty, or either endpoint node faulty) — routing cares about the
// latter, categorization (fault/categorize.hpp) about the former.
//
// FaultSet is the one store of fault state: traffic, the routers, the
// simulator and the precondition checks all read it directly. It keeps one
// 32-bit word per node label — bit c set iff the dimension-c link at that
// node is marked (set at both endpoints), bit 31 set iff the node itself
// is faulty — so node_faulty and link_marked are one load and link_usable
// is two. The words are not bound to a topology: the array grows on demand
// to the largest label a fail_* call touches (4 bytes per label up to it)
// and never shrinks, and a read past its end answers "not faulty".
// Readers never write, so concurrent readers need no lock as long as no
// mutator runs alongside them (the simulator mutates only at its serial
// points).
#pragma once

#include <cstdint>
#include <vector>

#include "util/bits.hpp"

namespace gcube {

/// Identifies one undirected link by its lower endpoint (bit c cleared) and
/// dimension.
struct LinkId {
  NodeId lo;  // endpoint with bit `dim` == 0
  Dim dim;

  /// Canonical id of the link in dimension c incident to u.
  [[nodiscard]] static LinkId of(NodeId u, Dim c) noexcept {
    return {u & ~(NodeId{1} << c), c};
  }
  [[nodiscard]] NodeId hi() const noexcept { return flip_bit(lo, dim); }
  friend bool operator==(const LinkId&, const LinkId&) = default;
};

class FaultSet {
 public:
  /// Marks node u faulty. Idempotent. Throws std::invalid_argument for
  /// u >= 2^kMaxDimension.
  void fail_node(NodeId u);

  /// Marks the link in dimension c at node u faulty (either endpoint may be
  /// given). Idempotent. Throws std::invalid_argument for
  /// u >= 2^kMaxDimension or c >= kMaxDimension.
  void fail_link(NodeId u, Dim c);

  /// Clears node u's fault mark (a transient fault healed — the node
  /// rebooted). Returns true iff u was faulty. Any link fault marks that
  /// were recorded independently of the node remain in place. Same range
  /// checks as fail_node.
  bool repair_node(NodeId u);

  /// Clears the fault mark of the link in dimension c at node u (either
  /// endpoint may be given). Returns true iff the link was marked. The link
  /// stays unusable while either endpoint node is still faulty. Same range
  /// checks as fail_link.
  bool repair_link(NodeId u, Dim c);

  [[nodiscard]] bool node_faulty(NodeId u) const noexcept {
    return (word(u) & kNodeBit) != 0;
  }

  /// True iff the link itself carries a fault mark (independent of endpoint
  /// node status).
  [[nodiscard]] bool link_marked(NodeId u, Dim c) const noexcept {
    return ((word(u) & kLinkBits) >> c) & 1u;
  }

  /// True iff a packet may traverse the link in dimension c from node u:
  /// the link is not marked faulty and neither endpoint node is faulty.
  [[nodiscard]] bool link_usable(NodeId u, Dim c) const noexcept {
    return (word(u) & (kNodeBit | (std::uint32_t{1} << c))) == 0 &&
           !node_faulty(flip_bit(u, c));
  }

  /// Mutation counter: bumped whenever the fault set actually changes —
  /// failures AND repairs. Consumers that cache fault-dependent state (the
  /// routers' plan caches, the simulator's clean-node bitmap) compare
  /// versions instead of subscribing to callbacks; entries stamped before a
  /// repair go stale exactly like entries stamped before a failure.
  [[nodiscard]] std::uint64_t version() const noexcept { return version_; }

  [[nodiscard]] std::size_t node_fault_count() const {
    return faulty_nodes_.size();
  }
  [[nodiscard]] std::size_t link_fault_count() const {
    return faulty_links_.size();
  }
  [[nodiscard]] bool empty() const {
    return faulty_nodes_.empty() && faulty_links_.empty();
  }

  /// Faulty nodes / marked links in insertion order (deterministic).
  [[nodiscard]] const std::vector<NodeId>& faulty_nodes() const {
    return faulty_nodes_;
  }
  [[nodiscard]] const std::vector<LinkId>& faulty_links() const {
    return faulty_links_;
  }

  void clear();

 private:
  static constexpr std::uint32_t kNodeBit = std::uint32_t{1} << 31;
  static constexpr std::uint32_t kLinkBits = low_mask(kMaxDimension);

  [[nodiscard]] std::uint32_t word(NodeId u) const noexcept {
    return u < state_.size() ? state_[u] : 0;
  }
  /// The word of label u, growing the array to cover it.
  std::uint32_t& grow_to(NodeId u);

  std::vector<NodeId> faulty_nodes_;
  std::vector<LinkId> faulty_links_;
  std::vector<std::uint32_t> state_;  // per label: link marks + kNodeBit
  std::uint64_t version_ = 0;
};

}  // namespace gcube
