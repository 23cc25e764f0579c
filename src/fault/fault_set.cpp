#include "fault/fault_set.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace gcube {

static_assert(kMaxDimension < 31, "link marks must not reach the node bit");

namespace {

void require_node(NodeId u) {
  GCUBE_REQUIRE(u < pow2(kMaxDimension), "fault node label out of range");
}

void require_link(NodeId u, Dim c) {
  require_node(u);
  GCUBE_REQUIRE(c < kMaxDimension, "fault link dimension out of range");
}

}  // namespace

std::uint32_t& FaultSet::grow_to(NodeId u) {
  if (u >= state_.size()) state_.resize(std::size_t{u} + 1, 0);
  return state_[u];
}

void FaultSet::fail_node(NodeId u) {
  require_node(u);
  std::uint32_t& w = grow_to(u);
  if ((w & kNodeBit) != 0) return;
  w |= kNodeBit;
  faulty_nodes_.push_back(u);
  ++version_;
}

void FaultSet::fail_link(NodeId u, Dim c) {
  require_link(u, c);
  if (link_marked(u, c)) return;
  const LinkId l = LinkId::of(u, c);
  const std::uint32_t bit = std::uint32_t{1} << c;
  grow_to(l.hi()) |= bit;  // hi first: the one growth covers lo as well
  state_[l.lo] |= bit;
  faulty_links_.push_back(l);
  ++version_;
}

bool FaultSet::repair_node(NodeId u) {
  require_node(u);
  if (!node_faulty(u)) return false;
  state_[u] &= ~kNodeBit;
  std::erase(faulty_nodes_, u);
  ++version_;
  return true;
}

bool FaultSet::repair_link(NodeId u, Dim c) {
  require_link(u, c);
  if (!link_marked(u, c)) return false;
  const LinkId l = LinkId::of(u, c);
  const std::uint32_t bit = std::uint32_t{1} << c;
  state_[l.lo] &= ~bit;
  state_[l.hi()] &= ~bit;
  std::erase(faulty_links_, l);
  ++version_;
  return true;
}

void FaultSet::clear() {
  if (empty()) return;
  // Every set bit belongs to a listed fault, so zeroing the words the
  // lists name empties the store without a sweep over the whole array.
  for (const NodeId u : faulty_nodes_) state_[u] = 0;
  for (const LinkId l : faulty_links_) state_[l.lo] = state_[l.hi()] = 0;
  faulty_nodes_.clear();
  faulty_links_.clear();
  ++version_;
}

}  // namespace gcube
