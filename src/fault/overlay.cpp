#include "fault/overlay.hpp"

#include "util/error.hpp"

namespace gcube {

void FaultOverlay::attach(const Topology& topo) {
  topo_ = &topo;
  faults_ = nullptr;
  clean_.fill(topo.node_count());
}

void FaultOverlay::refresh(const FaultSet& faults) {
  GCUBE_REQUIRE(topo_ != nullptr, "overlay refreshed before attach");
  if (faults_ == &faults && version_seen_ == faults.version()) return;
  faults_ = &faults;
  version_seen_ = faults.version();
  const std::uint64_t nodes = topo_->node_count();
  const Dim n = topo_->dims();
  clean_.fill(nodes);
  // Entries outside the topology belong to some other network: skip them.
  for (const NodeId v : faults.faulty_nodes()) {
    if (v >= nodes) continue;
    // A faulty node kills every existing link of its own, which dirties
    // it and each neighbor (a node with no links stays clean).
    for (Dim c = 0; c < n; ++c) {
      if (!topo_->has_link(v, c)) continue;
      clean_.clear(v);
      clean_.clear(flip_bit(v, c));
    }
  }
  for (const LinkId l : faults.faulty_links()) {
    if (l.dim >= n || l.hi() >= nodes || !topo_->has_link(l.lo, l.dim)) {
      continue;
    }
    clean_.clear(l.lo);
    clean_.clear(l.hi());
  }
}

std::uint32_t FaultOverlay::usable_mask(NodeId u) const {
  std::uint32_t mask = 0;
  for (Dim c = 0; c < topo_->dims(); ++c) {
    const bool usable = faults_ == nullptr || faults_->link_usable(u, c);
    if (usable && topo_->has_link(u, c)) mask |= std::uint32_t{1} << c;
  }
  return mask;
}

}  // namespace gcube
