// Fault overlay: the simulator's clean-node bitmap over a FaultSet.
//
// Bit u of the bitmap is set iff node u is farther than distance 1 from
// every faulty node and has no incident marked link, i.e. every existing
// link of it is usable, so a precomputed fault-free hop can be taken there
// with no per-link check at all. The simulator's classify kernels read it
// 64 nodes at a time through clean_window. Link usability itself is not
// cached here: every reader asks FaultSet::link_usable, which is already
// one dense load per endpoint.
//
// refresh rebuilds the bitmap from the fault set's insertion-order lists
// whenever FaultSet::version() has moved (or a different set is passed),
// and does nothing otherwise. An overlay has no lock of its own: its owner
// serializes refreshes against readers. The simulator refreshes only at
// its serial points (run start and after fault-schedule application), and
// worker threads read the bitmap between those points.
#pragma once

#include <cstdint>

#include "fault/fault_set.hpp"
#include "topology/topology.hpp"
#include "util/bitmap.hpp"

namespace gcube {

class FaultOverlay {
 public:
  /// Sizes the bitmap for `topo` and resets it to the fault-free state
  /// (every node clean). The topology must outlive the overlay.
  void attach(const Topology& topo);

  /// Brings the bitmap up to date with `faults`, which must outlive every
  /// later read of usable_mask. No-op when neither the set nor its version
  /// changed since the last refresh.
  void refresh(const FaultSet& faults);

  /// Bit c set iff the dimension-c link exists at u and is usable under
  /// the fault set of the last refresh.
  [[nodiscard]] std::uint32_t usable_mask(NodeId u) const;

  /// 64 nodes' clean bits starting at an arbitrary base node (bit i = node
  /// base + i), for shards whose node range is not word-aligned.
  [[nodiscard]] std::uint64_t clean_window(NodeId base) const noexcept {
    return clean_.window(base);
  }

 private:
  const Topology* topo_ = nullptr;
  const FaultSet* faults_ = nullptr;  // the set of the last refresh
  std::uint64_t version_seen_ = 0;
  NodeBitmap clean_;
};

}  // namespace gcube
