// Packet representation for the network simulator: a structure-of-arrays
// hot/cold split.
//
// The cycle loop touches every in-flight packet once per hop, so the
// fields it reads there are segregated into a 16-byte PacketHot record —
// destination, hop count and a flag byte — four to a cache line in the
// pool's hot lane. Everything else (identity, source, creation cycle, an
// adopted route plan, retry/retransmit counters, the audit hop tail) lives
// in a parallel PacketCold record touched only at injection, near faults
// (plan adoption), on the audited delivery-replay sample, and at delivery
// accounting — never on the fault-free table-steered fast path.
//
// Every packet is injected with no plan. Where the router has no table
// fabric, or the node is within distance 1 of a fault, the packet adopts
// the router's plan from there: PacketCold::plan holds shared ownership of
// an immutable Route produced by the router's plan cache, so adoption is a
// refcount bump instead of a hop-vector copy. Packets in the audit sample
// record each hop they take in a small inline tail buffer, spilling to the
// heap only past kInlineHops (deep detours under dense dynamic faults);
// the simulator replays that tail at delivery as a safety check on the
// deterministic 1-in-64 audited sample. Non-audited packets keep only the
// hop COUNT (PacketHot::hops), eliminating a per-hop store plus potential
// heap spill from the common case.
#pragma once

#include <cstdint>
#include <memory>

#include "routing/route.hpp"
#include "util/bits.hpp"

namespace gcube {

using Cycle = std::uint64_t;

/// Append-only hop sequence with inline storage for the common shallow
/// case. clear() keeps any heap spill capacity, so a pooled packet that
/// detoured deeply once never reallocates again.
class HopTail {
 public:
  static constexpr std::uint32_t kInlineHops = 12;

  void push_back(Dim c) {
    if (size_ < kInlineHops) {
      inline_[size_++] = c;
      return;
    }
    const std::uint32_t spilled = size_ - kInlineHops;
    if (spilled == heap_capacity_) {
      const std::uint32_t grown = heap_capacity_ == 0 ? kInlineHops
                                                      : 2 * heap_capacity_;
      auto bigger = std::make_unique<Dim[]>(grown);
      for (std::uint32_t i = 0; i < spilled; ++i) bigger[i] = heap_[i];
      heap_ = std::move(bigger);
      heap_capacity_ = grown;
    }
    heap_[spilled] = c;
    ++size_;
  }

  [[nodiscard]] Dim operator[](std::uint32_t i) const {
    return i < kInlineHops ? inline_[i] : heap_[i - kInlineHops];
  }
  [[nodiscard]] std::uint32_t size() const noexcept { return size_; }
  void clear() noexcept { size_ = 0; }

 private:
  std::uint32_t size_ = 0;
  std::uint32_t heap_capacity_ = 0;
  Dim inline_[kInlineHops] = {};
  std::unique_ptr<Dim[]> heap_;
};

// PacketHot::flags bits. kPktHasPlan mirrors PacketCold::plan != nullptr so
// the fast path can rule out an adopted plan without touching the cold
// record; kPktAudited precomputes (id & 63) == 0 for the same reason.
inline constexpr std::uint32_t kPktHasPlan = 1u << 0;
inline constexpr std::uint32_t kPktAudited = 1u << 1;

/// The per-hop working set of one in-flight packet: everything the
/// fault-free fast path reads or writes, and nothing else. Aligned to
/// 16 bytes — four packets per cache line in the pool's hot lane, one per
/// 128-bit half of the classify kernel's AVX2 loads.
struct alignas(16) PacketHot {
  NodeId dst = 0;
  /// Hops already taken; arrival is positional (current node == dst).
  std::uint32_t hops = 0;
  std::uint32_t flags = 0;  // kPkt* bits

  /// Whether this packet participates in the delivery-replay audit (and so
  /// records its hops in cold.tail). A deterministic 1-in-64 sample
  /// keyed on the id — a pure function of (creation cycle, source), so the
  /// sample is identical across thread counts — keeps the invariant
  /// continuously exercised without putting an O(path) replay plus a hop
  /// recording store on every packet of the hot path.
  [[nodiscard]] bool audited() const noexcept {
    return (flags & kPktAudited) != 0;
  }
};
static_assert(sizeof(PacketHot) == 16, "hot lane record must stay 16 bytes");

/// Everything else: touched at injection, delivery, fault adjacency, and
/// on the audited sample — off the per-hop fast path by construction.
struct PacketCold {
  std::uint64_t id = 0;
  NodeId src = 0;
  Cycle created = 0;
  /// The router's plan, adopted at a node where the table hop could not be
  /// taken and shared with the router's plan cache and any other packet
  /// on the same (node, dst) pair; null while the packet is table-steered.
  std::shared_ptr<const Route> plan;
  /// Cursor into the adopted plan: the index of its next hop.
  std::uint32_t steer_next = 0;
  /// Transient-fault recovery state (SimConfig::retry_limit /
  /// retry_budget). How many times this packet has been parked in a retry
  /// queue since its last (re)launch, and how many end-to-end source
  /// retransmits it has consumed.
  std::uint16_t retry_attempts = 0;
  std::uint16_t retransmits_used = 0;
  /// Audited packets only: every hop taken, so tail.size() == hops.
  HopTail tail;
};

}  // namespace gcube
