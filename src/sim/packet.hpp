// Packet representation for the network simulator: a 16-byte record that
// travels by value, and a cold record that stays where it was made.
//
// The cycle loop touches every in-flight packet once per hop, so the
// fields it reads or writes there form a 16-byte PacketHot record —
// destination, creation cycle, hop count and flags packed in one word, and
// the reference of the packet's cold record — and the simulator moves the
// record itself: node queues, cross-shard mailboxes, the stranded ring and
// parked retries hold records, not references to them. A packet's per-hop
// state therefore always sits in memory owned by the shard serving it; a
// packet that crosses a shard boundary is copied into a mailbox, and no
// hop writes a line another core wrote last. Everything else (source, a
// carried detour, retry/retransmit counters, the audit hop tail) lives in
// a PacketCold record in the injecting shard's PacketPool, touched only at
// injection, near faults, on the audited delivery-replay sample and
// when a packet with hop lists leaves — never on the fault-free
// table-steered fast path, whose delivery reads the record alone.
//
// Every packet is injected with no routing state. At a node within
// distance 1 of a fault, a packet whose fault-free table route to its
// destination is still clean enters *table mode* (kPktTable): it keeps
// taking table hops, checking each one only where a fault is near.
// Otherwise it asks the router for a plan and carries only the plan's
// off-table prefix — the hops up to its last one that differs from the
// table hop — as a detour (kPktDetour); once the detour is used up, the
// rest of the plan is the table walk, so the packet enters table mode. A
// router with no supported table fabric gives no table walk to rejoin, so
// its packets carry the whole plan. Packets hold no reference into the
// router's plan cache.
//
// Packets in the audit sample record each hop they take in the same kind
// of small inline hop list, spilling to the heap only past kInlineHops
// (deep detours under dense dynamic faults); the simulator replays that
// tail at delivery as a safety check on the deterministic 1-in-64 audited
// sample. Non-audited packets keep only the hop COUNT (in the record),
// eliminating a per-hop store plus potential heap spill from the common
// case.
#pragma once

#include <cstdint>
#include <memory>

#include "util/bits.hpp"

namespace gcube {

using Cycle = std::uint64_t;

/// A queue of hop dimensions, stored one byte each (dimensions are below
/// kMaxDimension), with inline storage for the common shallow case:
/// append at the back, consume at the front. clear() keeps any heap spill
/// capacity, so a pooled packet that detoured deeply once never
/// reallocates again.
class HopList {
 public:
  static constexpr std::uint32_t kInlineHops = 12;
  static_assert(kMaxDimension <= 256, "dimensions must fit in a byte");

  void push_back(Dim c) {
    const auto hop = static_cast<std::uint8_t>(c);
    if (end_ < kInlineHops) {
      inline_[end_++] = hop;
      return;
    }
    const std::uint32_t spilled = end_ - kInlineHops;
    if (spilled == heap_capacity_) {
      const std::uint32_t grown = heap_capacity_ == 0 ? kInlineHops
                                                      : 2 * heap_capacity_;
      auto bigger = std::make_unique<std::uint8_t[]>(grown);
      for (std::uint32_t i = 0; i < spilled; ++i) bigger[i] = heap_[i];
      heap_ = std::move(bigger);
      heap_capacity_ = grown;
    }
    heap_[spilled] = hop;
    ++end_;
  }

  /// The i-th hop not yet consumed (i < size()).
  [[nodiscard]] Dim operator[](std::uint32_t i) const {
    return at(begin_ + i);
  }
  /// Precondition for front()/pop_front(): !empty().
  [[nodiscard]] Dim front() const { return at(begin_); }
  /// Consumes the front hop; the list that empties restarts at slot 0, so
  /// the next pushes land inline again.
  void pop_front() noexcept {
    if (++begin_ == end_) begin_ = end_ = 0;
  }
  [[nodiscard]] std::uint32_t size() const noexcept { return end_ - begin_; }
  [[nodiscard]] bool empty() const noexcept { return begin_ == end_; }
  void clear() noexcept { begin_ = end_ = 0; }

 private:
  [[nodiscard]] Dim at(std::uint32_t j) const {
    return j < kInlineHops ? inline_[j] : heap_[j - kInlineHops];
  }

  std::uint32_t begin_ = 0;  // first hop not yet consumed
  std::uint32_t end_ = 0;    // hops ever pushed since the last clear()
  std::uint32_t heap_capacity_ = 0;
  std::uint8_t inline_[kInlineHops] = {};
  std::unique_ptr<std::uint8_t[]> heap_;
};

/// Pool-tagged reference to a packet's cold record: owning pool shard in
/// the top bits, slot index below. 8 shard bits bound the simulator at 256
/// worker shards and 16M in-flight packets per shard — both far beyond any
/// simulated cell.
using PacketRef = std::uint32_t;

inline constexpr unsigned kPacketRefShardShift = 24;
inline constexpr PacketRef kPacketRefSlotMask =
    (PacketRef{1} << kPacketRefShardShift) - 1;
inline constexpr unsigned kMaxPoolShards = 1u << (32 - kPacketRefShardShift);

[[nodiscard]] constexpr PacketRef make_packet_ref(unsigned shard,
                                                  std::uint32_t slot) noexcept {
  return (static_cast<PacketRef>(shard) << kPacketRefShardShift) | slot;
}
[[nodiscard]] constexpr unsigned packet_ref_shard(PacketRef r) noexcept {
  return r >> kPacketRefShardShift;
}
[[nodiscard]] constexpr std::uint32_t packet_ref_slot(PacketRef r) noexcept {
  return r & kPacketRefSlotMask;
}

// Flag bits of PacketHot::hop_flags, so the fast path can decide without
// touching the cold record. kPktDetour mirrors !PacketCold::detour.empty();
// kPktTable marks table mode (never set together with kPktDetour, and only
// when the router has a supported fabric); kPktAudited precomputes
// (id & 63) == 0 for the packet id created * node_count + src.
inline constexpr std::uint32_t kPktDetour = 1u << 0;
inline constexpr std::uint32_t kPktAudited = 1u << 1;
inline constexpr std::uint32_t kPktTable = 1u << 2;

/// PacketHot::hop_flags keeps the flags in its low kHopShift bits and the
/// hop count above them, so adding kOneHop takes one hop and the record
/// holds hop counts below kHopCountLimit (2^24). The simulator's livelock
/// guard is therefore below that bound as well.
inline constexpr unsigned kHopShift = 8;
inline constexpr std::uint32_t kPktFlagMask = (1u << kHopShift) - 1;
inline constexpr std::uint32_t kOneHop = 1u << kHopShift;
inline constexpr std::uint32_t kHopCountLimit = 1u << (32 - kHopShift);

/// The per-hop working set of one in-flight packet: everything the
/// fault-free fast path reads or writes, and nothing else. The simulator
/// moves it by value. Aligned to 16 bytes: four records per cache line of
/// a queue ring, two per 256-bit load of the classify kernel. The fields
/// have no default initializers, so the harvest window serve_word declares
/// for 64 records costs no stores; every record is built whole.
struct alignas(16) PacketHot {
  NodeId dst;
  /// Creation cycle. NetworkSim refuses runs of 2^32 cycles or more, so
  /// 32 bits hold it.
  std::uint32_t created;
  /// (hops << kHopShift) | kPkt* flags. Hops already taken; arrival is
  /// positional (current node == dst). With the count above the flags,
  /// "hops < limit" is the one compare hop_flags < (limit << kHopShift).
  std::uint32_t hop_flags;
  /// This packet's PacketCold slot, in the pool of the shard that
  /// injected it.
  PacketRef cold;

  [[nodiscard]] std::uint32_t hops() const noexcept {
    return hop_flags >> kHopShift;
  }
  /// Whether this packet participates in the delivery-replay audit (and so
  /// records its hops in cold.tail). A deterministic 1-in-64 sample
  /// keyed on the id — a pure function of (creation cycle, source), so the
  /// sample is identical across thread counts — keeps the invariant
  /// continuously exercised without putting an O(path) replay plus a hop
  /// recording store on every packet of the hot path.
  [[nodiscard]] bool audited() const noexcept {
    return (hop_flags & kPktAudited) != 0;
  }
};
static_assert(sizeof(PacketHot) == 16, "the packet record must stay 16 bytes");

/// Everything else: touched at injection, near faults, on the audited
/// sample and when a packet holding hop lists leaves — off the per-hop
/// fast path by construction. A packet's id is not stored: it is
/// created * node_count + src, derived where needed.
struct PacketCold {
  NodeId src = 0;
  /// Transient-fault recovery state (SimConfig::retry_limit /
  /// retry_budget). How many times this packet has been parked in a retry
  /// queue since its last (re)launch, and how many end-to-end source
  /// retransmits it has consumed.
  std::uint16_t retry_attempts = 0;
  std::uint16_t retransmits_used = 0;
  /// The detour hops still to take, front first: the off-table prefix of
  /// the plan adopted at a fault-adjacent node (the whole plan without a
  /// fabric). Empty unless kPktDetour is set.
  HopList detour;
  /// Audited packets only: every hop taken, so tail.size() == hops.
  HopList tail;
};

}  // namespace gcube
