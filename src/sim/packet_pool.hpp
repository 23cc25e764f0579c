// Flat packet storage for the simulator hot path.
//
// Packets live in pools and every per-node FIFO is a growable power-of-two
// ring buffer of packet references. Forwarding a packet moves one 32-bit
// reference between rings instead of shuffling a record through std::deque
// nodes, and once the pools and rings have grown to the run's working set
// the cycle loop allocates nothing: released slots keep their hop-list
// capacity and rings keep their slabs. A packet carries its detour hops
// itself, so no slot holds a reference into the router's plan cache and
// releasing one touches no reference count.
//
// Storage is structure-of-arrays at the slot level: every slot index i
// names a 16-byte PacketHot record in the hot lane AND a PacketCold record
// in the cold lane. The cycle loop's per-hop pass touches only hot(i) —
// at GC(10,4)'s steady state a few hundred in-flight packets fit in a few
// KB of L1 — while cold(i) is dereferenced only at injection, delivery,
// fault adjacency, and on the audited sample.
//
// The node-sharded simulator keeps one pool per shard (each thread
// allocates from its own slabs) and tags every reference with its owning
// pool in the top bits, so a packet forwarded across a shard boundary can
// still be dereferenced and, eventually, returned home. Concurrency is by
// phase discipline, not locks: only the owner thread grows or releases
// into its pool, foreign threads only *dereference* live slots, and
// cross-shard releases travel through mailboxes drained under the cycle
// barrier.
//
// Storage is CHUNKED with fixed-capacity chunk directories, so growing
// never moves an existing slot and never reallocates a directory. That
// stability is load-bearing for the fused cycle loop: shard A may be
// injecting (acquiring fresh slots in its pool) while shard B is still
// forwarding and dereferencing A's live slots — legal only because a
// foreign dereference touches memory that acquire() can never move. A
// foreign thread only ever reads directory entries published before the
// last cycle barrier, so the owner writing a NEW entry races with nothing.
#pragma once

#include <cassert>
#include <cstdint>
#include <memory>
#include <vector>

#include "sim/packet.hpp"

namespace gcube {

using PacketIndex = std::uint32_t;

/// Pool-tagged packet reference: owning pool shard in the top bits, slot
/// index below. 8 shard bits bound the simulator at 256 worker shards and
/// 16M in-flight packets per shard — both far beyond any simulated cell.
using PacketRef = std::uint32_t;

inline constexpr unsigned kPacketRefShardShift = 24;
inline constexpr PacketRef kPacketRefSlotMask =
    (PacketRef{1} << kPacketRefShardShift) - 1;
inline constexpr unsigned kMaxPoolShards = 1u << (32 - kPacketRefShardShift);

[[nodiscard]] constexpr PacketRef make_packet_ref(unsigned shard,
                                                  PacketIndex slot) noexcept {
  return (static_cast<PacketRef>(shard) << kPacketRefShardShift) | slot;
}
[[nodiscard]] constexpr unsigned packet_ref_shard(PacketRef r) noexcept {
  return r >> kPacketRefShardShift;
}
[[nodiscard]] constexpr PacketIndex packet_ref_slot(PacketRef r) noexcept {
  return r & kPacketRefSlotMask;
}

class PacketPool {
 public:
  /// Slots per chunk. 4096 slots per slab amortizes the allocation; each
  /// directory covering the whole 16M-slot reference space is then 4096
  /// pointers — preallocated once, so it never reallocates under a
  /// concurrent foreign dereference.
  static constexpr unsigned kChunkBits = 12;
  static constexpr PacketIndex kChunkSize = PacketIndex{1} << kChunkBits;

  PacketPool()
      : hot_chunks_((kPacketRefSlotMask + 1) >> kChunkBits),
        cold_chunks_((kPacketRefSlotMask + 1) >> kChunkBits) {}

  /// A slot ready for initialization (recycled when possible). The caller
  /// (admit_packet / restore_packet) must initialize EVERY hot and cold
  /// field it relies on — release() clears only the flag word and the hop
  /// lists. Owner thread only.
  [[nodiscard]] PacketIndex acquire() {
    if (free_.empty()) {
      if ((size_ & (kChunkSize - 1)) == 0) {
        hot_chunks_[size_ >> kChunkBits] =
            std::make_unique<PacketHot[]>(kChunkSize);
        cold_chunks_[size_ >> kChunkBits] =
            std::make_unique<PacketCold[]>(kChunkSize);
      }
      return size_++;
    }
    const PacketIndex i = free_.back();
    free_.pop_back();
    return i;
  }

  /// Returns a slot to the free list. Deliberately minimal: the cold
  /// record is touched only when the flag word says it holds detour or
  /// tail hops — a delivered table-steered packet releases with a single
  /// hot-lane store. Hop-list spill capacity survives for the next tenant.
  /// Owner thread only.
  void release(PacketIndex i) {
    PacketHot& h = hot(i);
    if ((h.flags & (kPktDetour | kPktAudited)) != 0) {
      PacketCold& c = cold(i);
      c.detour.clear();
      c.tail.clear();
    }
    h.flags = 0;
    free_.push_back(i);
  }

  [[nodiscard]] PacketHot& hot(PacketIndex i) {
    return hot_chunks_[i >> kChunkBits][i & (kChunkSize - 1)];
  }
  [[nodiscard]] const PacketHot& hot(PacketIndex i) const {
    return hot_chunks_[i >> kChunkBits][i & (kChunkSize - 1)];
  }
  [[nodiscard]] PacketCold& cold(PacketIndex i) {
    return cold_chunks_[i >> kChunkBits][i & (kChunkSize - 1)];
  }
  [[nodiscard]] const PacketCold& cold(PacketIndex i) const {
    return cold_chunks_[i >> kChunkBits][i & (kChunkSize - 1)];
  }
  [[nodiscard]] std::size_t capacity() const noexcept { return size_; }

 private:
  // Fixed-size directories; hot and cold lanes grow in lockstep.
  std::vector<std::unique_ptr<PacketHot[]>> hot_chunks_;
  std::vector<std::unique_ptr<PacketCold[]>> cold_chunks_;
  PacketIndex size_ = 0;  // slots ever handed out (chunks allocated lazily)
  std::vector<PacketIndex> free_;
};

/// FIFO ring buffer with power-of-two capacity. Grows geometrically on
/// overflow and never shrinks, so a queue that reached its steady-state
/// depth stops allocating. T must be trivially copyable-ish (packet refs,
/// mailbox entries).
template <typename T>
class Ring {
 public:
  void push_back(T v) {
    if (count_ == buf_.size()) grow();
    buf_[(head_ + count_) & (buf_.size() - 1)] = v;
    ++count_;
  }
  /// Precondition for front()/pop_front(): !empty().
  [[nodiscard]] T front() const {
    assert(count_ > 0);
    return buf_[head_];
  }
  /// The i-th element from the front (i < size()). Lets a consumer drain a
  /// whole ring as one indexed batch + clear() instead of size() many
  /// front()/pop_front() pairs.
  [[nodiscard]] T at(std::size_t i) const {
    assert(i < count_);
    return buf_[(head_ + i) & (buf_.size() - 1)];
  }
  void pop_front() {
    assert(count_ > 0);
    head_ = (head_ + 1) & (buf_.size() - 1);
    --count_;
  }
  [[nodiscard]] std::size_t size() const noexcept { return count_; }
  [[nodiscard]] bool empty() const noexcept { return count_ == 0; }
  void clear() noexcept {
    head_ = 0;
    count_ = 0;
  }

 private:
  void grow() {
    const std::size_t grown = buf_.empty() ? 8 : 2 * buf_.size();
    std::vector<T> bigger(grown);
    for (std::size_t i = 0; i < count_; ++i) {
      bigger[i] = buf_[(head_ + i) & (buf_.size() - 1)];
    }
    buf_ = std::move(bigger);
    head_ = 0;
  }

  std::vector<T> buf_;  // power-of-two size (or empty)
  std::size_t head_ = 0;
  std::size_t count_ = 0;
};

}  // namespace gcube
