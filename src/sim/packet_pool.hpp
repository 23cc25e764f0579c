// Flat packet storage for the simulator hot path.
//
// Every per-node FIFO is a growable power-of-two ring buffer of 16-byte
// PacketHot records (sim/packet.hpp), and the cross-shard mailboxes, the
// stranded ring and the parked retries carry the same records, so
// forwarding a packet copies its record into the next ring and a packet's
// per-hop state always lives in memory owned by the shard serving it. Once
// the pools and rings have grown to the run's working set the cycle loop
// allocates nothing: released slots keep their hop-list capacity and rings
// keep their buffers. A packet carries its detour hops itself, so no slot
// holds a reference into the router's plan cache and releasing one touches
// no reference count.
//
// A PacketPool holds cold records only (PacketCold: source, retry
// counters, detour and audit tail), one pool per shard: each thread
// acquires slots for the packets it injects from its own pool, and a
// packet's record names its slot with a pool-tagged PacketRef. The slot is
// dereferenced only at injection, near faults, on the audited sample and
// when a packet holding hop lists leaves; whoever removes a packet clears
// those lists first, so release() is a free-list push that reads no
// record. Concurrency is by phase discipline, not locks: only the owner
// thread grows or releases into its pool, foreign threads only
// *dereference* live slots, and cross-shard releases travel through
// mailboxes drained under the cycle barrier.
//
// Storage is CHUNKED with fixed-capacity chunk directories, so growing
// never moves an existing slot and never reallocates a directory. That
// stability is load-bearing for the fused cycle loop: shard A may be
// injecting (acquiring fresh slots in its pool) while shard B is still
// forwarding a packet A injected and touching its cold slot — legal only
// because a foreign dereference touches memory that acquire() can never
// move. A foreign thread only ever reads directory entries published
// before the last cycle barrier, so the owner writing a NEW entry races
// with nothing.
#pragma once

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "sim/packet.hpp"
#include "util/error.hpp"

namespace gcube {

using PacketIndex = std::uint32_t;

class PacketPool {
 public:
  /// Slots per chunk. 4096 slots per slab amortizes the allocation; the
  /// directory covering the whole 16M-slot reference space is then 4096
  /// pointers — preallocated once, so it never reallocates under a
  /// concurrent foreign dereference.
  static constexpr unsigned kChunkBits = 12;
  static constexpr PacketIndex kChunkSize = PacketIndex{1} << kChunkBits;

  PacketPool() : chunks_((kPacketRefSlotMask + 1) >> kChunkBits) {}

  /// A slot ready for initialization (recycled when possible). The caller
  /// (admit_packet / restore_packet) must initialize every field it relies
  /// on; a released slot comes back with empty hop lists and nothing else
  /// reset. Owner thread only.
  [[nodiscard]] PacketIndex acquire() {
    if (free_.empty()) {
      if ((size_ & (kChunkSize - 1)) == 0) {
        chunks_[size_ >> kChunkBits] =
            std::make_unique<PacketCold[]>(kChunkSize);
      }
      return size_++;
    }
    const PacketIndex i = free_.back();
    free_.pop_back();
    return i;
  }

  /// Returns a slot to the free list, reading no record: the caller has
  /// already cleared its hop lists. Hop-list spill capacity survives for
  /// the next tenant. Owner thread only.
  void release(PacketIndex i) { free_.push_back(i); }

  [[nodiscard]] PacketCold& cold(PacketIndex i) {
    return chunks_[i >> kChunkBits][i & (kChunkSize - 1)];
  }
  [[nodiscard]] const PacketCold& cold(PacketIndex i) const {
    return chunks_[i >> kChunkBits][i & (kChunkSize - 1)];
  }
  [[nodiscard]] std::size_t capacity() const noexcept { return size_; }

 private:
  std::vector<std::unique_ptr<PacketCold[]>> chunks_;  // fixed-size directory
  PacketIndex size_ = 0;  // slots ever handed out (chunks allocated lazily)
  std::vector<PacketIndex> free_;
};

/// FIFO ring buffer with power-of-two capacity, starting at one cache
/// line's worth of entries (four packet records). Grows geometrically on
/// overflow and never shrinks, so a queue that reached its steady-state
/// depth stops allocating. The header is one buffer pointer and 32-bit
/// head, count and capacity fields: 24 bytes per node queue. Two records
/// would be a smaller start, but nearly every node queue outgrows them
/// (at GC(16,4), rate 0.02, all but 65 of 65,536), and each would leave
/// its first buffer behind in the heap.
template <typename T>
class Ring {
 public:
  static constexpr std::uint32_t kInitialCapacity =
      static_cast<std::uint32_t>(
          std::bit_floor(std::max<std::size_t>(1, 64 / sizeof(T))));

  void push_back(T v) {
    if (count_ == cap_) grow();
    buf_[(head_ + count_) & (cap_ - 1)] = v;
    ++count_;
  }
  /// Precondition for front()/pop_front(): !empty(). The mutable front
  /// lets a consumer edit the entry in place before it moves on.
  [[nodiscard]] T& front() {
    assert(count_ > 0);
    return buf_[head_];
  }
  [[nodiscard]] const T& front() const {
    assert(count_ > 0);
    return buf_[head_];
  }
  /// The i-th element from the front (i < size()). Lets a consumer drain a
  /// whole ring as one indexed batch + clear() instead of size() many
  /// front()/pop_front() pairs.
  [[nodiscard]] const T& at(std::size_t i) const {
    assert(i < count_);
    return buf_[(head_ + i) & (cap_ - 1)];
  }
  void pop_front() {
    assert(count_ > 0);
    head_ = (head_ + 1) & (cap_ - 1);
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
    GCUBE_REQUIRE(cap_ < (std::uint32_t{1} << 31),
                  "ring buffer would exceed 2^31 entries");
    const std::uint32_t grown = cap_ == 0 ? kInitialCapacity : 2 * cap_;
    auto bigger = std::make_unique<T[]>(grown);
    for (std::uint32_t i = 0; i < count_; ++i) {
      bigger[i] = buf_[(head_ + i) & (cap_ - 1)];
    }
    buf_ = std::move(bigger);
    head_ = 0;
    cap_ = grown;
  }

  std::unique_ptr<T[]> buf_;  // cap_ entries (null while cap_ == 0)
  std::uint32_t head_ = 0;
  std::uint32_t count_ = 0;
  std::uint32_t cap_ = 0;  // a power of two, or 0
};

}  // namespace gcube
