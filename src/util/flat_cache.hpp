// Sharded, open-addressed, version-stamped cache for routing memoization.
//
// The routers memoize fault-dependent results (stepwise next hops, whole
// source routes) keyed on packed 64-bit node pairs. The original
// implementation used one std::unordered_map behind one std::mutex, which
// serialized every parallel sweep on the router's cache; this replacement
// shards the key space across independent open-addressed tables (raikv's
// CubeRoute flat-storage idiom) so concurrent lookups only contend when
// they land on the same shard.
//
// Staleness is handled by stamping, not clearing: every entry records the
// FaultSet::version() it was computed under, a lookup with a newer version
// treats the entry as a miss, and the following insert refreshes the slot
// in place. No global invalidation pass exists, so a version bump costs
// nothing up front and the table stays allocation-free once warm.
//
// Every lookup is tallied per shard (hit / miss / stale, under the shard
// mutex it already holds) and aggregated by stats(), so cache-effectiveness
// claims are measured rather than asserted. The counters are diagnostics:
// under concurrent use two threads can both miss on a key one of them is
// about to fill, so totals may differ run to run even when the cached
// values — which are pure functions of (key, version) — do not.
#pragma once

#include <array>
#include <cstdint>
#include <mutex>
#include <optional>
#include <utility>
#include <vector>

#include "util/cache_stats.hpp"
#include "util/rng.hpp"

namespace gcube {

/// Fixed-shard concurrent map from uint64 keys to copyable values, with a
/// per-entry version stamp. The all-ones key is reserved as the empty-slot
/// sentinel; packed (node, node) keys never reach it (node labels are at
/// most 26 bits). Values should be cheap to copy (a Dim, a shared_ptr).
template <typename V>
class ShardedVersionCache {
 public:
  /// The cached value, if `key` is present with exactly this version.
  [[nodiscard]] std::optional<V> find(std::uint64_t key,
                                      std::uint64_t version) const {
    Shard& shard = shard_for(key);
    const std::lock_guard<std::mutex> lock(shard.mu);
    if (shard.slots.empty()) {
      ++shard.stats.misses;
      return std::nullopt;
    }
    const std::size_t mask = shard.slots.size() - 1;
    for (std::size_t i = probe_start(key) & mask;; i = (i + 1) & mask) {
      const Entry& e = shard.slots[i];
      if (e.key == kEmptyKey) {
        ++shard.stats.misses;
        return std::nullopt;
      }
      if (e.key == key) {
        if (e.version != version) {
          ++shard.stats.stale;  // superseded entry: recompute and refresh
          return std::nullopt;
        }
        ++shard.stats.hits;
        return e.value;
      }
    }
  }

  /// Inserts or refreshes `key` with the given version stamp. An existing
  /// entry for the key is overwritten in place (the only writer of a key
  /// after a version bump is the thread that just recomputed it; last
  /// writer wins is acceptable because all writers compute identical
  /// values for identical (key, version) pairs).
  void insert(std::uint64_t key, std::uint64_t version, V value) {
    Shard& shard = shard_for(key);
    const std::lock_guard<std::mutex> lock(shard.mu);
    if (shard.slots.empty()) shard.slots.resize(kInitialSlots);
    if ((shard.used + 1) * 4 > shard.slots.size() * 3) grow(shard);
    place(shard, key, version, std::move(value));
  }

  /// Cumulative lookup counters since construction, summed across shards.
  [[nodiscard]] CacheStats stats() const {
    CacheStats total;
    for (Shard& shard : shards_) {
      const std::lock_guard<std::mutex> lock(shard.mu);
      total += shard.stats;
    }
    return total;
  }

 private:
  static constexpr std::uint64_t kEmptyKey = ~std::uint64_t{0};
  static constexpr std::size_t kShardBits = 6;  // 64 shards
  static constexpr std::size_t kInitialSlots = 64;  // per shard, power of 2

  struct Entry {
    std::uint64_t key = kEmptyKey;
    std::uint64_t version = 0;
    V value{};
  };
  struct Shard {
    mutable std::mutex mu;
    std::vector<Entry> slots;  // power-of-two size; empty until first use
    std::size_t used = 0;      // occupied slots, any version
    CacheStats stats;          // lookup counters, guarded by mu
  };

  // Packed node pairs are highly regular, so the raw key is scrambled
  // (mix64, the splitmix finalizer) before it picks a shard and a slot.
  [[nodiscard]] Shard& shard_for(std::uint64_t key) const noexcept {
    return shards_[mix64(key) & ((std::size_t{1} << kShardBits) - 1)];
  }
  /// Slot probing uses the bits the shard choice did not consume.
  [[nodiscard]] static constexpr std::size_t probe_start(
      std::uint64_t key) noexcept {
    return static_cast<std::size_t>(mix64(key) >> kShardBits);
  }

  static void place(Shard& shard, std::uint64_t key, std::uint64_t version,
                    V value) {
    const std::size_t mask = shard.slots.size() - 1;
    for (std::size_t i = probe_start(key) & mask;; i = (i + 1) & mask) {
      Entry& e = shard.slots[i];
      if (e.key == key) {
        e.version = version;
        e.value = std::move(value);
        return;
      }
      if (e.key == kEmptyKey) {
        e.key = key;
        e.version = version;
        e.value = std::move(value);
        ++shard.used;
        return;
      }
    }
  }

  static void grow(Shard& shard) {
    std::vector<Entry> old = std::move(shard.slots);
    shard.slots.assign(old.size() * 2, Entry{});
    shard.used = 0;
    for (Entry& e : old) {
      if (e.key != kEmptyKey) {
        place(shard, e.key, e.version, std::move(e.value));
      }
    }
  }

  mutable std::array<Shard, (std::size_t{1} << kShardBits)> shards_;
};

/// Packs an ordered node pair into a cache key (labels are < 2^26, so the
/// pair never collides with the reserved empty sentinel).
[[nodiscard]] constexpr std::uint64_t pack_node_pair(
    std::uint32_t a, std::uint32_t b) noexcept {
  return (static_cast<std::uint64_t>(a) << 32) | b;
}

}  // namespace gcube
