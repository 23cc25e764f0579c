// Dense bitset over a contiguous index range with an ascending-order scan.
//
// Backs the simulator's active-set worklist: each shard keeps one bitmap
// over its own node range (bit i = node begin + i), so membership updates
// are single-word OR/AND-NOT and the per-cycle scan costs one countr_zero
// per live bit plus one load per 64-bit word — O(active) instead of
// O(nodes). Shards never share a bitmap, so no word is written by two
// threads.
#pragma once

#include <bit>
#include <cstdint>
#include <vector>

namespace gcube {

class NodeBitmap {
 public:
  /// Sizes the bitmap for indices [0, bits) and clears every bit.
  void reset(std::uint64_t bits) { words_.assign((bits + 63) / 64, 0); }
  /// Sizes the bitmap for indices [0, bits) and sets every bit; bits past
  /// the end of the last word stay clear.
  void fill(std::uint64_t bits) {
    words_.assign((bits + 63) / 64, ~std::uint64_t{0});
    if (bits % 64 != 0) words_.back() >>= 64 - bits % 64;
  }

  void set(std::uint64_t i) noexcept {
    words_[i >> 6] |= std::uint64_t{1} << (i & 63);
  }
  void clear(std::uint64_t i) noexcept {
    words_[i >> 6] &= ~(std::uint64_t{1} << (i & 63));
  }
  void assign(std::uint64_t i, bool value) noexcept {
    const std::uint64_t bit = std::uint64_t{1} << (i & 63);
    if (value) {
      words_[i >> 6] |= bit;
    } else {
      words_[i >> 6] &= ~bit;
    }
  }
  [[nodiscard]] bool test(std::uint64_t i) const noexcept {
    return (words_[i >> 6] >> (i & 63)) & 1u;
  }

  /// Word-granular access (64 indices per word, raikv CubeRoute style):
  /// lets callers combine bitmaps with single AND/OR ops and scan masks 64
  /// entries at a time instead of one test() per index.
  [[nodiscard]] std::size_t word_count() const noexcept {
    return words_.size();
  }
  [[nodiscard]] std::uint64_t word(std::size_t w) const noexcept {
    return words_[w];
  }

  /// 64 bits starting at an ARBITRARY base index (bit i of the result =
  /// test(base + i)), stitched from up to two adjacent words. Lets a
  /// caller whose 64-entry window is not word-aligned (e.g. a shard whose
  /// node range starts mid-word) still make one word-parallel query.
  /// Out-of-range high bits read as 0.
  [[nodiscard]] std::uint64_t window(std::uint64_t base) const noexcept {
    const std::size_t w = base >> 6;
    const unsigned off = static_cast<unsigned>(base & 63);
    if (w >= words_.size()) return 0;
    std::uint64_t bits = words_[w] >> off;
    // off == 0 must not reach the shift: x << 64 is undefined.
    if (off != 0 && w + 1 < words_.size()) {
      bits |= words_[w + 1] << (64 - off);
    }
    return bits;
  }

  /// Calls f(i) for every set bit in ascending index order. Each word is
  /// scanned from a copy, so f may clear (or set) bits of the word being
  /// visited without perturbing the iteration.
  template <typename F>
  void for_each_set(F&& f) const {
    for (std::size_t w = 0; w < words_.size(); ++w) {
      std::uint64_t live = words_[w];
      while (live != 0) {
        const auto bit = static_cast<std::uint64_t>(std::countr_zero(live));
        live &= live - 1;
        f((static_cast<std::uint64_t>(w) << 6) | bit);
      }
    }
  }

 private:
  std::vector<std::uint64_t> words_;
};

}  // namespace gcube
