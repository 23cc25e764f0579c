// Deterministic, fast pseudo-random number generation.
//
// Simulation results must be reproducible bit-for-bit for a given seed, and
// parallel sweeps must be able to derive independent streams per worker, so
// we use SplitMix64 for seeding and Xoshiro256** for the main stream instead
// of the implementation-defined std::default_random_engine.
//
// The simulator's node-sharded core additionally needs draws that are
// *order-independent*: a parallel injection sweep must produce the same
// packets no matter which thread visits a node first. counter_key() +
// CounterRng provide that — every (node, cycle) pair gets its own keyed
// stream, so the draw sequence is a pure function of (seed, node, cycle)
// rather than of sweep order.
#pragma once

#include <array>
#include <cstdint>
#include <limits>

namespace gcube {

/// SplitMix64's finalizer: a full-avalanche 64-bit mix, exposed separately
/// because counter keys and sharded caches both need a standalone scramble.
[[nodiscard]] constexpr std::uint64_t mix64(std::uint64_t z) noexcept {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// SplitMix64: used to expand a single 64-bit seed into stream state.
class SplitMix64 {
 public:
  explicit constexpr SplitMix64(std::uint64_t seed) noexcept : state_(seed) {}

  constexpr std::uint64_t next() noexcept {
    return mix64(state_ += 0x9e3779b97f4a7c15ULL);
  }

 private:
  std::uint64_t state_;
};

/// Uniform draws layered over any 64-bit generator (CRTP: Self must be a
/// std::uniform_random_bit_generator over the full uint64 range). Kept as a
/// mixin so Xoshiro256 and CounterRng share one Lemire implementation.
template <typename Self>
class UniformDraws {
 public:
  /// Unbiased integer in [0, bound). Precondition: bound > 0.
  /// Lemire's multiply-shift rejection method.
  constexpr std::uint64_t below(std::uint64_t bound) noexcept {
    std::uint64_t x = self()();
    __uint128_t m = static_cast<__uint128_t>(x) * bound;
    auto lo = static_cast<std::uint64_t>(m);
    if (lo < bound) {
      const std::uint64_t threshold = (0 - bound) % bound;
      while (lo < threshold) {
        x = self()();
        m = static_cast<__uint128_t>(x) * bound;
        lo = static_cast<std::uint64_t>(m);
      }
    }
    return static_cast<std::uint64_t>(m >> 64);
  }

  /// Uniform double in [0, 1).
  constexpr double uniform() noexcept {
    return static_cast<double>(self()() >> 11) * 0x1.0p-53;
  }

  /// Bernoulli trial with success probability p.
  constexpr bool chance(double p) noexcept { return uniform() < p; }

 private:
  constexpr Self& self() noexcept { return *static_cast<Self*>(this); }
};

/// Xoshiro256**: the library's workhorse generator. Satisfies
/// std::uniform_random_bit_generator.
class Xoshiro256 : public UniformDraws<Xoshiro256> {
 public:
  using result_type = std::uint64_t;

  explicit constexpr Xoshiro256(std::uint64_t seed) noexcept : s_{} {
    SplitMix64 sm(seed);
    for (auto& w : s_) w = sm.next();
  }

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept {
    return std::numeric_limits<result_type>::max();
  }

  constexpr result_type operator()() noexcept {
    const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
  }

  /// Derive an independent stream (for per-worker RNGs in parallel sweeps).
  [[nodiscard]] constexpr Xoshiro256 split() noexcept {
    return Xoshiro256((*this)());
  }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }

  std::array<std::uint64_t, 4> s_;
};

/// Key for the counter-based stream of logical index (a, b) under `seed` —
/// in the simulator, (node, cycle). Each input passes through a full mix64
/// with a distinct additive constant, so transposing a and b (or shifting
/// both by a common offset) cannot collide the way a plain XOR would.
[[nodiscard]] constexpr std::uint64_t counter_key(std::uint64_t seed,
                                                  std::uint64_t a,
                                                  std::uint64_t b) noexcept {
  std::uint64_t k = mix64(seed + 0x9e3779b97f4a7c15ULL);
  k = mix64(k ^ (a + 0xbf58476d1ce4e5b9ULL));
  return mix64(k ^ (b + 0x94d049bb133111ebULL));
}

/// Counter-keyed draw stream: a SplitMix64 walk from a counter_key. Cheap
/// enough to construct per (node, cycle) on the injection hot path — no
/// state expansion, ~6 multiplies — which is what makes parallel injection
/// order-independent: draws depend only on the key, never on which thread
/// ran first. Satisfies std::uniform_random_bit_generator.
class CounterRng : public UniformDraws<CounterRng> {
 public:
  using result_type = std::uint64_t;

  explicit constexpr CounterRng(std::uint64_t key) noexcept : core_(key) {}

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept {
    return std::numeric_limits<result_type>::max();
  }

  constexpr result_type operator()() noexcept { return core_.next(); }

 private:
  SplitMix64 core_;
};

}  // namespace gcube
