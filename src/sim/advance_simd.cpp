#include "sim/advance_simd.hpp"

#include <cassert>
#include <cstddef>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace gcube {
namespace {

// `guard` is hop_limit << kHopShift: hops < hop_limit exactly when
// hop_flags < guard, whatever the flag bits below the count.
ClassifyMasks classify_scalar(unsigned count, const PacketHot* hot,
                              const NodeId* nodes, NodeId base,
                              std::uint64_t clean,
                              std::uint32_t guard) noexcept {
  ClassifyMasks m;
  for (unsigned i = 0; i < count; ++i) {
    const PacketHot& h = hot[i];
    const NodeId u = nodes[i];
    if (u == h.dst) {
      m.arrived |= std::uint64_t{1} << i;
    } else if ((h.hop_flags & kPktDetour) == 0 &&
               ((clean >> (u - base)) & 1) != 0 && h.hop_flags < guard) {
      m.fast |= std::uint64_t{1} << i;
    }
  }
  return m;
}

#if defined(__x86_64__)

// ---- AVX2: 8 records per group --------------------------------------------

__attribute__((target("avx2"))) ClassifyMasks classify_avx2(
    unsigned count, const PacketHot* hot, const NodeId* nodes, NodeId base,
    std::uint64_t clean, std::uint32_t guard) noexcept {
  static_assert(offsetof(PacketHot, dst) == 0 &&
                    offsetof(PacketHot, hop_flags) == 8,
                "the shuffles below pick words 0 and 2 of each record");
  ClassifyMasks m;
  const __m256i zero = _mm256_setzero_si256();
  const __m256i basev = _mm256_set1_epi32(static_cast<int>(base));
  const __m256i one64 = _mm256_set1_epi64x(1);
  const __m256i cleanv = _mm256_set1_epi64x(static_cast<long long>(clean));
  const __m256i vdetour = _mm256_set1_epi32(static_cast<int>(kPktDetour));
  // Unsigned 32-bit compare via sign-bias (the guard may use most of the
  // uint32 range when the hop limit is configured explicitly).
  const __m256i bias = _mm256_set1_epi32(static_cast<int>(0x80000000u));
  const __m256i vguard =
      _mm256_xor_si256(_mm256_set1_epi32(static_cast<int>(guard)), bias);
  // The shuffles leave the lanes in record order 0 2 4 6 | 1 3 5 7; this
  // permutation puts lane j back on record j.
  const __m256i in_order = _mm256_setr_epi32(0, 4, 1, 5, 2, 6, 3, 7);
  unsigned i = 0;
  for (; i + 8 <= count; i += 8) {
    // Two records per 256-bit load, one per 128-bit half: r01 holds
    // records i and i+1, and so on.
    const auto* group = reinterpret_cast<const __m256i*>(hot + i);
    const __m256 r01 = _mm256_castsi256_ps(_mm256_loadu_si256(group));
    const __m256 r23 = _mm256_castsi256_ps(_mm256_loadu_si256(group + 1));
    const __m256 r45 = _mm256_castsi256_ps(_mm256_loadu_si256(group + 2));
    const __m256 r67 = _mm256_castsi256_ps(_mm256_loadu_si256(group + 3));
    // Words 0 (dst) and 2 (hop_flags) of each record, per 128-bit half:
    // a = dst hf dst hf of records i, i+2 (low) and i+1, i+3 (high).
    const __m256 a = _mm256_shuffle_ps(r01, r23, _MM_SHUFFLE(2, 0, 2, 0));
    const __m256 b = _mm256_shuffle_ps(r45, r67, _MM_SHUFFLE(2, 0, 2, 0));
    const __m256i dstv = _mm256_permutevar8x32_epi32(
        _mm256_castps_si256(_mm256_shuffle_ps(a, b, _MM_SHUFFLE(2, 0, 2, 0))),
        in_order);
    const __m256i hfv = _mm256_permutevar8x32_epi32(
        _mm256_castps_si256(_mm256_shuffle_ps(a, b, _MM_SHUFFLE(3, 1, 3, 1))),
        in_order);
    const __m256i uv = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(nodes + i));

    const auto arrived = static_cast<std::uint32_t>(_mm256_movemask_ps(
        _mm256_castsi256_ps(_mm256_cmpeq_epi32(uv, dstv))));
    const auto no_detour = static_cast<std::uint32_t>(_mm256_movemask_ps(
        _mm256_castsi256_ps(_mm256_cmpeq_epi32(
            _mm256_and_si256(hfv, vdetour), zero))));
    const auto under = static_cast<std::uint32_t>(_mm256_movemask_ps(
        _mm256_castsi256_ps(_mm256_cmpgt_epi32(
            vguard, _mm256_xor_si256(hfv, bias)))));
    // Clean bits: shift the shared 64-bit window right by each lane's
    // node offset (widened to 64-bit lanes for the variable shift).
    const __m256i off = _mm256_sub_epi32(uv, basev);
    const __m256i off_lo =
        _mm256_cvtepu32_epi64(_mm256_castsi256_si128(off));
    const __m256i off_hi =
        _mm256_cvtepu32_epi64(_mm256_extracti128_si256(off, 1));
    const auto clean_lo = static_cast<std::uint32_t>(_mm256_movemask_pd(
        _mm256_castsi256_pd(_mm256_cmpeq_epi64(
            _mm256_and_si256(_mm256_srlv_epi64(cleanv, off_lo), one64),
            one64))));
    const auto clean_hi = static_cast<std::uint32_t>(_mm256_movemask_pd(
        _mm256_castsi256_pd(_mm256_cmpeq_epi64(
            _mm256_and_si256(_mm256_srlv_epi64(cleanv, off_hi), one64),
            one64))));
    const std::uint32_t clean_ok = clean_lo | (clean_hi << 4);

    const std::uint32_t fast = no_detour & under & clean_ok & ~arrived;
    m.arrived |= static_cast<std::uint64_t>(arrived) << i;
    m.fast |= static_cast<std::uint64_t>(fast) << i;
  }
  if (i < count) {
    const ClassifyMasks tail =
        classify_scalar(count - i, hot + i, nodes + i, base, clean, guard);
    m.arrived |= tail.arrived << i;
    m.fast |= tail.fast << i;
  }
  return m;
}

#endif  // __x86_64__

}  // namespace

ClassifyMasks classify_front_packets(SimdLevel level, unsigned count,
                                     const PacketHot* hot,
                                     const NodeId* nodes, NodeId base,
                                     std::uint64_t clean,
                                     std::uint32_t hop_limit) noexcept {
  assert(hop_limit < kHopCountLimit);
  const std::uint32_t guard = hop_limit << kHopShift;
#if defined(__x86_64__)
  if (level >= SimdLevel::kAvx2) {
    return classify_avx2(count, hot, nodes, base, clean, guard);
  }
#else
  (void)level;
#endif
  return classify_scalar(count, hot, nodes, base, clean, guard);
}

}  // namespace gcube
