#include "sim/advance_simd.hpp"

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace gcube {
namespace {

ClassifyMasks classify_scalar(unsigned count, const PacketHot* const* hot,
                              const NodeId* nodes, NodeId base,
                              std::uint64_t clean,
                              std::uint32_t hop_limit) noexcept {
  ClassifyMasks m;
  for (unsigned i = 0; i < count; ++i) {
    const PacketHot& h = *hot[i];
    const NodeId u = nodes[i];
    if (u == h.dst) {
      m.arrived |= std::uint64_t{1} << i;
    } else if ((h.flags & kPktDetour) == 0 &&
               ((clean >> (u - base)) & 1) != 0 && h.hops < hop_limit) {
      m.fast |= std::uint64_t{1} << i;
    }
  }
  return m;
}

#if defined(__x86_64__)

// ---- AVX2: 8 records per group --------------------------------------------

__attribute__((target("avx2"))) ClassifyMasks classify_avx2(
    unsigned count, const PacketHot* const* hot, const NodeId* nodes,
    NodeId base, std::uint64_t clean, std::uint32_t hop_limit) noexcept {
  ClassifyMasks m;
  const __m256i zero = _mm256_setzero_si256();
  const __m256i basev = _mm256_set1_epi32(static_cast<int>(base));
  const __m256i one64 = _mm256_set1_epi64x(1);
  const __m256i cleanv = _mm256_set1_epi64x(static_cast<long long>(clean));
  const __m256i vdetour = _mm256_set1_epi32(static_cast<int>(kPktDetour));
  // Unsigned 32-bit compare via sign-bias (hop_limit may use the full
  // uint32 range when configured explicitly).
  const __m256i bias = _mm256_set1_epi32(static_cast<int>(0x80000000u));
  const __m256i vlimit = _mm256_xor_si256(
      _mm256_set1_epi32(static_cast<int>(hop_limit)), bias);
  unsigned i = 0;
  for (; i + 8 <= count; i += 8) {
    // Two records per 256-bit load half: v_k holds records i+k (low lane)
    // and i+k+4 (high lane); three unpack rounds transpose the group into
    // one lane vector per PacketHot field, lane j <-> record i+j (the
    // fourth field is the record's alignment padding, never read).
    const __m256i v0 = _mm256_set_m128i(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(hot[i + 4])),
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(hot[i + 0])));
    const __m256i v1 = _mm256_set_m128i(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(hot[i + 5])),
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(hot[i + 1])));
    const __m256i v2 = _mm256_set_m128i(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(hot[i + 6])),
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(hot[i + 2])));
    const __m256i v3 = _mm256_set_m128i(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(hot[i + 7])),
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(hot[i + 3])));
    const __m256i lo01 = _mm256_unpacklo_epi32(v0, v1);  // dst dst hop hop
    const __m256i hi01 = _mm256_unpackhi_epi32(v0, v1);  // fl fl pad pad
    const __m256i lo23 = _mm256_unpacklo_epi32(v2, v3);
    const __m256i hi23 = _mm256_unpackhi_epi32(v2, v3);
    const __m256i dstv = _mm256_unpacklo_epi64(lo01, lo23);
    const __m256i hopsv = _mm256_unpackhi_epi64(lo01, lo23);
    const __m256i flv = _mm256_unpacklo_epi64(hi01, hi23);
    const __m256i uv = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(nodes + i));

    const auto arrived = static_cast<std::uint32_t>(_mm256_movemask_ps(
        _mm256_castsi256_ps(_mm256_cmpeq_epi32(uv, dstv))));
    const auto no_detour = static_cast<std::uint32_t>(_mm256_movemask_ps(
        _mm256_castsi256_ps(_mm256_cmpeq_epi32(
            _mm256_and_si256(flv, vdetour), zero))));
    const auto under = static_cast<std::uint32_t>(_mm256_movemask_ps(
        _mm256_castsi256_ps(_mm256_cmpgt_epi32(
            vlimit, _mm256_xor_si256(hopsv, bias)))));
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
    const ClassifyMasks tail = classify_scalar(count - i, hot + i, nodes + i,
                                               base, clean, hop_limit);
    m.arrived |= tail.arrived << i;
    m.fast |= tail.fast << i;
  }
  return m;
}

#endif  // __x86_64__

}  // namespace

ClassifyMasks classify_front_packets(SimdLevel level, unsigned count,
                                     const PacketHot* const* hot,
                                     const NodeId* nodes, NodeId base,
                                     std::uint64_t clean,
                                     std::uint32_t hop_limit) noexcept {
#if defined(__x86_64__)
  if (level >= SimdLevel::kAvx2) {
    return classify_avx2(count, hot, nodes, base, clean, hop_limit);
  }
#else
  (void)level;
#endif
  return classify_scalar(count, hot, nodes, base, clean, hop_limit);
}

}  // namespace gcube
