// Runtime SIMD dispatch for the simulator's vectorized hot-path kernels.
//
// The batched advance has two data-parallel kernels (hot-record classify
// and next-hop table lookup), each with a hand-vectorized AVX2
// implementation next to its scalar reference loop. Those are the only two
// tiers: which one runs is a PROCESS-WIDE level chosen once at startup:
//
//   * cpuid detection picks AVX2 when the CPU has it, scalar otherwise
//     (detected_simd_level());
//   * the GCUBE_SIMD environment variable (scalar | avx2) lowers or pins
//     it — the CI equivalence legs force `scalar` this way;
//   * set_simd_level() does the same programmatically (sim_cli --simd=,
//     the determinism tests' level sweep, the bench's simd_scalar twin).
//
// Requests above what the CPU supports are clamped to the detected level
// with a one-time stderr note, so GCUBE_SIMD=avx2 on a CPU without AVX2
// degrades instead of crashing. Every vector kernel must be BYTE-IDENTICAL
// to its scalar reference — the kernels only batch pure integer functions
// (no floating-point reassociation anywhere) — and the determinism suite
// sweeps both levels to enforce it.
//
// Hot-loop callers cache simd_level() once (NetworkSim snapshots it at
// construction) and pass it down explicitly, so kernel dispatch is a
// predictable branch, not an atomic load per batch.
#pragma once

#include <cstdint>
#include <optional>
#include <string_view>

namespace gcube {

/// Ordered by capability, so "does this kernel's AVX2 variant apply" is a
/// single >= compare.
enum class SimdLevel : std::uint8_t {
  kScalar = 0,  // reference implementation, always available
  kAvx2 = 1,    // AVX2: 256-bit integer lanes + gathers
};

[[nodiscard]] const char* to_string(SimdLevel level) noexcept;

/// Parses "scalar" | "avx2" (the GCUBE_SIMD / --simd vocabulary).
[[nodiscard]] std::optional<SimdLevel> parse_simd_level(
    std::string_view name) noexcept;

/// Best level this CPU supports, from cpuid. Constant per process.
[[nodiscard]] SimdLevel detected_simd_level() noexcept;

/// The effective dispatch level: detected, lowered by GCUBE_SIMD when set
/// (applied on first call), or by the last set_simd_level(). Never above
/// detected_simd_level().
[[nodiscard]] SimdLevel simd_level() noexcept;

/// Pins the dispatch level (clamped to the detected level, with a one-time
/// stderr note when the request exceeds it). Takes effect for every
/// simulator constructed afterwards; not thread-safe against concurrent
/// simulations mid-run, so set it at startup (CLI parse / test setup).
void set_simd_level(SimdLevel level) noexcept;

/// How many entries ahead the streaming loops prefetch — one shared
/// constant so the scalar and SIMD paths keep the same memory schedule.
inline constexpr std::size_t kPrefetchAhead = 4;

/// The one prefetch spelling for the hot loops: intent is named at the
/// call site instead of a bare __builtin_prefetch flag.
inline void prefetch_write(void* p) noexcept { __builtin_prefetch(p, 1); }

}  // namespace gcube
