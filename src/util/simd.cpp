#include "util/simd.hpp"

#include <atomic>
#include <cstdio>
#include <cstdlib>

namespace gcube {
namespace {

SimdLevel detect() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  if (__builtin_cpu_supports("avx2")) return SimdLevel::kAvx2;
#endif
  return SimdLevel::kScalar;
}

SimdLevel clamp_to_detected(SimdLevel request) noexcept {
  const SimdLevel detected = detected_simd_level();
  if (request <= detected) return request;
  static std::atomic<bool> warned{false};
  if (!warned.exchange(true, std::memory_order_relaxed)) {
    std::fprintf(stderr,
                 "gcube: note: SIMD level '%s' not supported by this CPU; "
                 "using '%s'\n",
                 to_string(request), to_string(detected));
  }
  return detected;
}

/// Effective level. Initialized lazily on first read so the GCUBE_SIMD
/// environment override applies no matter which entry point runs first;
/// -1 means "not initialized yet".
std::atomic<int> g_level{-1};

SimdLevel initial_level() noexcept {
  SimdLevel level = detected_simd_level();
  if (const char* env = std::getenv("GCUBE_SIMD")) {
    if (const auto parsed = parse_simd_level(env)) {
      level = clamp_to_detected(*parsed);
    } else {
      static std::atomic<bool> warned{false};
      if (!warned.exchange(true, std::memory_order_relaxed)) {
        std::fprintf(stderr,
                     "gcube: note: ignoring unknown GCUBE_SIMD value '%s' "
                     "(want scalar|avx2)\n",
                     env);
      }
    }
  }
  return level;
}

}  // namespace

const char* to_string(SimdLevel level) noexcept {
  switch (level) {
    case SimdLevel::kScalar:
      return "scalar";
    case SimdLevel::kAvx2:
      return "avx2";
  }
  return "?";
}

std::optional<SimdLevel> parse_simd_level(std::string_view name) noexcept {
  if (name == "scalar") return SimdLevel::kScalar;
  if (name == "avx2") return SimdLevel::kAvx2;
  return std::nullopt;
}

SimdLevel detected_simd_level() noexcept {
  static const SimdLevel detected = detect();
  return detected;
}

SimdLevel simd_level() noexcept {
  int raw = g_level.load(std::memory_order_relaxed);
  if (raw < 0) {
    const SimdLevel level = initial_level();
    raw = static_cast<int>(level);
    int expected = -1;
    // First reader wins; a concurrent set_simd_level() keeps its value.
    g_level.compare_exchange_strong(expected, raw, std::memory_order_relaxed);
    raw = g_level.load(std::memory_order_relaxed);
  }
  return static_cast<SimdLevel>(raw);
}

void set_simd_level(SimdLevel level) noexcept {
  g_level.store(static_cast<int>(clamp_to_detected(level)),
                std::memory_order_relaxed);
}

}  // namespace gcube
