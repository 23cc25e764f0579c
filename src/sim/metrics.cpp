#include "sim/metrics.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

namespace gcube {

void LatencyHistogram::record(Cycle latency) noexcept {
  const std::size_t bucket =
      latency < 2 ? 0
                  : std::min<std::size_t>(kBuckets - 1,
                                          std::bit_width(latency) - 1);
  ++counts_[bucket];
  ++total_;
}

Cycle LatencyHistogram::percentile(double q) const {
  if (total_ == 0) return 0;
  q = std::clamp(q, 0.0, 1.0);
  // Rank of the delivery that must be covered: ceil(q * total), clamped to
  // [1, total]. rank >= 1 keeps q = 0 from landing in an empty bucket 0,
  // and the ceiling (instead of +0.5 rounding) keeps q = 1.0 from
  // overshooting past the last nonempty bucket.
  const auto rank = std::clamp<std::uint64_t>(
      static_cast<std::uint64_t>(
          std::ceil(q * static_cast<double>(total_))),
      1, total_);
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    seen += counts_[i];
    if (seen >= rank) {
      return (Cycle{1} << (i + 1)) - 1;  // upper edge of bucket i
    }
  }
  return ~Cycle{0};
}

void LatencyHistogram::merge(const LatencyHistogram& o) noexcept {
  for (std::size_t i = 0; i < kBuckets; ++i) counts_[i] += o.counts_[i];
  total_ += o.total_;
}

double SimMetrics::log2_throughput() const {
  const double t = throughput();
  return t <= 0.0 ? 0.0 : std::log2(t);
}

void SimMetrics::absorb(const SimMetrics& shard) noexcept {
  fields([&](const char*, auto field, auto fold) {
    auto& mine = this->*field;
    const auto theirs = shard.*field;
    constexpr Fold kFold = decltype(fold)::value;
    if constexpr (kFold == Fold::kSum || kFold == Fold::kTiming) {
      mine += theirs;
    } else if constexpr (kFold == Fold::kMax) {
      mine = std::max(mine, theirs);
    } else if constexpr (kFold == Fold::kAny) {
      mine = mine || theirs;
    }
  });
  latency_histogram.merge(shard.latency_histogram);
  plan_cache += shard.plan_cache;
}

bool SimMetrics::deterministic_equals(const SimMetrics& o) const noexcept {
  bool equal = latency_histogram == o.latency_histogram;
  fields([&](const char*, auto field, auto fold) {
    if constexpr (decltype(fold)::value != Fold::kTiming) {
      equal = equal && this->*field == o.*field;
    }
  });
  return equal;
}

}  // namespace gcube
