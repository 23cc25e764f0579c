// Shared helpers for the simulator test suites: a field-by-field metrics
// comparison, a fail-only mid-run fault schedule and a traffic model whose
// every fire lies several timing-wheel laps out.
#pragma once

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <string>

#include "sim/fault_schedule.hpp"
#include "sim/metrics.hpp"
#include "sim/network.hpp"
#include "sim/traffic.hpp"
#include "util/rng.hpp"

namespace gcube {

/// Field-by-field comparison so a contract violation names the metric that
/// diverged instead of a bare deterministic_equals() == false.
inline void expect_identical(const SimMetrics& got,
                             const SimMetrics& want,
                             const std::string& label) {
  SimMetrics::fields([&](const char* name, auto field, auto fold) {
    if constexpr (decltype(fold)::value != SimMetrics::Fold::kTiming) {
      EXPECT_EQ(got.*field, want.*field) << label << " " << name;
    }
  });
  for (std::size_t i = 0; i < LatencyHistogram::kBuckets; ++i) {
    EXPECT_EQ(got.latency_histogram.bucket(i),
              want.latency_histogram.bucket(i))
        << label << " histogram bucket " << i;
  }
  EXPECT_TRUE(got.deterministic_equals(want)) << label;
}

/// Mid-run node and link deaths straddling the warmup boundary, built on
/// the topology's own size so every cell stresses orphaning, re-routing,
/// and en-route drops.
inline FaultSchedule scheduled_faults(std::uint64_t node_count) {
  const auto nodes = static_cast<NodeId>(node_count);
  FaultSchedule schedule;
  schedule.fail_node_at(10, nodes / 3);
  schedule.fail_link_at(10, nodes / 2 + 1, 0);
  schedule.fail_node_at(45, nodes / 5 + 2);
  schedule.fail_link_at(90, nodes - 7, 1);
  schedule.fail_node_at(140, 2 * nodes / 3);
  return schedule;
}

/// Every node injects once per fixed gap of two to three timing-wheel
/// spans that differs by node, toward a uniform other node. So every fire
/// is filed two or more laps out, and the wheel must pass it over in its
/// bucket until its own lap comes round.
class LapTraffic final : public TrafficModel {
 public:
  explicit LapTraffic(std::uint64_t node_count) : node_count_(node_count) {}

  /// Node u's gap: 2 * kWheelSize + 1 + (97 u mod kWheelSize) cycles.
  [[nodiscard]] static std::uint64_t gap(NodeId u) {
    constexpr std::uint64_t kSpan = NetworkSim::kWheelSize;
    return 2 * kSpan + 1 + (97 * std::uint64_t{u}) % kSpan;
  }
  [[nodiscard]] std::uint64_t injection_gap(NodeId u,
                                            CounterRng&) const override {
    return gap(u);
  }
  [[nodiscard]] NodeId pick_destination(NodeId src,
                                        CounterRng& rng) const override {
    while (true) {
      const auto d = static_cast<NodeId>(rng.below(node_count_));
      if (d != src) return d;
    }
  }
  [[nodiscard]] bool eligible(NodeId) const override { return true; }

 private:
  std::uint64_t node_count_;
};

}  // namespace gcube
