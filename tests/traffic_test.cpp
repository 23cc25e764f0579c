// Traffic tests: the injection process (TrafficModel::injection_gap, the
// only way the simulator draws injections), the classical destination
// patterns, and their interaction with faults and the simulator.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <map>
#include <string>

#include "routing/ffgcr.hpp"
#include "sim/network.hpp"
#include "sim/runner.hpp"
#include "sim/traffic.hpp"
#include "topology/gaussian_cube.hpp"

namespace gcube {
namespace {

TEST(InjectionGap, IsGeometricAtTheInjectionRate) {
  // Over 100k counter-keyed streams UniformTraffic's closed-form gap must
  // follow per-cycle Bernoulli injection at `rate` — mean 1/rate and
  // P(gap = 1) = rate, each within 4 standard errors.
  constexpr std::uint64_t kStreams = 100'000;
  const FaultSet none;
  for (const double rate : {0.01, 0.05, 0.5}) {
    const UniformTraffic uniform(64, rate, none, 1);
    double sum = 0.0;
    double ones = 0.0;
    for (std::uint64_t i = 0; i < kStreams; ++i) {
      CounterRng rng(counter_key(2024, i, 0));
      const std::uint64_t gap = uniform.injection_gap(0, rng);
      ASSERT_TRUE(gap >= 1 && gap != TrafficModel::kNeverGap);
      sum += static_cast<double>(gap);
      ones += gap == 1 ? 1.0 : 0.0;
    }
    const std::string label = "rate " + std::to_string(rate);
    const auto n = static_cast<double>(kStreams);
    EXPECT_NEAR(sum / n, 1.0 / rate,
                4.0 * std::sqrt((1.0 - rate) / n) / rate)
        << label;
    EXPECT_NEAR(ones / n, rate, 4.0 * std::sqrt(rate * (1.0 - rate) / n))
        << label;
  }
}

TEST(InjectionGap, RateZeroNeverFiresAndRateOneFiresEveryCycle) {
  const FaultSet none;
  CounterRng rng(counter_key(2024, 0, 0));
  EXPECT_EQ(UniformTraffic(64, 0.0, none, 1).injection_gap(0, rng),
            TrafficModel::kNeverGap);
  EXPECT_EQ(UniformTraffic(64, 1.0, none, 1).injection_gap(0, rng), 1u);
}

TEST(PatternTraffic, BitComplement) {
  const FaultSet none;
  const PatternTraffic t(6, 0.1, none, 1, TrafficPattern::kBitComplement);
  CounterRng rng(counter_key(1, 0, 0));
  EXPECT_EQ(t.pick_destination(0b000000, rng), 0b111111u);
  EXPECT_EQ(t.pick_destination(0b101010, rng), 0b010101u);
}

TEST(PatternTraffic, BitReversal) {
  const FaultSet none;
  const PatternTraffic t(6, 0.1, none, 1, TrafficPattern::kBitReversal);
  CounterRng rng(counter_key(1, 0, 0));
  EXPECT_EQ(t.pick_destination(0b100000, rng), 0b000001u);
  EXPECT_EQ(t.pick_destination(0b110100, rng), 0b001011u);
}

TEST(PatternTraffic, Transpose) {
  const FaultSet none;
  const PatternTraffic t(6, 0.1, none, 1, TrafficPattern::kTranspose);
  CounterRng rng(counter_key(1, 0, 0));
  // Rotate by n/2 = 3.
  EXPECT_EQ(t.pick_destination(0b000111, rng), 0b111000u);
  EXPECT_EQ(t.pick_destination(0b101000, rng), 0b000101u);
}

TEST(PatternTraffic, SelfMappingFallsBackToUniform) {
  const FaultSet none;
  const PatternTraffic t(6, 0.1, none, 1, TrafficPattern::kBitReversal);
  CounterRng rng(counter_key(1, 0, 0));
  // A palindromic label maps to itself; the fallback must avoid self.
  const NodeId palindrome = 0b100001;
  for (int i = 0; i < 50; ++i) {
    EXPECT_NE(t.pick_destination(palindrome, rng), palindrome);
  }
}

TEST(PatternTraffic, FaultyPatternDestinationFallsBack) {
  FaultSet faults;
  faults.fail_node(0b111111);
  const PatternTraffic t(6, 0.1, faults, 1, TrafficPattern::kBitComplement);
  CounterRng rng(counter_key(1, 0, 0));
  for (int i = 0; i < 50; ++i) {
    const NodeId d = t.pick_destination(0, rng);
    EXPECT_NE(d, 0b111111u);
    EXPECT_NE(d, 0u);
  }
}

TEST(PatternTraffic, HotspotConcentratesTraffic) {
  const FaultSet none;
  const NodeId hot = 13;
  const PatternTraffic t(6, 0.1, none, 1, TrafficPattern::kHotspot, hot,
                         0.5);
  CounterRng rng(counter_key(7, 0, 0));
  std::map<NodeId, int> counts;
  for (int i = 0; i < 4000; ++i) {
    ++counts[t.pick_destination(0, rng)];
  }
  // Roughly half of all packets hit the hot node.
  EXPECT_GT(counts[hot], 1600);
  EXPECT_LT(counts[hot], 2400);
}

TEST(PatternTraffic, ToString) {
  EXPECT_STREQ(to_string(TrafficPattern::kUniform), "uniform");
  EXPECT_STREQ(to_string(TrafficPattern::kHotspot), "hotspot");
}

TEST(PatternTraffic, RejectsBadParameters) {
  const FaultSet none;
  EXPECT_THROW(
      PatternTraffic(6, 0.1, none, 1, TrafficPattern::kHotspot, 999),
      std::invalid_argument);
  EXPECT_THROW(PatternTraffic(6, 0.1, none, 1, TrafficPattern::kHotspot, 0,
                              1.5),
               std::invalid_argument);
}

TEST(PatternTraffic, SimulatorRunsEveryPattern) {
  const GaussianCube gc(7, 2);
  const FfgcrRouter router(gc);
  const FaultSet none;
  SimConfig cfg;
  cfg.injection_rate = 0.02;
  cfg.warmup_cycles = 50;
  cfg.measure_cycles = 200;
  for (const TrafficPattern pattern :
       {TrafficPattern::kUniform, TrafficPattern::kBitComplement,
        TrafficPattern::kBitReversal, TrafficPattern::kTranspose,
        TrafficPattern::kHotspot}) {
    const PatternTraffic traffic(7, cfg.injection_rate, none, cfg.seed,
                                 pattern);
    NetworkSim sim(gc, router, none, cfg, traffic);
    const SimMetrics m = sim.run();
    EXPECT_GT(m.delivered, 0u) << to_string(pattern);
    EXPECT_EQ(m.dropped, 0u) << to_string(pattern);
  }
}

TEST(PatternTraffic, HotspotRaisesLatencyOverUniform) {
  const GaussianCube gc(8, 2);
  const FfgcrRouter router(gc);
  const FaultSet none;
  SimConfig cfg;
  cfg.injection_rate = 0.05;
  cfg.warmup_cycles = 100;
  cfg.measure_cycles = 500;
  const PatternTraffic uniform(8, cfg.injection_rate, none, cfg.seed,
                               TrafficPattern::kUniform);
  const PatternTraffic hotspot(8, cfg.injection_rate, none, cfg.seed,
                               TrafficPattern::kHotspot, 0, 0.4);
  const double lat_uniform =
      NetworkSim(gc, router, none, cfg, uniform).run().avg_latency();
  const double lat_hotspot =
      NetworkSim(gc, router, none, cfg, hotspot).run().avg_latency();
  EXPECT_GT(lat_hotspot, lat_uniform)
      << "congestion at the hot node must show up in latency";
}

TEST(RunnerPattern, SpecSelectsPattern) {
  GcSimSpec spec;
  spec.n = 6;
  spec.modulus = 2;
  spec.pattern = TrafficPattern::kBitComplement;
  spec.sim.injection_rate = 0.02;
  spec.sim.warmup_cycles = 50;
  spec.sim.measure_cycles = 200;
  const auto outcome = run_gc_simulation(spec);
  EXPECT_GT(outcome.metrics.delivered, 0u);
}

}  // namespace
}  // namespace gcube
