// Ablation: what packets that cross shard boundaries cost the parallel
// cycle loop.
//
// GC(14,4) FFGCR with no faults at rate 0.02, 300 warmup + 6,000 measured
// cycles, with SimConfig::phase_timing on, at 1, 2 and 4 workers (clamped
// to the cores). Two traffic models:
//
//   uniform    the paper's uniform random traffic (UniformTraffic); at 4
//              workers about 3 packets in 4 cross a shard boundary, because
//              the shards are the four quarters of the label space;
//   in_shard   destinations keep the source's top two label bits, so at 4
//              workers every destination lies in its source's shard and no
//              packet crosses one.
//
// Each row is the median of --runs fresh runs (default 3) and prints wall
// time, delivered packets per second, and the phase figures scaled the way
// perfbench scales them: advance ns per hop, inject ns per packet, drain ns
// per hop, and the idle share of the workers' wall time. The gap between
// the two models' advance ns/hop at one worker count is what crossing
// costs. The simulated metrics of each model must be deterministic_equals
// across worker counts; the exit status is 1 when they are not.
#include <algorithm>
#include <chrono>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "fault/fault_set.hpp"
#include "routing/ffgcr.hpp"
#include "sim/metrics.hpp"
#include "sim/network.hpp"
#include "sim/traffic.hpp"
#include "topology/gaussian_cube.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

namespace {

using namespace gcube;

constexpr Dim kDims = 14;
constexpr std::uint64_t kModulus = 4;
constexpr double kRate = 0.02;
constexpr Cycle kWarmup = 300;
constexpr Cycle kMeasure = 6000;
constexpr std::uint64_t kSeed = 20031;

/// Uniform destinations among the nodes that share the source's top two
/// label bits: one quarter of the cube, the quarter a 4-worker run gives
/// one shard.
class InShardTraffic final : public UniformTraffic {
 public:
  InShardTraffic(std::uint64_t node_count, double rate, const FaultSet& faults,
                 std::uint64_t seed)
      : UniformTraffic(node_count, rate, faults, seed),
        quarter_(static_cast<NodeId>(node_count / 4)) {}

  [[nodiscard]] NodeId pick_destination(NodeId src,
                                        CounterRng& rng) const override {
    const NodeId first = src - src % quarter_;
    for (;;) {
      const NodeId d = first + static_cast<NodeId>(rng.below(quarter_));
      if (d != src && eligible(d)) return d;
    }
  }

 private:
  NodeId quarter_;
};

struct Sample {
  double wall_s = 0.0;
  double pkts_per_s = 0.0;
  double advance_ns_per_hop = 0.0;
  double inject_ns_per_pkt = 0.0;
  double drain_ns_per_hop = 0.0;
  double idle_share = 0.0;
};

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// One fresh timed run; `metrics` receives its simulated metrics.
Sample run_once(const GaussianCube& gc, const FfgcrRouter& router,
                const FaultSet& faults, const TrafficModel& traffic,
                unsigned workers, SimMetrics& metrics) {
  SimConfig cfg;
  cfg.injection_rate = kRate;
  cfg.warmup_cycles = kWarmup;
  cfg.measure_cycles = kMeasure;
  cfg.seed = kSeed;
  cfg.threads = workers;
  cfg.phase_timing = true;
  NetworkSim sim(gc, router, faults, cfg, traffic);
  const auto t0 = std::chrono::steady_clock::now();
  metrics = sim.run();
  const double wall = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
  // Phase totals span warmup too; scale them to the measured window the
  // packet and hop counts describe.
  const double window =
      static_cast<double>(kMeasure) / static_cast<double>(kWarmup + kMeasure);
  const auto hops = static_cast<double>(metrics.total_hops);
  const auto busy = static_cast<double>(
      metrics.phase_drain_ns + metrics.phase_inject_ns +
      metrics.phase_advance_ns + metrics.phase_commit_ns);
  Sample s;
  s.wall_s = wall;
  s.pkts_per_s = static_cast<double>(metrics.delivered) / wall;
  s.advance_ns_per_hop =
      static_cast<double>(metrics.phase_advance_ns) * window / hops;
  s.inject_ns_per_pkt = static_cast<double>(metrics.phase_inject_ns) * window /
                        static_cast<double>(metrics.generated);
  s.drain_ns_per_hop =
      static_cast<double>(metrics.phase_drain_ns) * window / hops;
  s.idle_share = 1.0 - busy / (static_cast<double>(workers) * wall * 1e9);
  return s;
}

}  // namespace

int main(int argc, char** argv) {
  CliArgs args(argc, argv);
  args.allow({"runs"});
  const auto runs = static_cast<int>(args.get_uint("runs", 3, 1000));
  if (runs < 1) {
    std::cerr << "error: --runs must be at least 1\n";
    return 2;
  }
  bench::print_banner("Ablation",
                      "cross-shard packets, GC(14,4) FFGCR rate 0.02");
  const GaussianCube gc(kDims, kModulus);
  const FfgcrRouter router(gc);
  const FaultSet faults;
  const UniformTraffic uniform(gc.node_count(), kRate, faults, kSeed);
  const InShardTraffic in_shard(gc.node_count(), kRate, faults, kSeed);
  struct Model {
    const char* name;
    const TrafficModel* traffic;
  };
  const Model models[] = {{"uniform", &uniform}, {"in_shard", &in_shard}};

  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  std::vector<unsigned> worker_counts;
  for (const unsigned t : {1u, 2u, 4u}) {
    const unsigned clamped = std::min(t, hw);
    if (std::find(worker_counts.begin(), worker_counts.end(), clamped) ==
        worker_counts.end()) {
      worker_counts.push_back(clamped);
    }
  }

  TextTable table({"traffic", "workers", "wall s", "pkts/s", "advance ns/hop",
                   "inject ns/pkt", "drain ns/hop", "idle share"});
  bool deterministic = true;
  for (const Model& model : models) {
    SimMetrics first;
    bool have_first = false;
    for (const unsigned workers : worker_counts) {
      std::vector<Sample> samples;
      for (int r = 0; r < runs; ++r) {
        SimMetrics m;
        samples.push_back(
            run_once(gc, router, faults, *model.traffic, workers, m));
        if (!have_first) {
          first = m;
          have_first = true;
        } else if (!m.deterministic_equals(first)) {
          deterministic = false;
          std::cerr << "FAIL: " << model.name << " metrics at " << workers
                    << " workers differ from the first run\n";
        }
      }
      const auto med = [&](double Sample::*field) {
        std::vector<double> v;
        for (const Sample& s : samples) v.push_back(s.*field);
        return median(v);
      };
      table.add_row({model.name, std::to_string(workers),
                     fmt_double(med(&Sample::wall_s), 3),
                     fmt_double(med(&Sample::pkts_per_s) / 1e6, 3) + "M",
                     fmt_double(med(&Sample::advance_ns_per_hop), 1),
                     fmt_double(med(&Sample::inject_ns_per_pkt), 1),
                     fmt_double(med(&Sample::drain_ns_per_hop), 1),
                     fmt_double(med(&Sample::idle_share), 3)});
    }
  }
  table.print(std::cout);
  std::cout << "(median of " << runs
            << " runs per row; phase figures cover the measured window, "
               "summed over workers)\n";
  std::cout << "determinism across worker counts: "
            << (deterministic ? "PASS" : "FAIL") << "\n";
  return deterministic ? 0 : 1;
}
