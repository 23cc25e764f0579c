// gcube_bench — the repository benchmark (README.md beside this file
// documents workloads, metrics and how to compare two commits).
//
// One process runs one workload as a batch job: it builds and runs fresh
// simulations one after another until --seconds have passed, timing calls
// into the library's public API from outside, checks every result, prints
// each metric with its unit, and ends with a one-line JSON summary:
//
//   gcube_bench --workload static_ftgcr --seed 1 --seconds 20 --trace 0
//
// --trace 0 reports the end-to-end metrics: host time and memory of fresh
// runs as a user starts them, plus the simulated results. --trace 1 reports
// the per-layer metrics: isolated layer costs, exact work counts, and phase
// attribution from SimConfig::phase_timing; it also writes the benchmark's own
// spans as Chrome trace-event JSON to --trace-out. --quick shrinks every
// workload to a few hundred cycles (the self-test uses it). The exit status
// is 1 when any correctness check fails, 2 on a usage or setup error.
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <functional>
#include <iomanip>
#include <iostream>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "fault/fault_set.hpp"
#include "fault/overlay.hpp"
#include "fault/preconditions.hpp"
#include "routing/ffgcr.hpp"
#include "routing/ftgcr.hpp"
#include "routing/next_hop_table.hpp"
#include "routing/route.hpp"
#include "sim/fault_schedule.hpp"
#include "sim/network.hpp"
#include "sim/packet_pool.hpp"
#include "sim/shard_pool.hpp"
#include "sim/traffic.hpp"
#include "topology/gaussian_cube.hpp"
#include "util/cli.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/simd.hpp"

namespace {

using namespace gcube;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Keeps timed loops from being optimized away.
volatile std::uint64_t g_sink = 0;

// ---------------------------------------------------------------- workloads

struct Workload {
  const char* name = "";
  Dim n = 0;
  std::uint64_t modulus = 1;
  bool ftgcr = false;  // FTGCR router, else FFGCR
  double rate = 0.0;   // open-loop uniform Bernoulli injection per node, cycle
  Cycle measure_cycles = 0;
  std::uint32_t threads = 1;
  std::size_t static_faults = 0;   // precondition-checked node faults
  std::size_t flapping_links = 0;  // transient link churn, mttf/mttr cycles
  double mttf = 0.0;
  double mttr = 0.0;
  double isolation_rate = 0.0;  // per cycle: one node loses all its links
  Cycle isolation_cycles = 0;   // for this many cycles
  std::uint32_t retry_limit = 0;
  std::uint32_t retry_budget = 0;

  [[nodiscard]] bool churns() const {
    return flapping_links > 0 || isolation_rate > 0.0;
  }
};

constexpr Cycle kWarmupCycles = 300;

// Why each workload exists is in README.md: static_ftgcr loads FTGCR plan
// misses and reroutes, churn_ftgcr loads fault events, stale plans and
// parked retries, and faultfree_ffgcr_t4 bypasses the planner and loads the
// shard pool.
constexpr Workload kWorkloads[] = {
    {.name = "static_ftgcr", .n = 10, .modulus = 4, .ftgcr = true,
     .rate = 0.05, .measure_cycles = 40000, .static_faults = 12},
    {.name = "churn_ftgcr", .n = 10, .modulus = 4, .ftgcr = true,
     .rate = 0.05, .measure_cycles = 40000, .flapping_links = 32,
     .mttf = 300.0, .mttr = 60.0, .isolation_rate = 0.005,
     .isolation_cycles = 100, .retry_limit = 8, .retry_budget = 4},
    {.name = "faultfree_ffgcr_t4", .n = 14, .modulus = 4, .rate = 0.02,
     .measure_cycles = 6000, .threads = 4},
};

/// Node faults in the layer fixture of every workload's traced run.
constexpr std::size_t kFixtureFaults = 12;

/// A run cycles through this many instances of its workload: each draws
/// its own traffic, fault placement and churn schedule from the one --seed.
/// Pooling the simulated results over several fault placements, and timing
/// a mix of them, keeps one lucky or unlucky placement from setting a
/// seed's figures.
constexpr int kInstances = 4;

struct Seeds {
  std::uint64_t sim;
  std::uint64_t faults;
  std::uint64_t schedule;
  std::uint64_t samples;
};

Seeds derive_seeds(std::uint64_t seed, int instance) {
  const auto k = static_cast<std::uint64_t>(instance);
  return {counter_key(seed, k, 0), counter_key(seed, k, 1),
          counter_key(seed, k, 2), counter_key(seed, k, 3)};
}

// ---------------------------------------------------------------- spans

/// The benchmark's own spans around each call into a library layer, kept in
/// memory and written at exit as Chrome trace-event JSON, which
/// chrome://tracing and Perfetto open offline. Spans nest by call order; each
/// records the id of the span that caused it. Single-threaded: the benchmark
/// makes every call from its main thread.
class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled) {}

  class Scope {
   public:
    Scope(SpanLog& log, const char* name) : log_(log) {
      if (log_.enabled_) index_ = log_.open(name);
    }
    ~Scope() {
      if (log_.enabled_) log_.close(index_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanLog& log_;
    std::size_t index_ = 0;
  };

  void write(const std::string& path) const {
    std::ofstream out(path);
    GCUBE_REQUIRE(out.good(), "cannot open " + path + " for writing");
    out << std::fixed << std::setprecision(3)
        << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << (i == 0 ? "" : ",") << "\n{\"name\":\"" << s.name
          << "\",\"cat\":\"gcube\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":"
          << s.start_us << ",\"dur\":" << (s.end_us - s.start_us)
          << ",\"args\":{\"id\":" << i + 1 << ",\"parent\":" << s.parent
          << "}}";
    }
    out << "\n]}\n";
    GCUBE_REQUIRE(out.good(), "failed writing " + path);
  }

 private:
  struct Span {
    const char* name;
    std::size_t parent;  // id (index + 1) of the enclosing span, 0 at top
    double start_us;
    double end_us;
  };

  std::size_t open(const char* name) {
    const std::size_t parent = stack_.empty() ? 0 : stack_.back() + 1;
    spans_.push_back({name, parent, now_us(), 0.0});
    stack_.push_back(spans_.size() - 1);
    return spans_.size() - 1;
  }
  void close(std::size_t i) {
    spans_[i].end_us = now_us();
    stack_.pop_back();
  }
  [[nodiscard]] double now_us() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - origin_)
        .count();
  }

  bool enabled_;
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<std::size_t> stack_;
};

// ---------------------------------------------------------------- setup

/// Same idiom as the experiment runner: redraw until the FTGCR
/// precondition holds, deterministic in `seed`.
FaultSet draw_faults(const GaussianCube& gc, std::size_t count,
                     std::uint64_t seed) {
  Xoshiro256 rng(seed);
  for (int attempt = 0; attempt < 1000; ++attempt) {
    FaultSet faults;
    while (faults.node_fault_count() < count) {
      faults.fail_node(static_cast<NodeId>(rng.below(gc.node_count())));
    }
    if (check_ftgcr_precondition(gc, faults)) return faults;
  }
  GCUBE_REQUIRE(false, "no tolerable fault pattern found for " + gc.name());
  return {};
}

/// One simulation as a user starts it. Members refer to each other, so an
/// Instance is built in place and never copied or moved.
struct Instance {
  std::optional<GaussianCube> gc;
  FaultSet faults;
  std::unique_ptr<Router> router;
  FaultSchedule schedule;
  SimConfig config;
  std::optional<NetworkSim> sim;

  Instance() = default;
  Instance(const Instance&) = delete;
  Instance& operator=(const Instance&) = delete;

  /// (Re)creates the simulator over the current cube, router and faults.
  void make_sim() {
    sim.reset();
    if (schedule.empty()) {
      sim.emplace(*gc, *router, faults, config);
    } else {
      sim.emplace(*gc, *router, faults, config, schedule);
    }
  }
};

/// Builds everything run() needs, in the order a user builds it, with one
/// span per layer call.
std::unique_ptr<Instance> build_instance(const Workload& w, const Seeds& seeds,
                                         Cycle measure_cycles,
                                         std::uint32_t threads,
                                         bool phase_timing, SpanLog& log) {
  auto inst = std::make_unique<Instance>();
  {
    SpanLog::Scope span(log, "topology.build");
    inst->gc.emplace(w.n, w.modulus);
  }
  const GaussianCube& gc = *inst->gc;
  {
    SpanLog::Scope span(log, "fault.draw_and_precondition");
    inst->faults = draw_faults(gc, w.static_faults, seeds.faults);
  }
  {
    SpanLog::Scope span(log, "routing.router_ctor");
    if (w.ftgcr) {
      inst->router = std::make_unique<FtgcrRouter>(gc, inst->faults);
    } else {
      inst->router = std::make_unique<FfgcrRouter>(gc);
    }
  }
  if (w.churns()) {
    SpanLog::Scope span(log, "fault.schedule_gen");
    const Cycle horizon = kWarmupCycles + measure_cycles;
    std::vector<LinkId> candidates;
    for (NodeId u = 0; u < gc.node_count(); ++u) {
      for (Dim c = 0; c < gc.dims(); ++c) {
        if (gc.has_link(u, c) && bit(u, c) == 0) candidates.push_back({u, c});
      }
    }
    FaultSchedule& schedule = inst->schedule;
    schedule = FaultSchedule::random_flapping_links(
        candidates, w.flapping_links, w.mttf, w.mttr, horizon, seeds.schedule);
    // Isolation instead of node faults: packets bound for or queued at a
    // cut-off node strand, park and retry until its links heal, whereas a
    // node fault would orphan the packets queued at it. Arrivals are capped
    // at node_count / 8, as in the experiment runner.
    const FaultSchedule arrivals = FaultSchedule::random_node_faults(
        gc.node_count(), w.isolation_rate, horizon, mix64(seeds.schedule),
        gc.node_count() / 8);
    for (const FaultEvent& e : arrivals.events()) {
      for (Dim c = 0; c < gc.dims(); ++c) {
        if (!gc.has_link(e.node, c)) continue;
        schedule.fail_link_at(e.cycle, e.node, c);
        schedule.repair_link_at(e.cycle + w.isolation_cycles, e.node, c);
      }
    }
  }
  SimConfig& cfg = inst->config;
  cfg.injection_rate = w.rate;
  cfg.warmup_cycles = kWarmupCycles;
  cfg.measure_cycles = measure_cycles;
  cfg.seed = seeds.sim;
  cfg.threads = threads;
  cfg.retry_limit = w.retry_limit;
  cfg.retry_budget = w.retry_budget;
  cfg.phase_timing = phase_timing;
  {
    SpanLog::Scope span(log, "sim.ctor");
    inst->make_sim();
  }
  return inst;
}

/// Returns a fault set a run mutated to its empty pre-run state. Repairs
/// only ever advance FaultSet::version(), so the router's version-stamped
/// caches stay sound; assigning a fresh set would rewind the version and
/// let plans stamped under other faults read as hits.
void heal_all(FaultSet& faults) {
  const std::vector<LinkId> links = faults.faulty_links();
  for (const LinkId& l : links) faults.repair_link(l.lo, l.dim);
  const std::vector<NodeId> nodes = faults.faulty_nodes();
  for (const NodeId u : nodes) faults.repair_node(u);
}

// ---------------------------------------------------------------- checks

/// Offered packets the network lost: dropped, blocked, orphaned, gave up.
std::uint64_t lost_packets(const SimMetrics& m) {
  return m.dropped + m.injections_blocked + m.dropped_no_route +
         m.dropped_hop_limit + m.orphaned_by_node_fault + m.gave_up;
}

/// Correctness of one run; empty when it passes. `first` is the first run
/// of the same instance, which every later run must reproduce exactly.
std::string check_run(const Workload& w, const SimMetrics& m,
                      const SimMetrics* first) {
  if (m.generated == 0) return "no packets offered";
  if (m.delivered > m.generated) return "delivered exceeds generated";
  if (m.deadlocked) return "deadlock detected";
  if (w.static_faults > 0 && !w.churns() &&
      (m.dropped_no_route != 0 || m.dropped_hop_limit != 0)) {
    return "static faults dropped packets en route";
  }
  if (first != nullptr && !m.deterministic_equals(*first)) {
    return "simulated metrics differ from the first run";
  }
  return {};
}

/// Plans a seeded sample of FTGCR routes and checks each one hop by hop and
/// against the paper's optimal + 2F bound (F = faults in the set).
std::string check_route_sample(const GaussianCube& gc, const FaultSet& faults,
                               std::uint64_t seed, std::size_t samples) {
  const FtgcrRouter router(gc, faults);
  const FfgcrRouter baseline(gc);
  const std::size_t f = faults.node_fault_count() + faults.link_fault_count();
  Xoshiro256 rng(seed);
  for (std::size_t i = 0; i < samples; ++i) {
    NodeId s = 0;
    NodeId d = 0;
    do {
      s = static_cast<NodeId>(rng.below(gc.node_count()));
      d = static_cast<NodeId>(rng.below(gc.node_count()));
    } while (s == d || faults.node_faulty(s) || faults.node_faulty(d));
    const RoutingResult r = router.plan(s, d);
    const std::string pair =
        " (" + std::to_string(s) + " -> " + std::to_string(d) + ")";
    if (!r.delivered()) return "FTGCR found no route" + pair;
    if (r.route->source() != s || r.route->destination() != d) {
      return "FTGCR route has wrong endpoints" + pair;
    }
    const RouteCheck check = validate_route(gc, faults, *r.route);
    if (!check) return "invalid FTGCR route" + pair + ": " + check.reason;
    if (r.route->length() > baseline.optimal_length(s, d) + 2 * f) {
      return "FTGCR route longer than optimal + 2F" + pair;
    }
  }
  return {};
}

// ---------------------------------------------------------------- stats

double median(std::vector<double> v) {
  GCUBE_REQUIRE(!v.empty(), "median of no samples");
  std::sort(v.begin(), v.end());
  const std::size_t h = v.size() / 2;
  return v.size() % 2 == 1 ? v[h] : 0.5 * (v[h - 1] + v[h]);
}

/// Interquartile range as a share of the median (Python's
/// statistics.quantiles exclusive method), the spread printed beside each
/// timing.
double relative_iqr(std::vector<double> v) {
  if (v.size() < 2) return 0.0;
  std::sort(v.begin(), v.end());
  const auto q = [&](double p) {
    const double pos = p * static_cast<double>(v.size() + 1) - 1.0;
    const double lo = std::clamp(std::floor(pos), 0.0,
                                 static_cast<double>(v.size() - 1));
    const double hi = std::min(lo + 1.0, static_cast<double>(v.size() - 1));
    const double frac = std::clamp(pos - lo, 0.0, 1.0);
    return v[static_cast<std::size_t>(lo)] * (1.0 - frac) +
           v[static_cast<std::size_t>(hi)] * frac;
  };
  return (q(0.75) - q(0.25)) / median(v);
}

/// Median over `reps` samples of `sample()`.
double median_of(int reps, const std::function<double()>& sample) {
  std::vector<double> v;
  for (int i = 0; i < reps; ++i) v.push_back(sample());
  return median(v);
}

/// Latency below which fraction q of deliveries fall, interpolated linearly
/// inside the power-of-two histogram bucket that holds that rank.
/// LatencyHistogram::percentile returns the bucket's upper edge instead,
/// which jumps 15 -> 31 between seeds whose tails differ by a few packets.
double interpolated_percentile(const LatencyHistogram& h, double q) {
  const double rank = q * static_cast<double>(h.total());
  double seen = 0.0;
  for (std::size_t i = 0; i < LatencyHistogram::kBuckets; ++i) {
    const auto count = static_cast<double>(h.bucket(i));
    if (count > 0.0 && seen + count >= rank) {
      const double lo = i == 0 ? 0.0 : std::ldexp(1.0, static_cast<int>(i));
      const double hi = std::ldexp(1.0, static_cast<int>(i) + 1);
      return lo + (hi - lo) * (rank - seen) / count;
    }
    seen += count;
  }
  return 0.0;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
  std::string note;  // sample count and spread, printed only
};

std::string json_number(double v) {
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

// ---------------------------------------------------------------- layers

/// Nonfaulty sources within distance 1 of a fault paired with random
/// nonfaulty destinations: the pairs whose FTGCR plans cannot come from the
/// fault-free fast path. Distinct, so a fresh router misses on each.
std::vector<std::pair<NodeId, NodeId>> fault_adjacent_pairs(
    const GaussianCube& gc, const FaultSet& faults, std::uint64_t seed,
    std::size_t count) {
  std::vector<NodeId> sources;
  for (const NodeId v : faults.faulty_nodes()) {
    for (Dim c = 0; c < gc.dims(); ++c) {
      const NodeId u = flip_bit(v, c);
      if (gc.has_link(v, c) && !faults.node_faulty(u)) sources.push_back(u);
    }
  }
  GCUBE_REQUIRE(!sources.empty(), "fixture has no fault-adjacent node");
  Xoshiro256 rng(seed);
  std::set<std::pair<NodeId, NodeId>> seen;
  std::vector<std::pair<NodeId, NodeId>> pairs;
  while (pairs.size() < count) {
    const NodeId s = sources[rng.below(sources.size())];
    const auto d = static_cast<NodeId>(rng.below(gc.node_count()));
    if (d == s || faults.node_faulty(d)) continue;
    if (seen.insert({s, d}).second) pairs.emplace_back(s, d);
  }
  return pairs;
}

/// Isolated costs of the routing, fault and simulator layers, measured on
/// the workload's cube with kFixtureFaults precondition-checked node faults.
void measure_layers(const GaussianCube& gc, const FaultSet& faults,
                    double rate, const Seeds& seeds, bool quick, SpanLog& log,
                    std::vector<Metric>& out) {
  SpanLog::Scope layers_span(log, "layers");
  const int reps = quick ? 3 : 15;
  const auto ns_per = [](Clock::time_point t0, std::size_t ops) {
    return seconds_since(t0) * 1e9 / static_cast<double>(ops);
  };

  {
    SpanLog::Scope span(log, "routing.ftgcr");
    out.push_back({"routing.ftgcr.ctor_us", median_of(reps, [&] {
                     const auto t0 = Clock::now();
                     const FtgcrRouter router(gc, faults);
                     g_sink = g_sink + router.fabric()->table_bytes();
                     return seconds_since(t0) * 1e6;
                   }),
                   "us", ""});
    const auto pairs =
        fault_adjacent_pairs(gc, faults, seeds.samples, quick ? 200 : 2000);
    std::vector<double> miss;
    std::vector<double> hit;
    std::vector<double> hop_miss;
    std::vector<double> hop_hit;
    for (int r = 0; r < std::max(3, reps / 3); ++r) {
      const FtgcrRouter router(gc, faults);
      for (std::vector<double>* v : {&miss, &hit}) {
        const auto t0 = Clock::now();
        for (const auto& [s, d] : pairs) {
          const auto route = router.plan_shared(s, d);
          g_sink = g_sink + (route ? route->length() : 0);
        }
        v->push_back(ns_per(t0, pairs.size()));
      }
      for (std::vector<double>* v : {&hop_miss, &hop_hit}) {
        const auto t0 = Clock::now();
        for (const auto& [s, d] : pairs) {
          g_sink = g_sink + router.next_hop(s, d).value_or(0);
        }
        v->push_back(ns_per(t0, pairs.size()));
      }
    }
    out.push_back({"routing.ftgcr.plan_miss_ns", median(miss), "ns", ""});
    out.push_back({"routing.ftgcr.plan_hit_ns", median(hit), "ns", ""});
    out.push_back(
        {"routing.ftgcr.next_hop_miss_ns", median(hop_miss), "ns", ""});
    out.push_back({"routing.ftgcr.next_hop_hit_ns", median(hop_hit), "ns", ""});
  }
  {
    SpanLog::Scope span(log, "routing.fabric");
    const NextHopFabric fabric(gc);
    GCUBE_REQUIRE(fabric.supported(), "fabric unsupported for " + gc.name());
    constexpr std::size_t kPairs = 4096;
    std::vector<NodeId> cur(kPairs);
    std::vector<NodeId> dst(kPairs);
    std::vector<Dim> hops(kPairs);
    Xoshiro256 rng(seeds.samples ^ 0xfab);
    for (std::size_t i = 0; i < kPairs; ++i) {
      do {
        cur[i] = static_cast<NodeId>(rng.below(gc.node_count()));
        dst[i] = static_cast<NodeId>(rng.below(gc.node_count()));
      } while (cur[i] == dst[i]);
    }
    const int passes = quick ? 10 : 100;
    out.push_back({"routing.fabric.hop_ns", median_of(reps, [&] {
                     const auto t0 = Clock::now();
                     std::uint64_t acc = 0;
                     for (int p = 0; p < passes; ++p) {
                       for (std::size_t i = 0; i < kPairs; ++i) {
                         acc += fabric.fault_free_hop(cur[i], dst[i]);
                       }
                     }
                     g_sink = g_sink + acc;
                     return ns_per(t0, kPairs * static_cast<std::size_t>(passes));
                   }),
                   "ns", ""});
    const SimdLevel level = simd_level();
    out.push_back({"routing.fabric.batch_hop_ns", median_of(reps, [&] {
                     const auto t0 = Clock::now();
                     for (int p = 0; p < passes; ++p) {
                       fabric.fault_free_hops(level, kPairs, cur.data(),
                                              dst.data(), hops.data());
                       g_sink = g_sink + hops[static_cast<std::size_t>(p) %
                                              kPairs];
                     }
                     return ns_per(t0, kPairs * static_cast<std::size_t>(passes));
                   }),
                   "ns", "simd " + std::string(to_string(level))});
  }
  {
    SpanLog::Scope span(log, "fault");
    out.push_back({"fault.precondition_us", median_of(reps, [&] {
                     const auto t0 = Clock::now();
                     const bool ok =
                         check_ftgcr_precondition(gc, faults).holds;
                     g_sink = g_sink + ok;
                     return seconds_since(t0) * 1e6;
                   }),
                   "us", ""});
    // Each flap of a link is one fail and one repair, so the metric is the
    // mean of the two refresh costs: an appended fault is applied
    // incrementally, a repair forces a full rebuild.
    FaultSet live = faults;
    FaultOverlay overlay;
    overlay.attach(gc);
    overlay.refresh(live);
    std::vector<double> fail_us;
    std::vector<double> repair_us;
    Xoshiro256 rng(seeds.samples ^ 0x0e1);
    for (int r = 0; r < reps; ++r) {
      NodeId u = 0;
      Dim c = 0;
      do {
        u = static_cast<NodeId>(rng.below(gc.node_count()));
        c = static_cast<Dim>(rng.below(gc.dims()));
      } while (!gc.has_link(u, c) || !live.link_usable(u, c));
      live.fail_link(u, c);
      auto t0 = Clock::now();
      overlay.refresh(live);
      fail_us.push_back(seconds_since(t0) * 1e6);
      live.repair_link(u, c);
      t0 = Clock::now();
      overlay.refresh(live);
      repair_us.push_back(seconds_since(t0) * 1e6);
      g_sink = g_sink + overlay.usable_mask(u);
    }
    out.push_back({"fault.overlay_refresh_us",
                   0.5 * (median(fail_us) + median(repair_us)), "us",
                   "fail " + json_number(median(fail_us)) + " us, repair " +
                       json_number(median(repair_us)) + " us"});
  }
  {
    SpanLog::Scope span(log, "sim.layers");
    const UniformTraffic traffic(gc.node_count(), rate, faults, seeds.sim);
    std::vector<NodeId> sources;
    for (NodeId u = 0; u < gc.node_count(); ++u) {
      if (!faults.node_faulty(u)) sources.push_back(u);
    }
    const std::size_t draws = quick ? 20000 : 200000;
    Cycle cycle = 0;
    out.push_back({"sim.traffic.draw_ns", median_of(reps, [&] {
                     const auto t0 = Clock::now();
                     std::uint64_t acc = 0;
                     for (std::size_t i = 0; i < draws; ++i) {
                       const NodeId u = sources[i % sources.size()];
                       CounterRng rng(counter_key(seeds.sim, u, cycle + i));
                       acc += traffic.injection_gap(u, rng);
                       acc += traffic.pick_destination(u, rng);
                     }
                     cycle += draws;
                     g_sink = g_sink + acc;
                     return ns_per(t0, draws);
                   }),
                   "ns", ""});
    PacketPool pool;
    constexpr std::size_t kBatch = 256;
    std::vector<PacketIndex> held(kBatch);
    const int rounds = quick ? 100 : 2000;
    out.push_back({"sim.packet_pool.cycle_ns", median_of(reps, [&] {
                     const auto t0 = Clock::now();
                     for (int r = 0; r < rounds; ++r) {
                       for (PacketIndex& i : held) i = pool.acquire();
                       for (const PacketIndex i : held) pool.release(i);
                     }
                     g_sink = g_sink + pool.capacity();
                     return ns_per(t0, kBatch * static_cast<std::size_t>(rounds));
                   }),
                   "ns", ""});
    for (const unsigned threads : {2u, 4u}) {
      const int rounds_b = quick ? 2000 : 20000;
      ShardPool shard_pool(threads);
      const std::string name =
          "sim.shard_pool.barrier_ns.t" + std::to_string(threads);
      out.push_back({name, median_of(std::max(3, reps / 3), [&] {
                       const auto t0 = Clock::now();
                       shard_pool.run([&](unsigned) {
                         for (int r = 0; r < rounds_b; ++r) {
                           shard_pool.barrier_serial([] {});
                         }
                       });
                       return ns_per(t0, static_cast<std::size_t>(rounds_b));
                     }),
                     "ns", ""});
    }
  }
}

// ---------------------------------------------------------------- runs

struct Options {
  const Workload* workload = nullptr;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool quick = false;
  std::string trace_out;
};

/// Accumulates the operation counts and check verdicts of every run.
struct Ledger {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;
  /// The first run of each instance, which every later run of it must
  /// reproduce exactly.
  std::array<std::optional<SimMetrics>, kInstances> first;

  /// Checks one run of `instance` and books its packets.
  void book(const Workload& w, int instance, const SimMetrics& m) {
    std::optional<SimMetrics>& ref = first[static_cast<std::size_t>(instance)];
    std::string why = check_run(w, m, ref ? &*ref : nullptr);
    attempted += m.generated;
    if (why.empty()) {
      failed += lost_packets(m);
    } else {
      failed += m.generated;
      failures.push_back("instance " + std::to_string(instance) + ": " +
                         std::move(why));
    }
    if (!ref) ref = m;
  }
};

/// State shared by the passes of one benchmark process.
struct Bench {
  const Options& opt;
  const Workload& w;
  Cycle measure;
  /// Process start: the deadline covers the untimed checks too, so a run
  /// lasts about --seconds whatever the workload.
  Clock::time_point start = Clock::now();
  SpanLog log;
  Ledger ledger;
  std::vector<Metric> out;

  /// True while another step of `next` seconds still fits the deadline.
  [[nodiscard]] bool time_left(double next) const {
    return seconds_since(start) + next <= opt.seconds;
  }
  std::unique_ptr<Instance> build(int instance, std::uint32_t threads,
                                  bool phase_timing) {
    SpanLog::Scope span(log, "setup");
    return build_instance(w, derive_seeds(opt.seed, instance), measure,
                          threads, phase_timing, log);
  }
};

/// Runs the simulator of `inst`, returning its metrics and run() seconds.
std::pair<SimMetrics, double> timed_run(Instance& inst, SpanLog& log) {
  SpanLog::Scope span(log, "sim.run");
  const auto t0 = Clock::now();
  SimMetrics m = inst.sim->run();
  return {m, seconds_since(t0)};
}

/// Work counts of one fresh 1-thread run: a multi-threaded run's cache
/// counters depend on thread interleaving, a 1-thread run's are exact.
struct Counts {
  SimMetrics metrics;
  RouterCacheStats cache;
};

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::string spread_note(const std::vector<double>& v) {
  return "median of " + std::to_string(v.size()) + ", IQR " +
         json_number(std::round(relative_iqr(v) * 1000.0) / 10.0) + "%";
}

/// End-to-end pass: fresh runs back to back until the deadline, cycling
/// through the instances. Each rep sets up once for the run (plus extra
/// setups, which only feed setup_s), runs cold, reduces, then runs again
/// warm on the same router. The simulated metrics pool the first run of
/// every instance, so they do not depend on how many reps fit.
void end_to_end(Bench& b) {
  constexpr int kExtraSetups = 4;
  std::vector<double> setup_s;
  std::vector<double> wall_s;
  std::vector<double> pps;
  std::vector<double> warm_pps;
  std::optional<SimMetrics> pooled;
  double last_rep = 0.0;
  for (int rep = 0; rep < kInstances || b.time_left(last_rep); ++rep) {
    const int instance = rep % kInstances;
    const auto rep_t0 = Clock::now();
    SpanLog::Scope rep_span(b.log, "rep");
    std::unique_ptr<Instance> inst = b.build(instance, b.w.threads, false);
    setup_s.push_back(seconds_since(rep_t0));
    const auto [m, run_s] = timed_run(*inst, b.log);
    {
      SpanLog::Scope span(b.log, "reduce");
      b.ledger.book(b.w, instance, m);
      if (rep == 0) {
        pooled = m;
      } else if (rep < kInstances) {
        pooled->absorb(m);
      }
    }
    wall_s.push_back(seconds_since(rep_t0));
    pps.push_back(static_cast<double>(m.delivered) / run_s);
    {
      SpanLog::Scope span(b.log, "warm");
      if (!inst->schedule.empty()) heal_all(inst->faults);
      inst->make_sim();
      const auto [wm, warm_s] = timed_run(*inst, b.log);
      b.ledger.book(b.w, instance, wm);
      warm_pps.push_back(static_cast<double>(wm.delivered) / warm_s);
    }
    inst.reset();
    for (int k = 0; k < kExtraSetups; ++k) {
      const auto t0 = Clock::now();
      inst = b.build(instance, b.w.threads, false);
      setup_s.push_back(seconds_since(t0));
      inst.reset();
    }
    last_rep = seconds_since(rep_t0);
  }
  auto& out = b.out;
  out.push_back({"setup_s", median(setup_s), "s", spread_note(setup_s)});
  out.push_back({"wall_s", median(wall_s), "s", spread_note(wall_s)});
  out.push_back({"pkts_per_s", median(pps), "1/s", spread_note(pps)});
  out.push_back(
      {"warm_pkts_per_s", median(warm_pps), "1/s", spread_note(warm_pps)});
  out.push_back({"peak_rss_mb", peak_rss_mb(), "MB", ""});
  out.push_back({"delivery_ratio", pooled->delivery_ratio(), "ratio", ""});
  out.push_back({"avg_latency_cycles", pooled->avg_latency(), "cycles", ""});
  out.push_back(
      {"p99_latency_cycles",
       interpolated_percentile(pooled->latency_histogram, 0.99), "cycles",
       "interpolated inside its histogram bucket"});
  out.push_back({"avg_hops", pooled->avg_hops(), "hops", ""});
}

/// Traced pass: the layer micro-measurements, then pairs of fresh runs of
/// the instances in turn, one plain and one with SimConfig::phase_timing,
/// in alternating order. The work counts are those of instance 0.
void traced(Bench& b, const std::optional<Counts>& reference) {
  {
    const GaussianCube gc(b.w.n, b.w.modulus);
    const Seeds seeds = derive_seeds(b.opt.seed, 0);
    const FaultSet fixture = draw_faults(gc, kFixtureFaults, seeds.faults);
    measure_layers(gc, fixture, b.w.rate, seeds, b.opt.quick, b.log, b.out);
  }
  std::vector<double> overhead;
  std::vector<double> drain;
  std::vector<double> inject;
  std::vector<double> advance;
  std::vector<double> commit;
  std::vector<double> idle;
  std::optional<Counts> counts = reference;
  const double cycles = static_cast<double>(kWarmupCycles + b.measure);
  // Phase totals span warmup too; scale them to the measured window the
  // packet and hop counts describe.
  const double window = static_cast<double>(b.measure) / cycles;
  // SimConfig::threads is clamped to the core count.
  const double workers = static_cast<double>(std::min(
      b.w.threads, std::max(1u, std::thread::hardware_concurrency())));
  double last_pair = 0.0;
  for (int pair = 0; pair < 2 || b.time_left(last_pair); ++pair) {
    const int instance = pair % kInstances;
    const auto pair_t0 = Clock::now();
    SpanLog::Scope pair_span(b.log, "rep");
    double plain_s = 0.0;
    double traced_s = 0.0;
    for (int k = 0; k < 2; ++k) {
      const bool timing = (k == 0) == (pair % 2 == 1);
      SpanLog::Scope mode_span(b.log, timing ? "phase_timing" : "plain");
      std::unique_ptr<Instance> inst = b.build(instance, b.w.threads, timing);
      const auto [m, run_s] = timed_run(*inst, b.log);
      {
        SpanLog::Scope span(b.log, "reduce");
        b.ledger.book(b.w, instance, m);
      }
      if (!timing) {
        plain_s = run_s;
        if (!counts) counts = Counts{m, inst->router->cache_stats()};
        continue;
      }
      traced_s = run_s;
      drain.push_back(static_cast<double>(m.phase_drain_ns) / cycles);
      inject.push_back(static_cast<double>(m.phase_inject_ns) * window /
                       static_cast<double>(m.generated));
      advance.push_back(static_cast<double>(m.phase_advance_ns) * window /
                        static_cast<double>(m.total_hops));
      commit.push_back(static_cast<double>(m.phase_commit_ns) / 1e3 / cycles);
      const auto busy = static_cast<double>(
          m.phase_drain_ns + m.phase_inject_ns + m.phase_advance_ns +
          m.phase_commit_ns);
      idle.push_back(1.0 - busy / (workers * run_s * 1e9));
    }
    overhead.push_back(traced_s / plain_s);
    last_pair = seconds_since(pair_t0);
  }
  const SimMetrics& m = counts->metrics;
  const CacheStats& plan = counts->cache.plan;
  auto& out = b.out;
  out.push_back({"routing.plan_cache.lookups",
                 static_cast<double>(plan.lookups()), "count", ""});
  out.push_back(
      {"routing.plan_cache.misses", static_cast<double>(plan.misses), "count",
       ""});
  out.push_back({"routing.plan_cache.stale", static_cast<double>(plan.stale),
                 "count", ""});
  out.push_back({"fault.events", static_cast<double>(m.fault_events), "count",
                 "applied in the measured window"});
  out.push_back({"sim.reroutes", static_cast<double>(m.reroutes), "count", ""});
  out.push_back({"sim.parked_retries", static_cast<double>(m.parked_retries),
                 "count", ""});
  out.push_back(
      {"sim.service_ops", static_cast<double>(m.service_ops), "count", ""});
  out.push_back({"sim.hops", static_cast<double>(m.total_hops), "count", ""});
  out.push_back({"sim.phase.drain_ns_per_cycle", median(drain), "ns",
                 spread_note(drain)});
  out.push_back({"sim.phase.inject_ns_per_pkt", median(inject), "ns",
                 spread_note(inject)});
  out.push_back({"sim.phase.advance_ns_per_hop", median(advance), "ns",
                 spread_note(advance)});
  out.push_back({"sim.phase.commit_us_per_cycle", median(commit), "us",
                 spread_note(commit)});
  out.push_back({"sim.idle_share", median(idle), "ratio", spread_note(idle)});
  out.push_back({"trace.overhead_ratio", median(overhead), "ratio",
                 spread_note(overhead)});
}

Options parse_options(int argc, char** argv) {
  CliArgs args(argc, argv);
  args.allow({"workload", "seed", "seconds", "trace", "trace-out", "quick"});
  Options opt;
  const std::string name = args.get_string("workload", "");
  for (const Workload& w : kWorkloads) {
    if (name == w.name) opt.workload = &w;
  }
  GCUBE_REQUIRE(opt.workload != nullptr, "unknown --workload '" + name + "'");
  const std::int64_t seed = args.get_int("seed", 1);
  GCUBE_REQUIRE(seed >= 0, "--seed must be non-negative");
  opt.seed = static_cast<std::uint64_t>(seed);
  opt.seconds = args.get_double("seconds", 10.0);
  GCUBE_REQUIRE(opt.seconds > 0.0 && opt.seconds <= 120.0,
                "--seconds must be in (0, 120]");
  const std::int64_t trace = args.get_int("trace", 0);
  GCUBE_REQUIRE(trace == 0 || trace == 1, "--trace must be 0 or 1");
  opt.trace = trace == 1;
  opt.quick = args.get_bool("quick");
  opt.trace_out = args.get_string("trace-out", "");
  return opt;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Options opt = parse_options(argc, argv);
    const Workload& w = *opt.workload;
    Bench b{opt, w, opt.quick ? w.measure_cycles / 20 : w.measure_cycles,
            Clock::now(), SpanLog(opt.trace), {}, {}};

    // Untimed checks first: the route sample on the layer fixture, and for
    // a multi-threaded workload the 1-thread run of instance 0, which the
    // timed runs must reproduce bit for bit.
    {
      SpanLog::Scope span(b.log, "route_sample_check");
      const GaussianCube gc(w.n, w.modulus);
      const Seeds seeds = derive_seeds(opt.seed, 0);
      const FaultSet fixture = draw_faults(gc, kFixtureFaults, seeds.faults);
      std::string why = check_route_sample(gc, fixture, seeds.samples,
                                           opt.quick ? 200 : 2000);
      if (!why.empty()) b.ledger.failures.push_back(std::move(why));
    }
    std::optional<Counts> reference;
    if (w.threads > 1) {
      SpanLog::Scope span(b.log, "reference_1thread");
      auto inst = b.build(0, 1, false);
      reference = Counts{timed_run(*inst, b.log).first,
                         inst->router->cache_stats()};
      b.ledger.book(w, 0, reference->metrics);
    }

    if (opt.trace) {
      traced(b, reference);
      if (!opt.trace_out.empty()) b.log.write(opt.trace_out);
    } else {
      end_to_end(b);
    }

    std::cout << "workload = " << w.name << "  (seed " << opt.seed << ")\n";
    for (const Metric& m : b.out) {
      GCUBE_REQUIRE(std::isfinite(m.value), "metric " + m.name + " not finite");
      std::cout << m.name << " = " << json_number(m.value) << " " << m.unit
                << (m.note.empty() ? "" : "  (" + m.note + ")") << "\n";
    }
    for (const std::string& f : b.ledger.failures) {
      std::cout << "CHECK FAILED: " << f << "\n";
    }
    const bool correct = b.ledger.failures.empty();
    std::cout << "{\"correct\": " << (correct ? "true" : "false")
              << ", \"attempted\": " << b.ledger.attempted
              << ", \"failed\": " << b.ledger.failed << ", \"metrics\": {";
    for (std::size_t i = 0; i < b.out.size(); ++i) {
      std::cout << (i == 0 ? "" : ", ") << "\"" << b.out[i].name
                << "\": {\"value\": " << json_number(b.out[i].value)
                << ", \"unit\": \"" << b.out[i].unit << "\"}";
    }
    std::cout << "}}" << std::endl;
    return correct ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }
}
