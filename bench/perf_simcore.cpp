// perf_simcore — simulator hot-path throughput harness.
//
// Times NetworkSim::run() (injection + forwarding, the whole cycle loop)
// across Gaussian-Cube sizes and router kinds, and reports wall-clock
// cycles/sec, delivered packets/sec, and packet-hops/sec per cell. The
// headline cell — GC(10, 4), FTGCR, static faults — is the one each perf
// PR is judged against: its pre-PR measurement is recorded below and the
// JSON output carries both numbers so the perf trajectory is tracked run
// over run. The _t2/_t4 companions rerun the headline workload with exact
// worker counts and report speedup_vs_threads1 — the node-sharded core's
// scaling curve (bit-identical metrics, by the determinism contract).
//
// Output: a human-readable table on stdout and BENCH_simcore.json (schema
// documented in EXPERIMENTS.md §Performance) in the working directory or
// at --out=<path>. --quick shrinks the cycle counts and repetitions for
// CI; quick numbers are noisier but use the identical schema.
#include <chrono>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "fault/fault_set.hpp"
#include "fault/preconditions.hpp"
#include "routing/ecube.hpp"
#include "routing/ffgcr.hpp"
#include "routing/ftgcr.hpp"
#include "sim/network.hpp"
#include "sim/traffic.hpp"
#include "topology/gaussian_cube.hpp"
#include "util/cli.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/simd.hpp"
#include "util/table.hpp"

namespace {

using namespace gcube;

// Pre-PR measurement of the headline cell (GC(10, 4), FTGCR, 12 static
// faults, rate 0.05, 300 + 4000 cycles, seed 4242), best of 3 on the
// reference container: packets/sec delivered at threads=1 by the SoA
// hot/cold packet lanes with the batched word-at-a-time advance, all
// kernels scalar (PR 7 state). The current threads=1 cell — SIMD classify,
// gathered fabric lookups behind runtime ISA
// dispatch — is judged against this. Re-measure with `git checkout <PR 7>`
// if the hardware changes.
constexpr double kBaselineHeadlinePacketsPerSec = 1590808.0;

struct CellSpec {
  std::string name;
  Dim n = 10;
  std::uint64_t modulus = 4;
  std::string router;           // "FFGCR", "FTGCR", "ECUBE"
  std::size_t faulty_nodes = 0; // static, precondition-checked
  double injection_rate = 0.05;
  Cycle warmup = 300;
  Cycle measure = 4000;
  bool headline = false;  // carries the recorded baseline in the JSON
  bool quick_only_shrink = true;
  std::uint32_t threads = 1;      // SimConfig::threads (exact worker count)
  std::string scaling_base;       // name of the threads=1 cell to divide by
  bool simd_scalar = false;       // pin SimdLevel::kScalar for this cell
  std::string simd_base;          // scalar twin: emit speedup_vs_simd_scalar
};

struct CellResult {
  CellSpec spec;
  SimMetrics metrics;
  double seconds = 0.0;  // best-of-reps wall time of NetworkSim::run()
  /// Per-phase attribution from ONE extra run with SimConfig::phase_timing
  /// (steady_clock reads in the cycle loop), kept out of `seconds` so the
  /// instrumentation never taxes the headline number. Nanoseconds summed
  /// across workers.
  SimMetrics timed;
  /// Wall time of that one instrumented pass — the denominator the
  /// phase_*_ns attribution must fit inside (sum <= threads * this),
  /// which `seconds` cannot serve: best-of-reps from uninstrumented runs
  /// is routinely shorter than any single instrumented pass.
  double timed_seconds = 0.0;
  /// Dispatch level the cell's kernels actually ran at.
  SimdLevel simd = SimdLevel::kScalar;
  [[nodiscard]] double cycles_per_sec() const {
    return static_cast<double>(spec.warmup + spec.measure) / seconds;
  }
  [[nodiscard]] double packets_per_sec() const {
    return static_cast<double>(metrics.delivered) / seconds;
  }
  [[nodiscard]] double hops_per_sec() const {
    return static_cast<double>(metrics.total_hops) / seconds;
  }
};

/// Draws `count` distinct faulty nodes satisfying the FTGCR precondition
/// (same idiom as the experiment runner; deterministic in `seed`).
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

CellResult run_cell(const CellSpec& spec, int reps) {
  const GaussianCube gc(spec.n, spec.modulus);
  FaultSet faults;
  if (spec.faulty_nodes > 0) faults = draw_faults(gc, spec.faulty_nodes, 7);

  std::unique_ptr<Router> router;
  if (spec.router == "FFGCR") {
    router = std::make_unique<FfgcrRouter>(gc);
  } else if (spec.router == "FTGCR") {
    router = std::make_unique<FtgcrRouter>(gc, faults);
  } else if (spec.router == "ECUBE") {
    GCUBE_REQUIRE(spec.modulus == 1, "e-cube needs GC(n, 1)");
    router = std::make_unique<EcubeRouter>(gc);
  } else {
    GCUBE_REQUIRE(false, "unknown router kind " + spec.router);
  }

  SimConfig cfg;
  cfg.injection_rate = spec.injection_rate;
  cfg.warmup_cycles = spec.warmup;
  cfg.measure_cycles = spec.measure;
  cfg.seed = 4242;
  cfg.threads = spec.threads;
  // The scaling companions need their exact worker counts even on boxes
  // with fewer cores, so the curve stays comparable across machines.
  cfg.allow_oversubscribe = true;

  CellResult result;
  result.spec = spec;
  // The _simd_scalar twin pins every kernel to the scalar reference for
  // the whole cell (NetworkSim snapshots the level at construction);
  // metrics are bit-identical either way, only wall time may move.
  const SimdLevel entry_level = simd_level();
  if (spec.simd_scalar) set_simd_level(SimdLevel::kScalar);
  result.simd = simd_level();
  double best = 0.0;
  for (int rep = 0; rep < reps; ++rep) {
    // A fresh simulator per rep so queue/pool warm-up is timed every time;
    // the router (and its caches) persists, matching steady-state service.
    NetworkSim sim(gc, *router, faults, cfg);
    const auto t0 = std::chrono::steady_clock::now();
    SimMetrics m = sim.run();
    const auto t1 = std::chrono::steady_clock::now();
    const double secs = std::chrono::duration<double>(t1 - t0).count();
    if (rep == 0 || secs < best) best = secs;
    result.metrics = m;
  }
  result.seconds = best;
  // One instrumented pass for the phase breakdown, after (and excluded
  // from) the timed reps. Same workload and seed, so the metrics match the
  // timed runs bit for bit; only the phase_*_ns fields differ from zero.
  cfg.phase_timing = true;
  NetworkSim timed_sim(gc, *router, faults, cfg);
  const auto t0 = std::chrono::steady_clock::now();
  result.timed = timed_sim.run();
  const auto t1 = std::chrono::steady_clock::now();
  result.timed_seconds = std::chrono::duration<double>(t1 - t0).count();
  if (spec.simd_scalar) set_simd_level(entry_level);
  return result;
}

/// packets/sec of the named cell, or 0 when it was not run (quick trims).
double cell_packets_per_sec(const std::vector<CellResult>& cells,
                            const std::string& name) {
  for (const CellResult& c : cells) {
    if (c.spec.name == name) return c.packets_per_sec();
  }
  return 0.0;
}

/// JSON number that is always spelled as a float. Streaming a double with
/// the default %g drops the decimal point whenever the value rounds to an
/// integer at the active precision, so cycles_per_sec used to come out as
/// 256386 in one cell and 44561.6 in the next — poison for schema-inferring
/// consumers. Every floating-point field goes through here.
std::string json_double(double v) {
  std::ostringstream os;
  os.precision(6);
  os << v;
  std::string s = os.str();
  if (s.find_first_of(".e") == std::string::npos) s += ".0";
  return s;
}

void write_json(const std::string& path, const std::vector<CellResult>& cells,
                bool quick) {
  std::ofstream out(path);
  GCUBE_REQUIRE(out.good(), "cannot open " + path + " for writing");
  // Schema 5: a top-level provenance block — the same identifying tuple
  // the checkpoint header carries (seed, topology, router, simd, threads,
  // schema version, build type) — so a report is attributable to the run
  // that produced it without consulting the harness source. Topology /
  // router / simd / threads describe the headline cell.
  const CellResult* headline = &cells.front();
  for (const CellResult& c : cells) {
    if (c.spec.headline) headline = &c;
  }
#ifdef NDEBUG
  const char* build_type = "optimized";
#else
  const char* build_type = "debug";
#endif
  out << "{\n"
      << "  \"bench\": \"perf_simcore\",\n"
      << "  \"schema_version\": 5,\n"
      << "  \"provenance\": {\n"
      << "    \"seed\": 4242,\n"
      << "    \"topology\": \"GC(" << headline->spec.n << ", "
      << headline->spec.modulus << ")\",\n"
      << "    \"router\": \"" << headline->spec.router << "\",\n"
      << "    \"simd\": \"" << to_string(headline->simd) << "\",\n"
      << "    \"threads\": " << headline->spec.threads << ",\n"
      << "    \"schema_version\": 5,\n"
      << "    \"build_type\": \"" << build_type << "\"\n"
      << "  },\n"
      << "  \"mode\": \"" << (quick ? "quick" : "full") << "\",\n"
      << "  \"baseline\": {\n"
      << "    \"label\": \"pre-PR (PR 7, SoA lanes, scalar kernels)\",\n"
      << "    \"headline_cell\": \"gc10x4_ftgcr_static\",\n"
      << "    \"packets_per_sec\": "
      << json_double(kBaselineHeadlinePacketsPerSec) << "\n  },\n"
      << "  \"cells\": [\n";
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const CellResult& c = cells[i];
    out << "    {\n"
        << "      \"name\": \"" << c.spec.name << "\",\n"
        << "      \"topology\": \"GC(" << c.spec.n << ", " << c.spec.modulus
        << ")\",\n"
        << "      \"router\": \"" << c.spec.router << "\",\n"
        << "      \"static_faults\": " << c.spec.faulty_nodes << ",\n"
        << "      \"injection_rate\": " << json_double(c.spec.injection_rate)
        << ",\n"
        << "      \"warmup_cycles\": " << c.spec.warmup << ",\n"
        << "      \"measure_cycles\": " << c.spec.measure << ",\n"
        << "      \"threads\": " << c.spec.threads << ",\n"
        << "      \"simd\": \"" << to_string(c.simd) << "\",\n"
        << "      \"seconds\": " << json_double(c.seconds) << ",\n"
        << "      \"timed_seconds\": " << json_double(c.timed_seconds)
        << ",\n"
        << "      \"cycles_per_sec\": " << json_double(c.cycles_per_sec())
        << ",\n"
        << "      \"generated\": " << c.metrics.generated << ",\n"
        << "      \"delivered\": " << c.metrics.delivered << ",\n"
        << "      \"carryover_delivered\": " << c.metrics.carryover_delivered
        << ",\n"
        << "      \"total_hops\": " << c.metrics.total_hops << ",\n"
        << "      \"packets_per_sec\": " << json_double(c.packets_per_sec())
        << ",\n"
        << "      \"hops_per_sec\": " << json_double(c.hops_per_sec())
        << ",\n"
        << "      \"phase_breakdown\": {\n"
        << "        \"drain_ns\": " << c.timed.phase_drain_ns << ",\n"
        << "        \"inject_ns\": " << c.timed.phase_inject_ns << ",\n"
        << "        \"advance_ns\": " << c.timed.phase_advance_ns << ",\n"
        << "        \"commit_ns\": " << c.timed.phase_commit_ns
        << "\n      }";
    if (c.spec.headline) {
      out << ",\n      \"baseline_packets_per_sec\": "
          << json_double(kBaselineHeadlinePacketsPerSec)
          << ",\n      \"speedup_vs_baseline\": "
          << json_double(c.packets_per_sec() /
                         kBaselineHeadlinePacketsPerSec);
    }
    if (!c.spec.scaling_base.empty()) {
      const double base = cell_packets_per_sec(cells, c.spec.scaling_base);
      if (base > 0.0) {
        out << ",\n      \"scaling_base\": \"" << c.spec.scaling_base
            << "\",\n      \"speedup_vs_threads1\": "
            << json_double(c.packets_per_sec() / base);
      }
    }
    if (!c.spec.simd_base.empty()) {
      const double base = cell_packets_per_sec(cells, c.spec.simd_base);
      if (base > 0.0) {
        out << ",\n      \"speedup_vs_simd_scalar\": "
            << json_double(c.packets_per_sec() / base);
      }
    }
    out << "\n    }" << (i + 1 < cells.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
}

}  // namespace

int main(int argc, char** argv) {
  using namespace gcube;
  CliArgs args(argc, argv);
  args.allow({"quick", "out"});
  const bool quick = args.get_bool("quick");
  const std::string out_path = args.get_string("out", "BENCH_simcore.json");

  bench::print_banner("perf_simcore",
                      "simulator hot-path throughput (inject + forward)");

  std::vector<CellSpec> specs{
      {"gc8x2_ffgcr_faultfree", 8, 2, "FFGCR", 0, 0.05, 300, 4000, false,
       true, 1, "", false, ""},
      {"gc10x4_ffgcr_faultfree", 10, 4, "FFGCR", 0, 0.05, 300, 4000, false,
       true, 1, "", false, ""},
      {"gc10x4_ftgcr_static", 10, 4, "FTGCR", 12, 0.05, 300, 4000, true,
       true, 1, "", false, "gc10x4_ftgcr_static_simd_scalar"},
      // SIMD twin of the headline cell: identical workload with every
      // kernel pinned to the scalar reference, so speedup_vs_simd_scalar on
      // the headline attributes the vectorization win separately from the
      // baseline trajectory. Metrics are bit-identical by the dispatch
      // contract.
      {"gc10x4_ftgcr_static_simd_scalar", 10, 4, "FTGCR", 12, 0.05, 300,
       4000, false, true, 1, "", true, ""},
      // Thread-scaling companions of the headline cell: identical workload,
      // exact worker counts. Metrics are bit-identical across all three by
      // the determinism contract; only wall time may differ.
      {"gc10x4_ftgcr_static_t2", 10, 4, "FTGCR", 12, 0.05, 300, 4000, false,
       true, 2, "gc10x4_ftgcr_static", false, ""},
      {"gc10x4_ftgcr_static_t4", 10, 4, "FTGCR", 12, 0.05, 300, 4000, false,
       true, 4, "gc10x4_ftgcr_static", false, ""},
      {"gc10x1_ecube_faultfree", 10, 1, "ECUBE", 0, 0.05, 300, 4000, false,
       true, 1, "", false, ""},
      {"gc12x4_ftgcr_static", 12, 4, "FTGCR", 16, 0.02, 300, 1500, false,
       false, 1, "", false, ""},
      // Low injection: at 1% load most nodes idle most cycles, the regime
      // where the active-set worklist (skip idle nodes entirely) pays.
      // Fault-free on purpose, so steering-adoption costs near faults do
      // not mix into the cycle-loop cost.
      {"gc10x4_ftgcr_lowinj", 10, 4, "FTGCR", 0, 0.01, 300, 4000, false,
       true, 1, "", false, ""},
  };
  if (quick) {
    std::vector<CellSpec> trimmed;
    for (CellSpec spec : specs) {
      if (!spec.quick_only_shrink) continue;  // drop the big cells in CI
      spec.warmup = 100;
      spec.measure = 800;
      trimmed.push_back(spec);
    }
    specs = std::move(trimmed);
  }
  // Best-of-5 in full mode: containerized reference boxes show several
  // percent of run-to-run drift, and the headline ratio is gated at the
  // few-percent level — three reps routinely missed the machine's true
  // ceiling.
  const int reps = quick ? 1 : 5;

  std::vector<CellResult> cells;
  cells.reserve(specs.size());
  for (const CellSpec& spec : specs) {
    cells.push_back(run_cell(spec, reps));
  }

  TextTable table({"cell", "router", "faults", "threads", "simd", "cycles/s",
                   "packets/s", "hops/s", "delivered", "seconds"});
  for (const CellResult& c : cells) {
    table.add_row({c.spec.name, c.spec.router,
                   std::to_string(c.spec.faulty_nodes),
                   std::to_string(c.spec.threads), to_string(c.simd),
                   fmt_double(c.cycles_per_sec(), 0),
                   fmt_double(c.packets_per_sec(), 0),
                   fmt_double(c.hops_per_sec(), 0),
                   std::to_string(c.metrics.delivered),
                   fmt_double(c.seconds, 3)});
  }
  table.print(std::cout);

  for (const CellResult& c : cells) {
    if (c.spec.headline) {
      std::cout << "headline " << c.spec.name << ": "
                << fmt_double(c.packets_per_sec(), 0) << " packets/s vs "
                << fmt_double(kBaselineHeadlinePacketsPerSec, 0)
                << " baseline ("
                << fmt_double(c.packets_per_sec() /
                                  kBaselineHeadlinePacketsPerSec,
                              2)
                << "x)\n";
      const double total = static_cast<double>(
          c.timed.phase_drain_ns + c.timed.phase_inject_ns +
          c.timed.phase_advance_ns + c.timed.phase_commit_ns);
      if (total > 0.0) {
        const auto pct = [&](std::uint64_t ns) {
          return fmt_double(100.0 * static_cast<double>(ns) / total, 1);
        };
        std::cout << "phases " << c.spec.name << ": drain "
                  << pct(c.timed.phase_drain_ns) << "% inject "
                  << pct(c.timed.phase_inject_ns) << "% advance "
                  << pct(c.timed.phase_advance_ns) << "% commit "
                  << pct(c.timed.phase_commit_ns) << "%\n";
      }
    }
    if (!c.spec.scaling_base.empty()) {
      const double base = cell_packets_per_sec(cells, c.spec.scaling_base);
      if (base > 0.0) {
        std::cout << "scaling " << c.spec.name << ": "
                  << fmt_double(c.packets_per_sec() / base, 2)
                  << "x vs threads=1\n";
      }
    }
    if (!c.spec.simd_base.empty()) {
      const double base = cell_packets_per_sec(cells, c.spec.simd_base);
      if (base > 0.0) {
        std::cout << "simd " << c.spec.name << ": "
                  << fmt_double(c.packets_per_sec() / base, 2)
                  << "x vs scalar kernels\n";
      }
    }
  }
  write_json(out_path, cells, quick);
  std::cout << "wrote " << out_path << "\n";
  return 0;
}
