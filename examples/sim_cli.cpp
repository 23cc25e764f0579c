// sim_cli: run one simulation cell of the paper's evaluation from the
// command line — the tool for exploring parameters beyond the bundled
// benchmarks.
//
//   $ ./sim_cli --n 10 --modulus 4 --rate 0.05 --cycles 2000
//   $ ./sim_cli --n 9 --modulus 2 --faults 2 --pattern hotspot
//   $ ./sim_cli --n 8 --modulus 2 --buffers 4 --rate 0.3
//
// Dynamic-fault mode (faults arriving while packets are in flight):
//
//   $ ./sim_cli --n 9 --modulus 1 --fault-rate 0.002 --router ftgcr
//   $ ./sim_cli --n 9 --modulus 2 --fault-schedule events.txt
//
// where events.txt holds one event per line:
//   # comment
//   <cycle> node <node-id>
//   <cycle> link <node-id> <dim>
//   <cycle> repair-node <node-id>
//   <cycle> repair-link <node-id> <dim>
//
// Transient-fault recovery (repairs, flapping links, retry delivery):
//
//   $ ./sim_cli --n 9 --fault-rate 0.002 --fault-repair 250
//               --retry-limit 8 --retry-budget 4    (one command line)
//   $ ./sim_cli --n 9 --flap-links 16 --mttf 300 --mttr 60 --retry-limit 8
//
// Checkpoint / crash recovery (see sim/checkpoint.hpp for guarantees):
//
//   $ ./sim_cli --n 8 --checkpoint-every 500 --checkpoint-path run.ckpt
//   $ ./sim_cli --n 8 --resume run.ckpt            # same other flags!
//   $ ./sim_cli --n 8 --checkpoint-every 500 --checkpoint-path run.ckpt
//               --crash-at-cycle 1234 (one line)   # hard _exit(137) mid-run
//
// SIGINT/SIGTERM finish the current cycle, write a final checkpoint (when
// --checkpoint-path is set) plus the metrics summary, and exit 130.
#include <atomic>
#include <csignal>
#include <cstdint>
#include <iostream>
#include <limits>
#include <string>

#include "sim/runner.hpp"
#include "util/cli.hpp"
#include "util/error.hpp"
#include "util/simd.hpp"
#include "util/table.hpp"

namespace {

gcube::TrafficPattern parse_pattern(const std::string& name) {
  using gcube::TrafficPattern;
  if (name == "uniform") return TrafficPattern::kUniform;
  if (name == "complement") return TrafficPattern::kBitComplement;
  if (name == "reversal") return TrafficPattern::kBitReversal;
  if (name == "transpose") return TrafficPattern::kTranspose;
  if (name == "hotspot") return TrafficPattern::kHotspot;
  throw std::invalid_argument("unknown pattern '" + name +
                              "' (uniform|complement|reversal|transpose|"
                              "hotspot)");
}

gcube::SimRouterKind parse_router(const std::string& name) {
  using gcube::SimRouterKind;
  if (name == "auto") return SimRouterKind::kAuto;
  if (name == "ffgcr") return SimRouterKind::kFfgcr;
  if (name == "ftgcr") return SimRouterKind::kFtgcr;
  if (name == "ecube") return SimRouterKind::kEcube;
  throw std::invalid_argument("unknown router '" + name +
                              "' (auto|ffgcr|ftgcr|ecube)");
}

/// SIGINT/SIGTERM flag, polled by the simulator at every serial point.
/// The handler only stores to an atomic (async-signal-safe); the graceful
/// work — finishing the cycle, the final checkpoint, the summary — all
/// happens on the normal control path.
std::atomic<bool> g_stop_requested{false};

extern "C" void handle_stop_signal(int) {
  g_stop_requested.store(true, std::memory_order_relaxed);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace gcube;
  try {
    CliArgs args(argc, argv);
    args.allow({"n", "modulus", "rate", "cycles", "warmup", "faults",
                "pattern", "seed", "buffers", "service", "router",
                "fault-schedule", "fault-rate", "fault-repair", "flap-links",
                "mttf", "mttr", "retry-limit", "retry-backoff",
                "retry-budget", "retransmit-timeout", "threads",
                "oversubscribe", "simd", "checkpoint-every",
                "checkpoint-path", "resume", "crash-at-cycle", "help"});
    if (args.get_bool("help")) {
      std::cout
          << "usage: sim_cli [--n N] [--modulus M] [--rate R] [--cycles C]\n"
          << "               [--warmup W] [--faults F] [--pattern P]\n"
          << "               [--seed S] [--buffers B] [--service K]\n"
          << "               [--router auto|ffgcr|ftgcr|ecube]\n"
          << "               [--fault-schedule FILE] [--fault-rate R]\n"
          << "               [--fault-repair D] [--flap-links L]\n"
          << "               [--mttf M] [--mttr M] [--retry-limit K]\n"
          << "               [--retry-backoff B] [--retry-budget R]\n"
          << "               [--retransmit-timeout T]\n"
          << "               [--threads T] [--oversubscribe]\n"
          << "               [--simd scalar|avx2]\n"
          << "               [--checkpoint-every N] [--checkpoint-path F]\n"
          << "               [--resume F] [--crash-at-cycle N]\n"
          << "--fault-schedule/--fault-rate enable dynamic-fault mode:\n"
          << "scheduled events mutate the network mid-run and packets\n"
          << "adopt fresh plans around faults discovered en route.\n"
          << "--fault-repair D: each random node fault heals D cycles\n"
          << "after it lands (transient faults).\n"
          << "--flap-links L with --mttf/--mttr: L links fail and heal\n"
          << "repeatedly (geometric up/down times with those means).\n"
          << "--retry-limit K: park a stranded packet up to K times with\n"
          << "exponential backoff (--retry-backoff, default 2) instead of\n"
          << "dropping it; --retry-budget R adds up to R end-to-end\n"
          << "source retransmits after --retransmit-timeout cycles.\n"
          << "--threads: simulation worker threads (0 = auto). Metrics\n"
          << "are bit-identical for any thread count at a fixed seed;\n"
          << "counts above the core count are clamped unless\n"
          << "--oversubscribe is given.\n"
          << "--simd: pin the vector-kernel dispatch level (default: avx2\n"
          << "when the CPU supports it; requests above that are clamped).\n"
          << "Metrics are bit-identical at both levels — escape hatch for\n"
          << "A/B timing and equivalence checks;\n"
          << "GCUBE_SIMD=scalar|avx2 does the same for any binary.\n"
          << "--checkpoint-path F: save the full run state to F (atomic\n"
          << "write, previous generation kept as F.1); --checkpoint-every\n"
          << "N writes it entering every Nth cycle, and a SIGINT/SIGTERM\n"
          << "halt writes a final one. --resume F continues a run from a\n"
          << "checkpoint (same simulation flags required; --threads and\n"
          << "--simd may differ — final metrics are bit-identical to the\n"
          << "uninterrupted run). --crash-at-cycle N hard-exits with\n"
          << "status 137 mid-run to exercise crash recovery.\n";
      return 0;
    }
    if (args.has("simd")) {
      const std::string simd = args.get_string("simd", "");
      const auto level = parse_simd_level(simd);
      if (!level) {
        throw std::invalid_argument("unknown --simd level '" + simd +
                                    "' (scalar|avx2)");
      }
      set_simd_level(*level);
    }
    // Every integer flag lands in an unsigned field, so get_uint refuses
    // negative values (they would wrap) and values the field cannot hold.
    constexpr std::uint64_t kU32 = std::numeric_limits<std::uint32_t>::max();
    GcSimSpec spec;
    spec.n = static_cast<Dim>(args.get_uint("n", 9, kU32));
    spec.modulus = args.get_uint("modulus", 2);
    spec.faulty_nodes = args.get_uint("faults", 0);
    spec.pattern = parse_pattern(args.get_string("pattern", "uniform"));
    spec.router = parse_router(args.get_string("router", "auto"));
    if (args.has("fault-schedule")) {
      spec.schedule =
          FaultSchedule::from_file(args.get_string("fault-schedule", ""));
    }
    spec.fault_rate = args.get_double("fault-rate", 0.0);
    spec.fault_repair_after = args.get_uint("fault-repair", 0);
    spec.flapping_links = args.get_uint("flap-links", 0);
    spec.mttf = args.get_double("mttf", 200.0);
    spec.mttr = args.get_double("mttr", 50.0);
    spec.sim.retry_limit =
        static_cast<std::uint32_t>(args.get_uint("retry-limit", 0, kU32));
    spec.sim.retry_backoff_base = args.get_uint("retry-backoff", 2);
    spec.sim.retry_budget =
        static_cast<std::uint32_t>(args.get_uint("retry-budget", 0, kU32));
    spec.sim.retransmit_timeout = args.get_uint("retransmit-timeout", 64);
    spec.sim.injection_rate = args.get_double("rate", 0.02);
    spec.sim.measure_cycles = args.get_uint("cycles", 1500);
    spec.sim.warmup_cycles = args.get_uint("warmup", 300);
    spec.sim.seed = args.get_uint("seed", 42);
    spec.sim.buffer_limit =
        static_cast<std::uint32_t>(args.get_uint("buffers", 0, kU32));
    spec.sim.service_rate =
        static_cast<std::uint32_t>(args.get_uint("service", 4, kU32));
    spec.sim.threads =
        static_cast<std::uint32_t>(args.get_uint("threads", 0, kU32));
    spec.sim.allow_oversubscribe = args.get_bool("oversubscribe");
    spec.sim.checkpoint_every = args.get_uint("checkpoint-every", 0);
    spec.sim.checkpoint_path = args.get_string("checkpoint-path", "");
    spec.sim.resume_from = args.get_string("resume", "");
    spec.sim.crash_at_cycle = args.get_uint("crash-at-cycle", 0);
    spec.sim.stop_requested = &g_stop_requested;
    std::signal(SIGINT, handle_stop_signal);
    std::signal(SIGTERM, handle_stop_signal);

    const GcSimOutcome outcome = run_gc_simulation(spec);
    const SimMetrics& m = outcome.metrics;
    TextTable table({"metric", "value"});
    table.add_row({"topology", "GC(" + std::to_string(spec.n) + "," +
                                   std::to_string(spec.modulus) + ")"});
    table.add_row({"faults injected", std::to_string(outcome.faults_injected)});
    table.add_row({"fault events scheduled",
                   std::to_string(outcome.fault_events_scheduled)});
    table.add_row({"fault events applied (measured)",
                   std::to_string(m.fault_events)});
    table.add_row({"repairs applied", std::to_string(m.repairs_applied)});
    table.add_row({"generated (offered)", std::to_string(m.generated)});
    table.add_row({"accepted", std::to_string(m.accepted())});
    table.add_row({"delivered", std::to_string(m.delivered)});
    table.add_row({"carryover delivered (warmup-born)",
                   std::to_string(m.carryover_delivered)});
    table.add_row({"delivery ratio", fmt_double(m.delivery_ratio(), 4)});
    table.add_row({"reroutes", std::to_string(m.reroutes)});
    table.add_row({"dropped no route", std::to_string(m.dropped_no_route)});
    table.add_row({"dropped hop limit",
                   std::to_string(m.dropped_hop_limit)});
    table.add_row({"orphaned by node fault",
                   std::to_string(m.orphaned_by_node_fault)});
    table.add_row({"parked retries", std::to_string(m.parked_retries)});
    table.add_row({"retransmits", std::to_string(m.retransmits)});
    table.add_row({"gave up", std::to_string(m.gave_up)});
    table.add_row({"in flight at end", std::to_string(m.in_flight_at_end)});
    table.add_row({"avg hops", fmt_double(m.avg_hops(), 3)});
    table.add_row({"avg latency (cycles)", fmt_double(m.avg_latency(), 3)});
    table.add_row({"p50 latency (<=)",
                   std::to_string(m.latency_histogram.percentile(0.50))});
    table.add_row({"p99 latency (<=)",
                   std::to_string(m.latency_histogram.percentile(0.99))});
    table.add_row({"throughput (pkts/cycle)", fmt_double(m.throughput(), 3)});
    table.add_row({"log2 throughput", fmt_double(m.log2_throughput(), 3)});
    table.add_row({"peak in flight", std::to_string(m.peak_in_flight)});
    table.add_row({"injections blocked", std::to_string(m.injections_blocked)});
    table.add_row({"stalled cycles", std::to_string(m.stalled_cycles)});
    table.add_row({"deadlocked", m.deadlocked ? "YES" : "no"});
    if (m.interrupted_at != 0) {
      table.add_row({"interrupted at cycle (partial metrics)",
                     std::to_string(m.interrupted_at)});
    }
    table.add_row({"threads (0 = auto)", std::to_string(spec.sim.threads)});
    table.add_row({"route cache hit rate",
                   fmt_double(m.plan_cache.hit_rate(), 4) + " (" +
                       std::to_string(m.plan_cache.hits) + "/" +
                       std::to_string(m.plan_cache.lookups()) + ", stale " +
                       std::to_string(m.plan_cache.stale) + ")"});
    table.print(std::cout);
    if (m.interrupted_at != 0) {
      // Graceful signal halt: the final checkpoint (when --checkpoint-path
      // was given) and the summary above are already out; exit with the
      // conventional interrupted-by-SIGINT status.
      if (!spec.sim.checkpoint_path.empty()) {
        std::cerr << "sim_cli: interrupted at cycle "
                  << m.interrupted_at << "; resume with --resume "
                  << spec.sim.checkpoint_path << "\n";
      }
      return 130;
    }
    return m.deadlocked ? 3 : 0;
  } catch (const gcube::RequirementError& e) {
    // A refused setting reads as its plain sentence, without the source
    // location and condition that what() carries for library callers.
    std::cerr << "error: " << e.message() << "\n";
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }
}
