// Ablation: transient-fault recovery — the value of repair events plus
// deterministic retry/backoff delivery. Four cells on GC(9, 2) share one
// traffic workload (warmup 0, so packet accounting closes exactly):
//
//   fault_free        no faults — the ceiling;
//   transient_retry   staggered isolation flaps (every incident link of a
//                     victim dies, heals `dwell` cycles later) with the
//                     retry/backoff + source-retransmit machinery on;
//   transient_no_retry the same flap schedule with recovery knobs at 0 —
//                     stranded packets hard-drop as dropped_no_route;
//   permanent         the same schedule stripped of its repair events
//                     (FaultSchedule::without_repairs), retries ON — shows
//                     retries cannot save packets whose faults never heal.
//
// The claim this ablation documents: with repairs and retries the delivery
// ratio recovers to >= 0.99 while the identical churn made permanent stays
// degraded. The checks below enforce it through the exit status. Emits
// BENCH_recovery.json (--out=<path>; --quick shrinks the run for CI).
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "fault/fault_set.hpp"
#include "routing/ftgcr.hpp"
#include "sim/fault_schedule.hpp"
#include "sim/metrics.hpp"
#include "sim/network.hpp"
#include "topology/gaussian_cube.hpp"
#include "util/cli.hpp"
#include "util/error.hpp"
#include "util/table.hpp"

namespace {

using namespace gcube;

struct Cell {
  std::string name;
  SimMetrics metrics;
};

/// Offered load fully accounted for (exact because warmup is 0).
bool accounting_closed(const SimMetrics& m) {
  return m.carryover_delivered == 0 &&
         m.generated == m.delivered + m.dropped + m.injections_blocked +
                            m.dropped_no_route + m.dropped_hop_limit +
                            m.orphaned_by_node_fault + m.gave_up +
                            m.in_flight_at_end;
}

/// All incident links of each victim fail at once and heal `dwell` cycles
/// later; victims staggered `stagger` apart. The victim stays alive and
/// addressed by traffic, so packets headed for it genuinely strand — the
/// regime the retry queue exists for.
FaultSchedule isolation_flaps(const GaussianCube& gc,
                              const std::vector<NodeId>& victims, Cycle start,
                              Cycle dwell, Cycle stagger) {
  FaultSchedule s;
  Cycle t = start;
  for (const NodeId v : victims) {
    for (Dim c = 0; c < gc.dims(); ++c) {
      if (gc.has_link(v, c)) s.fail_link_at(t, v, c);
    }
    for (Dim c = 0; c < gc.dims(); ++c) {
      if (gc.has_link(v, c)) s.repair_link_at(t + dwell, v, c);
    }
    t += stagger;
  }
  return s;
}

SimMetrics run_cell(const GaussianCube& gc, const FaultSchedule& schedule,
                    const SimConfig& cfg) {
  // The schedule mutates the fault set, so each cell gets a fresh one.
  FaultSet live;
  const FtgcrRouter router(gc, live);
  NetworkSim sim(gc, router, live, cfg, schedule);
  return sim.run();
}

void write_json(const std::string& path, const std::vector<Cell>& cells,
                bool quick) {
  std::ofstream out(path);
  GCUBE_REQUIRE(out.good(), "cannot open " + path + " for writing");
  out.precision(6);
  out << "{\n"
      << "  \"bench\": \"abl_recovery\",\n"
      << "  \"schema_version\": 1,\n"
      << "  \"mode\": \"" << (quick ? "quick" : "full") << "\",\n"
      << "  \"cells\": [\n";
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const SimMetrics& m = cells[i].metrics;
    out << "    {\n"
        << "      \"name\": \"" << cells[i].name << "\",\n"
        << "      \"delivery_ratio\": " << m.delivery_ratio() << ",\n"
        << "      \"generated\": " << m.generated << ",\n"
        << "      \"delivered\": " << m.delivered << ",\n"
        << "      \"repairs_applied\": " << m.repairs_applied << ",\n"
        << "      \"fault_events\": " << m.fault_events << ",\n"
        << "      \"parked_retries\": " << m.parked_retries << ",\n"
        << "      \"retransmits\": " << m.retransmits << ",\n"
        << "      \"gave_up\": " << m.gave_up << ",\n"
        << "      \"dropped_no_route\": " << m.dropped_no_route << ",\n"
        << "      \"dropped_hop_limit\": " << m.dropped_hop_limit << ",\n"
        << "      \"orphaned\": " << m.orphaned_by_node_fault << ",\n"
        << "      \"in_flight_at_end\": " << m.in_flight_at_end << ",\n"
        << "      \"accounting_closed\": "
        << (accounting_closed(m) ? "true" : "false") << "\n"
        << "    }" << (i + 1 < cells.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
}

}  // namespace

int main(int argc, char** argv) {
  using namespace gcube;
  CliArgs args(argc, argv);
  args.allow({"quick", "out"});
  const bool quick = args.get_bool("quick");
  const std::string out_path = args.get_string("out", "BENCH_recovery.json");

  bench::print_banner(
      "Ablation", "transient-fault recovery: repairs + retry/backoff "
                  "vs hard drops and permanent churn, GC(9, 2)");

  const GaussianCube gc(9, 2);
  SimConfig cfg;
  cfg.injection_rate = 0.015;
  cfg.warmup_cycles = 0;  // exact accounting over the whole run
  cfg.measure_cycles = quick ? 1500 : 4000;
  cfg.seed = 20260805;
  cfg.retry_limit = 10;
  cfg.retry_backoff_base = 2;
  cfg.park_capacity = 32;
  cfg.retry_budget = 4;
  cfg.retransmit_timeout = 64;

  // Churn ends well before the run does (last repair + drain window), so
  // the transient cells measure recovery, not mid-flap steady state.
  const std::vector<NodeId> victims =
      quick ? std::vector<NodeId>{9, 70, 141, 260, 333, 410}
            : std::vector<NodeId>{9, 70, 141, 202, 260, 333, 410, 444, 489};
  const Cycle start = quick ? 60 : 100;
  const Cycle dwell = quick ? 120 : 250;
  const Cycle stagger = quick ? 100 : 220;
  const FaultSchedule transient =
      isolation_flaps(gc, victims, start, dwell, stagger);
  const FaultSchedule permanent = transient.without_repairs();

  SimConfig no_retry_cfg = cfg;
  no_retry_cfg.retry_limit = 0;
  no_retry_cfg.retry_budget = 0;

  std::vector<Cell> cells;
  cells.push_back({"fault_free", run_cell(gc, FaultSchedule{}, cfg)});
  cells.push_back({"transient_retry", run_cell(gc, transient, cfg)});
  cells.push_back(
      {"transient_no_retry", run_cell(gc, transient, no_retry_cfg)});
  cells.push_back({"permanent", run_cell(gc, permanent, cfg)});

  TextTable table({"cell", "delivery", "generated", "delivered", "parked",
                   "retransmits", "gave up", "no route", "in flight",
                   "repairs"});
  for (const Cell& c : cells) {
    const SimMetrics& m = c.metrics;
    table.add_row({c.name, fmt_double(m.delivery_ratio(), 4),
                   std::to_string(m.generated), std::to_string(m.delivered),
                   std::to_string(m.parked_retries),
                   std::to_string(m.retransmits), std::to_string(m.gave_up),
                   std::to_string(m.dropped_no_route),
                   std::to_string(m.in_flight_at_end),
                   std::to_string(m.repairs_applied)});
  }
  table.print(std::cout);

  // The headline claims, enforced so a regression fails loudly: accounting
  // closes in every cell, retries over healing faults recover delivery to
  // >= 0.99, and the identical churn made permanent stays strictly worse.
  // The schedules themselves are checked too: the transient one applied
  // repairs and its permanent copy applied none.
  bool ok = true;
  for (const Cell& c : cells) {
    if (!accounting_closed(c.metrics)) {
      std::cout << "WARNING: accounting identity open in " << c.name << "\n";
      ok = false;
    }
  }
  const double healed = cells[1].metrics.delivery_ratio();
  const double broken = cells[3].metrics.delivery_ratio();
  if (healed < 0.99) {
    std::cout << "WARNING: transient_retry delivery " << healed
              << " fell below 0.99\n";
    ok = false;
  }
  if (healed <= broken) {
    std::cout << "WARNING: permanent churn should stay degraded ("
              << broken << " vs " << healed << ")\n";
    ok = false;
  }
  if (cells[1].metrics.repairs_applied == 0) {
    std::cout << "WARNING: transient_retry applied no repairs\n";
    ok = false;
  }
  if (cells[3].metrics.repairs_applied != 0) {
    std::cout << "WARNING: permanent applied "
              << cells[3].metrics.repairs_applied << " repairs\n";
    ok = false;
  }
  if (ok) {
    std::cout << "transient+retries recovered to "
              << fmt_double(healed, 4) << "; permanent churn held at "
              << fmt_double(broken, 4) << "\n";
  }
  write_json(out_path, cells, quick);
  std::cout << "wrote " << out_path << "\n";
  return ok ? 0 : 1;
}
