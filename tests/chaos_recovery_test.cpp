// Chaos/soak harness for transient-fault recovery: drives fault/repair
// churn through the sharded simulator and asserts the three invariants the
// recovery layer must keep:
//
//  1. packet accounting closes EXACTLY — with warmup 0, every offered
//     packet is delivered, refused at injection, dropped en route, lost
//     with a dead node, given up after retries, or still in flight at the
//     end; nothing leaks through the park/retransmit machinery;
//  2. the any-thread-count determinism contract survives flapping
//     schedules with retries on;
//  3. transient faults with retries recover delivery toward the
//     fault-free baseline, while the same churn made permanent stays
//     degraded — the qualitative curve bench/abl_recovery quantifies.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <string>
#include <vector>

#include "fault/fault_set.hpp"
#include "sim/checkpoint.hpp"
#include "routing/ftgcr.hpp"
#include "sim/fault_schedule.hpp"
#include "sim/metrics.hpp"
#include "sim/network.hpp"
#include "topology/gaussian_cube.hpp"

namespace gcube {
namespace {

/// Offered load must be fully accounted for. Exact only when warmup is 0
/// (the measurement window then covers every event of the run).
void expect_accounting_closed(const SimMetrics& m, const std::string& label) {
  EXPECT_EQ(m.carryover_delivered, 0u) << label;
  EXPECT_EQ(m.generated,
            m.delivered + m.dropped + m.injections_blocked +
                m.dropped_no_route + m.dropped_hop_limit +
                m.orphaned_by_node_fault + m.gave_up + m.in_flight_at_end)
      << label << ": accounting identity must close exactly";
}

/// Isolation flaps: every incident link of each victim node fails at once
/// and heals `dwell` cycles later, victims staggered `stagger` apart. The
/// victim node itself stays alive (and targeted by traffic), so packets
/// headed for it genuinely strand — the regime retries exist for.
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

/// Link flaps drawn from the whole cube (renewal churn, no isolation).
FaultSchedule cube_flaps(const GaussianCube& gc, std::size_t flapping,
                         double mttf, double mttr, Cycle horizon,
                         std::uint64_t seed) {
  std::vector<LinkId> candidates;
  for (NodeId u = 0; u < gc.node_count(); ++u) {
    for (Dim c = 0; c < gc.dims(); ++c) {
      if (gc.has_link(u, c) && bit(u, c) == 0) candidates.push_back({u, c});
    }
  }
  return FaultSchedule::random_flapping_links(candidates, flapping, mttf,
                                              mttr, horizon, seed);
}

SimConfig chaos_config() {
  SimConfig cfg;
  cfg.injection_rate = 0.02;
  cfg.warmup_cycles = 0;  // exact accounting: the window covers everything
  cfg.measure_cycles = 900;
  cfg.seed = 1234;
  cfg.retry_limit = 8;
  cfg.retry_backoff_base = 2;
  cfg.park_capacity = 32;
  cfg.retry_budget = 3;
  cfg.retransmit_timeout = 48;
  return cfg;
}

SimMetrics run_chaos(const GaussianCube& gc, const FaultSchedule& schedule,
                     const SimConfig& cfg) {
  // The schedule mutates the fault set, so every run gets a fresh one (and
  // a fresh router over it).
  FaultSet live;
  const FtgcrRouter router(gc, live);
  NetworkSim sim(gc, router, live, cfg, schedule);
  return sim.run();
}

TEST(ChaosRecovery, AccountingClosesUnderLinkChurnWithRetries) {
  const GaussianCube gc(8, 2);
  const FaultSchedule flaps = cube_flaps(gc, 24, 150, 60, 900, 99);
  const SimMetrics m = run_chaos(gc, flaps, chaos_config());
  expect_accounting_closed(m, "link churn + retries");
  EXPECT_GT(m.repairs_applied, 0u);
  EXPECT_GT(m.delivered, 0u);
}

TEST(ChaosRecovery, AccountingClosesUnderIsolationFlaps) {
  const GaussianCube gc(8, 2);
  const FaultSchedule flaps =
      isolation_flaps(gc, {3, 77, 130, 201}, 100, 180, 120);
  SimConfig cfg = chaos_config();
  const SimMetrics with_retries = run_chaos(gc, flaps, cfg);
  expect_accounting_closed(with_retries, "isolation + retries");
  // Isolated destinations strand packets, so the recovery machinery must
  // actually have engaged here.
  EXPECT_GT(with_retries.parked_retries, 0u);

  cfg.retry_limit = 0;
  cfg.retry_budget = 0;
  const SimMetrics no_retries = run_chaos(gc, flaps, cfg);
  expect_accounting_closed(no_retries, "isolation, legacy drops");
  EXPECT_GT(no_retries.dropped_no_route, 0u);
  EXPECT_EQ(no_retries.parked_retries, 0u);
  EXPECT_EQ(no_retries.gave_up, 0u);
}

TEST(ChaosRecovery, AccountingClosesUnderNodeDeathAndRebirth) {
  const GaussianCube gc(8, 2);
  FaultSchedule s;
  for (const NodeId v : {11u, 64u, 150u, 222u}) {
    s.fail_node_at(120, v);
    s.repair_node_at(400, v);
    s.fail_node_at(600, v);  // die again: repair state must fully reset
    s.repair_node_at(750, v);
  }
  const SimMetrics m = run_chaos(gc, s, chaos_config());
  expect_accounting_closed(m, "node death and rebirth");
  EXPECT_EQ(m.repairs_applied, 8u);
  EXPECT_EQ(m.fault_events, 16u);
}

TEST(ChaosRecovery, RepairedNodeResumesInjecting) {
  // A node that dies is descheduled from the gap-driven injection wheel;
  // the repair event must re-arm it or offered load silently shrinks.
  const GaussianCube gc(7, 2);
  SimConfig cfg = chaos_config();
  cfg.measure_cycles = 800;
  FaultSchedule transient;
  transient.fail_node_at(50, 5);
  transient.repair_node_at(150, 5);
  const SimMetrics healed = run_chaos(gc, transient, cfg);
  FaultSchedule permanent;
  permanent.fail_node_at(50, 5);
  const SimMetrics dead = run_chaos(gc, permanent, cfg);
  EXPECT_GT(healed.generated, dead.generated)
      << "the repaired node must come back as a traffic source";
  expect_accounting_closed(healed, "transient node");
  expect_accounting_closed(dead, "permanent node");
}

TEST(ChaosRecovery, ThreadCountDeterminismUnderChurn) {
  const GaussianCube gc(8, 2);
  const FaultSchedule flaps = cube_flaps(gc, 16, 120, 50, 700, 7);
  SimConfig cfg = chaos_config();
  cfg.measure_cycles = 700;
  cfg.allow_oversubscribe = true;  // real concurrency on small machines
  cfg.threads = 1;
  const SimMetrics base = run_chaos(gc, flaps, cfg);
  expect_accounting_closed(base, "t1");
  for (const std::uint32_t threads : {2u, 4u}) {
    cfg.threads = threads;
    const SimMetrics m = run_chaos(gc, flaps, cfg);
    EXPECT_TRUE(m.deterministic_equals(base)) << "diverged at threads="
                                              << threads;
  }
}

TEST(ChaosRecovery, TransientWithRetriesRecoversPermanentStaysDegraded) {
  const GaussianCube gc(8, 2);
  // Churn confined to the first 600 cycles; the run measures 900, so the
  // transient case gets a drain window where every fault has healed.
  const FaultSchedule transient =
      isolation_flaps(gc, {9, 40, 101, 164, 230}, 80, 150, 90);
  const FaultSchedule permanent = transient.without_repairs();
  const SimConfig cfg = chaos_config();

  const SimMetrics fault_free = run_chaos(gc, FaultSchedule{}, cfg);
  const SimMetrics healed = run_chaos(gc, transient, cfg);
  SimConfig no_retry_cfg = cfg;
  no_retry_cfg.retry_limit = 0;
  no_retry_cfg.retry_budget = 0;
  const SimMetrics dropped = run_chaos(gc, transient, no_retry_cfg);
  const SimMetrics broken = run_chaos(gc, permanent, cfg);

  expect_accounting_closed(fault_free, "fault-free");
  expect_accounting_closed(healed, "transient + retries");
  expect_accounting_closed(dropped, "transient, no retries");
  expect_accounting_closed(broken, "permanent + retries");

  // Recovery ordering: retries over healing faults ~ fault-free baseline;
  // no retries loses the stranded packets; permanent isolation cannot be
  // saved by retries at all.
  EXPECT_GT(healed.delivery_ratio(), 0.99 * fault_free.delivery_ratio());
  EXPECT_GT(healed.delivery_ratio(), dropped.delivery_ratio());
  EXPECT_GT(healed.delivery_ratio(), broken.delivery_ratio());
  EXPECT_GT(broken.gave_up + broken.in_flight_at_end +
                broken.dropped_no_route + broken.dropped_hop_limit,
            0u)
      << "permanent isolation must visibly lose packets";
  EXPECT_GT(healed.parked_retries, 0u);
}

TEST(ChaosRecovery, CheckpointRoundTripPreservesRecoveryStateBitForBit) {
  // Interrupt the run in the thick of the churn — parked packets holding
  // backoff counters, armed wake-up fires, end-to-end retransmit timers
  // all live — and resume from the checkpoint with a different thread
  // count. The recovery machinery must come back bit-for-bit: final
  // metrics identical to the uninterrupted run, including the park /
  // retry / retransmit counters themselves.
  const GaussianCube gc(8, 2);
  const FaultSchedule churn =
      isolation_flaps(gc, {9, 40, 101, 164, 230}, 80, 150, 90);
  SimConfig cfg = chaos_config();
  cfg.allow_oversubscribe = true;
  const SimMetrics uninterrupted = run_chaos(gc, churn, cfg);
  expect_accounting_closed(uninterrupted, "uninterrupted");
  ASSERT_GT(uninterrupted.parked_retries, 0u)
      << "the scenario must actually exercise the park machinery";

  // The process id keeps another build's binary run beside this one off
  // the file.
  const std::string path = testing::TempDir() + "gcube_chaos_roundtrip_" +
                           std::to_string(::getpid()) + ".ckpt";
  std::remove(path.c_str());
  std::remove(checkpoint_previous_generation(path).c_str());
  // Cycle 300: victims 9/40/101 have flapped, 164's isolation is live,
  // parked packets and retransmit timers are pending.
  SimConfig halt_cfg = cfg;
  halt_cfg.threads = 2;
  halt_cfg.checkpoint_path = path;
  halt_cfg.halt_at_cycle = 300;
  const SimMetrics partial = run_chaos(gc, churn, halt_cfg);
  ASSERT_EQ(partial.interrupted_at, 300u);

  // The on-disk image must carry live recovery state, not just queues.
  const SimCheckpoint ck = load_checkpoint(path);
  EXPECT_FALSE(ck.parked.empty())
      << "checkpoint at mid-churn must hold parked packets";
  bool has_backoff_state = false;
  for (const auto& p : ck.parked) {
    if (p.packet.retry_attempts > 0 || p.packet.retransmits_used > 0) {
      has_backoff_state = true;
    }
    EXPECT_GE(p.wake, ck.resume_cycle)
        << "pending wake-ups must still be in the future";
  }
  EXPECT_TRUE(has_backoff_state)
      << "parked entries must carry their backoff/retransmit counters";

  SimConfig resume_cfg = cfg;
  resume_cfg.threads = 4;
  resume_cfg.resume_from = path;
  const SimMetrics resumed = run_chaos(gc, churn, resume_cfg);
  expect_accounting_closed(resumed, "resumed");
  EXPECT_TRUE(resumed.deterministic_equals(uninterrupted))
      << "resume across a checkpoint (threads 2 -> 4) must be bit-for-bit";
  EXPECT_EQ(resumed.parked_retries, uninterrupted.parked_retries);
  EXPECT_EQ(resumed.retransmits, uninterrupted.retransmits);
  EXPECT_EQ(resumed.gave_up, uninterrupted.gave_up);
  std::remove(path.c_str());
  std::remove(checkpoint_previous_generation(path).c_str());
}

TEST(ChaosRecovery, EmptyRepairSchedulesReproduceLegacyBitForBit) {
  // A schedule without repair events, run with recovery knobs at their
  // defaults (off), must be indistinguishable from the pre-recovery
  // simulator: same fields, zero new counters.
  const GaussianCube gc(7, 2);
  FaultSchedule s;
  s.fail_node_at(100, 3);
  s.fail_link_at(200, 8, 1);
  SimConfig cfg;
  cfg.injection_rate = 0.02;
  cfg.warmup_cycles = 100;
  cfg.measure_cycles = 600;
  const SimMetrics a = run_chaos(gc, s, cfg);
  const SimMetrics b = run_chaos(gc, s, cfg);
  EXPECT_TRUE(a.deterministic_equals(b));
  EXPECT_EQ(a.repairs_applied, 0u);
  EXPECT_EQ(a.parked_retries, 0u);
  EXPECT_EQ(a.retransmits, 0u);
  EXPECT_EQ(a.gave_up, 0u);
}

}  // namespace
}  // namespace gcube
