// Checkpoint/restore contract tests.
//
// The golden contract: for any interruption cycle k, any thread count, any
// SIMD level — with static faults, scheduled faults, and transient-recovery
// retries live, and packets in flight in table mode or mid-detour — resuming
// from the checkpoint produces final metrics that deterministic_equals the
// uninterrupted run; and a corrupted or truncated checkpoint is refused
// with an error NAMING the failing section, falling back to the previous
// good generation. The in-process matrix here uses the deterministic
// halt_at_cycle knob (the same serial-point path a SIGINT takes); the CI
// crash-replay job adds the true _exit(137) mid-run legs via sim_cli.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "fault/fault_set.hpp"
#include "routing/ffgcr.hpp"
#include "routing/ftgcr.hpp"
#include "sim/checkpoint.hpp"
#include "sim/fault_schedule.hpp"
#include "sim/metrics.hpp"
#include "sim/network.hpp"
#include "sim_test_support.hpp"
#include "topology/gaussian_cube.hpp"

namespace gcube {
namespace {

/// The process id keeps two builds' test binaries run side by side off
/// each other's files.
std::string tmp_path(const std::string& name, pid_t pid = ::getpid()) {
  return testing::TempDir() + "gcube_" + std::to_string(pid) + "_" + name +
         ".ckpt";
}

void remove_generations(const std::string& path) {
  std::remove(path.c_str());
  std::remove(checkpoint_previous_generation(path).c_str());
  std::remove((path + ".tmp").c_str());
}

std::vector<std::uint8_t> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

void write_file(const std::string& path,
                const std::vector<std::uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

SimConfig base_config() {
  SimConfig cfg;
  cfg.injection_rate = 0.03;
  cfg.warmup_cycles = 0;
  cfg.measure_cycles = 700;
  cfg.seed = 1234;
  cfg.allow_oversubscribe = true;  // real concurrency on small machines
  return cfg;
}

/// Isolation flaps around a handful of victims — the transient-recovery
/// regime (packets genuinely strand and park while links heal).
FaultSchedule recovery_schedule(const GaussianCube& gc) {
  FaultSchedule s;
  Cycle t = 80;
  for (const NodeId v : {9u, 40u, 101u, 164u}) {
    for (Dim c = 0; c < gc.dims(); ++c) {
      if (gc.has_link(v, c)) s.fail_link_at(t, v, c);
    }
    for (Dim c = 0; c < gc.dims(); ++c) {
      if (gc.has_link(v, c)) s.repair_link_at(t + 150, v, c);
    }
    t += 90;
  }
  return s;
}

/// Plain fault/repair churn (no retries in this scenario's config).
FaultSchedule churn_schedule() {
  FaultSchedule s;
  s.fail_node_at(60, 11);
  s.fail_link_at(120, 77, 1);
  s.repair_node_at(300, 11);
  s.fail_node_at(350, 130);
  s.repair_link_at(420, 77, 1);
  s.fail_link_at(500, 8, 2);
  return s;
}

enum class Scenario { kStatic, kScheduled, kRetryRecovery };

SimConfig scenario_config(Scenario sc) {
  SimConfig cfg = base_config();
  if (sc == Scenario::kRetryRecovery) {
    cfg.retry_limit = 6;
    cfg.retry_backoff_base = 2;
    cfg.park_capacity = 32;
    cfg.retry_budget = 3;
    cfg.retransmit_timeout = 48;
  }
  return cfg;
}

/// One simulation run of the given scenario. `halt` != 0 interrupts at
/// that cycle (writing a final checkpoint to `path`); a non-empty
/// `resume` continues from a checkpoint instead of starting at cycle 0.
SimMetrics run_scenario(Scenario sc, std::uint32_t threads,
                        const std::string& path = "", Cycle halt = 0,
                        const std::string& resume = "") {
  const GaussianCube gc(8, 2);
  SimConfig cfg = scenario_config(sc);
  cfg.threads = threads;
  cfg.checkpoint_path = path;
  cfg.halt_at_cycle = halt;
  cfg.resume_from = resume;
  if (sc == Scenario::kStatic) {
    FaultSet faults;
    for (const NodeId v : {3u, 50u, 100u}) faults.fail_node(v);
    const FtgcrRouter router(gc, faults);
    NetworkSim sim(gc, router, faults, cfg);
    return sim.run();
  }
  const FaultSchedule schedule = sc == Scenario::kScheduled
                                     ? churn_schedule()
                                     : recovery_schedule(gc);
  FaultSet live;
  const FtgcrRouter router(gc, live);
  NetworkSim sim(gc, router, live, cfg, schedule);
  return sim.run();
}

/// Parked entries in the checkpoint: source retransmits when `respawn`,
/// local retries otherwise.
std::size_t parked_of_kind(const SimCheckpoint& ck, bool respawn) {
  return static_cast<std::size_t>(std::count_if(
      ck.parked.begin(), ck.parked.end(),
      [&](const CheckpointParked& pk) { return pk.respawn == respawn; }));
}

/// Packets in the checkpoint, queued or parked, whose flags hold `bit`.
std::size_t packets_flagged(const SimCheckpoint& ck, std::uint32_t bit) {
  std::size_t n = 0;
  for (const auto& queue : ck.queues) {
    for (const CheckpointPacket& p : queue) {
      if ((p.flags & bit) != 0) ++n;
    }
  }
  for (const CheckpointParked& pk : ck.parked) {
    if ((pk.packet.flags & bit) != 0) ++n;
  }
  return n;
}

// ---------------------------------------------------------------------------
// The resume-determinism matrix: interruption cycles (early/mid/late) x
// thread counts {1,2,4} on BOTH sides of the interruption x all three fault
// scenarios. The halted run and the resumed run deliberately use different
// thread counts — execution shape is not part of the state.
// ---------------------------------------------------------------------------

TEST(Checkpoint, ResumeMatrixIsBitIdenticalToUninterruptedRun) {
  struct Leg {
    Cycle halt;
    std::uint32_t halt_threads;
    std::uint32_t resume_threads;
  };
  // The static run has packets mid-detour at cycle 290.
  const Leg legs[] = {{150, 1, 4}, {290, 4, 1}, {400, 2, 1}, {650, 4, 2}};
  std::size_t detours = 0;
  bool parked_both = false;
  for (const Scenario sc :
       {Scenario::kStatic, Scenario::kScheduled, Scenario::kRetryRecovery}) {
    const SimMetrics uninterrupted = run_scenario(sc, 1);
    EXPECT_EQ(uninterrupted.interrupted_at, 0u);
    for (const Leg& leg : legs) {
      const std::string path = tmp_path("matrix");
      remove_generations(path);
      const SimMetrics partial =
          run_scenario(sc, leg.halt_threads, path, leg.halt);
      ASSERT_EQ(partial.interrupted_at, leg.halt);
      const SimCheckpoint ck = load_checkpoint(path);
      if (sc == Scenario::kStatic) {
        // Packets near the static faults ride their table routes in table
        // mode, so the resume must carry that bit, not just the tables.
        EXPECT_GT(packets_flagged(ck, kPktTable), 0u) << "halt=" << leg.halt;
      }
      detours += packets_flagged(ck, kPktDetour);
      if (sc == Scenario::kRetryRecovery && parked_of_kind(ck, false) > 0 &&
          parked_of_kind(ck, true) > 0) {
        parked_both = true;
      }
      const SimMetrics resumed =
          run_scenario(sc, leg.resume_threads, "", 0, path);
      EXPECT_EQ(resumed.interrupted_at, 0u);
      EXPECT_TRUE(resumed.deterministic_equals(uninterrupted))
          << "scenario=" << static_cast<int>(sc) << " halt=" << leg.halt
          << " threads " << leg.halt_threads << "->" << leg.resume_threads;
      remove_generations(path);
    }
  }
  // Some resume must carry detour hops still to take.
  EXPECT_GT(detours, 0u);
  // Parked entries are the one place a packet record waits outside every
  // queue and mailbox, so some recovery checkpoint must carry both kinds:
  // a local retry and a source retransmit (the halt at 400 does).
  EXPECT_TRUE(parked_both)
      << "no recovery checkpoint holds a parked retry and a retransmit";
}

TEST(Checkpoint, PeriodicCheckpointRotationKeepsPreviousGeneration) {
  const std::string path = tmp_path("rotation");
  remove_generations(path);
  const SimMetrics uninterrupted = run_scenario(Scenario::kScheduled, 2);
  SimConfig cfg;  // run again with periodic checkpoints, halting at 550
  (void)cfg;
  const SimMetrics partial =
      [&] {
        const GaussianCube gc(8, 2);
        SimConfig c = scenario_config(Scenario::kScheduled);
        c.threads = 2;
        c.checkpoint_every = 200;
        c.checkpoint_path = path;
        c.halt_at_cycle = 550;
        FaultSet live;
        const FtgcrRouter router(gc, live);
        NetworkSim sim(gc, router, live, c, churn_schedule());
        return sim.run();
      }();
  ASSERT_EQ(partial.interrupted_at, 550u);
  // Generations: newest = the halt checkpoint (cycle 550), previous = the
  // last periodic one (cycle 400).
  const SimCheckpoint newest = load_checkpoint(path);
  const SimCheckpoint previous =
      load_checkpoint(checkpoint_previous_generation(path));
  EXPECT_EQ(newest.resume_cycle, 550u);
  EXPECT_EQ(previous.resume_cycle, 400u);

  // Corrupt the newest generation: the fallback loader must name the
  // failing section, load the previous generation, and the resume must
  // STILL converge to the uninterrupted metrics.
  std::vector<std::uint8_t> bytes = read_file(path);
  bytes[bytes.size() / 2] ^= 0x40;
  write_file(path, bytes);
  std::string used;
  const SimCheckpoint fallback = load_checkpoint_with_fallback(path, &used);
  EXPECT_EQ(used, checkpoint_previous_generation(path));
  EXPECT_EQ(fallback.resume_cycle, 400u);
  const SimMetrics resumed = run_scenario(Scenario::kScheduled, 1, "", 0, path);
  EXPECT_TRUE(resumed.deterministic_equals(uninterrupted));
  remove_generations(path);
}

TEST(Checkpoint, BothGenerationsCorruptThrowsThePrimaryError) {
  const std::string path = tmp_path("bothbad");
  remove_generations(path);
  write_file(path, {'G', 'C', 'U', 'B', 'E', 'C', 'K', 'X'});  // bad magic
  try {
    (void)load_checkpoint_with_fallback(path);
    FAIL() << "corrupt checkpoint with no fallback generation must throw";
  } catch (const CheckpointError& e) {
    EXPECT_EQ(e.section(), "header");
  }
  remove_generations(path);
}

TEST(Checkpoint, ConfigMismatchIsRefusedNamingTheField) {
  const std::string path = tmp_path("mismatch");
  remove_generations(path);
  (void)run_scenario(Scenario::kScheduled, 1, path, 300);
  const GaussianCube gc(8, 2);
  const auto expect_refused = [&](SimConfig cfg, const char* field) {
    cfg.allow_oversubscribe = true;
    cfg.resume_from = path;
    FaultSet live;
    const FtgcrRouter router(gc, live);
    NetworkSim sim(gc, router, live, cfg, churn_schedule());
    try {
      (void)sim.run();
      FAIL() << "mismatched " << field << " must be refused";
    } catch (const CheckpointError& e) {
      EXPECT_EQ(e.section(), "config") << field;
      EXPECT_NE(std::string(e.what()).find(field), std::string::npos)
          << "error must name the mismatched field: " << e.what();
    }
  };
  SimConfig wrong_seed = base_config();
  wrong_seed.seed = 99;
  expect_refused(wrong_seed, "seed");
  SimConfig wrong_rate = base_config();
  wrong_rate.injection_rate = 0.25;
  expect_refused(wrong_rate, "injection_rate");
  SimConfig wrong_retry = base_config();
  wrong_retry.retry_limit = 6;
  expect_refused(wrong_retry, "retry_limit");

  // A different fault schedule is a different experiment.
  {
    SimConfig cfg = base_config();
    cfg.resume_from = path;
    FaultSet live;
    const FtgcrRouter router(gc, live);
    NetworkSim sim(gc, router, live, cfg, recovery_schedule(gc));
    try {
      (void)sim.run();
      FAIL() << "mismatched schedule must be refused";
    } catch (const CheckpointError& e) {
      EXPECT_EQ(e.section(), "config");
      EXPECT_NE(std::string(e.what()).find("schedule"), std::string::npos);
    }
  }

  // Every stored parameter, one at a time: the checkpoint is edited and
  // saved again (so its CRCs hold) and resumed under the configuration
  // that wrote it, which must refuse it naming that parameter.
  const SimCheckpoint good = load_checkpoint(path);
  const std::string edited_path = tmp_path("mismatch_edited");
  CheckpointConfig::fields([&](const char* name, auto field) {
    SimCheckpoint edited = good;
    ++(edited.config.*field);
    remove_generations(edited_path);
    save_checkpoint(edited, edited_path);
    try {
      (void)run_scenario(Scenario::kScheduled, 1, "", 0, edited_path);
      ADD_FAILURE() << "edited " << name << " must be refused";
    } catch (const CheckpointError& e) {
      EXPECT_EQ(e.section(), "config") << name;
      EXPECT_TRUE(std::string(e.what()).ends_with(std::string(": ") + name))
          << "error must name the edited field " << name << ": " << e.what();
    }
  });
  remove_generations(edited_path);
  remove_generations(path);
}

TEST(Checkpoint, PacketsTheRecordCannotHoldAreRefusedNamingPackets) {
  // A checkpoint stores packet fields, not records: a hop count above the
  // record's 24-bit field, a creation cycle at or after the resume cycle,
  // an id that is not created * node_count + src (the simulator derives
  // it, never stores it), or an audit flag that does not follow from the
  // id must be refused at restore, naming the packets section. Each
  // mutant is a real checkpoint with one packet edited and saved again, so
  // its CRCs are valid and only the restore can refuse it.
  const std::string path = tmp_path("record_limits");
  const std::string edited = tmp_path("record_limits_edited");
  remove_generations(path);
  (void)run_scenario(Scenario::kStatic, 1, path, 300);
  const SimCheckpoint good = load_checkpoint(path);
  remove_generations(path);
  // The first queued packet outside the audit sample (whose hop count
  // need not match a recorded tail) that has not arrived yet.
  std::size_t node = good.queues.size();
  for (std::size_t u = 0; u < good.queues.size(); ++u) {
    if (!good.queues[u].empty() &&
        (good.queues[u].front().flags & kPktAudited) == 0 &&
        good.queues[u].front().dst != u) {
      node = u;
      break;
    }
  }
  ASSERT_LT(node, good.queues.size()) << "no queued packet at the halt";
  const auto resume_edited = [&](const auto& edit) {
    SimCheckpoint ck = good;
    edit(ck.queues[node].front());
    remove_generations(edited);
    save_checkpoint(ck, edited);
    const SimMetrics m = run_scenario(Scenario::kStatic, 2, "", 0, edited);
    remove_generations(edited);
    return m;
  };
  const auto expect_refused = [&](const auto& edit, const char* detail) {
    try {
      (void)resume_edited(edit);
      FAIL() << "a packet with " << detail << " must be refused";
    } catch (const CheckpointError& e) {
      EXPECT_EQ(e.section(), "packets") << e.what();
      EXPECT_NE(std::string(e.what()).find(detail), std::string::npos)
          << e.what();
    }
  };
  expect_refused([](CheckpointPacket& p) { p.hops = kHopCountLimit; },
                 "hop count");
  expect_refused([](CheckpointPacket& p) { p.hops = ~std::uint32_t{0}; },
                 "hop count");
  expect_refused([&](CheckpointPacket& p) { p.created = good.resume_cycle; },
                 "created at or after the resume cycle");
  expect_refused([](CheckpointPacket& p) { p.created = Cycle{1} << 32; },
                 "created at or after the resume cycle");
  expect_refused([](CheckpointPacket& p) { ++p.id; },
                 "packet id differs from created * node count + source");
  // The audit flag on a packet outside the sample, with a hop tail as
  // long as its hop count so the tail checks pass.
  expect_refused(
      [](CheckpointPacket& p) {
        p.flags |= kPktAudited;
        p.tail_hops.assign(p.hops, Dim{0});
      },
      "audit flag disagrees with packet id");
  // The largest hop count the record holds is restored; the packet is past
  // the livelock guard, so the resumed run drops it there.
  const SimMetrics kept = resume_edited(
      [](CheckpointPacket& p) { p.hops = kHopCountLimit - 1; });
  EXPECT_EQ(kept.dropped_hop_limit, 1u);
}

/// Rewrites a fresh checkpoint's format version to `version` and expects
/// the loader to refuse it at the header, naming the version.
void expect_version_refused(std::uint8_t version) {
  // One file per version: ctest runs the cases in parallel processes.
  const std::string path = tmp_path("version" + std::to_string(version));
  remove_generations(path);
  (void)run_scenario(Scenario::kStatic, 1, path, 100);
  std::vector<std::uint8_t> bytes = read_file(path);
  ASSERT_GT(bytes.size(), 12u);
  ASSERT_EQ(bytes[8], kCheckpointFormatVersion);  // u32 LE after the magic
  bytes[8] = version;
  write_file(path, bytes);
  try {
    (void)load_checkpoint(path);
    FAIL() << "a version-" << int{version} << " checkpoint must be refused";
  } catch (const CheckpointError& e) {
    EXPECT_EQ(e.section(), "header");
    EXPECT_NE(std::string(e.what()).find("version " + std::to_string(version)),
              std::string::npos)
        << e.what();
  }
  remove_generations(path);
}

TEST(Checkpoint, FormatVersionOneIsRefusedAtTheHeader) {
  // Version 1 carried the removed routing-mode bytes and planned prefix
  // lengths; its layout no longer parses, so the header refuses it.
  expect_version_refused(1);
}

TEST(Checkpoint, FormatVersionTwoIsRefusedAtTheHeader) {
  // Version 2 carried each packet's whole adopted plan where later
  // versions carry only its remaining detour hops.
  expect_version_refused(2);
}

TEST(Checkpoint, FormatVersionThreeIsRefusedAtTheHeader) {
  // Version 3 carried a per-link stamp table between the fires and the
  // metrics; version 4 has no such section.
  expect_version_refused(3);
}

TEST(Checkpoint, ResumeCarriesFiresPendingInTheFarHeap) {
  // At rate 5e-4 the mean injection gap is 2,000 cycles, so at the halt
  // some nodes' next fires lie more than a wheel span out (where a far
  // heap once kept them). The checkpoint must carry them and the resume,
  // at another thread count, must file them again.
  const GaussianCube gc(10, 4);
  const auto run = [&](std::uint32_t threads, const std::string& path,
                       Cycle halt, const std::string& resume) {
    SimConfig cfg = base_config();
    cfg.injection_rate = 5e-4;
    cfg.measure_cycles = 12000;
    cfg.threads = threads;
    cfg.checkpoint_path = path;
    cfg.halt_at_cycle = halt;
    cfg.resume_from = resume;
    FaultSet faults;
    for (const NodeId v : {5u, 200u, 411u}) faults.fail_node(v);
    const FtgcrRouter router(gc, faults);
    return NetworkSim(gc, router, faults, cfg).run();
  };
  const SimMetrics uninterrupted = run(1, "", 0, "");
  EXPECT_GT(uninterrupted.delivered, 0u);
  const std::string path = tmp_path("far_heap");
  remove_generations(path);
  ASSERT_EQ(run(1, path, 1000, "").interrupted_at, 1000u);
  const SimCheckpoint ck = load_checkpoint(path);
  const auto far = std::count_if(
      ck.fires.begin(), ck.fires.end(), [&](const CheckpointFire& f) {
        return f.at >= ck.resume_cycle + NetworkSim::kWheelSize;
      });
  EXPECT_GT(far, 0) << "no pending fire lies past the wheel's span";
  const SimMetrics resumed = run(4, "", 0, path);
  EXPECT_TRUE(resumed.deterministic_equals(uninterrupted));
  remove_generations(path);
}

TEST(Checkpoint, ResumeCarriesFiresSeveralLapsOut) {
  // Every fire lies two to three wheel spans out (LapTraffic). Halted
  // mid-lap on one worker, the checkpoint must carry fires that are still
  // two spans away, and the resume on four workers must file each in its
  // bucket for the right lap.
  const GaussianCube gc(8, 2);
  const LapTraffic laps(gc.node_count());
  const auto run = [&](std::uint32_t threads, const std::string& path,
                       Cycle halt, const std::string& resume) {
    SimConfig cfg = base_config();
    cfg.measure_cycles = 40'000;
    cfg.threads = threads;
    cfg.checkpoint_path = path;
    cfg.halt_at_cycle = halt;
    cfg.resume_from = resume;
    const FaultSet none;
    const FfgcrRouter router(gc);
    return NetworkSim(gc, router, none, cfg, laps).run();
  };
  const SimMetrics uninterrupted = run(1, "", 0, "");
  EXPECT_GT(uninterrupted.delivered, 0u);
  const std::string path = tmp_path("laps");
  remove_generations(path);
  ASSERT_EQ(run(1, path, 20'000, "").interrupted_at, 20'000u);
  const SimCheckpoint ck = load_checkpoint(path);
  const auto laps_out = std::count_if(
      ck.fires.begin(), ck.fires.end(), [&](const CheckpointFire& f) {
        return f.at >= ck.resume_cycle + 2 * NetworkSim::kWheelSize;
      });
  EXPECT_GT(laps_out, 0) << "no pending fire lies two spans out";
  const SimMetrics resumed = run(4, "", 0, path);
  EXPECT_TRUE(resumed.deterministic_equals(uninterrupted));
  remove_generations(path);
}

TEST(Checkpoint, PresetStopRequestHaltsAtTheFirstSerialPoint) {
  const GaussianCube gc(8, 2);
  SimConfig cfg = base_config();
  std::atomic<bool> stop{true};  // as if SIGINT landed before the run
  cfg.stop_requested = &stop;
  FaultSet faults;
  const FtgcrRouter router(gc, faults);
  NetworkSim sim(gc, router, faults, cfg);
  const SimMetrics m = sim.run();
  EXPECT_EQ(m.interrupted_at, 1u)
      << "the stop flag is honored at the serial point entering cycle 1";
}

// ---------------------------------------------------------------------------
// Corruption fuzzing: flip EVERY byte of a small checkpoint in turn; the
// loader must refuse each mutant with a section-naming error (header
// flips fail the magic/version check) and never crash or load silently.
// Runs under ASan in the CI sanitize job like every other test.
// ---------------------------------------------------------------------------

TEST(Checkpoint, EveryByteFlipIsRefusedWithASectionName) {
  const std::string path = tmp_path("fuzz");
  const std::string mutant = tmp_path("fuzz_mutant");
  remove_generations(path);
  remove_generations(mutant);
  // Small but populated checkpoint: retries on so parked entries and
  // recovery counters are present in the file.
  (void)run_scenario(Scenario::kRetryRecovery, 1, path, 260);
  const std::vector<std::uint8_t> good = read_file(path);
  ASSERT_GT(good.size(), 100u);
  const std::vector<std::string> sections = {
      "header", "trailer", "provenance", "config", "globals",
      "faults", "packets", "parked",     "fires",  "metrics"};
  for (std::size_t i = 0; i < good.size(); ++i) {
    std::vector<std::uint8_t> bad = good;
    bad[i] ^= 0x20;
    write_file(mutant, bad);
    try {
      (void)load_checkpoint(mutant);
      FAIL() << "byte " << i << " flip loaded silently";
    } catch (const CheckpointError& e) {
      const bool known = std::find(sections.begin(), sections.end(),
                                   e.section()) != sections.end();
      EXPECT_TRUE(known) << "byte " << i << " flip produced an error for "
                         << "unknown section '" << e.section() << "'";
    }
    // Any other exception type (or a crash) fails the test run itself.
  }
  // Truncations at every length must be refused too (a torn write that
  // escaped the atomic rename protocol, e.g. a copied partial file).
  for (const std::size_t len :
       {std::size_t{0}, std::size_t{4}, std::size_t{11}, good.size() / 3,
        good.size() / 2, good.size() - 1}) {
    std::vector<std::uint8_t> bad(good.begin(),
                                  good.begin() + static_cast<long>(len));
    write_file(mutant, bad);
    EXPECT_THROW((void)load_checkpoint(mutant), CheckpointError)
        << "truncation to " << len;
  }
  // Trailing garbage is refused as well — a valid prefix is not a file.
  std::vector<std::uint8_t> padded = good;
  padded.push_back(0);
  write_file(mutant, padded);
  EXPECT_THROW((void)load_checkpoint(mutant), CheckpointError);
  remove_generations(path);
  remove_generations(mutant);
}

TEST(Checkpoint, Crc32MatchesTheIeeeReferenceVector) {
  const char* s = "123456789";
  EXPECT_EQ(checkpoint_crc32(s, 9), 0xCBF43926u);
  EXPECT_EQ(checkpoint_crc32(s, 0), 0u);
  // Streaming in two chunks equals one shot.
  const std::uint32_t part = checkpoint_crc32(s, 4);
  EXPECT_EQ(checkpoint_crc32(s + 4, 5, part), 0xCBF43926u);
}

TEST(Checkpoint, FaultEventFingerprintIsOrderAndContentSensitive) {
  FaultSchedule a;
  a.fail_node_at(10, 3);
  a.fail_link_at(10, 7, 1);
  FaultSchedule b;  // same events, same cycle, opposite order
  b.fail_link_at(10, 7, 1);
  b.fail_node_at(10, 3);
  FaultSchedule c;
  c.fail_node_at(10, 3);
  c.fail_link_at(10, 7, 2);  // different dim
  const std::uint64_t fa = fault_events_fingerprint(a.events());
  EXPECT_NE(fa, fault_events_fingerprint(b.events()));
  EXPECT_NE(fa, fault_events_fingerprint(c.events()));
  EXPECT_EQ(fa, fault_events_fingerprint(a.events()));
  EXPECT_NE(fa, fault_events_fingerprint({}));
}

TEST(Checkpoint, ProvenanceAndConfigSurviveTheRoundTrip) {
  const std::string path = tmp_path("provenance");
  remove_generations(path);
  (void)run_scenario(Scenario::kScheduled, 2, path, 300);
  const SimCheckpoint ck = load_checkpoint(path);
  EXPECT_EQ(ck.provenance.seed, 1234u);
  EXPECT_EQ(ck.provenance.threads, 2u);
  EXPECT_FALSE(ck.provenance.topology.empty());
  EXPECT_FALSE(ck.provenance.router.empty());
  EXPECT_FALSE(ck.provenance.simd.empty());
  EXPECT_FALSE(ck.provenance.build_type.empty());
  EXPECT_EQ(ck.config.seed, 1234u);
  EXPECT_EQ(ck.config.node_count, 256u);
  EXPECT_EQ(ck.resume_cycle, 300u);
  EXPECT_EQ(ck.config.schedule_events, churn_schedule().events().size());
  // The in-flight invariant the loader enforces.
  std::uint64_t queued = 0;
  for (const auto& q : ck.queues) queued += q.size();
  EXPECT_EQ(queued + ck.parked.size(), ck.in_flight);
  remove_generations(path);
}

TEST(CheckpointDeathTest, CrashInjectionExitsWith137) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  const std::string path = tmp_path("crash");
  remove_generations(path);
  EXPECT_EXIT(
      {
        const GaussianCube gc(8, 2);
        SimConfig cfg = base_config();
        cfg.threads = 1;
        cfg.checkpoint_every = 100;
        // The death test's child process writes where this one reads.
        cfg.checkpoint_path = tmp_path("crash", ::getppid());
        cfg.crash_at_cycle = 250;
        FaultSet faults;
        const FtgcrRouter router(gc, faults);
        NetworkSim sim(gc, router, faults, cfg);
        (void)sim.run();
      },
      testing::ExitedWithCode(137), "");
  // The crash landed AFTER the cycle-200 checkpoint was made durable.
  const SimCheckpoint ck = load_checkpoint(path);
  EXPECT_EQ(ck.resume_cycle, 200u);
  remove_generations(path);
}

}  // namespace
}  // namespace gcube
