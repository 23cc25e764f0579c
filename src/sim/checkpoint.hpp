// Versioned, checksummed checkpoint/restore for the network simulator.
//
// A checkpoint is the COMPLETE run state at the cycle-barrier serial point,
// captured in canonical (shard-count-independent) form: per-node effective
// packet queues (current queue contents plus the pending mailbox arrivals,
// pre-merged in the exact order the next phase A would drain them), the
// parked retry/retransmit entries in wake order, the pending injection
// fires as absolute (cycle, node) pairs, the live fault set with the
// fault-schedule cursor, and the folded SimMetrics. Link arbitration needs
// no state across the serial point: it is a mask local to one node's
// service within a cycle. The counter RNG needs no stream state either —
// every draw is a pure function of (seed, node, cycle) — so RNG identity
// is just the seed plus the resume cycle. Resuming from a checkpoint
// therefore reproduces the uninterrupted run's metrics bit for bit, for
// ANY thread count or SIMD level on either side of the crash (the same
// contract the live simulator already enforces across those knobs).
//
// On-disk format (little-endian):
//
//   8-byte magic "GCUBECKP", u32 format version, then eight sections in a
//   fixed order — provenance, config, globals, faults, packets, parked,
//   fires, metrics — each framed as
//     u32 section id | u64 payload length | u32 CRC32 | payload bytes
//   with the CRC computed over id + length + payload. The loader knows
//   which section it expects next, so every detectable corruption — bad
//   magic, truncation, a flipped frame or payload byte — is refused with
//   an error NAMING that section; nothing is ever loaded silently wrong.
//
// Writes are atomic (tmp file + rename) with a two-generation rotation:
// the previous checkpoint survives as "<path>.1", and the fallback loader
// drops back to it (with a stderr note) when the newest generation is
// corrupt or truncated — so a crash mid-write never strands a run.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "fault/fault_set.hpp"
#include "sim/fault_schedule.hpp"
#include "sim/metrics.hpp"
#include "sim/packet.hpp"
#include "util/bits.hpp"

namespace gcube {

/// Files of any other version are refused at the header. Version 1 also
/// held a routing-mode byte pair and a per-packet planned-prefix length;
/// version 2 held each packet's whole adopted plan (source, hops and a
/// cursor) where later versions hold only the detour hops still to take;
/// version 3 also held a per-link stamp table, dead state at every serial
/// point.
inline constexpr std::uint32_t kCheckpointFormatVersion = 4;

/// A checkpoint load failure, carrying the name of the section that failed
/// validation ("header" for magic/version problems, "config" for a resume
/// under mismatched simulation parameters). The what() string always
/// contains the section name, so callers and logs get the line item.
class CheckpointError : public std::runtime_error {
 public:
  CheckpointError(std::string section, const std::string& detail)
      : std::runtime_error("checkpoint section '" + section +
                           "': " + detail),
        section_(std::move(section)) {}

  [[nodiscard]] const std::string& section() const noexcept {
    return section_;
  }

 private:
  std::string section_;
};

/// One serialized in-flight packet: the hot record (its flags carry the
/// table-mode bit), the cold identity and recovery counters, the detour
/// hops still to take, and the audited hop tail.
struct CheckpointPacket {
  NodeId dst = 0;
  std::uint32_t hops = 0;
  std::uint32_t flags = 0;
  std::uint64_t id = 0;  // created * node_count + src, checked at restore
  NodeId src = 0;
  Cycle created = 0;
  std::uint16_t retry_attempts = 0;
  std::uint16_t retransmits_used = 0;
  std::vector<Dim> detour_hops;    // kPktDetour only
  std::vector<Dim> tail_hops;      // kPktAudited only

  /// The fields in stored order, f(name, &CheckpointPacket::field) for
  /// each; the packet encoder and decoder walk this list.
  template <typename F>
  static constexpr void fields(F&& f) {
    f("dst", &CheckpointPacket::dst);
    f("hops", &CheckpointPacket::hops);
    f("flags", &CheckpointPacket::flags);
    f("id", &CheckpointPacket::id);
    f("src", &CheckpointPacket::src);
    f("created", &CheckpointPacket::created);
    f("retry_attempts", &CheckpointPacket::retry_attempts);
    f("retransmits_used", &CheckpointPacket::retransmits_used);
    f("detour_hops", &CheckpointPacket::detour_hops);
    f("tail_hops", &CheckpointPacket::tail_hops);
  }
};

/// One parked retry/retransmit entry, in multimap iteration order (wake
/// cycle, then insertion order) — the order wake_parked consumes.
struct CheckpointParked {
  Cycle wake = 0;
  NodeId node = 0;
  bool respawn = false;
  CheckpointPacket packet;
};

/// One pending injection fire, as the absolute cycle it is due. Stored
/// sorted by node (at most one fire per node exists).
struct CheckpointFire {
  Cycle at = 0;
  NodeId node = 0;
};

/// Informational provenance — which configuration produced this file.
/// Everything load-bearing for resume safety lives in CheckpointConfig;
/// these fields are for humans and tooling (threads/simd/build may all
/// legitimately differ on resume without affecting the metrics contract).
struct CheckpointProvenance {
  std::uint64_t seed = 0;
  std::string topology;
  std::string router;
  std::string simd;
  std::uint32_t threads = 0;
  std::string build_type;
};

/// The semantic simulation parameters a resume MUST match: any difference
/// here changes the simulated trajectory, so the loader refuses with an
/// error naming the mismatched field. threads / SIMD level are
/// deliberately absent — metrics are bit-identical across them.
struct CheckpointConfig {
  std::uint64_t seed = 0;
  std::uint64_t injection_rate_bits = 0;  // exact double bit pattern
  Cycle warmup_cycles = 0;
  Cycle measure_cycles = 0;
  std::uint32_t service_rate = 0;
  std::uint32_t buffer_limit = 0;
  std::uint32_t hop_limit = 0;  // effective (auto value resolved)
  std::uint32_t retry_limit = 0;
  Cycle retry_backoff_base = 0;
  std::uint32_t park_capacity = 0;
  std::uint32_t retry_budget = 0;
  Cycle retransmit_timeout = 0;
  std::uint64_t node_count = 0;
  std::uint32_t dims = 0;
  std::uint64_t traffic_fingerprint = 0;
  std::uint64_t schedule_fingerprint = 0;
  std::uint64_t schedule_events = 0;

  /// The fields in stored order, f(name, &CheckpointConfig::field) for
  /// each, named as a refused resume names them. The config section's
  /// encoder and decoder and the resume check walk this list.
  template <typename F>
  static constexpr void fields(F&& f) {
    f("seed", &CheckpointConfig::seed);
    f("injection_rate", &CheckpointConfig::injection_rate_bits);
    f("warmup_cycles", &CheckpointConfig::warmup_cycles);
    f("measure_cycles", &CheckpointConfig::measure_cycles);
    f("service_rate", &CheckpointConfig::service_rate);
    f("buffer_limit", &CheckpointConfig::buffer_limit);
    f("reroute_hop_limit", &CheckpointConfig::hop_limit);
    f("retry_limit", &CheckpointConfig::retry_limit);
    f("retry_backoff_base", &CheckpointConfig::retry_backoff_base);
    f("park_capacity", &CheckpointConfig::park_capacity);
    f("retry_budget", &CheckpointConfig::retry_budget);
    f("retransmit_timeout", &CheckpointConfig::retransmit_timeout);
    f("node_count", &CheckpointConfig::node_count);
    f("dims", &CheckpointConfig::dims);
    f("traffic model", &CheckpointConfig::traffic_fingerprint);
    f("fault schedule", &CheckpointConfig::schedule_fingerprint);
    f("fault schedule events", &CheckpointConfig::schedule_events);
  }
};

struct SimCheckpoint {
  CheckpointProvenance provenance;
  CheckpointConfig config;
  /// The cycle the resumed loop starts at (the checkpoint was captured at
  /// the serial point ENTERING this cycle).
  Cycle resume_cycle = 0;
  std::uint64_t in_flight = 0;
  Cycle consecutive_stalls = 0;
  std::uint64_t next_event = 0;  // fault-schedule cursor
  /// Live fault state in insertion order, so a dynamic-mode restore
  /// replays it into an identical FaultSet (vector order included).
  std::vector<NodeId> faulty_nodes;
  std::vector<LinkId> faulty_links;
  /// queues[u] = node u's effective queue (see the header comment),
  /// exactly node_count entries.
  std::vector<std::vector<CheckpointPacket>> queues;
  std::vector<CheckpointParked> parked;
  std::vector<CheckpointFire> fires;
  /// Global metrics with every shard partial already folded in.
  SimMetrics metrics;
};

/// CRC32 (IEEE, reflected 0xEDB88320) over `len` bytes, continuing from
/// `crc` (pass 0 to start). Exposed for tests and external tooling.
[[nodiscard]] std::uint32_t checkpoint_crc32(const void* data,
                                             std::size_t len,
                                             std::uint32_t crc = 0) noexcept;

/// Serializes `ck` to `path` atomically: the bytes land in "<path>.tmp",
/// are flushed and fsync'd, any existing "<path>" rotates to "<path>.1"
/// (replacing the generation before it), and the tmp file renames into
/// place. Throws std::runtime_error on I/O failure — the previous
/// generations are untouched in that case.
void save_checkpoint(const SimCheckpoint& ck, const std::string& path);

/// The rotation slot save_checkpoint moves the previous generation into.
[[nodiscard]] std::string checkpoint_previous_generation(
    const std::string& path);

/// Parses and validates one checkpoint file. Every failure throws
/// CheckpointError naming the failing section; a file that passes every
/// CRC and structural check is returned whole. Never crashes on corrupt
/// input: all reads are bounds-checked.
[[nodiscard]] SimCheckpoint load_checkpoint(const std::string& path);

/// load_checkpoint with generation fallback: tries `path`, and if that
/// fails (missing, truncated, or corrupt) notes the line-item error on
/// stderr and tries "<path>.1". Throws the PRIMARY failure when both are
/// unusable. `used_path`, when non-null, receives the file actually
/// loaded.
[[nodiscard]] SimCheckpoint load_checkpoint_with_fallback(
    const std::string& path, std::string* used_path = nullptr);

/// Deterministic fingerprint of a fault-event list (order-sensitive), the
/// schedule identity a resume validates against.
[[nodiscard]] std::uint64_t fault_events_fingerprint(
    const std::vector<FaultEvent>& events) noexcept;

}  // namespace gcube
