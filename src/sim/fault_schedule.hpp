// Fault schedules: when faults *arrive* — and heal — during a simulation.
//
// The paper's strategy is online and distributed — nodes route around
// faults they discover en route — so the interesting regime is faults that
// appear while packets are in flight. A FaultSchedule is an ordered list of
// {cycle, fail-or-repair, node-or-link} events that NetworkSim applies to
// the live FaultSet as the clock passes each event's cycle. Schedules come
// from four sources: programmatic construction (tests, benches), a text
// file (one event per line, see parse()), the random-arrival generator
// (delivery-ratio-vs-fault-arrival-rate studies), and the flapping-link
// generator (transient-fault churn with mean-time-to-failure/repair).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "fault/fault_set.hpp"
#include "sim/packet.hpp"
#include "util/bits.hpp"

namespace gcube {

struct FaultEvent {
  enum class Kind { kNode, kLink, kRepairNode, kRepairLink };

  Cycle cycle = 0;
  Kind kind = Kind::kNode;
  NodeId node = 0;
  Dim dim = 0;  // link events only: the dimension of the link at `node`

  /// True for the two link-shaped kinds (fail or repair), which carry a
  /// meaningful `dim` that must be range-checked against the topology.
  [[nodiscard]] bool targets_link() const noexcept {
    return kind == Kind::kLink || kind == Kind::kRepairLink;
  }
  /// True for the two repair kinds.
  [[nodiscard]] bool is_repair() const noexcept {
    return kind == Kind::kRepairNode || kind == Kind::kRepairLink;
  }

  friend bool operator==(const FaultEvent&, const FaultEvent&) = default;
};

class FaultSchedule {
 public:
  void fail_node_at(Cycle cycle, NodeId node);
  void fail_link_at(Cycle cycle, NodeId node, Dim dim);
  void repair_node_at(Cycle cycle, NodeId node);
  void repair_link_at(Cycle cycle, NodeId node, Dim dim);

  /// Events sorted by cycle (stable: same-cycle events keep insertion
  /// order, so replay is deterministic — in particular a fail and a repair
  /// of the same element in the same cycle apply in insertion order).
  [[nodiscard]] const std::vector<FaultEvent>& events() const;

  [[nodiscard]] bool empty() const noexcept { return events_.empty(); }
  [[nodiscard]] std::size_t size() const noexcept { return events_.size(); }

  /// Copy of this schedule with every repair event removed: the same churn
  /// pattern, made permanent. Used by recovery studies to compare
  /// "transient faults heal" against "same faults, forever".
  [[nodiscard]] FaultSchedule without_repairs() const;

  /// Random node-fault arrivals: each cycle in [0, horizon) one new node
  /// fails with probability `rate` (victim uniform among nodes not already
  /// scheduled), up to `max_faults` total. Deterministic in `seed`.
  [[nodiscard]] static FaultSchedule random_node_faults(
      std::uint64_t node_count, double rate, Cycle horizon,
      std::uint64_t seed, std::size_t max_faults);

  /// Flapping links: picks `flapping` distinct links from `candidates` and
  /// gives each an independent up/down renewal process over [0, horizon) —
  /// up-times geometric with mean `mttf` cycles, down-times geometric with
  /// mean `mttr` cycles. Every failure that completes its down-time before
  /// the horizon gets a matching repair event; a flap cut off by the
  /// horizon stays failed (callers wanting a clean end should pick a
  /// horizon past the churn window). Deterministic in `seed`; requires
  /// mttf >= 1, mttr >= 1, flapping <= candidates.size().
  [[nodiscard]] static FaultSchedule random_flapping_links(
      const std::vector<LinkId>& candidates, std::size_t flapping,
      double mttf, double mttr, Cycle horizon, std::uint64_t seed);

  /// Parses the schedule file format: one event per line,
  ///   <cycle> node <node-id>
  ///   <cycle> link <node-id> <dim>
  ///   <cycle> repair-node <node-id>
  ///   <cycle> repair-link <node-id> <dim>
  /// Blank lines and lines starting with '#' are ignored. Throws
  /// std::invalid_argument (with the line number) on malformed input, a
  /// number that is not a whole unsigned decimal token (quoted in the
  /// message), unknown event keywords, or ids too large for any supported
  /// topology (node >= 2^kMaxDimension, dim >= kMaxDimension); the tighter
  /// per-topology bound is enforced when the schedule is attached to a
  /// simulation.
  [[nodiscard]] static FaultSchedule parse(std::istream& in);
  [[nodiscard]] static FaultSchedule from_file(const std::string& path);

 private:
  void push(Cycle cycle, FaultEvent::Kind kind, NodeId node, Dim dim);

  mutable std::vector<FaultEvent> events_;
  mutable bool sorted_ = true;
};

}  // namespace gcube
