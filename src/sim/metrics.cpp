#include "sim/metrics.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

namespace gcube {

void LatencyHistogram::record(Cycle latency) noexcept {
  const std::size_t bucket =
      latency < 2 ? 0
                  : std::min<std::size_t>(kBuckets - 1,
                                          std::bit_width(latency) - 1);
  ++counts_[bucket];
  ++total_;
}

Cycle LatencyHistogram::percentile(double q) const {
  if (total_ == 0) return 0;
  q = std::clamp(q, 0.0, 1.0);
  // Rank of the delivery that must be covered: ceil(q * total), clamped to
  // [1, total]. rank >= 1 keeps q = 0 from landing in an empty bucket 0,
  // and the ceiling (instead of +0.5 rounding) keeps q = 1.0 from
  // overshooting past the last nonempty bucket.
  const auto rank = std::clamp<std::uint64_t>(
      static_cast<std::uint64_t>(
          std::ceil(q * static_cast<double>(total_))),
      1, total_);
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    seen += counts_[i];
    if (seen >= rank) {
      return (Cycle{1} << (i + 1)) - 1;  // upper edge of bucket i
    }
  }
  return ~Cycle{0};
}

void LatencyHistogram::merge(const LatencyHistogram& o) noexcept {
  for (std::size_t i = 0; i < kBuckets; ++i) counts_[i] += o.counts_[i];
  total_ += o.total_;
}

double SimMetrics::log2_throughput() const {
  const double t = throughput();
  return t <= 0.0 ? 0.0 : std::log2(t);
}

void SimMetrics::absorb(const SimMetrics& shard) noexcept {
  generated += shard.generated;
  delivered += shard.delivered;
  carryover_delivered += shard.carryover_delivered;
  dropped += shard.dropped;
  total_latency += shard.total_latency;
  total_hops += shard.total_hops;
  service_ops += shard.service_ops;
  peak_in_flight = std::max(peak_in_flight, shard.peak_in_flight);
  injections_blocked += shard.injections_blocked;
  stalled_cycles += shard.stalled_cycles;
  deadlocked = deadlocked || shard.deadlocked;
  fault_events += shard.fault_events;
  repairs_applied += shard.repairs_applied;
  reroutes += shard.reroutes;
  dropped_no_route += shard.dropped_no_route;
  dropped_hop_limit += shard.dropped_hop_limit;
  orphaned_by_node_fault += shard.orphaned_by_node_fault;
  parked_retries += shard.parked_retries;
  retransmits += shard.retransmits;
  gave_up += shard.gave_up;
  in_flight_at_end += shard.in_flight_at_end;
  phase_drain_ns += shard.phase_drain_ns;
  phase_inject_ns += shard.phase_inject_ns;
  phase_advance_ns += shard.phase_advance_ns;
  phase_commit_ns += shard.phase_commit_ns;
  latency_histogram.merge(shard.latency_histogram);
  plan_cache += shard.plan_cache;
}

bool SimMetrics::deterministic_equals(const SimMetrics& o) const noexcept {
  return measured_cycles == o.measured_cycles && generated == o.generated &&
         delivered == o.delivered &&
         carryover_delivered == o.carryover_delivered &&
         dropped == o.dropped &&
         total_latency == o.total_latency && total_hops == o.total_hops &&
         service_ops == o.service_ops &&
         peak_in_flight == o.peak_in_flight &&
         injections_blocked == o.injections_blocked &&
         stalled_cycles == o.stalled_cycles && deadlocked == o.deadlocked &&
         fault_events == o.fault_events &&
         repairs_applied == o.repairs_applied && reroutes == o.reroutes &&
         dropped_no_route == o.dropped_no_route &&
         dropped_hop_limit == o.dropped_hop_limit &&
         orphaned_by_node_fault == o.orphaned_by_node_fault &&
         parked_retries == o.parked_retries &&
         retransmits == o.retransmits && gave_up == o.gave_up &&
         in_flight_at_end == o.in_flight_at_end &&
         latency_histogram == o.latency_histogram;
}

}  // namespace gcube
