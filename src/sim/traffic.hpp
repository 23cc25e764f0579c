// Traffic generation.
//
// The paper's workload is uniform random traffic: every nonfaulty node
// independently injects packets destined to uniformly random nonfaulty
// other nodes; eager readership means service outpaces arrival, so offered
// load is set by the per-node injection rate. Additional classical patterns
// (bit complement, bit reversal, transpose, hotspot) are provided for the
// extension benchmarks — they stress the diluted links of a Gaussian Cube
// very differently from uniform traffic.
#pragma once

#include <bit>
#include <cstdint>

#include "fault/fault_set.hpp"
#include "util/bits.hpp"
#include "util/rng.hpp"

namespace gcube {

/// Injection + destination model consumed by the simulator.
///
/// The rng handed to injection_gap / pick_destination is a counter-based
/// per-(node, cycle) stream owned by the caller; the simulator constructs
/// it from counter_key(seed, node, cycle), so draws are a pure function of
/// that triple and independent of the order nodes are visited in — the
/// property the node-sharded parallel core's determinism contract rests
/// on. Implementations must be const-thread-safe: the sharded simulator
/// calls them concurrently from worker threads with no external locking,
/// so they may read shared state (the FaultSet between mutation points)
/// but must not mutate members.
class TrafficModel {
 public:
  virtual ~TrafficModel() = default;

  /// Sentinel gap: the node never injects again (rate 0, or too small
  /// for any gap to be drawn).
  static constexpr std::uint64_t kNeverGap = ~std::uint64_t{0};

  /// Cycles until node u's next injection, >= 1 (or kNeverGap) — the
  /// paper's injection process as the simulator realizes it. The simulator
  /// schedules injections event-driven from this instead of drawing once
  /// per (node, cycle) pair, so at low rates idle nodes cost nothing per
  /// cycle.
  [[nodiscard]] virtual std::uint64_t injection_gap(NodeId u,
                                                    CounterRng& rng) const = 0;

  /// A nonfaulty destination different from src.
  [[nodiscard]] virtual NodeId pick_destination(NodeId src,
                                                CounterRng& rng) const = 0;

  /// True iff u may act as a source or destination.
  [[nodiscard]] virtual bool eligible(NodeId u) const = 0;

  /// Deterministic fingerprint of the model's injection/destination
  /// parameters, recorded in checkpoints so a resume under a different
  /// workload is refused instead of silently diverging. Models are
  /// stateless between draws (everything is counter-keyed), so parameters
  /// ARE the state. The default covers custom models conservatively: 0
  /// matches only another default-fingerprint model.
  [[nodiscard]] virtual std::uint64_t state_fingerprint() const noexcept {
    return 0;
  }
};

class UniformTraffic : public TrafficModel {
 public:
  /// `rate` = per-node injection probability per cycle (0..1).
  UniformTraffic(std::uint64_t node_count, double rate,
                 const FaultSet& faults, std::uint64_t seed);

  /// Closed-form geometric gap: P(gap = g) = rate * (1 - rate)^(g-1), the
  /// gap between successes of per-cycle Bernoulli injection at `rate`, in
  /// one draw.
  [[nodiscard]] std::uint64_t injection_gap(NodeId u,
                                            CounterRng& rng) const override;
  [[nodiscard]] NodeId pick_destination(NodeId src,
                                        CounterRng& rng) const override;
  [[nodiscard]] bool eligible(NodeId u) const override;

  [[nodiscard]] double rate() const noexcept { return rate_; }
  [[nodiscard]] std::uint64_t seed() const noexcept { return seed_; }

  [[nodiscard]] std::uint64_t state_fingerprint() const noexcept override {
    std::uint64_t h = mix64(0x756e6974'72616666ull ^ node_count_);
    h = mix64(h ^ std::bit_cast<std::uint64_t>(rate_));
    return mix64(h ^ seed_);
  }

 protected:
  std::uint64_t node_count_;
  double rate_;
  double log1m_rate_;  // log1p(-rate), hoisted out of injection_gap
  const FaultSet& faults_;
  std::uint64_t seed_;
};

/// Classical deterministic-destination patterns. When the pattern maps a
/// source onto itself or onto a faulty node, the packet falls back to a
/// uniform destination so offered load stays comparable across patterns.
enum class TrafficPattern {
  kUniform,
  kBitComplement,  // dest = ~src
  kBitReversal,    // dest = reverse of src's n bits
  kTranspose,      // dest = src rotated by n/2 bits
  kHotspot,        // a fixed fraction of traffic goes to one hot node
};

class PatternTraffic final : public UniformTraffic {
 public:
  /// `n` = label width; `hotspot_fraction` only applies to kHotspot.
  PatternTraffic(Dim n, double rate, const FaultSet& faults,
                 std::uint64_t seed, TrafficPattern pattern,
                 NodeId hot_node = 0, double hotspot_fraction = 0.2);

  [[nodiscard]] NodeId pick_destination(NodeId src,
                                        CounterRng& rng) const override;

  [[nodiscard]] TrafficPattern pattern() const noexcept { return pattern_; }

  [[nodiscard]] std::uint64_t state_fingerprint() const noexcept override {
    std::uint64_t h = UniformTraffic::state_fingerprint();
    h = mix64(h ^ (static_cast<std::uint64_t>(pattern_) << 32 ^ hot_node_));
    return mix64(h ^ std::bit_cast<std::uint64_t>(hotspot_fraction_));
  }

 private:
  Dim n_;
  TrafficPattern pattern_;
  NodeId hot_node_;
  double hotspot_fraction_;
};

[[nodiscard]] const char* to_string(TrafficPattern pattern) noexcept;

}  // namespace gcube
