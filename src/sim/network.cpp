#include "sim/network.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <optional>
#include <thread>
#include <utility>

#include "sim/advance_simd.hpp"
#include "sim/sweep.hpp"
#include "util/error.hpp"
#include "util/simd.hpp"

namespace gcube {

NetworkSim::NetworkSim(const Topology& topo, const Router& router,
                       const FaultSet& faults, const SimConfig& config,
                       const TrafficModel* traffic)
    : topo_(topo),
      router_(router),
      faults_(faults),
      config_(config),
      default_traffic_(topo.node_count(), config.injection_rate, faults,
                       config.seed),
      traffic_(traffic != nullptr ? *traffic : default_traffic_),
      hop_limit_(config.reroute_hop_limit != 0 ? config.reroute_hop_limit
                                               : 16 * topo.dims() + 64) {
  GCUBE_REQUIRE(config.service_rate >= 1, "service rate must be positive");
  GCUBE_REQUIRE(config.measure_cycles >= 1, "nothing to measure");
  // A run must end below 2^32 cycles: the cycle-derived keys rely on it.
  // Fire slots and packet records hold cycles in 32 bits, packet ids
  // (now * node_count + u, node_count <= 2^kMaxDimension) fit in
  // 32 + kMaxDimension = 58 bits, and the retry-delay bounds below keep
  // every wake cycle below 2^64 only because now is below 2^32.
  constexpr Cycle kCycleRange = Cycle{1} << 32;
  GCUBE_REQUIRE(config.warmup_cycles < kCycleRange &&
                    config.measure_cycles < kCycleRange - config.warmup_cycles,
                "warmup + measure cycles exceed the simulator's cycle range");
  GCUBE_REQUIRE(config.threads <= kMaxPoolShards,
                "thread count exceeds the packet-reference shard space");
  // The packet record keeps its hop count in 24 bits above the flags, and
  // the classify kernels compare against hop_limit << kHopShift; the
  // automatic limit is at most 16 * 26 + 64 = 480.
  GCUBE_REQUIRE(hop_limit_ < kHopCountLimit,
                "reroute hop limit must be below 2^24 hops");
  GCUBE_REQUIRE(config.retry_limit <= 32,
                "retry limit above 32 would overflow the backoff shift");
  GCUBE_REQUIRE(config.retry_backoff_base >= 1,
                "retry backoff base must be at least one cycle");
  GCUBE_REQUIRE(config.retry_budget == 0 || config.retransmit_timeout >= 1,
                "retransmit timeout must be at least one cycle");
  // A wake cycle is now + delay. With now below 2^32, a timeout below 2^32
  // and a backoff base below 2^32 shifted by at most 31 attempts, that sum
  // stays below 2^64; a larger delay could wrap it into the past and wake
  // the packet at once.
  GCUBE_REQUIRE(config.retry_backoff_base < kCycleRange,
                "retry backoff base must be below 2^32 cycles");
  GCUBE_REQUIRE(config.retransmit_timeout < kCycleRange,
                "retransmit timeout must be below 2^32 cycles");
  GCUBE_REQUIRE(config.park_capacity <= 0xFFFF,
                "park capacity above 65535 would overflow the per-node "
                "park count");
  dims_ = topo.dims();
  node_count_ = topo.node_count();
  overlay_.attach(topo_);
  const NextHopFabric* fabric = router_.fabric();
  if (fabric != nullptr && fabric->supported()) fabric_ = fabric;
  simd_ = simd_level();
}

namespace {
[[nodiscard]] std::uint64_t ns_between(
    std::chrono::steady_clock::time_point a,
    std::chrono::steady_clock::time_point b) noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count());
}
}  // namespace

NetworkSim::NetworkSim(const Topology& topo, const Router& router,
                       const FaultSet& faults, const SimConfig& config)
    : NetworkSim(topo, router, faults, config, nullptr) {}

NetworkSim::NetworkSim(const Topology& topo, const Router& router,
                       const FaultSet& faults, const SimConfig& config,
                       const TrafficModel& traffic)
    : NetworkSim(topo, router, faults, config, &traffic) {}

NetworkSim::NetworkSim(const Topology& topo, const Router& router,
                       FaultSet& faults, const SimConfig& config,
                       const FaultSchedule& schedule)
    : NetworkSim(topo, router, static_cast<const FaultSet&>(faults), config,
                 nullptr) {
  attach_schedule(faults, schedule);
}

NetworkSim::NetworkSim(const Topology& topo, const Router& router,
                       FaultSet& faults, const SimConfig& config,
                       const TrafficModel& traffic,
                       const FaultSchedule& schedule)
    : NetworkSim(topo, router, static_cast<const FaultSet&>(faults), config,
                 &traffic) {
  attach_schedule(faults, schedule);
}

void NetworkSim::attach_schedule(FaultSet& faults,
                                 const FaultSchedule& schedule) {
  const std::vector<FaultEvent>& events = schedule.events();
  // Replays the static set plus the node events in order: traffic redraws
  // destinations until it finds a live node other than the source, so a
  // cycle that ends with fewer than two live nodes would hang the run.
  FaultSet replay = faults;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const FaultEvent& e = events[i];
    GCUBE_REQUIRE(e.node < topo_.node_count(),
                  "fault event node out of range");
    GCUBE_REQUIRE(!e.targets_link() || e.dim < topo_.dims(),
                  "fault event dimension out of range");
    // apply_fault_events consumes the list front to back and would
    // silently skip any event filed behind a later-cycle one.
    GCUBE_REQUIRE(i == 0 || events[i - 1].cycle <= e.cycle,
                  "fault schedule events must be sorted by cycle");
    if (e.kind == FaultEvent::Kind::kNode) replay.fail_node(e.node);
    if (e.kind == FaultEvent::Kind::kRepairNode) replay.repair_node(e.node);
    const bool cycle_done =
        i + 1 == events.size() || events[i + 1].cycle != e.cycle;
    GCUBE_REQUIRE(!cycle_done || replay.node_fault_count() + 2 <= node_count_,
                  "fault schedule leaves fewer than two live nodes at cycle " +
                      std::to_string(e.cycle));
  }
  live_faults_ = &faults;
  schedule_events_ = events;
}

void NetworkSim::configure_shards(unsigned shard_count) {
  const std::uint64_t nodes = topo_.node_count();
  auto count = static_cast<std::uint64_t>(shard_count);
  if (count > nodes) count = nodes;  // empty shards buy nothing
  if (count > kMaxPoolShards) count = kMaxPoolShards;
  if (count == 0) count = 1;
  shards_.clear();
  shards_.resize(count);
  range_base_ = static_cast<NodeId>(nodes / count);
  range_rem_ = static_cast<NodeId>(nodes % count);
  NodeId begin = 0;
  for (std::uint64_t s = 0; s < count; ++s) {
    Shard& sh = shards_[s];
    sh.begin = begin;
    sh.end = begin + range_base_ + (s < range_rem_ ? 1 : 0);
    for (auto& parity : sh.outbox) parity.resize(count);
    for (auto& parity : sh.released) parity.resize(count);
    sh.active.reset(sh.end - sh.begin);
    sh.wheel.assign(kWheelSize, kFireEnd);
    sh.fires.assign(sh.end - sh.begin, FireSlot{});
    begin = sh.end;
  }
  queues_.clear();
  queues_.resize(nodes);
  occ_.assign(config_.buffer_limit != 0 ? nodes : 0, 0);
  in_flight_ = 0;
  parked_.clear();
  parked_count_.assign(retries() ? nodes : 0, 0);
}

unsigned NetworkSim::shard_of(NodeId u) const noexcept {
  // Single-shard runs skip the divisions below — they sit on the per-hop
  // mailbox path and are pure overhead when there is only one owner.
  if (shards_.size() == 1) return 0;
  // Contiguous split: the first range_rem_ shards are one node wider.
  const NodeId wide = range_base_ + 1;
  const NodeId split = range_rem_ * wide;
  if (u < split) return static_cast<unsigned>(u / wide);
  return static_cast<unsigned>(
      range_rem_ + (u - split) / (range_base_ == 0 ? 1 : range_base_));
}

void NetworkSim::clear_cold_hops(const PacketHot& h) {
  // Only a detour or the audit sample puts hops in the lists.
  if ((h.hop_flags & (kPktDetour | kPktAudited)) == 0) return;
  PacketCold& c = cold_of(h.cold);
  c.detour.clear();
  c.tail.clear();
}

void NetworkSim::retire_packet(unsigned w, const PacketHot& h,
                               unsigned parity) {
  clear_cold_hops(h);
  const unsigned home = packet_ref_shard(h.cold);
  if (home == w) {
    shards_[home].pool.release(packet_ref_slot(h.cold));
  } else {
    // Foreign pools may not be touched from phase B (their owners grow and
    // release into them concurrently); route the slot home through the
    // current-parity release ring, drained by the owner's next phase A.
    shards_[w].released[parity][home].push_back(h.cold);
  }
}

std::size_t NetworkSim::discard_packets_at(NodeId u) {
  std::size_t lost = 0;
  Ring<PacketHot>& queue = queues_[u];
  while (!queue.empty()) {
    const PacketHot& h = queue.front();
    retire_packet(packet_ref_shard(h.cold), h, 0);
    queue.pop_front();
    ++lost;
  }
  // Packets already forwarded to u but still parked in a mailbox are lost
  // with it too; rotate each ring once, keeping survivors in order. At
  // this serial point only one parity holds undrained arrivals, but
  // scanning both costs nothing (the other is empty).
  const unsigned dst_shard = shard_of(u);
  for (Shard& src : shards_) {
    for (auto& parity : src.outbox) {
      Ring<Arrival>& box = parity[dst_shard];
      for (std::size_t i = box.size(); i > 0; --i) {
        const Arrival a = box.front();
        box.pop_front();
        if (a.node == u) {
          retire_packet(packet_ref_shard(a.hot.cold), a.hot, 0);
          ++lost;
        } else {
          box.push_back(a);
        }
      }
    }
  }
  return lost;
}

void NetworkSim::apply_fault_events(Cycle now, bool measuring) {
  while (next_event_ < schedule_events_.size() &&
         schedule_events_[next_event_].cycle <= now) {
    const FaultEvent& e = schedule_events_[next_event_++];
    if (measuring) ++metrics_.fault_events;
    switch (e.kind) {
      case FaultEvent::Kind::kLink:
        live_faults_->fail_link(e.node, e.dim);
        break;
      case FaultEvent::Kind::kNode: {
        live_faults_->fail_node(e.node);
        // Packets sitting at (or in transit to) the dead node are lost
        // with it. (Parked retries at it survive until their wake cycle,
        // where the same orphan accounting applies.)
        const std::size_t lost = discard_packets_at(e.node);
        if (lost > 0) {
          in_flight_ -= lost;
          if (measuring) metrics_.orphaned_by_node_fault += lost;
        }
        break;
      }
      case FaultEvent::Kind::kRepairLink:
        if (live_faults_->repair_link(e.node, e.dim) && measuring) {
          ++metrics_.repairs_applied;
        }
        break;
      case FaultEvent::Kind::kRepairNode:
        if (live_faults_->repair_node(e.node)) {
          if (measuring) ++metrics_.repairs_applied;
          // The node's injection fire may have been consumed while it was
          // dead (ineligible nodes are descheduled); give it a fresh one so
          // traffic resumes.
          rearm_injection(e.node, now);
        }
        break;
    }
  }
  // Serial point: rebuild the clean-node bitmap before workers read it.
  // No-op (one version compare) when nothing changed.
  overlay_.refresh(faults_);
}

void NetworkSim::rearm_injection(NodeId u, Cycle now) {
  Shard& sh = shards_[shard_of(u)];
  if (sh.fires[u - sh.begin].next != kFireIdle) return;  // a fire is pending
  if (!traffic_.eligible(u)) return;
  // Dedicated re-arm draw stream: keyed off a salted seed so it can never
  // collide with the per-(node, cycle) injection draws — and is a pure
  // function of (seed, node, repair cycle), preserving determinism.
  constexpr std::uint64_t kRearmSalt = 0x7265'6172'6d21'9e37ull;
  CounterRng rng(counter_key(config_.seed ^ kRearmSalt, u, now));
  const std::uint64_t gap = traffic_.injection_gap(u, rng);
  // Same convention as the pre-run seeding: a gap of g fires g - 1 cycles
  // out, so the repair cycle itself injects with the usual probability.
  if (gap == TrafficModel::kNeverGap || gap - 1 >= total_cycles_ - now) {
    return;
  }
  schedule_fire(sh, now + gap - 1, u);
}

void NetworkSim::commit_stranded(Cycle now, bool measuring,
                                 std::uint64_t& dropped) {
  // Ascending shard order = ascending strand-node order (phase B serves
  // nodes in ascending order within each contiguous shard), so the park /
  // retransmit / drop decisions — which consume shared budgets like
  // park_capacity — are identical for any shard count. With recovery off
  // both budgets are 0 and every stranded packet is dropped.
  for (Shard& sh : shards_) {
    while (!sh.stranded.empty()) {
      const Arrival s = sh.stranded.front();
      sh.stranded.pop_front();
      PacketCold& p = cold_of(s.hot.cold);
      if (p.retry_attempts < config_.retry_limit &&
          parked_count_[s.node] < config_.park_capacity) {
        const Cycle delay = config_.retry_backoff_base << p.retry_attempts;
        ++p.retry_attempts;
        parked_.emplace(now + delay, Parked{s.node, false, s.hot});
        ++parked_count_[s.node];
        if (measuring) ++metrics_.parked_retries;
      } else if (p.retransmits_used < config_.retry_budget) {
        // End-to-end recovery: relaunch from the source after the timeout
        // with a clean slate of local retries.
        ++p.retransmits_used;
        p.retry_attempts = 0;
        parked_.emplace(now + config_.retransmit_timeout,
                        Parked{p.src, true, s.hot});
        if (measuring) ++metrics_.retransmits;
      } else {
        retire_packet(packet_ref_shard(s.hot.cold), s.hot, 0);
        ++dropped;
        if (measuring) {
          ++(retries() ? metrics_.gave_up : metrics_.dropped_no_route);
        }
      }
    }
  }
}

void NetworkSim::wake_parked(Cycle now, bool measuring) {
  while (!parked_.empty() && parked_.begin()->first <= now) {
    Parked pk = parked_.begin()->second;
    parked_.erase(parked_.begin());
    if (!pk.respawn) --parked_count_[pk.node];
    if (faults_.node_faulty(pk.node)) {
      // The wake site died while the packet was parked: lost with it.
      retire_packet(packet_ref_shard(pk.hot.cold), pk.hot, 0);
      --in_flight_;
      if (measuring) ++metrics_.orphaned_by_node_fault;
      continue;
    }
    if (pk.respawn) {
      // Fresh launch from the source: same id/created (latency measures
      // end-to-end including the recovery delay), no detour, no table
      // mode, no hops. The audit-sample membership is a pure function of
      // the id, so the flag survives the reset.
      clear_cold_hops(pk.hot);
      pk.hot.hop_flags &= kPktAudited;
    }
    // Re-entry bypasses buffer_limit: the packet never left the network,
    // so blocking it here would leak it from the accounting.
    queues_[pk.node].push_back(pk.hot);
    Shard& sh = shards_[shard_of(pk.node)];
    sh.active.set(pk.node - sh.begin);
  }
}

void NetworkSim::admit_packet(unsigned w, NodeId u, NodeId dst, Cycle now,
                              bool measuring) {
  Shard& sh = shards_[w];
  SimMetrics& m = sh.metrics;
  if (measuring) ++m.generated;
  if (config_.buffer_limit != 0 &&
      queues_[u].size() >= config_.buffer_limit) {
    if (measuring) ++m.injections_blocked;
    return;
  }
  // Packets launch with no routing state at all: the fabric tables, or a
  // detour adopted where the table route is blocked, decide every hop at
  // service time. Recycled cold slots come back with empty hop lists, so
  // every other field is (re)initialized here. The record travels by
  // value from here on; the cold slot stays in this shard's pool.
  const PacketIndex slot = sh.pool.acquire();
  PacketCold& c = sh.pool.cold(slot);
  const std::uint64_t id = now * node_count_ + u;  // unique, no shared ctr
  c.src = u;
  c.retry_attempts = 0;
  c.retransmits_used = 0;
  queues_[u].push_back(
      {.dst = dst,
       .created = static_cast<std::uint32_t>(now),  // runs end below 2^32
       .hop_flags = (id & 63) == 0 ? kPktAudited : 0,
       .cold = make_packet_ref(w, slot)});
  sh.active.set(u - sh.begin);
  ++sh.injected;
}

void NetworkSim::fire_injection(unsigned w, NodeId u, Cycle now,
                                bool measuring) {
  // A node that became ineligible since scheduling is descheduled; if a
  // later repair-node event makes it eligible again, rearm_injection gives
  // it a fresh fire.
  if (!traffic_.eligible(u)) return;
  // Per-(node, cycle) draw stream: destination and the next gap are pure
  // functions of (seed, u, now), never of pop or thread order.
  CounterRng rng(counter_key(config_.seed, u, now));
  // The destination draw happens before the buffer check so that offered
  // load (`generated`, and the draw stream behind it) is identical across
  // buffer_limit settings; a blocked injection differs only in being
  // counted in injections_blocked instead of entering the network.
  const NodeId dst = traffic_.pick_destination(u, rng);
  admit_packet(w, u, dst, now, measuring);
  // The gap is drawn whether or not the buffer admitted the packet, for
  // the same reason.
  const std::uint64_t gap = traffic_.injection_gap(u, rng);
  if (gap == TrafficModel::kNeverGap || gap >= total_cycles_ - now) return;
  schedule_fire(shards_[w], now + gap, u);
}

void NetworkSim::schedule_fire(Shard& sh, Cycle at, NodeId u) {
  NodeId& head = sh.wheel[at & (kWheelSize - 1)];
  sh.fires[u - sh.begin] = {.next = head,
                            .at = static_cast<std::uint32_t>(at)};
  head = u;
}

void NetworkSim::phase_inject(unsigned w, Cycle now, bool measuring) {
  Shard& sh = shards_[w];
  sh.injected = 0;
  sh.removed = 0;
  sh.moved = false;
  std::chrono::steady_clock::time_point t0, t1;
  if (config_.phase_timing) t0 = std::chrono::steady_clock::now();
  // Batch-drain the opposite-parity rings: cold slots other shards
  // released into this pool, then last cycle's arrivals in ascending
  // source-shard order; shards are contiguous and ascending, so that
  // equals ascending source-node order — the canonical queue order,
  // independent of shard count. Indexed batch + clear instead of
  // per-packet pop_front: one bounds check and head/count update per
  // ring, not per handoff.
  const unsigned prev = static_cast<unsigned>(~now & 1);
  const auto shard_count = static_cast<unsigned>(shards_.size());
  for (unsigned s = 0; s < shard_count; ++s) {
    Ring<PacketRef>& rel = shards_[s].released[prev][w];
    const std::size_t freed = rel.size();
    for (std::size_t i = 0; i < freed; ++i) {
      sh.pool.release(packet_ref_slot(rel.at(i)));
    }
    rel.clear();
    Ring<Arrival>& box = shards_[s].outbox[prev][w];
    const std::size_t arrivals = box.size();
    for (std::size_t i = 0; i < arrivals; ++i) {
      // The destination rings are scattered across the queue table; stay a
      // few arrivals ahead of the pushes.
      if (i + kPrefetchAhead < arrivals) {
        prefetch_write(&queues_[box.at(i + kPrefetchAhead).node]);
      }
      const Arrival& a = box.at(i);
      queues_[a.node].push_back(a.hot);
      sh.active.set(a.node - sh.begin);
    }
    box.clear();
  }
  if (config_.phase_timing) {
    t1 = std::chrono::steady_clock::now();
    sh.metrics.phase_drain_ns += ns_between(t0, t1);
  }
  // Event-driven injection: only nodes whose bucket comes up do any work
  // this cycle. The bucket's list is detached and walked in list order:
  // a node due now fires, and any other is due a later lap and goes back
  // into the bucket. The fires of one cycle touch disjoint state and no
  // shared draw stream, so their order cannot reach a metric (see the
  // header comment). A fire files its node anew (possibly into this same
  // bucket, a whole number of laps out), which overwrites its slot, so
  // its successor is read first.
  NodeId& head = sh.wheel[now & (kWheelSize - 1)];
  for (NodeId u = std::exchange(head, kFireEnd); u != kFireEnd;) {
    FireSlot& slot = sh.fires[u - sh.begin];
    const NodeId next = slot.next;
    if (slot.at == now) {
      slot.next = kFireIdle;
      fire_injection(w, u, now, measuring);
    } else {
      slot.next = head;
      head = u;
    }
    u = next;
  }
  if (config_.buffer_limit != 0) {
    // Maintenance scan over live bits only: retire nodes whose queue
    // emptied last cycle, publish committed occupancy for the rest. (With
    // unbounded buffers there is no occupancy to publish and phase B
    // retires emptied nodes itself, so no scan at all.)
    sh.active.for_each_set([&](std::uint64_t bit) {
      const NodeId u = sh.begin + static_cast<NodeId>(bit);
      const std::size_t depth = queues_[u].size();
      if (depth == 0) {
        sh.active.clear(bit);
        occ_[u] = 0;
      } else {
        occ_[u] = static_cast<std::uint32_t>(depth);
      }
    });
  }
  if (config_.phase_timing) {
    sh.metrics.phase_inject_ns +=
        ns_between(t1, std::chrono::steady_clock::now());
  }
}

inline void NetworkSim::deliver(unsigned w, Ring<PacketHot>& queue,
                                const PacketHot& h, Cycle now,
                                bool measuring, bool& moved) {
  Shard& sh = shards_[w];
  if (h.audited()) {
    const PacketCold& c = cold_of(h.cold);
    NodeId replay = c.src;
    for (std::uint32_t i = 0; i < h.hops(); ++i) {
      replay = flip_bit(replay, c.tail[i]);
    }
    GCUBE_REQUIRE(replay == h.dst,
                  "delivered packet's recorded path must end at dst");
  }
  if (measuring) {
    // Everything accounted here is in the record: a delivery outside the
    // audit sample reads no cold line.
    SimMetrics& m = sh.metrics;
    const Cycle created = h.created;
    if (created < config_.warmup_cycles) {
      // Warmup-generated packet completing inside the window: real work,
      // but counting it in delivered/latency would let the delivery ratio
      // exceed the offered load and skew the averages.
      ++m.carryover_delivered;
    } else {
      ++m.delivered;
      m.total_latency += now - created;
      m.total_hops += h.hops();
      m.latency_histogram.record(now - created);
    }
    ++m.service_ops;
  }
  ++sh.removed;
  retire_packet(w, h, static_cast<unsigned>(now & 1));
  queue.pop_front();
  moved = true;
}

bool NetworkSim::table_route_clean(NodeId u, NodeId dst) const noexcept {
  for (NodeId x = u; x != dst;) {
    const Dim c = fabric_->fault_free_hop(x, dst);
    if (!faults_.link_usable(x, c)) return false;
    x = flip_bit(x, c);
  }
  return true;
}

void NetworkSim::adopt_detour(PacketHot& h, const Route& plan) {
  const std::vector<Dim>& hops = plan.hops();
  // The off-table prefix ends after the last hop that differs from the
  // table hop where it is taken (a hop past an early visit to dst is never
  // taken). Without a fabric there is no table walk to rejoin.
  std::size_t prefix = hops.size();
  if (fabric_ != nullptr) {
    prefix = 0;
    NodeId x = plan.source();
    for (std::size_t i = 0; i < hops.size() && x != h.dst; ++i) {
      if (hops[i] != fabric_->fault_free_hop(x, h.dst)) prefix = i + 1;
      x = flip_bit(x, hops[i]);
    }
  }
  if (prefix == 0) {
    h.hop_flags |= kPktTable;  // the plan is the table route itself
    return;
  }
  PacketCold& cd = cold_of(h.cold);
  for (std::size_t i = 0; i < prefix; ++i) cd.detour.push_back(hops[i]);
  h.hop_flags |= kPktDetour;
}

void NetworkSim::serve_node(unsigned w, NodeId u, Cycle now, bool measuring,
                            bool& moved, bool clean, std::uint32_t hint) {
  Shard& sh = shards_[w];
  SimMetrics& m = sh.metrics;
  const unsigned parity = static_cast<unsigned>(now & 1);
  Ring<PacketHot>& queue = queues_[u];
  // Bit c set iff u's dimension-c link carried a packet this cycle. Only
  // this call sends over u's links (a node is served once per cycle), so
  // the mask is the whole of link arbitration.
  static_assert(kMaxDimension <= 32);
  std::uint32_t used = 0;
  for (std::uint32_t served = 0;
       served < config_.service_rate && !queue.empty(); ++served) {
    // The front record is edited in place: a packet that stays (a busy
    // link, backpressure) keeps the routing state it just took on.
    PacketHot& h = queue.front();
    // The batched pass precomputed the front packet's disposition; every
    // later packet of the queue takes the full decision tree.
    const std::uint32_t hd = served == 0 ? hint : kHintNone;
    if (hd == kHintArrived || (hd == kHintNone && u == h.dst)) {
      deliver(w, queue, h, now, measuring, moved);
      continue;
    }
    // A dropped packet leaves the network for good; dropping counts as
    // progress for the stall detector.
    const auto drop_hop_limit = [&]() {
      if (measuring) ++m.dropped_hop_limit;
      ++sh.removed;
      retire_packet(w, h, parity);
      queue.pop_front();
      moved = true;
    };
    // A packet with no usable continuation is handed to the serial
    // commit, which decides between a parked retry, a source retransmit
    // and a drop. It stays in flight until then (not counted in
    // sh.removed).
    const auto strand = [&]() {
      sh.stranded.push_back({u, h});
      queue.pop_front();
      moved = true;
    };
    Dim c;
    if (hd < kHintArrived) {
      // Batched fast path: the classify pass established no carried
      // detour, a clean node, and hops under the livelock guard, and the
      // table lookup already ran — the hint IS the usable hop.
      c = static_cast<Dim>(hd);
    } else {
      if (h.hops() >= hop_limit_) {
        drop_hop_limit();  // livelock guard: re-adopted plans cycled
        continue;
      }
      std::optional<Dim> hop;
      if ((h.hop_flags & kPktDetour) != 0) {
        // Taking a detour adopted at an earlier node; verify its next hop
        // is still alive before taking it.
        PacketCold& cd = cold_of(h.cold);
        const Dim dc = cd.detour.front();
        if (faults_.link_usable(u, dc)) {
          hop = dc;
        } else {
          if (measuring) ++m.reroutes;
          cd.detour.clear();  // died underfoot: re-steer from this node
          h.hop_flags &= ~kPktDetour;
        }
      } else if ((h.hop_flags & kPktTable) != 0 && !clean) {
        // Table mode near a fault: only the table hop itself is checked.
        const Dim tc = fabric_->fault_free_hop(u, h.dst);
        if (faults_.link_usable(u, tc)) {
          hop = tc;
        } else {
          if (measuring) ++m.reroutes;
          h.hop_flags &= ~kPktTable;  // died underfoot: re-steer from here
        }
      }
      if (!hop) {
        if (clean) {
          // No fault within distance 1: the fabric's fault-free table hop
          // is guaranteed usable — no per-link checks at all.
          hop = fabric_->fault_free_hop(u, h.dst);
        } else if (fabric_ != nullptr) {
          // A fault lies within distance 1. A reroute is counted when it
          // actually deflects the packet off its fault-free table hop.
          // Where the whole table route from here is clean, it is the
          // router's plan too, so the packet rides it in table mode.
          const Dim tc = fabric_->fault_free_hop(u, h.dst);
          if (!faults_.link_usable(u, tc)) {
            if (measuring) ++m.reroutes;
          } else if (table_route_clean(flip_bit(u, tc), h.dst)) {
            h.hop_flags |= kPktTable;
            hop = tc;
          }
        }
        if (!hop) {
          // No table route to take — the router has no fabric, or a fault
          // blocks the table route — so adopt the router's plan from here
          // and carry its off-table prefix as a detour.
          const std::shared_ptr<const Route> plan =
              router_.plan_shared(u, h.dst);
          if (plan == nullptr || plan->length() == 0 ||
              !faults_.link_usable(u, plan->hops().front())) {
            strand();  // no usable continuation (dst dead or region cut off)
            continue;
          }
          adopt_detour(h, *plan);
          hop = plan->hops().front();
        }
      }
      c = *hop;
    }
    const std::uint32_t link = std::uint32_t{1} << c;
    if ((used & link) != 0) return;  // link busy: head-of-line blocking
    const NodeId v = flip_bit(u, c);
    if (config_.buffer_limit != 0 && occ_[v] >= config_.buffer_limit) {
      return;  // backpressure against start-of-cycle committed occupancy
    }
    used |= link;
    if (measuring) ++m.service_ops;
    // Only the audited sample records its hops (the audit path lives in
    // the tail); everyone else keeps just the hop count.
    if (h.audited()) cold_of(h.cold).tail.push_back(c);
    if ((h.hop_flags & kPktDetour) != 0) {
      PacketCold& cd = cold_of(h.cold);
      cd.detour.pop_front();
      if (cd.detour.empty()) {
        // Detour used up: the rest of the plan is the table walk from the
        // next node (without a fabric the plan has ended at dst).
        h.hop_flags &= ~kPktDetour;
        if (fabric_ != nullptr) h.hop_flags |= kPktTable;
      }
    }
    h.hop_flags += kOneHop;
    sh.outbox[parity][shard_of(v)].push_back({v, h});
    queue.pop_front();
    moved = true;
  }
}

void NetworkSim::serve_word(unsigned w, std::size_t word_index, Cycle now,
                            bool measuring, bool& moved, bool retire) {
  Shard& sh = shards_[w];
  const NodeId base = sh.begin + static_cast<NodeId>(word_index << 6);
  // Pass 1 (read-only + stale-bit retirement): harvest the word's set bits
  // in ascending order, copying each front packet's 16-byte record into
  // one contiguous window that the classify kernels load directly.
  NodeId nodes[64];
  alignas(32) PacketHot front[64];
  unsigned count = 0;
  for (std::uint64_t bits = sh.active.word(word_index); bits != 0;
       bits &= bits - 1) {
    const auto b = static_cast<unsigned>(std::countr_zero(bits));
    const NodeId u = base + b;
    const Ring<PacketHot>& q = queues_[u];
    if (q.empty()) {
      // Finite-buffer mode leaves retirement to the phase-A maintenance
      // scan, so an empty-but-active node is normal there; with unbounded
      // buffers this is purely defensive.
      if (retire) sh.active.clear(u - sh.begin);
      continue;
    }
    nodes[count] = u;
    front[count] = q.front();
    ++count;
  }
  if (count == 0) return;
  // One overlay window answers all 64 clean-node questions. Without a
  // fabric there is no table hop to take, so no node counts as clean.
  const std::uint64_t clean =
      fabric_ == nullptr ? 0 : overlay_.clean_window(base);
  // Pass 2 (read-only): classify every front packet in SIMD lanes —
  // arrived, table fast path (no carried detour, clean node, under the
  // livelock guard), or "decide in full later" — then compact the fast
  // lanes into (cur, dst) pairs for one tight batched table-lookup loop.
  const ClassifyMasks cm = classify_front_packets(
      simd_, count, front, nodes, base, clean, hop_limit_);
  std::uint32_t hints[64];
  for (unsigned i = 0; i < count; ++i) hints[i] = kHintNone;
  for (std::uint64_t bits = cm.arrived; bits != 0; bits &= bits - 1) {
    hints[std::countr_zero(bits)] = kHintArrived;
  }
  NodeId cur[64];
  NodeId dstv[64];
  unsigned fast_of[64];
  Dim hops[64];
  unsigned nfast = 0;
  for (std::uint64_t bits = cm.fast; bits != 0; bits &= bits - 1) {
    const auto i = static_cast<unsigned>(std::countr_zero(bits));
    cur[nfast] = nodes[i];
    dstv[nfast] = front[i].dst;
    fast_of[nfast] = i;
    ++nfast;
  }
  if (nfast != 0) {
    fabric_->fault_free_hops(simd_, nfast, cur, dstv, hops);
    for (unsigned i = 0; i < nfast; ++i) hints[fast_of[i]] = hops[i];
  }
  // Pass 3 (apply), strictly ascending node order: outbox push order is
  // the canonical order the determinism contract rests on. The read-only
  // passes above commute with these applies — within phase B, node
  // services are mutually independent (each arbitrates only its own
  // links, every handoff goes via the parity mailboxes), so each node's
  // queue and its front record are exactly as the harvest copied them.
  //
  // The dominant shape at simulated loads — a depth-1 queue whose single
  // packet either takes its table hop or delivers — is applied inline (the
  // exact serve_node semantics for that shape: the node's one service of
  // the cycle, so its link is free, and then the queue is empty);
  // everything else takes the full path.
  const unsigned parity = static_cast<unsigned>(now & 1);
  SimMetrics& m = sh.metrics;
  for (unsigned i = 0; i < count; ++i) {
    const NodeId u = nodes[i];
    const std::uint32_t hint = hints[i];
    Ring<PacketHot>& queue = queues_[u];
    if (retire && hint != kHintNone && queue.size() == 1) {
      PacketHot& h = front[i];  // the harvested copy of its only record
      if (hint == kHintArrived) {
        deliver(w, queue, h, now, measuring, moved);
      } else {
        const Dim c = static_cast<Dim>(hint);
        if (measuring) ++m.service_ops;
        if (h.audited()) cold_of(h.cold).tail.push_back(c);
        h.hop_flags += kOneHop;
        const NodeId v = flip_bit(u, c);
        sh.outbox[parity][shard_of(v)].push_back({v, h});
        queue.pop_front();
        moved = true;
      }
      sh.active.clear(u - sh.begin);
      continue;
    }
    serve_node(w, u, now, measuring, moved,
               ((clean >> (u - base)) & 1) != 0, hint);
    if (retire && queue.empty()) sh.active.clear(u - sh.begin);
  }
}

void NetworkSim::phase_forward(unsigned w, Cycle now, bool measuring) {
  Shard& sh = shards_[w];
  bool moved = false;
  std::chrono::steady_clock::time_point t0;
  if (config_.phase_timing) t0 = std::chrono::steady_clock::now();
  // Only nodes whose bit is set can hold packets (phase-A invariant), so
  // the ascending word scan serves exactly the canonical node order. With
  // unbounded buffers an emptied node is retired here on the spot; with
  // finite ones the phase-A maintenance scan does it (occ_ is read
  // cross-shard during this phase and may only be written at the phase-A
  // serial-equivalent point).
  const bool retire = config_.buffer_limit == 0;
  const std::size_t words = sh.active.word_count();
  for (std::size_t wd = 0; wd < words; ++wd) {
    if (sh.active.word(wd) != 0) {
      serve_word(w, wd, now, measuring, moved, retire);
    }
  }
  sh.moved = moved;
  if (config_.phase_timing) {
    sh.metrics.phase_advance_ns +=
        ns_between(t0, std::chrono::steady_clock::now());
  }
}

SimMetrics NetworkSim::run() {
  metrics_ = SimMetrics{};
  metrics_.measured_cycles = config_.measure_cycles;
  next_event_ = 0;

  // Resolve the worker count. Explicit counts are honored (the
  // determinism and TSan tests need real concurrency even on small
  // machines, via allow_oversubscribe) but still deduct from the shared
  // budget so enclosing sweeps see the machine as busy; auto asks the
  // budget what is spare.
  unsigned hw = std::thread::hardware_concurrency();
  if (hw == 0) hw = 1;
  std::optional<ThreadLease> lease;
  unsigned shard_count;
  if (config_.threads == 0) {
    lease.emplace(hw - 1);
    shard_count = 1 + lease->granted();
  } else {
    unsigned want = config_.threads;
    if (want > hw && !config_.allow_oversubscribe) {
      // More workers than cores only adds contention on the cycle
      // barrier; metrics are thread-count-independent anyway.
      static std::atomic<bool> warned{false};
      if (!warned.exchange(true)) {
        std::fprintf(stderr,
                     "gcube: clamping threads=%u to hardware concurrency "
                     "%u (metrics are unaffected; set allow_oversubscribe "
                     "/ --oversubscribe to override)\n",
                     want, hw);
      }
      want = hw;
    }
    lease.emplace(want - 1);
    shard_count = want;
  }
  configure_shards(shard_count);
  total_cycles_ = config_.warmup_cycles + config_.measure_cycles;
  Cycle start = 0;
  if (!config_.resume_from.empty()) {
    const SimCheckpoint ck =
        load_checkpoint_with_fallback(config_.resume_from);
    apply_checkpoint(ck);
    start = ck.resume_cycle;
  }
  overlay_.refresh(faults_);
  if (start == 0) {
    // Seed every node's first fire from a dedicated pre-run draw stream
    // (cycle key ~0 cannot collide with a real cycle). First fire at
    // gap - 1 so cycle 0 fires with the same probability as any other.
    for (Shard& sh : shards_) {
      for (NodeId u = sh.begin; u < sh.end; ++u) {
        if (!traffic_.eligible(u)) continue;
        CounterRng rng(counter_key(config_.seed, u, ~Cycle{0}));
        const std::uint64_t gap = traffic_.injection_gap(u, rng);
        if (gap == TrafficModel::kNeverGap || gap - 1 >= total_cycles_) {
          continue;
        }
        schedule_fire(sh, gap - 1, u);
      }
    }
  }
  ShardPool pool(static_cast<unsigned>(shards_.size()));
  pool_ = &pool;

  // Fused cycle loop, dispatched ONCE: every worker runs the whole
  // warmup + measurement loop and meets the others only at barriers.
  // Phase A overlaps freely with other shards' phase B (parity
  // double-buffered rings, pointer-stable pools), so the common
  // unbounded-buffer cycle costs exactly one rendezvous — the end-of-cycle
  // barrier whose last arriver runs serial_commit. Finite buffers add the
  // mid-cycle barrier that makes the phase-A occupancy snapshot
  // consistent before any shard reads it for backpressure. Phases catch
  // into the shard's error slot so every worker always reaches the
  // barriers; the serial section turns the first error into a stop, and
  // it is rethrown after the join.
  ab_barrier_ = config_.buffer_limit != 0;
  stop_run_ = false;
  serial_error_ = nullptr;
  consecutive_stalls_ = 0;
  cache_base_ = RouterCacheStats{};
  cache_base_set_ = false;
  // The start cycle's fault events / wakes, serially pre-dispatch. On a
  // resume this re-runs exactly the prework the interrupted run performed
  // AFTER its capture point (capture precedes cycle_prework(next) in the
  // serial section), so the worlds re-converge bit for bit.
  cycle_prework(start);
  const std::function<void(unsigned)> job = [this, start](unsigned w) {
    Shard& sh = shards_[w];
    for (Cycle now = start;; ++now) {
      const bool measuring = now >= config_.warmup_cycles;
      try {
        phase_inject(w, now, measuring);
      } catch (...) {
        sh.error = std::current_exception();
      }
      if (ab_barrier_) pool_->barrier();
      if (sh.error == nullptr) {
        try {
          phase_forward(w, now, measuring);
        } catch (...) {
          sh.error = std::current_exception();
        }
      }
      pool_->barrier_serial([this, now] { serial_commit(now); });
      // stop_run_ was written under the barrier, so every worker reads
      // the same verdict and the loop exits in lockstep.
      if (stop_run_) break;
    }
  };
  pool.run(job);
  pool_ = nullptr;
  if (serial_error_ != nullptr) {
    const std::exception_ptr error = serial_error_;
    serial_error_ = nullptr;
    std::rethrow_exception(error);
  }
  metrics_.in_flight_at_end = in_flight_;

  // Deterministic reduction: fold shard partials in ascending shard order.
  for (const Shard& sh : shards_) metrics_.absorb(sh.metrics);
  if (cache_base_set_) {
    const RouterCacheStats delta = router_.cache_stats() - cache_base_;
    metrics_.plan_cache = delta.plan;
  }
  return metrics_;
}

void NetworkSim::cycle_prework(Cycle now) {
  const bool measuring = now >= config_.warmup_cycles;
  if (measuring && !cache_base_set_) {
    // Scope the reported cache counters to the measurement window.
    cache_base_ = router_.cache_stats();
    cache_base_set_ = true;
  }
  apply_fault_events(now, measuring);
  // Wake after fault application so a repair landing this cycle is
  // already visible to the retried packets.
  wake_parked(now, measuring);
}

void NetworkSim::serial_commit(Cycle now) noexcept {
  // Runs on whichever worker arrives last at the end-of-cycle barrier —
  // alone, with every shard's phase writes visible, and with its own
  // writes published to all workers when the gate opens. Everything here
  // is a pure function of simulation state, so WHICH thread runs it
  // cannot affect the outcome.
  const bool measuring = now >= config_.warmup_cycles;
  // Scope guard: the serial section has several exits (errors, deadlock,
  // run end) and the commit share must be accumulated on all of them.
  struct TimerGuard {
    bool on;
    std::uint64_t* acc;
    std::chrono::steady_clock::time_point t0;
    TimerGuard(bool on_, std::uint64_t* acc_) : on(on_), acc(acc_) {
      if (on) t0 = std::chrono::steady_clock::now();
    }
    ~TimerGuard() {
      if (on) *acc += ns_between(t0, std::chrono::steady_clock::now());
    }
  } timer{config_.phase_timing, &metrics_.phase_commit_ns};
  try {
    for (Shard& sh : shards_) {
      if (sh.error != nullptr) {
        if (serial_error_ == nullptr) serial_error_ = sh.error;
        sh.error = nullptr;
      }
    }
    if (serial_error_ != nullptr) {
      stop_run_ = true;
      return;
    }
    std::uint64_t injected = 0;
    std::uint64_t removed = 0;
    bool moved = false;
    for (Shard& sh : shards_) {
      injected += sh.injected;
      removed += sh.removed;
      moved = moved || sh.moved;
    }
    // In-flight depth peaks after phase A (all injections in, no removals
    // yet); the same value the serial core saw at its last injection of
    // the cycle, gated on the measurement window.
    if (measuring) {
      metrics_.peak_in_flight =
          std::max(metrics_.peak_in_flight, in_flight_ + injected);
    }
    std::uint64_t dropped = 0;
    commit_stranded(now, measuring, dropped);
    in_flight_ = in_flight_ + injected - removed - dropped;
    // Packets parked for backoff are waiting on a timer, not on each
    // other: only unparked in-flight packets can indicate a stall. A
    // sustained global stall with finite buffers is a deadlock.
    constexpr Cycle kDeadlockThreshold = 200;
    if (!moved && in_flight_ > parked_.size()) {
      if (measuring) ++metrics_.stalled_cycles;
      if (++consecutive_stalls_ >= kDeadlockThreshold) {
        metrics_.deadlocked = true;
        stop_run_ = true;
        return;
      }
    } else {
      consecutive_stalls_ = 0;
    }
    const Cycle next = now + 1;
    const bool done = next >= total_cycles_;
    // Graceful halt: an external stop request (sim_cli's SIGINT/SIGTERM
    // flag) or the deterministic halt_at_cycle test knob, honored here so
    // the cycle just finished is committed cleanly. Checked BEFORE the
    // checkpoint decision so the halt's final checkpoint is written.
    const bool halt =
        !done &&
        ((config_.stop_requested != nullptr &&
          config_.stop_requested->load(std::memory_order_relaxed)) ||
         (config_.halt_at_cycle != 0 && next == config_.halt_at_cycle));
    if (!config_.checkpoint_path.empty() &&
        (halt || (config_.checkpoint_every != 0 && !done &&
                  next % config_.checkpoint_every == 0))) {
      // This is the one serial point where the whole simulation is
      // quiescent: every ring drained or parity-idle, every shard partial
      // visible. A save failure lands in serial_error_ via the enclosing
      // catch — checkpointing must never corrupt the run it protects.
      save_checkpoint(capture_checkpoint(next), config_.checkpoint_path);
    }
    if (config_.crash_at_cycle != 0 && next == config_.crash_at_cycle) {
      // Crash-fault injection: die like a kill -9 — no unwinding, no
      // stream flushing, mid-run. Any checkpoint due at this same point
      // was already made durable (fsync + rename) above.
      std::_Exit(137);
    }
    if (halt) {
      metrics_.interrupted_at = next;
      stop_run_ = true;
      return;
    }
    if (done) {
      stop_run_ = true;
      return;
    }
    cycle_prework(next);
  } catch (...) {
    serial_error_ = std::current_exception();
    stop_run_ = true;
  }
}

CheckpointPacket NetworkSim::capture_packet(const PacketHot& h) {
  const PacketCold& c = cold_of(h.cold);
  CheckpointPacket p;
  p.dst = h.dst;
  p.hops = h.hops();
  p.flags = h.hop_flags & kPktFlagMask;
  // The id is not stored: it is the admission key, a pure function of
  // (creation cycle, source).
  p.id = h.created * node_count_ + c.src;
  p.src = c.src;
  p.created = h.created;
  p.retry_attempts = c.retry_attempts;
  p.retransmits_used = c.retransmits_used;
  p.detour_hops.reserve(c.detour.size());
  for (std::uint32_t i = 0; i < c.detour.size(); ++i) {
    p.detour_hops.push_back(c.detour[i]);
  }
  if (h.audited()) {
    p.tail_hops.reserve(c.tail.size());
    for (std::uint32_t i = 0; i < c.tail.size(); ++i) {
      p.tail_hops.push_back(c.tail[i]);
    }
  }
  return p;
}

PacketHot NetworkSim::restore_packet(unsigned w, const CheckpointPacket& p,
                                     const char* section, Cycle resume_cycle) {
  const auto need = [&](bool ok, const char* detail) {
    if (!ok) throw CheckpointError(section, detail);
  };
  need(p.dst < node_count_ && p.src < node_count_,
       "packet endpoint out of range");
  // The record holds the creation cycle in 32 bits and the hop count in
  // 24; the resume cycle is below 2^32, and a live packet was made before
  // it.
  need(p.created < resume_cycle,
       "packet created at or after the resume cycle");
  need(p.hops < kHopCountLimit,
       "packet hop count exceeds the record's 24-bit field");
  constexpr std::uint32_t kKnownFlags = kPktDetour | kPktAudited | kPktTable;
  need((p.flags & ~kKnownFlags) == 0, "unknown packet flags");
  need(((p.flags & kPktDetour) != 0) == !p.detour_hops.empty(),
       "detour flag inconsistent with recorded detour");
  for (const Dim d : p.detour_hops) need(d < dims_, "detour hop out of range");
  if ((p.flags & kPktTable) != 0) {
    need((p.flags & kPktDetour) == 0, "table mode set on a detour");
    // Table mode reads the fabric at every fault-adjacent node.
    need(fabric_ != nullptr, "table mode without a supported fabric");
  }
  need((p.flags & kPktAudited) != 0 || p.tail_hops.empty(),
       "hop tail recorded without audit flag");
  for (const Dim d : p.tail_hops) need(d < dims_, "tail hop out of range");
  // The audited replay walks tail[0, hops).
  need((p.flags & kPktAudited) == 0 || p.hops == p.tail_hops.size(),
       "audited path length differs from hop count");
  // The id is derived, not stored: a packet whose id is not its admission
  // key, or whose audit flag does not follow from it, is no packet the
  // simulator could have written.
  need(p.id == p.created * node_count_ + p.src,
       "packet id differs from created * node count + source");
  need(((p.flags & kPktAudited) != 0) == ((p.id & 63) == 0),
       "audit flag disagrees with packet id");

  Shard& sh = shards_[w];
  const PacketIndex slot = sh.pool.acquire();
  PacketCold& c = sh.pool.cold(slot);
  c.src = p.src;
  c.retry_attempts = p.retry_attempts;
  c.retransmits_used = p.retransmits_used;
  for (const Dim d : p.detour_hops) c.detour.push_back(d);
  for (const Dim d : p.tail_hops) c.tail.push_back(d);
  return {.dst = p.dst,
          .created = static_cast<std::uint32_t>(p.created),
          .hop_flags = (p.hops << kHopShift) | p.flags,
          .cold = make_packet_ref(w, slot)};
}

CheckpointConfig NetworkSim::checkpoint_config() const {
  return {.seed = config_.seed,
          .injection_rate_bits =
              std::bit_cast<std::uint64_t>(config_.injection_rate),
          .warmup_cycles = config_.warmup_cycles,
          .measure_cycles = config_.measure_cycles,
          .service_rate = config_.service_rate,
          .buffer_limit = config_.buffer_limit,
          .hop_limit = hop_limit_,
          .retry_limit = config_.retry_limit,
          .retry_backoff_base = config_.retry_backoff_base,
          .park_capacity = config_.park_capacity,
          .retry_budget = config_.retry_budget,
          .retransmit_timeout = config_.retransmit_timeout,
          .node_count = node_count_,
          .dims = dims_,
          .traffic_fingerprint = traffic_.state_fingerprint(),
          .schedule_fingerprint = fault_events_fingerprint(schedule_events_),
          .schedule_events = schedule_events_.size()};
}

SimCheckpoint NetworkSim::capture_checkpoint(Cycle next) {
  SimCheckpoint ck;
  ck.resume_cycle = next;
  ck.in_flight = in_flight_;
  ck.consecutive_stalls = consecutive_stalls_;
  ck.next_event = next_event_;

  ck.provenance.seed = config_.seed;
  ck.provenance.topology = topo_.name();
  ck.provenance.router = router_.name();
  ck.provenance.simd = to_string(simd_);
  ck.provenance.threads = static_cast<std::uint32_t>(shards_.size());
#ifdef NDEBUG
  ck.provenance.build_type = "optimized";
#else
  ck.provenance.build_type = "debug";
#endif

  ck.config = checkpoint_config();

  ck.faulty_nodes = faults_.faulty_nodes();
  ck.faulty_links = faults_.faulty_links();

  // Effective queues, shard-count independent: node u's queue contents
  // followed by its pending mailbox arrivals in ascending source-shard
  // (= ascending source-node) ring order — exactly the order phase A of
  // cycle `next` would drain them. Only the parity phase A drains next
  // can hold arrivals at this serial point; the restore leaves all rings
  // empty with the merge pre-applied.
  ck.queues.resize(node_count_);
  for (NodeId u = 0; u < node_count_; ++u) {
    const Ring<PacketHot>& q = queues_[u];
    ck.queues[u].reserve(q.size());
    for (std::size_t i = 0; i < q.size(); ++i) {
      ck.queues[u].push_back(capture_packet(q.at(i)));
    }
  }
  const unsigned parity = static_cast<unsigned>(~next & 1);
  for (const Shard& src : shards_) {
    for (unsigned w = 0; w < shards_.size(); ++w) {
      const Ring<Arrival>& box = src.outbox[parity][w];
      for (std::size_t i = 0; i < box.size(); ++i) {
        const Arrival& a = box.at(i);
        ck.queues[a.node].push_back(capture_packet(a.hot));
      }
    }
  }

  // Multimap iteration order IS the wake-processing order (wake cycle,
  // then insertion order), so serializing it linearly preserves it.
  ck.parked.reserve(parked_.size());
  for (const auto& [wake, pk] : parked_) {
    CheckpointParked cp;
    cp.wake = wake;
    cp.node = pk.node;
    cp.respawn = pk.respawn;
    cp.packet = capture_packet(pk.hot);
    ck.parked.push_back(std::move(cp));
  }

  // Pending fires as absolute cycles, in node order: shards are
  // contiguous and ascending, and each slot holds its node's due cycle.
  for (const Shard& sh : shards_) {
    for (NodeId u = sh.begin; u < sh.end; ++u) {
      const FireSlot& slot = sh.fires[u - sh.begin];
      if (slot.next != kFireIdle) ck.fires.push_back({slot.at, u});
    }
  }

  // Fold every shard partial into the snapshot (commutative/associative
  // integer adds, same as the end-of-run reduction). The resumed run
  // restores this into the global slot with its shard partials zeroed, so
  // its final fold equals the uninterrupted run's.
  ck.metrics = metrics_;
  for (const Shard& sh : shards_) ck.metrics.absorb(sh.metrics);
  return ck;
}

void NetworkSim::apply_checkpoint(const SimCheckpoint& ck) {
  // Semantic-parameter guard: any mismatch here would change the
  // simulated trajectory, so refuse with the field's name. threads / SIMD
  // level are deliberately NOT checked — metrics are bit-identical across
  // them, which is the whole point of resuming under whatever execution
  // shape the new host offers.
  const auto match = [](bool ok, const char* field) {
    if (!ok) {
      throw CheckpointError(
          "config", std::string("resume configuration mismatch: ") + field);
    }
  };
  const CheckpointConfig live = checkpoint_config();
  CheckpointConfig::fields([&](const char* name, auto field) {
    match(ck.config.*field == live.*field, name);
  });
  match(ck.resume_cycle >= 1 && ck.resume_cycle < total_cycles_,
        "resume cycle");
  match(ck.next_event <= schedule_events_.size(), "fault schedule cursor");

  // Fault state. Dynamic mode rebuilds the live set by replaying the
  // captured lists in insertion order, which restores identical lists and
  // dense words; the overlay refresh that follows in run() sees the
  // version move and rebuilds. Static mode cannot be mutated — verify
  // instead.
  if (live_faults_ != nullptr) {
    live_faults_->clear();
    for (const NodeId u : ck.faulty_nodes) {
      if (u >= node_count_) {
        throw CheckpointError("faults", "faulty node out of range");
      }
      live_faults_->fail_node(u);
    }
    for (const LinkId& l : ck.faulty_links) {
      if (l.lo >= node_count_ || l.dim >= dims_) {
        throw CheckpointError("faults", "faulty link out of range");
      }
      live_faults_->fail_link(l.lo, l.dim);
    }
  } else if (faults_.faulty_nodes() != ck.faulty_nodes ||
             faults_.faulty_links() != ck.faulty_links) {
    throw CheckpointError("faults",
                          "static fault set differs from the checkpointed "
                          "one (element-wise, insertion order included)");
  }

  if (ck.queues.size() != node_count_) {
    throw CheckpointError("packets", "queue table size != node count");
  }
  std::uint64_t queued = 0;
  for (NodeId u = 0; u < node_count_; ++u) {
    const unsigned w = shard_of(u);
    for (const CheckpointPacket& p : ck.queues[u]) {
      queues_[u].push_back(
          restore_packet(w, p, "packets", ck.resume_cycle));
      ++queued;
    }
    if (!ck.queues[u].empty()) {
      Shard& sh = shards_[w];
      sh.active.set(u - sh.begin);
    }
  }

  for (const CheckpointParked& cp : ck.parked) {
    if (!retries()) {
      throw CheckpointError("parked",
                            "parked entries without retry recovery enabled");
    }
    if (cp.node >= node_count_) {
      throw CheckpointError("parked", "parked node out of range");
    }
    parked_.emplace(cp.wake,
                    Parked{cp.node, cp.respawn,
                           restore_packet(shard_of(cp.node), cp.packet,
                                          "parked", ck.resume_cycle)});
    if (!cp.respawn) ++parked_count_[cp.node];
  }
  // Closing the books: everything in flight is queued or parked, exactly.
  if (queued + parked_.size() != ck.in_flight) {
    throw CheckpointError(
        "globals", "in_flight does not equal queued + parked packets");
  }

  for (const CheckpointFire& f : ck.fires) {
    if (f.node >= node_count_) {
      throw CheckpointError("fires", "fire node out of range");
    }
    if (f.at < ck.resume_cycle) {
      throw CheckpointError("fires", "fire due in the past");
    }
    Shard& sh = shards_[shard_of(f.node)];
    if (sh.fires[f.node - sh.begin].next != kFireIdle) {
      throw CheckpointError("fires", "duplicate fire for one node");
    }
    schedule_fire(sh, f.at, f.node);
  }

  metrics_ = ck.metrics;
  in_flight_ = ck.in_flight;
  consecutive_stalls_ = ck.consecutive_stalls;
  next_event_ = static_cast<std::size_t>(ck.next_event);
}

}  // namespace gcube
