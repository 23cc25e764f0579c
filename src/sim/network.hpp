// Cycle-driven network simulator (paper §6 substrate).
//
// Model, matching the paper's stated assumptions:
//  * store-and-forward, unit link bandwidth: each directed link carries at
//    most one packet per cycle;
//  * eager readership: each node can serve several packets per cycle
//    (service_rate > expected arrivals), so service outpaces arrival;
//  * online routing (paper §5): a node picks each packet's next hop from
//    its local fault knowledge — the fault-free table hop where no fault
//    blocks the table route, a detour from the Router's plan otherwise;
//  * FIFO input queue per node with head-of-line blocking on a busy link;
//  * faulty nodes neither inject nor forward, and routes avoid them.
//
// Fault dynamics. In the default static mode the fault set is frozen
// before cycle 0. Dynamic-fault mode (the FaultSchedule constructors)
// models the paper's actual operating regime — faults that appear while
// packets are in flight: the schedule mutates the live FaultSet as the
// clock advances, every hop taken near a fault is verified usable at
// traversal time, and a packet whose next link just died decides afresh
// from its current node (counted in SimMetrics::reroutes; packets with no
// usable continuation are dropped_no_route, packets over the livelock
// guard are dropped_hop_limit, packets queued at a dying node are
// orphaned_by_node_fault). Schedules may also contain *repair* events —
// transient faults that heal — which invalidate the routers' plan caches
// and the clean-node bitmap exactly like failures do. A schedule that
// leaves fewer than two live nodes after some cycle's events is refused
// at construction. With an empty schedule dynamic mode is bit-for-bit
// identical to static mode.
//
// Transient-fault recovery (off by default; SimConfig::retry_limit /
// retry_budget). Instead of hard-dropping a packet with no usable
// continuation, the simulator parks it in a bounded per-node retry queue
// and re-offers it after a deterministic exponential backoff
// (retry_backoff_base << attempt cycles); a packet that exhausts its
// attempts may consume one of retry_budget end-to-end retransmits — it is
// relaunched from its source after retransmit_timeout cycles — and only
// then counts as gave_up. Parking, waking, retransmission and the drop
// itself (recovery on or off) all happen at the serial points in canonical
// node order, so the determinism contract below is unaffected. With both
// knobs at 0 the legacy hard-drop behavior is reproduced bit for bit.
//
// Execution model: node-sharded parallelism with a determinism contract.
// Nodes are partitioned into S contiguous shards, one per worker of a
// persistent ShardPool (S = SimConfig::threads, or a ThreadBudget grant
// when 0). The ENTIRE cycle loop is one dispatched pool job: every worker
// runs the loop locally and meets the others only at the barriers inside
// it, so a cycle costs rendezvous, not dispatch/join handshakes. Each
// cycle has two phases per worker:
//
//   phase A (inject): each worker reclaims cold packet slots other shards
//     released from its pool, batch-drains last cycle's arrival mailboxes
//     into its own queues (source-shard order, which equals global
//     source-node order because shards are contiguous and ascending),
//     injects new packets, and publishes its nodes' committed occupancy;
//   phase B (forward): each worker serves its own queues. Every directed
//     link belongs to its source node, and a node is served once per
//     cycle, so link arbitration is a bitmask local to that one service;
//     finite-buffer backpressure reads the phase-A occupancy snapshot;
//     departures are handed to the destination shard through
//     per-(source shard, destination shard) mailbox rings.
//
// Packets move by value: queues and mailboxes hold each packet's 16-byte
// PacketHot record (sim/packet.hpp), so the per-hop state a worker writes
// sits in rings that worker owns. Only the cold record stays in the pool
// of the shard that injected the packet. Mailbox and release rings are
// parity double-buffered (phase B of cycle N fills buffer N & 1, phase A
// of cycle N drains buffer ~N & 1) and the packet pools use chunked,
// pointer-stable storage, so one shard's phase A can overlap another's
// phase B with no data race. With unbounded buffers a cycle therefore
// needs exactly ONE rendezvous — the end-of-cycle barrier, whose last
// arriver runs the serial commit (ShardPool::barrier_serial) before
// opening the gate. Finite-buffer runs add one mid-cycle barrier so
// backpressure reads a consistent phase-A occupancy snapshot.
//
// Fault-schedule application, the clean-node bitmap refresh, and global
// accounting (in-flight depth, stall detection) happen in that fused
// serial commit. Every per-node decision therefore depends only on
// start-of-cycle committed state, per-(node, cycle) counter RNG draws
// (util/rng.hpp), and canonical queue order — so for a fixed seed, the
// full SimMetrics (latency histogram included) are bit-identical for ANY
// thread count, including 1. That contract is enforced by the determinism
// test and lets the threads knob be a pure wall-clock choice.
//
// Hot-path machinery. There is one cycle loop and one routing decision
// tree; only the kernel tier varies, and it never changes a metric:
//
//  * Active-set cycle loop: each shard keeps a bitmap of nodes holding or
//    receiving packets plus a timing wheel of pending injection fire times
//    drawn from TrafficModel::injection_gap, so a cycle costs
//    O(active nodes + handoffs + due injections) instead of O(all nodes).
//    The wheel is a hashed one — a list head per cycle bucket and one
//    8-byte slot per node holding its bucket link and its due cycle — so
//    it costs 8 bytes per node whatever the load. A fire due d cycles out
//    waits in bucket (due mod kWheelSize) and is passed over about
//    d / kWheelSize times before its lap comes round. Draws stay pure
//    per-(node, cycle) functions and the bitmap scan is ascending,
//    preserving the determinism contract. The due fires of a cycle run in
//    list order, not node order, and no metric can tell: a fire at u reads
//    only pure functions of (seed, u, now) and the fault set (fixed during
//    phase A), and writes only u's queue, u's active bit, u's fire slot,
//    one pool slot and summed counters. Slot numbers reach no metric and
//    no checkpoint. Each thread count splits the lists differently, and
//    the determinism and reference suites (the reference fires in
//    ascending node order) still match field by field.
//  * Batched advance: phase B consumes the active bitmap a word at a time.
//    Each 64-node window is harvested by copying its front packets'
//    16-byte records into one contiguous window, classified (arrived /
//    table fast path / everything else), fed to
//    NextHopFabric::fault_free_hops as one tight lookup batch with the
//    clean-node test answered from a single FaultOverlay::clean_window
//    word — and then APPLIED strictly in ascending node order, because
//    outbox push order is the canonical order the determinism contract
//    rests on. Within phase B node services are mutually independent (a
//    node's links are arbitrated inside its own service; every handoff —
//    intra-shard included — travels through the parity mailboxes), so the
//    read-only harvest/classify passes commute with the applies. The
//    classify and lookup passes have scalar and AVX2 kernels
//    (util/simd.hpp), bit-identical by construction.
//  * Next-hop fabric steering: packets are injected with NO routing
//    state. At service time, a node the FaultOverlay calls clean — and
//    whose router exposes a supported NextHopFabric — takes the fabric's
//    O(1) table hop with no per-link checks at all (the bitmap guarantees
//    every link there is usable). At a fault-adjacent node the packet
//    first walks the table route to its destination against the
//    FaultSet: if every hop is usable, that route is the router's plan
//    too, and the packet enters table mode — it keeps taking table hops,
//    checking only its own next hop where a fault is near. Otherwise it
//    adopts the router's plan and carries just the plan's off-table
//    prefix as a detour (PacketCold::detour), checking each detour hop,
//    and enters table mode once the detour is used up. A table or detour
//    hop that a later fault kills counts a reroute (SimMetrics::reroutes)
//    and the packet decides afresh from that node. A router with no
//    supported fabric (e-cube, GC with alpha > NextHopFabric::kMaxAlpha)
//    has no table route, so its packets carry the whole plan from the
//    source. Every packet therefore takes exactly the hops it would take
//    by following the router's whole plan, while the plan cache holds
//    only detours and per-hop link checks stay off the fault-free common
//    case. The bitmap is rebuilt at the serial points whenever the fault
//    set's version moves, so dynamic fault schedules work unchanged. The
//    test suite checks this path against a plain serial reference
//    simulator (tests/reference_sim.hpp) metric for metric.
//
// Two deliberate semantic refinements versus the old serial-only core,
// both required for order-independence (and covered by the contract):
// finite-buffer backpressure compares against occupancy committed at the
// start of the cycle, so a node draining k arrivals in one cycle may
// overshoot buffer_limit by its in-degree for that cycle (the bound is
// enforced again next cycle); and peak_in_flight is accounted per cycle
// (in-flight depth after all injections) instead of per injection event —
// the same maximum, measured at cycle granularity and only during the
// measurement window.
#pragma once

#include <array>
#include <exception>
#include <map>
#include <string>
#include <vector>

#include "fault/fault_set.hpp"
#include "fault/overlay.hpp"
#include "sim/checkpoint.hpp"
#include "routing/next_hop_table.hpp"
#include "routing/router.hpp"
#include "sim/fault_schedule.hpp"
#include "sim/metrics.hpp"
#include "sim/packet.hpp"
#include "sim/packet_pool.hpp"
#include "sim/shard_pool.hpp"
#include "sim/sim_config.hpp"
#include "sim/traffic.hpp"
#include "topology/topology.hpp"
#include "util/bitmap.hpp"
#include "util/rng.hpp"

namespace gcube {

class NetworkSim {
 public:
  /// All references must outlive the simulator. The default-constructed
  /// form uses the paper's uniform random traffic at
  /// config.injection_rate; pass a TrafficModel to change the workload.
  NetworkSim(const Topology& topo, const Router& router,
             const FaultSet& faults, const SimConfig& config);
  NetworkSim(const Topology& topo, const Router& router,
             const FaultSet& faults, const SimConfig& config,
             const TrafficModel& traffic);

  /// Dynamic-fault mode: `faults` is mutated in place as `schedule` events
  /// fall due, so it must be the same object the router (and any traffic
  /// model) consults. Events are validated against the topology.
  NetworkSim(const Topology& topo, const Router& router, FaultSet& faults,
             const SimConfig& config, const FaultSchedule& schedule);
  NetworkSim(const Topology& topo, const Router& router, FaultSet& faults,
             const SimConfig& config, const TrafficModel& traffic,
             const FaultSchedule& schedule);

  /// Runs warmup + measurement and returns the measurement-window metrics.
  /// Simulation state is rebuilt from scratch on every call.
  [[nodiscard]] SimMetrics run();

  /// Span of the injection timing wheel in cycles: it covers the mean gap
  /// up to injection rates around 1/kWheelSize, and a fire filed further
  /// out is passed over once per lap. Public so tests can file fires
  /// several laps out.
  static constexpr std::uint64_t kWheelBits = 13;
  static constexpr std::uint64_t kWheelSize = std::uint64_t{1} << kWheelBits;

 private:
  /// A packet on its way to a node: in a mailbox until the destination
  /// shard drains it at the next phase A, or in a stranded ring until the
  /// serial commit. It carries the packet's record itself.
  struct Arrival {
    NodeId node = 0;
    PacketHot hot;
  };

  /// FireSlot::next marks, above every NodeId (node_count <=
  /// 2^kMaxDimension), so a wheel list link is never mistaken for one.
  static constexpr NodeId kFireEnd = 0xFFFFFFFFu;
  static constexpr NodeId kFireIdle = 0xFFFFFFFEu;
  static_assert(kMaxDimension < 32);

  /// A node's pending injection fire. `next` is the node after it in its
  /// wheel bucket, kFireEnd (it is the bucket's last) or kFireIdle (no
  /// pending fire; `at` is then stale). The idle mark lets a repair event
  /// re-arm a node whose fire was consumed while it was ineligible without
  /// ever double-scheduling one. `at` is the due cycle; runs end below
  /// 2^32 cycles, so 32 bits hold it.
  struct FireSlot {
    NodeId next = kFireIdle;
    std::uint32_t at = 0;
  };

  /// Everything one worker owns, cache-line-aligned so two workers'
  /// accumulators never share a line. Workers touch only their own shard
  /// during a phase, except for the cross-shard reads the phase structure
  /// makes safe (mailbox drains and cold-record dereferences in the phase
  /// that cannot race them).
  struct alignas(64) Shard {
    NodeId begin = 0;  // nodes [begin, end) — contiguous, ascending
    NodeId end = 0;
    /// Cold records of the packets this shard injected (or restored);
    /// grown and released by the owner thread only.
    PacketPool pool;
    SimMetrics metrics;      // per-shard partial, absorbed after the run
    /// Cross-shard handoffs, one ring per destination shard, parity
    /// double-buffered: phase B of cycle N fills [N & 1], phase A of
    /// cycle N drains [~N & 1] — so one shard's phase A never touches the
    /// ring another shard's phase B is filling.
    std::array<std::vector<Ring<Arrival>>, 2> outbox;
    /// Foreign cold slots freed in phase B, rings addressed by the slot's
    /// home shard and drained by that shard's next phase A into its own
    /// pool (same parity scheme as outbox).
    std::array<std::vector<Ring<PacketRef>>, 2> released;
    /// Bit (u - begin) set iff node u may hold packets.
    /// Set on every queue push (mailbox drain, injection admit); cleared
    /// once the queue is empty — by phase B itself with unbounded buffers,
    /// by the phase-A maintenance scan (which must also publish occupancy)
    /// with finite ones. A non-empty queue always has its bit set.
    NodeBitmap active;
    /// Pending injection fire times: a hashed timing wheel of kWheelSize
    /// cycle buckets. Bucket b is an intrusive singly linked list of the
    /// nodes whose fire is due at a cycle congruent to b: wheel[b] holds
    /// its first node (kFireEnd when empty) and the fire slots link the
    /// rest. At most one fire per node (a node reschedules only when its
    /// fire is consumed); the order within a bucket is unobservable (see
    /// the header comment).
    std::vector<NodeId> wheel;
    /// fires[u - begin]: node u's pending fire, link and due cycle side by
    /// side so a fire touches one line.
    std::vector<FireSlot> fires;
    /// Packets that found no usable continuation this cycle, in service
    /// order (= ascending node order). Drained at the serial commit into
    /// the park / retransmit / drop decision.
    Ring<Arrival> stranded;
    std::uint64_t injected = 0;  // this cycle
    std::uint64_t removed = 0;   // delivered + hop-limit drops this cycle
    bool moved = false;          // any service progress this cycle
    std::exception_ptr error;    // first phase failure, rethrown serially
  };

  /// The single delegation target of every public constructor; `traffic`
  /// may be null (the built-in uniform model is used).
  NetworkSim(const Topology& topo, const Router& router,
             const FaultSet& faults, const SimConfig& config,
             const TrafficModel* traffic);

  /// Validates the schedule (in-range, sorted by cycle, at least two live
  /// nodes after every cycle's events) and switches the simulator to
  /// dynamic-fault mode.
  void attach_schedule(FaultSet& faults, const FaultSchedule& schedule);

  /// Resolves the worker count and (re)builds all run state: shards with
  /// balanced contiguous node ranges, empty queues, no pending fires.
  void configure_shards(unsigned shard_count);
  [[nodiscard]] unsigned shard_of(NodeId u) const noexcept;
  [[nodiscard]] PacketCold& cold_of(PacketRef ref) noexcept {
    return shards_[packet_ref_shard(ref)].pool.cold(packet_ref_slot(ref));
  }
  /// Clears the hop lists of h's cold record when h's flags say it holds
  /// some, so the slot is clean for its next tenant.
  void clear_cold_hops(const PacketHot& h);
  /// Removes packet h from the network on behalf of worker w: clears its
  /// hop lists and frees its cold slot, directly when w owns the slot's
  /// pool, via the released ring of parity `parity` (drained by the home
  /// shard's next phase A) when it does not. In phase B, w is the serving
  /// worker and parity the cycle's; at a serial point, where every pool
  /// may be touched, callers pass the slot's home shard as w and any
  /// parity.
  void retire_packet(unsigned w, const PacketHot& h, unsigned parity);

  /// Applies every schedule event due at `now` (serial point), orphans
  /// packets queued at — or in a mailbox toward — nodes that just died,
  /// re-arms injection at repaired nodes, and refreshes the clean-node
  /// bitmap.
  void apply_fault_events(Cycle now, bool measuring);
  /// Serial point: re-offers every parked packet whose wake time is due —
  /// retries resume at their strand node, retransmits relaunch from the
  /// source — in deterministic (wake cycle, park order) order. Runs after
  /// apply_fault_events so same-cycle repairs are visible to the retry.
  void wake_parked(Cycle now, bool measuring);
  /// Serial point: drains the shards' stranded rings (ascending shard =
  /// ascending node order) into parked retries, retransmits, or drops —
  /// counted as gave_up with recovery on and as dropped_no_route with it
  /// off. Adds the packets it drops to `dropped`.
  void commit_stranded(Cycle now, bool measuring, std::uint64_t& dropped);
  /// Files a fresh injection fire for a just-repaired node whose previous
  /// fire was consumed while it was faulty.
  void rearm_injection(NodeId u, Cycle now);
  /// Phase A: drain arrival mailboxes, inject, publish occupancy.
  void phase_inject(unsigned w, Cycle now, bool measuring);
  /// Phase B: serve queues, forward/deliver/drop, fill mailboxes.
  void phase_forward(unsigned w, Cycle now, bool measuring);
  /// Injects one packet u -> dst (offered-load + buffer accounting
  /// included).
  void admit_packet(unsigned w, NodeId u, NodeId dst, Cycle now,
                    bool measuring);
  /// Runs a due injection fire at u, already unlinked from the wheel:
  /// draws the destination, admits the packet, and reschedules from the
  /// gap distribution, all from the counter_key(seed, u, now) stream.
  void fire_injection(unsigned w, NodeId u, Cycle now, bool measuring);
  /// First-packet hints precomputed by the batched pass for serve_node:
  /// either "already at its destination", or the usable fabric hop the
  /// batch lookup produced (any value below kHintArrived — dimensions are
  /// < kMaxDimension), or "no precomputation, take the full path".
  static constexpr std::uint32_t kHintNone = 0xFFFFFFFFu;
  static constexpr std::uint32_t kHintArrived = 0xFFFFFFFEu;

  /// Whether every hop of the fabric's table route u -> dst is usable
  /// under the current faults (true when u == dst). Requires fabric_.
  [[nodiscard]] bool table_route_clean(NodeId u, NodeId dst) const noexcept;
  /// Sets up packet h (at plan.source()) to follow `plan`: copies the
  /// plan's off-table prefix into its cold detour and sets kPktDetour, or
  /// sets kPktTable when that prefix is empty. Without a fabric the whole
  /// plan is the detour.
  void adopt_detour(PacketHot& h, const Route& plan);
  /// Serves node u's queue for one cycle (the per-node body of phase B).
  /// `clean` is the hoisted table-steering precondition for u (a fabric
  /// and no fault within distance 1); `hint` applies to the FRONT packet
  /// only.
  void serve_node(unsigned w, NodeId u, Cycle now, bool measuring,
                  bool& moved, bool clean, std::uint32_t hint);
  /// Delivers h, the front of `queue` (or a copy of it), at its
  /// destination: audited path replay, measurement accounting, cold slot
  /// release and dequeue.
  void deliver(unsigned w, Ring<PacketHot>& queue, const PacketHot& h,
               Cycle now, bool measuring, bool& moved);
  /// Batched phase-B advance over one active-bitmap word (see the header
  /// comment): harvest (a copy of each front record), classify, batched
  /// fabric lookups, then apply via serve_node in ascending node order.
  void serve_word(unsigned w, std::size_t word_index, Cycle now,
                  bool measuring, bool& moved, bool retire);
  /// Releases every packet queued at or in transit to `u` (serial point).
  std::size_t discard_packets_at(NodeId u);

  /// Files a pending injection for node u, which has none, at cycle `at`
  /// (after the current cycle, or from cycle 0 on at pre-run seeding) in
  /// bucket at mod kWheelSize.
  void schedule_fire(Shard& sh, Cycle at, NodeId u);

  /// Retry recovery is on: a stranded packet may park or be retransmitted.
  [[nodiscard]] bool retries() const noexcept {
    return config_.retry_limit > 0 || config_.retry_budget > 0;
  }
  /// The semantic parameters of this run, as a checkpoint stores them and
  /// a resume must match them.
  [[nodiscard]] CheckpointConfig checkpoint_config() const;
  /// Captures the full run state at the serial point entering cycle
  /// `next`, in canonical shard-count-independent form: per-node
  /// effective queues (queue contents + pending mailbox arrivals in
  /// phase-A drain order), parked entries in wake order, pending fires as
  /// absolute (cycle, node), fault state, and the folded metrics. See
  /// sim/checkpoint.hpp.
  [[nodiscard]] SimCheckpoint capture_checkpoint(Cycle next);
  /// Rebuilds run state from a loaded checkpoint (must run after
  /// configure_shards, before the overlay refresh and the cycle loop).
  /// Throws CheckpointError naming the failing section on any config
  /// mismatch or structural inconsistency.
  void apply_checkpoint(const SimCheckpoint& ck);
  /// Serializes / rematerializes one packet. `w` is the pool shard the
  /// restored cold slot is acquired from (serial-point call, so touching
  /// any pool is safe); `section` names the checkpoint section for errors,
  /// and a packet must have been created before `resume_cycle`.
  [[nodiscard]] CheckpointPacket capture_packet(const PacketHot& h);
  [[nodiscard]] PacketHot restore_packet(unsigned w, const CheckpointPacket& p,
                                         const char* section,
                                         Cycle resume_cycle);

  /// The fused per-cycle serial section, run by the LAST worker arriving
  /// at the end-of-cycle barrier (ShardPool::barrier_serial): collects
  /// shard errors, folds per-cycle counters into the global accounting,
  /// commits stranded packets, detects stalls/deadlock, and performs the
  /// next cycle's pre-work (fault events, parked wakes) — or sets
  /// stop_run_ when the run is over. Must not throw; failures land in
  /// serial_error_.
  void serial_commit(Cycle now) noexcept;
  /// Pre-work for cycle `now`: measurement-window cache-stat scoping,
  /// fault-schedule application, parked-retry wakes.
  void cycle_prework(Cycle now);

  const Topology& topo_;
  const Router& router_;
  const FaultSet& faults_;
  SimConfig config_;
  UniformTraffic default_traffic_;   // used when no model is supplied
  const TrafficModel& traffic_;
  /// Clean-node bitmap (every existing link usable); refreshed at serial
  /// points, read by all workers' classify passes. Per-link usability is
  /// asked of faults_ directly.
  FaultOverlay overlay_;
  /// The router's table fabric when present AND supported; null otherwise
  /// (then every packet carries the router's whole plan from its source).
  const NextHopFabric* fabric_ = nullptr;
  /// Dispatch level for the vector kernels (classify, fabric batch
  /// lookup), snapshotted from simd_level() at construction so the hot
  /// loops take a plain branch instead of an atomic load. Both levels
  /// produce bit-identical metrics (GCUBE_SIMD / --simd / the determinism
  /// sweep select between them).
  SimdLevel simd_ = SimdLevel::kScalar;
  Cycle total_cycles_ = 0;   // warmup + measure, for fire scheduling
  std::vector<Shard> shards_;
  std::vector<Ring<PacketHot>> queues_;  // per-node FIFO, owner-shard only
  std::vector<std::uint32_t> occ_;  // phase-A occupancy snapshot
  SimMetrics metrics_;  // serial/global fields; shard partials absorbed in
  std::uint64_t in_flight_ = 0;
  // Transient-fault recovery state (all serial-point only). The multimap
  // preserves insertion order among equal wake cycles, so processing is
  // deterministic; parked packets stay counted in in_flight_.
  struct Parked {
    NodeId node = 0;       // where the packet resumes (strand node or src)
    bool respawn = false;  // end-to-end retransmit: reset route state
    PacketHot hot;
  };
  std::multimap<Cycle, Parked> parked_;
  std::vector<std::uint16_t> parked_count_;  // per-node local-park depth
  ShardPool* pool_ = nullptr;        // valid while run() is on the stack
  // Fused-loop control, written only in the serial section (or before the
  // dispatch) and read by workers after the barrier edge.
  bool ab_barrier_ = false;   // phase A->B barrier needed (finite buffers)
  bool stop_run_ = false;     // set when the loop must end after this cycle
  std::exception_ptr serial_error_;  // first failure, rethrown after join
  Cycle consecutive_stalls_ = 0;
  RouterCacheStats cache_base_{};
  bool cache_base_set_ = false;
  // Node-range split: the first range_rem_ shards own range_base_ + 1
  // nodes, the rest range_base_ (contiguous ascending).
  NodeId range_base_ = 0;
  NodeId range_rem_ = 0;
  // Dynamic-fault mode state (live_faults_ == nullptr in static mode).
  FaultSet* live_faults_ = nullptr;
  std::vector<FaultEvent> schedule_events_;  // sorted by cycle
  std::size_t next_event_ = 0;
  std::uint32_t hop_limit_ = 0;
  // Topology geometry, cached out of the per-hop path (the Topology
  // accessors are virtual).
  Dim dims_ = 0;
  std::uint64_t node_count_ = 0;
};

}  // namespace gcube
