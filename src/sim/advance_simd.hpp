// SIMD classify kernel for the batched phase-B advance.
//
// serve_word's classify pass is a pure function of each harvested front
// packet's 16-byte PacketHot record, its node id, and one 64-bit overlay
// clean window. The harvest copies the front records into one contiguous
// window, so they feed the vector lanes directly. classify_front_packets
// answers, per entry, the two questions the apply pass needs precomputed:
//
//   arrived:  node == dst;
//   fast:     no carried detour, at a clean node, under the livelock hop
//             guard, and not arrived — i.e. eligible for the batched
//             NextHopFabric::fault_free_hops lookup (a table-mode packet
//             qualifies: at a clean node its table hop needs no check).
//
// as two bitmasks over the (<= 64) entries. The AVX2 path loads 8 records
// per group — two 16-byte records per 256-bit load — gathers their dst and
// hop_flags words into per-field lane vectors, and evaluates every
// predicate as integer compares; there is no arithmetic that could
// reassociate, so it is bit-identical to the scalar reference by
// construction (and the determinism suite sweeps both levels to prove it).
#pragma once

#include <cstdint>

#include "sim/packet.hpp"
#include "util/bits.hpp"
#include "util/simd.hpp"

namespace gcube {

struct ClassifyMasks {
  std::uint64_t arrived = 0;
  std::uint64_t fast = 0;
};

/// Classifies `count` (<= 64) harvested front packets. `hot[i]` is entry
/// i's PacketHot record, `nodes[i]` is its node, `clean` is the overlay
/// clean window based at `base` (bit u - base answers node u), and
/// `hop_limit` (below kHopCountLimit) is the livelock guard. Entries in
/// neither returned mask take the full serve_node decision tree.
[[nodiscard]] ClassifyMasks classify_front_packets(
    SimdLevel level, unsigned count, const PacketHot* hot,
    const NodeId* nodes, NodeId base, std::uint64_t clean,
    std::uint32_t hop_limit) noexcept;

}  // namespace gcube
