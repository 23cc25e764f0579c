// SIMD kernel property tests.
//
// Each vectorized hot-path kernel has a scalar reference it must match
// BIT-FOR-BIT at every dispatch level the CPU supports — the contract that
// lets sim_cli --simd=<level> reproduce identical metrics. The determinism
// suite enforces this end to end through whole simulation runs; these
// tests pin each kernel in isolation on randomized inputs, so a
// lane-ordering or tail-handling bug names the kernel that broke instead
// of surfacing as a diverged histogram three layers up:
//
//  * NextHopFabric::fault_free_hops — gathered table lookups vs the
//    scalar per-element hop, across shapes with alpha 1..3 (both the
//    pending-dimension branch and the folded tree-edge branch);
//  * classify_front_packets — the 8-record shuffle + predicate masks
//    over adversarial flag/hops/clean combinations, every count 0..64 so
//    each vector-body/scalar-tail split is exercised.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "routing/next_hop_table.hpp"
#include "sim/advance_simd.hpp"
#include "sim/packet.hpp"
#include "topology/gaussian_cube.hpp"
#include "util/rng.hpp"
#include "util/simd.hpp"

namespace gcube {
namespace {

/// Levels this CPU can execute; levels above detected would clamp inside
/// the dispatcher and silently re-test a lower kernel.
std::vector<SimdLevel> available_levels() {
  std::vector<SimdLevel> levels{SimdLevel::kScalar};
  if (detected_simd_level() >= SimdLevel::kAvx2) {
    levels.push_back(SimdLevel::kAvx2);
  }
  return levels;
}

TEST(SimdKernels, FaultFreeHopsMatchScalarPerElement) {
  // alpha 1, 2, 3: the three table shapes (alpha 3 = deepest subset fold).
  const std::pair<Dim, std::uint64_t> shapes[] = {{8, 2}, {10, 4}, {12, 8}};
  for (const auto& [n, modulus] : shapes) {
    const GaussianCube gc(n, modulus);
    const NextHopFabric fabric(gc);
    ASSERT_TRUE(fabric.supported()) << gc.name();
    Xoshiro256 rng(31 + n);
    // 61 pairs: 7 full AVX2 groups + a 5-wide scalar tail.
    std::vector<NodeId> cur;
    std::vector<NodeId> dst;
    while (cur.size() < 61) {
      const auto s = static_cast<NodeId>(rng.below(gc.node_count()));
      const auto d = static_cast<NodeId>(rng.below(gc.node_count()));
      if (s == d) continue;
      cur.push_back(s);
      dst.push_back(d);
    }
    std::vector<Dim> want(cur.size());
    for (std::size_t i = 0; i < cur.size(); ++i) {
      want[i] = fabric.fault_free_hop(cur[i], dst[i]);
    }
    for (const SimdLevel level : available_levels()) {
      std::vector<Dim> got(cur.size(), 0xFF);
      fabric.fault_free_hops(level, cur.size(), cur.data(), dst.data(),
                             got.data());
      EXPECT_EQ(got, want) << gc.name() << " level " << to_string(level);
    }
  }
}

TEST(SimdKernels, ClassifyFrontPacketsMatchesScalar) {
  // Adversarial randomized records in one contiguous window, as the
  // harvest lays them out: flags span every detour/audited/table-mode
  // combination, hops sit far under the limit, just under or at it, on
  // both sides of it (up to twice the limit), anywhere in the 24-bit field
  // or at its top (a restored checkpoint may hold any of those), dst hits
  // the arrival predicate, and the clean window is a fresh random 64-bit
  // mask per trial. The largest hop limit the record allows puts the
  // guard's top bit on, where a signed compare would go wrong.
  Xoshiro256 rng(47);
  const NodeId base = 128;
  for (const std::uint32_t hop_limit : {40u, kHopCountLimit - 1}) {
    for (int trial = 0; trial < 32; ++trial) {
      const std::uint64_t clean = rng();
      const auto count = static_cast<unsigned>(rng.below(65));
      std::vector<PacketHot> hot(count);
      std::vector<NodeId> nodes(count);
      for (unsigned i = 0; i < count; ++i) {
        PacketHot& h = hot[i];
        nodes[i] = base + i;  // one packet per node slot, like the harvest
        const auto flags = static_cast<std::uint32_t>(rng.below(8));
        std::uint64_t hops = 0;
        switch (rng.below(5)) {
          case 0:
            hops = rng.below(40);
            break;
          case 1:
            hops = hop_limit - 2 + rng.below(3);  // limit - 2 .. limit
            break;
          case 2:
            hops = rng.below(std::min<std::uint64_t>(
                2 * std::uint64_t{hop_limit} + 2, kHopCountLimit));
            break;
          case 3:
            hops = rng.below(kHopCountLimit);
            break;
          default:
            hops = kHopCountLimit - 1;
            break;
        }
        h.hop_flags = (static_cast<std::uint32_t>(hops) << kHopShift) | flags;
        h.dst = (rng.below(3) == 0)
                    ? nodes[i]  // force the arrival predicate
                    : static_cast<NodeId>(rng.below(1u << 20));
        h.created = static_cast<std::uint32_t>(rng());
        h.cold = static_cast<PacketRef>(rng());
      }
      const ClassifyMasks want =
          classify_front_packets(SimdLevel::kScalar, count, hot.data(),
                                 nodes.data(), base, clean, hop_limit);
      for (const SimdLevel level : available_levels()) {
        const ClassifyMasks got = classify_front_packets(
            level, count, hot.data(), nodes.data(), base, clean, hop_limit);
        EXPECT_EQ(got.arrived, want.arrived)
            << "limit " << hop_limit << " trial " << trial << " count "
            << count << " level " << to_string(level);
        EXPECT_EQ(got.fast, want.fast)
            << "limit " << hop_limit << " trial " << trial << " count "
            << count << " level " << to_string(level);
      }
    }
  }
}

TEST(SimdKernels, ClassifyHopGuardIsTheHopCountAlone) {
  // The packed hop_flags word must compare as its hop count: a packet one
  // hop under the limit qualifies for the fast path with every flag bit
  // but the detour set, and one at the limit never does.
  const std::uint32_t hop_limit = 7;
  const NodeId base = 0;
  std::vector<PacketHot> hot(16);
  std::vector<NodeId> nodes(16);
  for (unsigned i = 0; i < 16; ++i) {
    nodes[i] = i;
    hot[i].dst = 100;  // never arrived
    const std::uint32_t hops = i < 8 ? hop_limit - 1 : hop_limit;
    hot[i].hop_flags = (hops << kHopShift) | (kPktFlagMask & ~kPktDetour);
  }
  for (const SimdLevel level : available_levels()) {
    const ClassifyMasks got = classify_front_packets(
        level, 16, hot.data(), nodes.data(), base, ~std::uint64_t{0},
        hop_limit);
    EXPECT_EQ(got.fast, 0xFFu) << to_string(level);
    EXPECT_EQ(got.arrived, 0u) << to_string(level);
  }
}

TEST(SimdDispatch, ParseAndClampSemantics) {
  EXPECT_EQ(parse_simd_level("scalar"), SimdLevel::kScalar);
  EXPECT_EQ(parse_simd_level("avx2"), SimdLevel::kAvx2);
  EXPECT_EQ(parse_simd_level("sse"), std::nullopt);  // tier removed
  EXPECT_EQ(parse_simd_level("avx512"), std::nullopt);
  EXPECT_EQ(parse_simd_level(""), std::nullopt);
  const SimdLevel entry = simd_level();
  // Requests above the detected level clamp instead of crashing; requests
  // at or below stick exactly.
  set_simd_level(SimdLevel::kAvx2);
  EXPECT_LE(simd_level(), detected_simd_level());
  set_simd_level(SimdLevel::kScalar);
  EXPECT_EQ(simd_level(), SimdLevel::kScalar);
  set_simd_level(entry);
  EXPECT_EQ(simd_level(), entry);
  EXPECT_STREQ(to_string(SimdLevel::kScalar), "scalar");
  EXPECT_STREQ(to_string(SimdLevel::kAvx2), "avx2");
}

}  // namespace
}  // namespace gcube
