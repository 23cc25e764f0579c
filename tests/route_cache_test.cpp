// Route-cache coherence tests (simulator hot-path support).
//
// The routers memoize plans in sharded version-stamped caches
// (util/flat_cache.hpp) keyed on FaultSet::version(). The
// property asserted here: a router that has been serving — and caching —
// queries for a while is observationally identical to a freshly
// constructed router over the same topology and fault set, before and
// after arbitrary FaultSet mutations. Any stale entry surviving a version
// bump, or any cache-key collision, breaks this.
#include <gtest/gtest.h>

#include <cstddef>
#include <latch>
#include <memory>
#include <optional>
#include <thread>
#include <vector>

#include "fault/fault_set.hpp"
#include "routing/ffgcr.hpp"
#include "routing/ftgcr.hpp"
#include "routing/route.hpp"
#include "topology/gaussian_cube.hpp"
#include "util/rng.hpp"

namespace gcube {
namespace {

std::vector<std::pair<NodeId, NodeId>> sample_pairs(const GaussianCube& gc,
                                                    const FaultSet& faults,
                                                    std::size_t count,
                                                    std::uint64_t seed) {
  Xoshiro256 rng(seed);
  std::vector<std::pair<NodeId, NodeId>> pairs;
  while (pairs.size() < count) {
    const auto s = static_cast<NodeId>(rng.below(gc.node_count()));
    const auto d = static_cast<NodeId>(rng.below(gc.node_count()));
    if (s == d || faults.node_faulty(s) || faults.node_faulty(d)) continue;
    pairs.emplace_back(s, d);
  }
  return pairs;
}

/// Every query against `warm` (whose caches may hold entries from any
/// earlier fault-set version) must match `fresh`, a router built after the
/// last mutation and so computing everything from scratch.
template <typename RouterT>
void expect_matches_fresh(const GaussianCube& gc, const RouterT& warm,
                          const FaultSet& faults, std::uint64_t seed) {
  const RouterT fresh = [&] {
    if constexpr (std::is_same_v<RouterT, FfgcrRouter>) {
      return FfgcrRouter(gc);
    } else {
      return RouterT(gc, faults);
    }
  }();
  for (const auto& [s, d] : sample_pairs(gc, faults, 200, seed)) {
    const RoutingResult warm_plan = warm.plan(s, d);
    const RoutingResult fresh_plan = fresh.plan(s, d);
    ASSERT_EQ(warm_plan.delivered(), fresh_plan.delivered())
        << gc.name() << " s=" << s << " d=" << d;
    if (warm_plan.delivered()) {
      EXPECT_EQ(warm_plan.route->hops(), fresh_plan.route->hops())
          << gc.name() << " s=" << s << " d=" << d;
    }
    // plan_shared must agree with plan (it is the cache the simulator
    // actually consumes), and repeated calls must yield the same object,
    // not just equal hop lists — that is what makes injection a refcount
    // bump.
    const std::shared_ptr<const Route> shared = warm.plan_shared(s, d);
    ASSERT_EQ(shared != nullptr, warm_plan.delivered());
    if (shared != nullptr) {
      EXPECT_EQ(shared->hops(), warm_plan.route->hops());
      EXPECT_EQ(shared.get(), warm.plan_shared(s, d).get());
    }
    const std::optional<Dim> warm_hop = warm.next_hop(s, d);
    const std::optional<Dim> fresh_hop = fresh.next_hop(s, d);
    EXPECT_EQ(warm_hop, fresh_hop) << gc.name() << " s=" << s << " d=" << d;
  }
}

TEST(RouteCacheTest, FfgcrCachedQueriesMatchFreshRouter) {
  const GaussianCube gc(9, 2);
  const FaultSet faults;  // FFGCR is fault-oblivious by contract
  const FfgcrRouter warm(gc);
  expect_matches_fresh(gc, warm, faults, 101);
  // Second pass: now every query hits the warm caches.
  expect_matches_fresh(gc, warm, faults, 101);
}

TEST(RouteCacheTest, FtgcrCachedQueriesMatchFreshAcrossMutations) {
  const GaussianCube gc(9, 2);
  FaultSet faults;
  const FtgcrRouter warm(gc, faults);

  // Phase 0: fault-free, populate the caches (two passes so the second is
  // served from cache).
  expect_matches_fresh(gc, warm, faults, 202);
  expect_matches_fresh(gc, warm, faults, 202);

  // Phase 1..n: mutate the live fault set the warm router observes; every
  // entry cached above is now stale and must not be served.
  const std::vector<std::pair<NodeId, Dim>> mutations = {
      {12, 0}, {40, 3}, {257, 1}, {130, 5}};
  std::uint64_t last_version = faults.version();
  for (std::size_t step = 0; step < mutations.size(); ++step) {
    const auto [node, dim] = mutations[step];
    if (step % 2 == 0) {
      faults.fail_node(node);
    } else {
      faults.fail_link(node, dim);
    }
    ASSERT_GT(faults.version(), last_version)
        << "mutation must bump the cache-invalidation version";
    last_version = faults.version();
    expect_matches_fresh(gc, warm, faults, 404 + step);
    // Re-query with the seed of phase 0: these exact keys sit in the cache
    // under an old version stamp.
    expect_matches_fresh(gc, warm, faults, 202);
  }
}

TEST(RouteCacheTest, CountersTallyHitsMissesAndStale) {
  const GaussianCube gc(8, 2);
  FaultSet faults;
  const FtgcrRouter router(gc, faults);
  EXPECT_EQ(router.cache_stats().plan.lookups(), 0u);

  (void)router.plan_shared(3, 200);  // cold: one plan miss
  const RouterCacheStats cold = router.cache_stats();
  EXPECT_EQ(cold.plan.misses, 1u);
  EXPECT_EQ(cold.plan.hits, 0u);
  EXPECT_EQ(cold.plan.stale, 0u);

  (void)router.plan_shared(3, 200);  // warm: one plan hit
  const RouterCacheStats warm = router.cache_stats();
  EXPECT_EQ(warm.plan.hits, 1u);
  EXPECT_EQ(warm.plan.misses, 1u);

  // next_hop reads the first hop of the cached plan: another hit.
  (void)router.next_hop(3, 200);
  EXPECT_EQ(router.cache_stats().plan.hits, 2u);

  // A fault-set mutation strands every cached entry behind an old version
  // stamp: the next lookup finds it and counts it stale, not hit.
  faults.fail_node(70);
  (void)router.plan_shared(3, 200);
  const RouterCacheStats bumped = router.cache_stats();
  EXPECT_EQ(bumped.plan.stale, 1u);
  EXPECT_EQ(bumped.plan.hits, 2u);

  // Snapshot deltas scope counters to a window.
  const RouterCacheStats window = bumped - warm;
  EXPECT_EQ(window.plan.stale, 1u);
  EXPECT_EQ(window.plan.misses, 0u);
  EXPECT_EQ(window.plan.lookups(), 2u);  // next_hop's hit, stale
}

TEST(RouteCacheTest, FfgcrCountersNeverGoStale) {
  const GaussianCube gc(8, 2);
  const FfgcrRouter router(gc);
  for (int pass = 0; pass < 3; ++pass) {
    (void)router.plan_shared(1, 77);
    (void)router.next_hop(1, 77);
  }
  const RouterCacheStats stats = router.cache_stats();
  EXPECT_EQ(stats.plan.misses, 1u);
  // 5 hits: passes 2 and 3 of plan_shared, and next_hop on every pass.
  EXPECT_EQ(stats.plan.hits, 5u);
  EXPECT_EQ(stats.plan.stale, 0u);  // fault-blind: no version to outdate
}

TEST(RouteCacheTest, FtgcrRepeatedQueriesAreStableWithinVersion) {
  const GaussianCube gc(10, 4);
  FaultSet faults;
  faults.fail_node(77);
  faults.fail_link(300, 2);
  const FtgcrRouter router(gc, faults);
  for (const auto& [s, d] : sample_pairs(gc, faults, 100, 505)) {
    const std::shared_ptr<const Route> first = router.plan_shared(s, d);
    const std::optional<Dim> hop = router.next_hop(s, d);
    for (int i = 0; i < 3; ++i) {
      EXPECT_EQ(router.plan_shared(s, d).get(), first.get());
      EXPECT_EQ(router.next_hop(s, d), hop);
    }
  }
}

TEST(RouteCacheTest, ConcurrentPlansMatchFreshRouterAcrossFaultVersions) {
  // After each FaultSet mutation — a failure, then a repair — four threads
  // plan at once, reading the fault set directly and racing on the
  // version-stamped caches, whose entries from the previous version must
  // all read as stale. Every answer must equal a fresh serial router's.
  const GaussianCube gc(10, 4);
  FaultSet faults;
  faults.fail_node(77);
  faults.fail_link(301, 1);
  const FtgcrRouter router(gc, faults);
  constexpr NodeId kLinkNode = 300;
  constexpr Dim kLinkDim = 0;
  // Sources at the mutated link plan around it; the random pairs mostly
  // take the fault-free fast path. Both read the fault set.
  std::vector<std::pair<NodeId, NodeId>> pairs =
      sample_pairs(gc, faults, 240, 808);
  for (const NodeId s : {kLinkNode, flip_bit(kLinkNode, kLinkDim)}) {
    for (const auto& [unused, d] : sample_pairs(gc, faults, 40, 909 + s)) {
      if (d != s) pairs.emplace_back(s, d);
    }
  }
  for (const auto& [s, d] : pairs) (void)router.plan_shared(s, d);

  constexpr std::size_t kThreads = 4;
  struct Answer {
    std::shared_ptr<const Route> route;
    std::optional<Dim> hop;
  };
  for (const bool repair : {false, true}) {
    if (repair) {
      ASSERT_TRUE(faults.repair_link(kLinkNode, kLinkDim));
    } else {
      faults.fail_link(kLinkNode, kLinkDim);
    }
    // Thread t serves a window of half the pairs starting at t quarters in
    // (wrapping), so every pair is planned by two threads; odd threads walk
    // their window backwards.
    std::vector<std::vector<Answer>> answers(kThreads);
    std::latch start(kThreads);
    std::vector<std::thread> workers;
    for (std::size_t t = 0; t < kThreads; ++t) {
      workers.emplace_back([&, t] {
        const std::size_t window = pairs.size() / 2;
        std::vector<Answer>& out = answers[t];
        out.resize(window);
        start.arrive_and_wait();
        for (std::size_t k = 0; k < window; ++k) {
          const std::size_t i = t % 2 == 0 ? k : window - 1 - k;
          const auto& [s, d] = pairs[(t * pairs.size() / kThreads + i) %
                                     pairs.size()];
          out[i] = {router.plan_shared(s, d), router.next_hop(s, d)};
        }
      });
    }
    for (std::thread& w : workers) w.join();

    const FtgcrRouter fresh(gc, faults);
    for (std::size_t t = 0; t < kThreads; ++t) {
      for (std::size_t i = 0; i < answers[t].size(); ++i) {
        const auto& [s, d] =
            pairs[(t * pairs.size() / kThreads + i) % pairs.size()];
        const RoutingResult expect = fresh.plan(s, d);
        const Answer& got = answers[t][i];
        ASSERT_EQ(got.route != nullptr, expect.delivered())
            << "repair=" << repair << " s=" << s << " d=" << d;
        if (got.route != nullptr) {
          EXPECT_EQ(got.route->hops(), expect.route->hops())
              << "repair=" << repair << " s=" << s << " d=" << d;
        }
        EXPECT_EQ(got.hop, fresh.next_hop(s, d))
            << "repair=" << repair << " s=" << s << " d=" << d;
      }
    }
  }
}

}  // namespace
}  // namespace gcube
