// FaultSchedule tests: ordering, the file format, and the random-arrival
// generator's determinism.
#include <gtest/gtest.h>

#include <limits>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "sim/fault_schedule.hpp"

namespace gcube {
namespace {

TEST(FaultSchedule, EventsSortedStablyByCycle) {
  FaultSchedule s;
  s.fail_node_at(50, 1);
  s.fail_link_at(10, 2, 3);
  s.fail_node_at(10, 4);
  s.fail_node_at(0, 5);
  const auto& events = s.events();
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(events[0].cycle, 0u);
  EXPECT_EQ(events[0].node, 5u);
  // Same-cycle events keep insertion order: link(2,3) before node(4).
  EXPECT_EQ(events[1].cycle, 10u);
  EXPECT_EQ(events[1].kind, FaultEvent::Kind::kLink);
  EXPECT_EQ(events[1].node, 2u);
  EXPECT_EQ(events[1].dim, 3u);
  EXPECT_EQ(events[2].cycle, 10u);
  EXPECT_EQ(events[2].kind, FaultEvent::Kind::kNode);
  EXPECT_EQ(events[2].node, 4u);
  EXPECT_EQ(events[3].cycle, 50u);
}

TEST(FaultSchedule, ParsesTheDocumentedFormat) {
  std::istringstream in(
      "# dynamic faults for the demo\n"
      "\n"
      "100 node 7\n"
      "  250 link 12 3\n"
      "250 node 9\n");
  const FaultSchedule s = FaultSchedule::parse(in);
  ASSERT_EQ(s.size(), 3u);
  const auto& events = s.events();
  EXPECT_EQ(events[0], (FaultEvent{100, FaultEvent::Kind::kNode, 7, 0}));
  EXPECT_EQ(events[1], (FaultEvent{250, FaultEvent::Kind::kLink, 12, 3}));
  EXPECT_EQ(events[2], (FaultEvent{250, FaultEvent::Kind::kNode, 9, 0}));
}

TEST(FaultSchedule, RejectsMalformedLines) {
  const char* bad[] = {
      "100 nod 7\n",            // unknown kind
      "100 repair 7\n",         // unknown kind (close to a real one)
      "100 link 12\n",          // link missing dimension
      "100 repair-link 12\n",   // repair-link missing dimension
      "banana node 7\n",        // non-numeric cycle
      "100 node 7 extra\n",     // trailing garbage
      "100 node 67108864\n",    // node id >= 2^kMaxDimension
      "100 link 12 26\n",       // dim >= kMaxDimension
      "100 repair-node 67108864\n",
      "100 repair-link 12 26\n",
  };
  for (const char* text : bad) {
    std::istringstream in(text);
    EXPECT_THROW((void)FaultSchedule::parse(in), std::invalid_argument)
        << "should reject: " << text;
  }
}

TEST(FaultSchedule, ParseErrorsCarryTheLineNumber) {
  std::istringstream in(
      "# fine\n"
      "10 node 3\n"
      "20 explode 4\n");
  try {
    (void)FaultSchedule::parse(in);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("line 3"), std::string::npos)
        << e.what();
  }
}

TEST(FaultSchedule, NumbersMustBeWholeUnsignedTokens) {
  // Stream extraction into an unsigned field read "-5" as 2^64 - 5: a
  // cycle that never came, or a node id reported as 18446744073709551615.
  // The error names the field, quotes the token and gives the line.
  const std::pair<const char*, const char*> cases[] = {
      {"-5 node 3\n", "cycle '-5'"},
      {"5 node -1\n", "node id '-1'"},
      {"5 link 12 -2\n", "dimension '-2'"},
      {"5 repair-link 12 -2\n", "dimension '-2'"},
      {"5 repair-node +7\n", "node id '+7'"},
      {"5 node 7x\n", "node id '7x'"},
      {"99999999999999999999 node 3\n", "cycle '99999999999999999999'"},
  };
  for (const auto& [body, token] : cases) {
    std::istringstream in(std::string("# header\n10 node 1\n") + body);
    try {
      (void)FaultSchedule::parse(in);
      ADD_FAILURE() << "should reject: " << body;
    } catch (const std::invalid_argument& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("line 3"), std::string::npos) << what;
      EXPECT_NE(what.find(token), std::string::npos) << what;
    }
  }
}

TEST(FaultSchedule, ParsesRepairEvents) {
  std::istringstream in(
      "100 node 7\n"
      "200 repair-node 7\n"
      "300 link 12 3\n"
      "350 repair-link 12 3\n");
  const FaultSchedule s = FaultSchedule::parse(in);
  ASSERT_EQ(s.size(), 4u);
  const auto& events = s.events();
  EXPECT_EQ(events[1],
            (FaultEvent{200, FaultEvent::Kind::kRepairNode, 7, 0}));
  EXPECT_TRUE(events[1].is_repair());
  EXPECT_FALSE(events[1].targets_link());
  EXPECT_EQ(events[3],
            (FaultEvent{350, FaultEvent::Kind::kRepairLink, 12, 3}));
  EXPECT_TRUE(events[3].is_repair());
  EXPECT_TRUE(events[3].targets_link());
}

TEST(FaultSchedule, WithoutRepairsStripsExactlyTheRepairEvents) {
  FaultSchedule s;
  s.fail_node_at(10, 1);
  s.repair_node_at(20, 1);
  s.fail_link_at(30, 2, 0);
  s.repair_link_at(40, 2, 0);
  s.fail_node_at(50, 3);
  const FaultSchedule permanent = s.without_repairs();
  ASSERT_EQ(permanent.size(), 3u);
  for (const auto& e : permanent.events()) EXPECT_FALSE(e.is_repair());
  EXPECT_EQ(permanent.events()[2].node, 3u);
}

TEST(FaultSchedule, FlappingLinksDeterministicAndWellFormed) {
  std::vector<LinkId> candidates;
  for (NodeId u = 0; u < 32; ++u) {
    for (Dim c = 0; c < 5; ++c) {
      if (bit(u, c) == 0) candidates.push_back(LinkId::of(u, c));
    }
  }
  const auto a =
      FaultSchedule::random_flapping_links(candidates, 8, 100, 30, 4000, 11);
  const auto b =
      FaultSchedule::random_flapping_links(candidates, 8, 100, 30, 4000, 11);
  EXPECT_EQ(a.events(), b.events());
  const auto c =
      FaultSchedule::random_flapping_links(candidates, 8, 100, 30, 4000, 12);
  EXPECT_NE(a.events(), c.events());
  EXPECT_GT(a.size(), 8u);  // 4000 cycles at mttf 100: several flaps each

  // Per link the event stream must alternate fail, repair, fail, ... and
  // never repair an up link or fail a down one.
  std::map<std::uint64_t, bool> down;  // key(link) -> currently failed
  std::size_t fails = 0;
  std::size_t repairs = 0;
  for (const auto& e : a.events()) {
    EXPECT_TRUE(e.targets_link());
    const std::uint64_t key =
        (static_cast<std::uint64_t>(e.node) << 6) | e.dim;
    if (e.kind == FaultEvent::Kind::kLink) {
      EXPECT_FALSE(down[key]) << "double failure without repair";
      down[key] = true;
      ++fails;
    } else {
      EXPECT_TRUE(down[key]) << "repair of an up link";
      down[key] = false;
      ++repairs;
    }
  }
  EXPECT_GE(fails, repairs);        // a final flap may be cut by the horizon
  EXPECT_LE(fails - repairs, 8u);   // at most one dangling failure per link
}

TEST(FaultSchedule, FlappingLinksWithHugeMeanDwellsNeverFlip) {
  const std::vector<LinkId> candidates = {LinkId::of(0, 0), LinkId::of(0, 1),
                                          LinkId::of(0, 2), LinkId::of(1, 1)};
  const double inf = std::numeric_limits<double>::infinity();
  // A mean time to failure far past the horizon: no link ever fails.
  for (const double mttf : {1e16, 1e18, inf}) {
    EXPECT_TRUE(FaultSchedule::random_flapping_links(candidates, 4, mttf, 60,
                                                     1000, 3)
                    .empty())
        << "mttf " << mttf;
  }
  // A mean time to repair far past the horizon: each link fails at most
  // once and is never repaired.
  for (const double mttr : {1e16, 1e18, inf}) {
    const auto schedule = FaultSchedule::random_flapping_links(
        candidates, 4, 300, mttr, 1000, 3);
    EXPECT_FALSE(schedule.empty()) << "mttr " << mttr;
    std::set<std::uint64_t> failed;
    for (const auto& e : schedule.events()) {
      EXPECT_EQ(e.kind, FaultEvent::Kind::kLink) << "mttr " << mttr;
      EXPECT_TRUE(
          failed.insert((static_cast<std::uint64_t>(e.node) << 6) | e.dim)
              .second)
          << "mttr " << mttr << ": a link failed twice";
    }
  }
}

TEST(FaultSchedule, FlappingLinksValidatesArguments) {
  const std::vector<LinkId> candidates = {LinkId::of(0, 0), LinkId::of(2, 0)};
  EXPECT_THROW((void)FaultSchedule::random_flapping_links(candidates, 3, 100,
                                                          30, 1000, 1),
               std::invalid_argument);
  EXPECT_THROW((void)FaultSchedule::random_flapping_links(candidates, 1, 0.5,
                                                          30, 1000, 1),
               std::invalid_argument);
  EXPECT_THROW((void)FaultSchedule::random_flapping_links(candidates, 1, 100,
                                                          0.0, 1000, 1),
               std::invalid_argument);
}

TEST(FaultSchedule, RandomArrivalsDeterministicInSeed) {
  const auto a = FaultSchedule::random_node_faults(512, 0.01, 2000, 77, 100);
  const auto b = FaultSchedule::random_node_faults(512, 0.01, 2000, 77, 100);
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(a.events(), b.events());
  EXPECT_GT(a.size(), 0u);  // 2000 cycles at 1% — arrivals all but certain
  const auto c = FaultSchedule::random_node_faults(512, 0.01, 2000, 78, 100);
  EXPECT_NE(a.events(), c.events());
}

TEST(FaultSchedule, RandomArrivalsRespectCapAndDistinctness) {
  const auto s = FaultSchedule::random_node_faults(64, 0.5, 4000, 5, 10);
  EXPECT_LE(s.size(), 10u);
  std::set<NodeId> victims;
  for (const auto& e : s.events()) {
    EXPECT_EQ(e.kind, FaultEvent::Kind::kNode);
    EXPECT_LT(e.node, 64u);
    EXPECT_TRUE(victims.insert(e.node).second) << "victims must be distinct";
  }
}

TEST(FaultSchedule, ZeroRateGeneratesNothing) {
  EXPECT_TRUE(
      FaultSchedule::random_node_faults(64, 0.0, 4000, 5, 10).empty());
}

}  // namespace
}  // namespace gcube
