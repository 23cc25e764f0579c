#include "sim/fault_schedule.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <fstream>
#include <limits>
#include <sstream>
#include <unordered_set>

#include "util/error.hpp"
#include "util/rng.hpp"

namespace gcube {

void FaultSchedule::push(Cycle cycle, FaultEvent::Kind kind, NodeId node,
                         Dim dim) {
  events_.push_back({cycle, kind, node, dim});
  sorted_ = events_.size() == 1 ||
            (sorted_ && events_[events_.size() - 2].cycle <= cycle);
}

void FaultSchedule::fail_node_at(Cycle cycle, NodeId node) {
  push(cycle, FaultEvent::Kind::kNode, node, 0);
}

void FaultSchedule::fail_link_at(Cycle cycle, NodeId node, Dim dim) {
  push(cycle, FaultEvent::Kind::kLink, node, dim);
}

void FaultSchedule::repair_node_at(Cycle cycle, NodeId node) {
  push(cycle, FaultEvent::Kind::kRepairNode, node, 0);
}

void FaultSchedule::repair_link_at(Cycle cycle, NodeId node, Dim dim) {
  push(cycle, FaultEvent::Kind::kRepairLink, node, dim);
}

const std::vector<FaultEvent>& FaultSchedule::events() const {
  if (!sorted_) {
    std::stable_sort(events_.begin(), events_.end(),
                     [](const FaultEvent& a, const FaultEvent& b) {
                       return a.cycle < b.cycle;
                     });
    sorted_ = true;
  }
  return events_;
}

FaultSchedule FaultSchedule::without_repairs() const {
  FaultSchedule permanent;
  for (const FaultEvent& ev : events()) {
    if (!ev.is_repair()) permanent.push(ev.cycle, ev.kind, ev.node, ev.dim);
  }
  return permanent;
}

FaultSchedule FaultSchedule::random_node_faults(std::uint64_t node_count,
                                                double rate, Cycle horizon,
                                                std::uint64_t seed,
                                                std::size_t max_faults) {
  GCUBE_REQUIRE(node_count >= 2, "need at least two nodes");
  GCUBE_REQUIRE(rate >= 0.0 && rate <= 1.0,
                "fault arrival rate must be a probability");
  FaultSchedule schedule;
  Xoshiro256 rng(seed);
  std::unordered_set<NodeId> dead;
  for (Cycle t = 0; t < horizon && schedule.size() < max_faults; ++t) {
    if (!rng.chance(rate)) continue;
    // Rejection-sample a still-healthy victim; give up once most of the
    // network is gone rather than spinning.
    for (int attempt = 0; attempt < 64; ++attempt) {
      const auto victim = static_cast<NodeId>(rng.below(node_count));
      if (dead.insert(victim).second) {
        schedule.fail_node_at(t, victim);
        break;
      }
    }
  }
  return schedule;
}

namespace {

/// A dwell that outlasts any horizon: the link never changes state again.
constexpr Cycle kNeverDwell = std::numeric_limits<Cycle>::max();

// Geometric dwell time with the given mean, support {1, 2, ...}: the
// discrete analogue of an exponential holding time, so the flap process is
// memoryless at cycle granularity. Inversion keeps it one draw per dwell.
Cycle geometric_dwell(Xoshiro256& rng, double mean) {
  const double p = 1.0 / mean;
  if (p >= 1.0) return 1;
  const double u = rng.uniform();
  const double g = std::floor(std::log1p(-u) / std::log1p(-p));
  // A draw past 1e15 cycles (a huge mean) or NaN (an infinite one) lies
  // beyond any run: saturate rather than overflow the cycle counter.
  if (!(g <= 1e15)) return kNeverDwell;
  return 1 + static_cast<Cycle>(g);
}

}  // namespace

FaultSchedule FaultSchedule::random_flapping_links(
    const std::vector<LinkId>& candidates, std::size_t flapping, double mttf,
    double mttr, Cycle horizon, std::uint64_t seed) {
  GCUBE_REQUIRE(mttf >= 1.0, "mean time to failure must be >= 1 cycle");
  GCUBE_REQUIRE(mttr >= 1.0, "mean time to repair must be >= 1 cycle");
  GCUBE_REQUIRE(flapping <= candidates.size(),
                "cannot flap more links than there are candidates");
  FaultSchedule schedule;
  Xoshiro256 rng(seed);

  // Pick `flapping` distinct candidate indices, in draw order (so the
  // schedule is deterministic in the candidate vector's order + seed).
  std::vector<std::size_t> picked;
  picked.reserve(flapping);
  std::vector<bool> taken(candidates.size(), false);
  while (picked.size() < flapping) {
    const auto i = static_cast<std::size_t>(rng.below(candidates.size()));
    if (!taken[i]) {
      taken[i] = true;
      picked.push_back(i);
    }
  }

  for (const std::size_t i : picked) {
    const LinkId link = candidates[i];
    // Renewal process: up for ~mttf, down for ~mttr, repeat. The first
    // up-time staggers the links so they don't all fail at cycle ~mttf.
    // Each dwell is compared with the time left before the horizon, so a
    // kNeverDwell cannot wrap the cycle counter.
    Cycle t = geometric_dwell(rng, mttf);
    while (t < horizon) {
      schedule.fail_link_at(t, link.lo, link.dim);
      const Cycle down = geometric_dwell(rng, mttr);
      // The horizon cut the flap short: the link stays failed.
      if (down >= horizon - t) break;
      t += down;
      schedule.repair_link_at(t, link.lo, link.dim);
      const Cycle up = geometric_dwell(rng, mttf);
      if (up >= horizon - t) break;
      t += up;
    }
  }
  return schedule;
}

FaultSchedule FaultSchedule::parse(std::istream& in) {
  FaultSchedule schedule;
  std::string line;
  std::size_t line_no = 0;
  const auto bad = [&line_no](const std::string& what) {
    return std::invalid_argument("fault schedule line " +
                                 std::to_string(line_no) + ": " + what);
  };
  // Each numeric field must be a whole unsigned decimal token: stream
  // extraction into an unsigned type reads "-5" as 2^64 - 5.
  const auto number = [&bad](const std::string& field,
                             const std::string& token) {
    std::uint64_t value = 0;
    const char* end = token.data() + token.size();
    const auto [stop, ec] = std::from_chars(token.data(), end, value);
    if (ec != std::errc{} || stop != end) {
      throw bad(field + " '" + token + "' is not an unsigned integer");
    }
    return value;
  };
  while (std::getline(in, line)) {
    ++line_no;
    const auto first = line.find_first_not_of(" \t\r");
    if (first == std::string::npos || line[first] == '#') continue;
    std::istringstream fields(line);
    std::string cycle_token;
    std::string kind;
    std::string node_token;
    if (!(fields >> cycle_token >> kind >> node_token)) {
      throw bad("expected '<cycle> node|link|repair-node|repair-link <id> ...'");
    }
    const Cycle cycle = number("cycle", cycle_token);
    const std::uint64_t node = number("node id", node_token);
    // Reject ids no topology can hold here, with the line number; the
    // tighter per-topology bound is checked when the schedule is attached.
    if (node >= pow2(kMaxDimension)) {
      throw bad("node id " + std::to_string(node) + " out of range (max " +
                std::to_string(pow2(kMaxDimension) - 1) + ")");
    }
    const bool is_link = kind == "link" || kind == "repair-link";
    std::uint64_t dim = 0;
    if (is_link) {
      std::string dim_token;
      if (!(fields >> dim_token)) {
        throw bad("link events need '<cycle> " + kind + " <node> <dim>'");
      }
      dim = number("dimension", dim_token);
      if (dim >= kMaxDimension) {
        throw bad("dimension " + std::to_string(dim) + " out of range (max " +
                  std::to_string(kMaxDimension - 1) + ")");
      }
    }
    if (kind == "node") {
      schedule.fail_node_at(cycle, static_cast<NodeId>(node));
    } else if (kind == "link") {
      schedule.fail_link_at(cycle, static_cast<NodeId>(node),
                            static_cast<Dim>(dim));
    } else if (kind == "repair-node") {
      schedule.repair_node_at(cycle, static_cast<NodeId>(node));
    } else if (kind == "repair-link") {
      schedule.repair_link_at(cycle, static_cast<NodeId>(node),
                              static_cast<Dim>(dim));
    } else {
      throw bad("unknown event kind '" + kind + "'");
    }
    std::string rest;
    if (fields >> rest && rest[0] != '#') {
      throw bad("trailing garbage '" + rest + "'");
    }
  }
  return schedule;
}

FaultSchedule FaultSchedule::from_file(const std::string& path) {
  std::ifstream in(path);
  GCUBE_REQUIRE(in.good(), "cannot open fault schedule file " + path);
  return parse(in);
}

}  // namespace gcube
