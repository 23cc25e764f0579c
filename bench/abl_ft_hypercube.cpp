// Ablation: fault-tolerant hypercube/EH routing strategies compared.
//
// (a) In the hypercube: the paper's local adaptive mechanism (preferred /
//     masked spare, as in FREH) vs Wu's safety levels vs the informed
//     router modeling full fault-status exchange. Metrics: delivery rate,
//     average overhead over fault-aware optimum, max overhead.
// (b) In the Exchanged Hypercube: the step-by-step FREH dance vs the
//     informed (post-initialization) crossing router.
#include <iostream>
#include <vector>

#include "bench_common.hpp"
#include "fault/fault_set.hpp"
#include "graph/algorithms.hpp"
#include "routing/freh.hpp"
#include "routing/hypercube_ft.hpp"
#include "topology/topology.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

namespace {

using namespace gcube;

struct Tally {
  std::size_t attempts = 0;
  std::size_t delivered = 0;
  std::size_t total_excess = 0;
  std::size_t max_excess = 0;

  void note(bool ok, std::size_t length, std::uint32_t optimal) {
    ++attempts;
    if (!ok) return;
    ++delivered;
    const std::size_t excess = length - optimal;
    total_excess += excess;
    max_excess = std::max(max_excess, excess);
  }
  [[nodiscard]] std::vector<std::string> row(std::string name) const {
    return {std::move(name), std::to_string(attempts),
            fmt_double(100.0 * static_cast<double>(delivered) /
                           static_cast<double>(attempts), 2),
            fmt_double(static_cast<double>(total_excess) /
                           static_cast<double>(delivered), 3),
            std::to_string(max_excess)};
  }
};

void hypercube_comparison() {
  const Dim n = 6;
  const Hypercube h(n);
  Xoshiro256 rng(99);
  Tally adaptive, informed, safety;
  for (int trial = 0; trial < 50; ++trial) {
    FaultSet faults;
    const std::uint64_t count = 1 + rng.below(n - 1);
    while (faults.node_fault_count() < count) {
      faults.fail_node(static_cast<NodeId>(rng.below(pow2(n))));
    }
    const auto usable = [&faults](NodeId u, Dim c) {
      return faults.link_usable(u, c);
    };
    const SafetyLevelRouter wu(n, faults);
    for (int i = 0; i < 400; ++i) {
      NodeId s, d;
      do {
        s = static_cast<NodeId>(rng.below(pow2(n)));
      } while (faults.node_faulty(s));
      do {
        d = static_cast<NodeId>(rng.below(pow2(n)));
      } while (faults.node_faulty(d));
      const auto dist = bfs_distances(h, s, usable);
      if (dist[d] == kUnreachable) continue;
      const auto a = adaptive_subcube_route(s, d, low_mask(n), faults);
      adaptive.note(a.delivered(), a.delivered() ? a.route->length() : 0,
                    dist[d]);
      const auto inf = informed_subcube_route(s, d, low_mask(n), faults);
      informed.note(inf.delivered(),
                    inf.delivered() ? inf.route->length() : 0, dist[d]);
      const auto w = wu.plan(s, d);
      safety.note(w.delivered(), w.delivered() ? w.route->length() : 0,
                  dist[d]);
    }
  }
  TextTable table({"router (H_6, node faults < n)", "pairs", "delivered %",
                   "avg excess", "max excess"});
  table.add_row(adaptive.row("adaptive (paper mechanism)"));
  table.add_row(informed.row("informed (status exchange)"));
  table.add_row(safety.row("Wu safety levels"));
  table.print(std::cout);
  std::cout << "(excess = hops above the fault-aware optimum; Wu's router "
               "only guarantees delivery from sufficiently safe sources)\n\n";
}

void eh_comparison() {
  const ExchangedHypercube eh(3, 3);
  const Graph g(eh);
  Xoshiro256 rng(123);
  Tally dance, informed;
  for (int trial = 0; trial < 200; ++trial) {
    FaultSet faults;
    const std::uint64_t count = 1 + rng.below(3);
    for (std::uint64_t i = 0; i < count; ++i) {
      faults.fail_node(static_cast<NodeId>(rng.below(eh.node_count())));
    }
    if (!theorem4_holds(eh, faults)) continue;
    for (int i = 0; i < 200; ++i) {
      NodeId r, d;
      do {
        r = static_cast<NodeId>(rng.below(eh.node_count()));
      } while (faults.node_faulty(r));
      do {
        d = static_cast<NodeId>(rng.below(eh.node_count()));
      } while (faults.node_faulty(d));
      const auto dist = bfs_distances(
          eh, r,
          [&faults](NodeId u, Dim c) { return faults.link_usable(u, c); });
      if (dist[d] == kUnreachable) continue;
      const auto a = freh_route(eh, faults, r, d);
      dance.note(a.delivered(), a.delivered() ? a.route->length() : 0,
                 dist[d]);
      const auto b = informed_eh_route(eh, faults, r, d);
      informed.note(b.delivered(), b.delivered() ? b.route->length() : 0,
                    dist[d]);
    }
  }
  TextTable table({"router (EH(3,3), Thm-4 faults)", "pairs", "delivered %",
                   "avg excess", "max excess"});
  table.add_row(dance.row("FREH step-by-step dance"));
  table.add_row(informed.row("informed crossing router"));
  table.print(std::cout);
}

}  // namespace

int main() {
  gcube::bench::print_banner(
      "Ablation", "fault-tolerant routing mechanisms: hypercube and EH");
  hypercube_comparison();
  eh_comparison();
  return 0;
}
