// Extension bench (the paper's deferred failure evaluation, §4.2.1
// footnote 2): throughput degradation under random fabric-link failures for
// flat-tree Clos / local / global modes and the random-graph reference,
// all on the same device budget.
//
// The claim to check: "throughput degrades more gracefully in random graph
// networks than in fat-tree under failure... because flat-tree approximates
// random graph networks, we expect flat-tree to be resilient to failure as
// well." Reported: permutation-traffic throughput (max-min over 8-shortest
// paths) of the WORST flow vs failure fraction, normalized to each
// network's failure-free value, averaged over 3 failure seeds.
//
// Execution: every solve (each network's failure-free baseline, then each
// nonzero fraction x network x draw) fans across the exec pool as an
// independent cell; the fraction-0 draws sample no links and reuse the
// baseline; BENCH_failure.json holds one row per printed cell with the raw
// rates. --seed is the permutation's seed (default 17); the failure draws
// keep their fixed seeds 101 / 202 / 303.
#include <cmath>
#include <cstdio>

#include "bench/util.h"
#include "lp/mcf.h"
#include "core/flat_tree.h"
#include "net/failures.h"
#include "topo/random_graph.h"
#include "traffic/patterns.h"

namespace flattree {
namespace {

void run(int argc, char** argv) {
  exec::ExperimentRunner runner{
      bench::parse_runner_options("failure", argc, argv, 17)};
  const ClosParams clos{8, 4, 4, 4, 8, 4, 16, 8};  // 256 servers, 2:1 edge
  FlatTreeParams params;
  params.clos = clos;
  params.six_port_per_column = 2;
  params.four_port_per_column = 2;
  const FlatTree tree{params};

  struct System {
    const char* name;
    Graph graph;
  };
  System systems[] = {
      {"ft-clos", tree.realize_uniform(PodMode::kClos)},
      {"ft-local", tree.realize_uniform(PodMode::kLocal)},
      {"ft-global", tree.realize_uniform(PodMode::kGlobal)},
      {"random-graph", build_random_graph_from_clos(clos, 99)},
  };

  bench::print_header(
      "Extension: throughput retention under random fabric failures",
      "permutation traffic; worst-flow (max-min) throughput normalized to\n"
      "the same network without failures; mean of 3 failure draws.");

  Rng traffic_rng{runner.seed()};
  const Workload flows = permutation_traffic(clos.total_servers(), traffic_rng);

  // Worst-flow (max-min) throughput: the resilience question is whether an
  // unlucky flow collapses, not whether the aggregate shrinks — aggregate
  // numbers can even rise under failures when pruned detours reduce
  // allocator waste. NaN marks a draw that partitions the servers.
  const double fractions[] = {0.0, 0.05, 0.10, 0.15, 0.20};
  const std::uint64_t draw_seeds[] = {101, 202, 303};
  // Cell s < 4 is system s without failures; cell 4 + 12 (f - 1) + 3 s + d
  // is draw d of system s at fractions[f], f >= 1. A draw at fraction 0
  // samples no links, so it is the failure-free cell.
  const std::vector<double> solved = runner.timed_stage("failure grid", [&] {
    return exec::parallel_map(runner.pool(), 52, [&](std::size_t i) {
      const Graph* g = &systems[i % 4].graph;
      Graph degraded;
      if (i >= 4) {
        Rng rng{draw_seeds[(i - 4) % 3]};
        const Graph& intact = systems[(i - 4) / 3 % 4].graph;
        degraded = remove_links(
            intact, sample_fabric_failures(
                        intact, fractions[1 + (i - 4) / 12], rng));
        if (!servers_connected(degraded)) return std::nan("");
        g = &degraded;
      }
      return solve_max_min_fill(
                 bench::mcf_for(*g, flows, 8, runner.pool(), runner.obs()))
          .min_rate;
    });
  });
  const auto draw_rate = [&](std::size_t f, std::size_t s, std::size_t d) {
    return f == 0 ? solved[s] : solved[4 + 12 * (f - 1) + 3 * s + d];
  };

  // Each cell reports mean (kept/total) over the failure draws. Draws that
  // partition the servers are excluded from the mean, which biases the
  // retention number upward — the (kept/total) suffix makes the survivorship
  // visible instead of silently averaging only the lucky draws.
  bench::print_row({"fail%", "ft-clos", "ft-local", "ft-global",
                    "random-graph"},
                   14);
  for (std::size_t f = 0; f < 5; ++f) {
    std::vector<std::string> cells{bench::fmt(fractions[f] * 100, 0)};
    for (std::size_t s = 0; s < 4; ++s) {
      exec::ResultRow row;
      row.set("fail_fraction", fractions[f])
          .set("system", systems[s].name)
          .set("baseline_bps", solved[s]);
      double ratio_sum = 0;
      int draws = 0;
      for (std::size_t d = 0; d < 3; ++d) {
        const double rate = draw_rate(f, s, d);
        const std::string key = "draw" + std::to_string(d) + "_bps";
        if (std::isnan(rate)) {  // partition: skip draw
          row.set(key, exec::JsonValue{});
          continue;
        }
        row.set(key, rate);
        ratio_sum += rate / solved[s];
        ++draws;
      }
      char cell[32];
      if (draws > 0) {
        std::snprintf(cell, sizeof(cell), "%s (%d/3)",
                      bench::fmt(ratio_sum / draws, 3).c_str(), draws);
        row.set("retention", ratio_sum / draws);
      } else {
        std::snprintf(cell, sizeof(cell), "part (0/3)");
        row.set("retention", exec::JsonValue{});
      }
      cells.emplace_back(cell);
      runner.add_row(std::move(row));
    }
    bench::print_row(cells, 14);
  }
  std::printf(
      "\nexpected shape (paper footnote 2 / Jellyfish): the flattened modes\n"
      "and the random graph keep their worst flow alive while Clos mode's\n"
      "worst flow collapses as failures concentrate on some rack's uplinks.\n");
}

}  // namespace
}  // namespace flattree

int main(int argc, char** argv) {
  flattree::run(argc, argv);
  return 0;
}
