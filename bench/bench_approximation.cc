// §5 (summary of the prior HotNets paper [47], Figures 5-8 there): "flat-tree
// well approximates random graph and two-stage random graph networks when
// functioning in global and local mode respectively: the difference in
// average path length is within 5% and the difference in throughput is less
// than 6%."
//
// This bench re-derives those two numbers on this implementation: for each
// Table 2 preset, compare flat-tree global mode against a true random graph
// and flat-tree local mode against a true two-stage random graph, both
// rewired from the identical device budget. Path length is the average over
// all server pairs; throughput is the max-min allocation of a permutation
// workload over 8-shortest paths.
//
// Execution: the 16 networks (4 presets x 2 comparisons x flat-tree /
// reference) fan across the exec pool as independent cells;
// BENCH_approximation.json holds one row per printed row with the raw hops
// and rates. --seed is the permutation's seed (default 5150); the reference
// graphs keep their wiring seed 1234.
#include <cstdio>
#include <utility>

#include "bench/util.h"
#include "core/flat_tree.h"
#include "lp/mcf.h"
#include "net/stats.h"
#include "topo/random_graph.h"
#include "traffic/patterns.h"

namespace flattree {
namespace {

void run(int argc, char** argv) {
  exec::ExperimentRunner runner{
      bench::parse_runner_options("approximation", argc, argv, 5150)};
  bench::print_header(
      "Approximation quality: flat-tree vs true random graphs (§5 / [47])",
      "paper claim: path length within 5%, throughput within 6%.\n"
      "columns: average server-pair hops and permutation throughput,\n"
      "flat-tree mode vs the random-graph family from the same devices.");

  const char* presets[] = {"topo-1", "topo-2", "topo-4", "topo-5"};
  const char* comparisons[] = {"global~RG", "local~2sRG"};
  // Cell i: preset i / 4, comparison i / 2 % 2 (global mode vs random
  // graph, local mode vs two-stage random graph), flat-tree when i is even.
  // Each returns (average server-pair hops, permutation throughput).
  const auto cells = runner.timed_stage("approximation grid", [&] {
    return exec::parallel_map(runner.pool(), 16, [&](std::size_t i) {
      const ClosParams clos = ClosParams::preset(presets[i / 4]);
      const bool global = i / 2 % 2 == 0;
      Graph g;
      if (i % 2 == 0) {
        g = FlatTree{FlatTreeParams::defaults_for(clos)}.realize_uniform(
            global ? PodMode::kGlobal : PodMode::kLocal);
      } else if (global) {
        g = build_random_graph_from_clos(clos, 1234);
      } else {
        TwoStageParams ts = TwoStageParams::from_clos(clos);
        ts.seed = 1234;
        g = build_two_stage_random_graph(ts);
      }
      Rng rng{runner.seed()};
      const Workload flows = bench::subsample(
          permutation_traffic(clos.total_servers(), rng), 256, 9);
      return std::pair{
          compute_path_length_stats(g).avg_server_pair_hops,
          solve_max_min_fill(
              bench::mcf_for(g, flows, 8, runner.pool(), runner.obs()))
              .avg_rate};
    });
  });

  bench::print_row({"preset", "comparison", "ft-hops", "rg-hops", "hopsΔ%",
                    "ft-Gbps", "rg-Gbps", "tputΔ%"},
                   12);
  for (std::size_t row = 0; row < 8; ++row) {
    const auto [ft_hops, ft_tput] = cells[2 * row];
    const auto [rg_hops, rg_tput] = cells[2 * row + 1];
    bench::print_row(
        {presets[row / 2], comparisons[row % 2], bench::fmt(ft_hops, 3),
         bench::fmt(rg_hops, 3), bench::fmt((ft_hops / rg_hops - 1) * 100, 1),
         bench::fmt(ft_tput / 1e9, 2), bench::fmt(rg_tput / 1e9, 2),
         bench::fmt((ft_tput / rg_tput - 1) * 100, 1)},
        12);
    exec::ResultRow json_row;
    json_row.set("preset", presets[row / 2])
        .set("comparison", comparisons[row % 2])
        .set("ft_hops", ft_hops)
        .set("rg_hops", rg_hops)
        .set("ft_avg_rate_bps", ft_tput)
        .set("rg_avg_rate_bps", rg_tput);
    runner.add_row(std::move(json_row));
  }
  std::printf(
      "\nnote: flat-tree's local mode can relocate at most m+n servers per\n"
      "edge switch (h/r converter slots), so at deep oversubscription it is\n"
      "structurally farther from the ideal two-stage random graph than the\n"
      "prior paper's fully-flexible model — expect the local rows to exceed\n"
      "the global rows' gap.\n");
}

}  // namespace
}  // namespace flattree

int main(int argc, char** argv) {
  flattree::run(argc, argv);
  return 0;
}
