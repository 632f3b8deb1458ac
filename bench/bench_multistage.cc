// Extension bench (§2.2 future work): multi-stage flat-tree.
//
// Two stages of Pods: the lower Pods' "cores" are the upper Pods' edge
// switches; upper converter blades can forward relocated servers all the
// way to the top cores. This bench measures what each extra level of
// flattening buys: average path length and permutation throughput for every
// (lower mode, upper mode) combination on a 128-server two-stage network.
//
// Execution: the 9 mode combinations fan across the exec pool as
// independent cells; BENCH_multistage.json holds one row per cell with the
// raw numbers. --seed is the permutation's seed (default 31).
#include <cstdio>
#include <numeric>

#include "bench/util.h"
#include "core/multi_stage.h"
#include "net/stats.h"
#include "traffic/patterns.h"

namespace flattree {
namespace {

MultiStageParams make_params() {
  MultiStageParams p;
  p.lower.clos = ClosParams{4, 4, 4, 4, 8, 4, 16, 4};
  p.lower.six_port_per_column = 1;
  p.lower.four_port_per_column = 1;
  p.upper_pods = 4;
  p.upper_edge_per_pod = 4;
  p.upper_agg_per_pod = 4;
  p.upper_edge_uplinks = 4;
  p.upper_agg_uplinks = 4;
  p.top_cores = 16;
  p.top_core_ports = 4;
  p.upper_m = 1;
  p.upper_n = 1;
  return p;
}

struct Cell {
  PathLengthStats stats;
  double total_bps{0.0};
};

void run(int argc, char** argv) {
  exec::ExperimentRunner runner{
      bench::parse_runner_options("multistage", argc, argv, 31)};
  bench::print_header(
      "Extension: multi-stage flat-tree (§2.2)",
      "128 servers, 96 switches in 6 layers; avg server-pair path length\n"
      "and total permutation throughput per (lower, upper) mode combo.");

  const MultiStageFlatTree tree{make_params()};
  Rng rng{runner.seed()};
  const Workload flows = permutation_traffic(tree.total_servers(), rng);

  const PodMode modes[] = {PodMode::kClos, PodMode::kLocal, PodMode::kGlobal};
  // Cell i realizes lower mode modes[i / 3] under upper mode modes[i % 3].
  const std::vector<Cell> cells = runner.timed_stage("multistage grid", [&] {
    return exec::parallel_map(runner.pool(), 9, [&](std::size_t i) {
      const Graph g = tree.realize_uniform(modes[i / 3], modes[i % 3]);
      Cell cell;
      cell.stats = compute_path_length_stats(g);
      FluidSimulator sim{g, bench::ksp_provider(g, 8, runner.obs())};
      const auto rates = sim.measure_rates(flows);
      cell.total_bps = std::accumulate(rates.begin(), rates.end(), 0.0);
      return cell;
    });
  });

  bench::print_row({"lower-mode", "upper-mode", "avg-hops", "diameter",
                    "perm-total-Gb/s"},
                   16);
  for (std::size_t i = 0; i < 9; ++i) {
    const Cell& cell = cells[i];
    const PodMode lower = modes[i / 3];
    const PodMode upper = modes[i % 3];
    bench::print_row({to_string(lower), to_string(upper),
                      bench::fmt(cell.stats.avg_server_pair_hops, 3),
                      std::to_string(cell.stats.diameter),
                      bench::fmt(cell.total_bps / 1e9, 1)},
                     16);
    exec::ResultRow row;
    row.set("lower_mode", to_string(lower))
        .set("upper_mode", to_string(upper))
        .set("avg_server_pair_hops", cell.stats.avg_server_pair_hops)
        .set("diameter", cell.stats.diameter)
        .set("perm_total_bps", cell.total_bps);
    runner.add_row(std::move(row));
  }
  std::printf(
      "\nexpected: each additional flattened stage shortens paths; the\n"
      "(global, global) corner is the flattest network the hardware allows.\n");
}

}  // namespace
}  // namespace flattree

int main(int argc, char** argv) {
  flattree::run(argc, argv);
  return 0;
}
