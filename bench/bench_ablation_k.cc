// Ablation (§5.1): sensitivity of MPTCP throughput to k, the number of
// concurrent paths in k-shortest-path routing. The paper's finding: too
// small a k leaves links under-utilized; 8 paths suffice; larger k does not
// improve further.
//
// Execution: the 6 k values x 2 traffic patterns fan across the exec pool
// as independent cells; BENCH_ablation_k.json holds one row per cell with
// the raw rate. --seed is the permutation's seed (default 77).
#include <cstdio>

#include "bench/util.h"
#include "core/flat_tree.h"
#include "lp/mcf.h"
#include "topo/params.h"
#include "traffic/patterns.h"

namespace flattree {
namespace {

void run(int argc, char** argv) {
  exec::ExperimentRunner runner{
      bench::parse_runner_options("ablation_k", argc, argv, 77)};
  bench::print_header(
      "Ablation: throughput vs k (k-shortest-path fan-out)",
      "topo-2 global mode, permutation + pod-stride traffic;\n"
      "avg flow rate in Gb/s from the max-min fluid allocation.");

  const ClosParams clos = ClosParams::topo2();
  const FlatTree tree{FlatTreeParams::defaults_for(clos)};
  const Graph g = tree.realize_uniform(PodMode::kGlobal);

  Rng rng{runner.seed()};
  const Workload permutation =
      bench::subsample(permutation_traffic(clos.total_servers(), rng), 256, 3);
  const Workload stride = bench::subsample(
      pod_stride_traffic(clos.total_servers(),
                         clos.servers_per_edge * clos.edge_per_pod),
      256, 4);

  const std::uint32_t ks[] = {1, 2, 4, 8, 12, 16};
  const Workload* traffic[] = {&permutation, &stride};
  const char* traffic_names[] = {"permutation", "pod-stride"};
  // Cell i solves traffic[i % 2] over ks[i / 2] paths.
  const std::vector<double> rates = runner.timed_stage("ablation_k grid", [&] {
    return exec::parallel_map(runner.pool(), 12, [&](std::size_t i) {
      return solve_max_min_fill(bench::mcf_for(g, *traffic[i % 2], ks[i / 2],
                                               runner.pool(), runner.obs()))
          .avg_rate;
    });
  });

  bench::print_row({"k", "permutation", "pod-stride"}, 14);
  for (std::size_t row = 0; row < 6; ++row) {
    bench::print_row({std::to_string(ks[row]), bench::fmt_gbps(rates[2 * row]),
                      bench::fmt_gbps(rates[2 * row + 1])},
                     14);
    for (std::size_t t = 0; t < 2; ++t) {
      exec::ResultRow json_row;
      json_row.set("k", ks[row])
          .set("traffic", traffic_names[t])
          .set("avg_rate_bps", rates[2 * row + t]);
      runner.add_row(std::move(json_row));
    }
  }
  std::printf("\npaper shape: throughput saturates by k = 8.\n");
}

}  // namespace
}  // namespace flattree

int main(int argc, char** argv) {
  flattree::run(argc, argv);
  return 0;
}
