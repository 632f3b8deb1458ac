// Extension bench: coflow completion time (CCT) by topology mode.
//
// The paper's Hadoop-1 trace comes from the Coflow benchmark, whose native
// metric is not per-flow FCT but the completion time of each job's whole
// shuffle (its coflow). This bench runs a stream of MapReduce-style jobs on
// the quarter-scale topo-1 network and reports CCT percentiles per flat-tree
// mode plus the random-graph reference — the application-level view of the
// same Figure 8 comparison.
//
// Execution: the four networks fan across the exec pool as independent
// cells; BENCH_coflow.json holds one row per network. --seed is the job
// generator's seed (default 23, the library default).
#include <cstdio>
#include <string>
#include <vector>

#include "bench/util.h"
#include "core/flat_tree.h"
#include "topo/random_graph.h"
#include "traffic/apps.h"

namespace flattree {
namespace {

struct System {
  const char* name;
  Graph graph;
};

// CCT summary of one network, in milliseconds.
struct CellResult {
  double p50{0}, p90{0}, p99{0}, mean{0};
  std::size_t done{0};
  std::size_t jobs{0};
};

CellResult run_cell(const System& system, const Workload& flows,
                    const obs::ObsSink& sink) {
  FluidOptions options;
  options.max_time_s = 60;
  options.sink = sink;
  FluidSimulator sim{system.graph, bench::ksp_provider(system.graph, 8, sink),
                     options};
  const auto results = sim.run(flows);
  const auto coflows = coflow_completion_times(flows, results);
  std::vector<double> cct_ms;
  for (const CoflowStats& c : coflows) {
    if (c.completed) cct_ms.push_back(c.cct_s * 1e3);
  }
  CellResult cell;
  cell.p50 = bench::percentile(cct_ms, 50);
  cell.p90 = bench::percentile(cct_ms, 90);
  cell.p99 = bench::percentile(cct_ms, 99);
  cell.mean = bench::mean(cct_ms);
  cell.done = cct_ms.size();
  cell.jobs = coflows.size();
  return cell;
}

void run(exec::RunnerOptions runner_options) {
  exec::ExperimentRunner runner{std::move(runner_options)};
  const ClosParams clos{8, 4, 4, 4, 16, 4, 16, 8};  // quarter topo-1
  CoflowJobsParams jobs;
  jobs.num_servers = clos.total_servers();
  jobs.jobs = 60;
  jobs.mappers_per_job = 12;
  jobs.reducers_per_job = 6;
  jobs.bytes_per_pair = 16e6;
  jobs.jobs_per_s = 40;
  jobs.seed = runner.seed();
  const Workload flows = coflow_jobs(jobs);

  bench::print_header(
      "Extension: coflow completion time by mode (ms)",
      "60 MapReduce-style jobs (12x6 shuffles, random placement) on the\n"
      "quarter-scale topo-1 network; CCT = a job's slowest transfer.");

  const FlatTree tree{FlatTreeParams::defaults_for(clos)};
  const System systems[] = {
      {"ft-clos", tree.realize_uniform(PodMode::kClos)},
      {"ft-local", tree.realize_uniform(PodMode::kLocal)},
      {"ft-global", tree.realize_uniform(PodMode::kGlobal)},
      {"random-graph", build_random_graph_from_clos(clos, 77)},
  };
  const std::size_t n = std::size(systems);
  const std::vector<CellResult> cells =
      runner.timed_stage("coflow grid", [&] {
        return exec::parallel_map(runner.pool(), n, [&](std::size_t i) {
          return run_cell(systems[i], flows, runner.obs());
        });
      });

  bench::print_row({"network", "p50", "p90", "p99", "mean", "jobs-done"}, 14);
  for (std::size_t i = 0; i < n; ++i) {
    const CellResult& cell = cells[i];
    bench::print_row({systems[i].name, bench::fmt(cell.p50),
                      bench::fmt(cell.p90), bench::fmt(cell.p99),
                      bench::fmt(cell.mean),
                      std::to_string(cell.done) + "/" +
                          std::to_string(cell.jobs)},
                     14);
    exec::ResultRow row;
    row.set("network", systems[i].name)
        .set("p50_ms", cell.p50)
        .set("p90_ms", cell.p90)
        .set("p99_ms", cell.p99)
        .set("mean_ms", cell.mean)
        .set("jobs_done", static_cast<std::uint64_t>(cell.done))
        .set("jobs", static_cast<std::uint64_t>(cell.jobs));
    runner.add_row(std::move(row));
  }
  std::printf(
      "\nexpected: the Figure 8 ordering carries to the job level — the\n"
      "flattened modes finish whole shuffles sooner than Clos mode.\n");
}

}  // namespace
}  // namespace flattree

int main(int argc, char** argv) {
  flattree::run(
      flattree::bench::parse_runner_options("coflow", argc, argv, 23));
  return 0;
}
