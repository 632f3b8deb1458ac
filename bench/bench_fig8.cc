// Figure 8: CDF of flow completion time for the four Facebook-style traces
// (Hadoop-1, Hadoop-2, Web, Cache) on six networks built from the same
// device budget:
//   flat-tree global / local / Clos (k-shortest + MPTCP) / Clos (ECMP+TCP),
//   random graph, two-stage random graph.
//
// Scaling note: the paper uses topo-1 (4096 servers) and hour-long traces;
// we use a quarter-scale topo-1 (8 Pods x (4+4) switches, 512 servers, the
// same 4:1 edge oversubscription) and synthesize sub-second traces from the
// published locality statistics (see src/traffic/traces.h), with the flow
// arrival rate and mean size (10 MB) chosen to load the fabric to the
// regime where topology matters (~0.5 of core capacity for network-wide
// traffic). Reported: FCT percentiles per network per trace. The paper's
// shape: global ~ random graph, local ~ two-stage random graph; Clos+ECMP
// is the clear loser on Hadoop-1; Clos competitive on Hadoop-2
// (rack-local); Clos modes worst for Web/Cache (Pod-local).
//
// Execution: the 4 traces x 6 networks fan across the exec pool as 24
// independent cells; BENCH_fig8.json holds one row per (trace, network).
// --seed is the trace generator's seed (default 7, the library default).
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "bench/util.h"
#include "core/flat_tree.h"
#include "topo/clos.h"
#include "topo/random_graph.h"
#include "traffic/traces.h"

namespace flattree {
namespace {

struct System {
  std::string name;
  Graph graph;
  bool ecmp{false};
};

std::vector<System> build_systems(const ClosParams& clos) {
  std::vector<System> systems;
  const FlatTree tree{FlatTreeParams::defaults_for(clos)};
  systems.push_back({"ft-global", tree.realize_uniform(PodMode::kGlobal)});
  systems.push_back({"ft-local", tree.realize_uniform(PodMode::kLocal)});
  systems.push_back({"ft-clos(ksp)", tree.realize_uniform(PodMode::kClos)});
  systems.push_back(
      {"ft-clos(ecmp)", tree.realize_uniform(PodMode::kClos), true});
  systems.push_back({"random-graph", build_random_graph_from_clos(clos, 42)});
  TwoStageParams ts = TwoStageParams::from_clos(clos);
  ts.seed = 42;
  systems.push_back({"two-stage-rg", build_two_stage_random_graph(ts)});
  return systems;
}

// FCT summary of one (trace, network) cell, in milliseconds.
struct CellResult {
  double p10{0}, p50{0}, p90{0}, p99{0}, mean{0};
  std::size_t done{0};
  std::size_t total{0};
};

CellResult run_cell(const System& system, const Workload& flows,
                    const obs::ObsSink& sink) {
  constexpr std::uint32_t kPaths = 8;
  FluidOptions options;
  options.max_time_s = 100.0;
  options.sink = sink;
  FluidSimulator sim{system.graph,
                     system.ecmp ? bench::ecmp_provider(system.graph)
                                 : bench::ksp_provider(system.graph, kPaths,
                                                       sink),
                     options};
  const auto results = sim.run(flows);
  std::vector<double> fct_ms;
  for (const auto& r : results) {
    if (r.completed) fct_ms.push_back(r.fct_s() * 1e3);
  }
  CellResult cell;
  cell.p10 = bench::percentile(fct_ms, 10);
  cell.p50 = bench::percentile(fct_ms, 50);
  cell.p90 = bench::percentile(fct_ms, 90);
  cell.p99 = bench::percentile(fct_ms, 99);
  cell.mean = bench::mean(fct_ms);
  cell.done = fct_ms.size();
  cell.total = results.size();
  return cell;
}

void run(exec::RunnerOptions runner_options) {
  exec::ExperimentRunner runner{std::move(runner_options)};
  // Quarter-scale topo-1 (see header note).
  const ClosParams clos{8, 4, 4, 4, 16, 4, 16, 8};
  bench::print_header(
      "Figure 8: flow completion time CDF by trace and network (ms)",
      "quarter-scale topo-1 device budget (512 servers); columns are FCT\n"
      "percentiles in milliseconds, lower is better.");

  const std::vector<System> systems = build_systems(clos);
  std::vector<TraceParams> traces;
  std::vector<Workload> workloads;
  for (const TraceParams& base :
       {TraceParams::hadoop1(), TraceParams::hadoop2(), TraceParams::web(),
        TraceParams::cache()}) {
    TraceParams params = base;
    params.duration_s = 0.3;
    params.flows_per_s = 6000;
    params.mean_flow_bytes = 10e6;  // uniform size keeps load comparable
    params.seed = runner.seed();
    workloads.push_back(generate_trace(clos, params));
    traces.push_back(std::move(params));
  }

  const std::size_t n = systems.size();
  const std::vector<CellResult> cells = runner.timed_stage("fig8 grid", [&] {
    return exec::parallel_map(
        runner.pool(), traces.size() * n, [&](std::size_t i) {
          return run_cell(systems[i % n], workloads[i / n], runner.obs());
        });
  });

  for (std::size_t t = 0; t < traces.size(); ++t) {
    const Workload& flows = workloads[t];
    const LocalityMix mix = measure_locality(clos, flows);
    std::printf("\n--- %s: %zu flows (rack %.0f%% / pod %.0f%% / inter %.0f%%) ---\n",
                traces[t].name.c_str(), flows.size(), mix.intra_rack * 100,
                mix.intra_pod * 100, mix.inter_pod * 100);
    bench::print_row({"network", "p10", "p50", "p90", "p99", "mean", "done%"},
                     14);
    for (std::size_t s = 0; s < n; ++s) {
      const CellResult& cell = cells[t * n + s];
      const double done_pct = 100.0 * static_cast<double>(cell.done) /
                              static_cast<double>(cell.total);
      bench::print_row(
          {systems[s].name, bench::fmt(cell.p10), bench::fmt(cell.p50),
           bench::fmt(cell.p90), bench::fmt(cell.p99), bench::fmt(cell.mean),
           bench::fmt(done_pct, 1)},
          14);
      exec::ResultRow row;
      row.set("trace", traces[t].name)
          .set("network", systems[s].name)
          .set("flows", static_cast<std::uint64_t>(flows.size()))
          .set("intra_rack", mix.intra_rack)
          .set("intra_pod", mix.intra_pod)
          .set("inter_pod", mix.inter_pod)
          .set("p10_ms", cell.p10)
          .set("p50_ms", cell.p50)
          .set("p90_ms", cell.p90)
          .set("p99_ms", cell.p99)
          .set("mean_ms", cell.mean)
          .set("done_pct", done_pct);
      runner.add_row(std::move(row));
    }
  }
  std::printf(
      "\npaper shape: ft-global ~ random-graph, ft-local ~ two-stage-rg;\n"
      "Clos+ECMP worst on Hadoop-1; Clos best on Hadoop-2 (rack-local);\n"
      "local mode best on Web/Cache (Pod-local).\n");
}

}  // namespace
}  // namespace flattree

int main(int argc, char** argv) {
  flattree::run(flattree::bench::parse_runner_options("fig8", argc, argv, 7));
  return 0;
}
