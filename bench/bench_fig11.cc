// Figure 11: application-level benefit of convertibility — Spark torrent
// broadcast (Word2Vec iterations) and Hadoop/Tez Sort shuffle on the
// testbed, under flat-tree Global / Local / Clos modes. Reported per mode:
// average data-flow read duration (per-transfer completion time including
// serialization overhead) and communication-phase duration.
//
// The workloads run through the fluid simulator on the exact testbed
// graphs (24 servers; master = server 0, workers = 1..23). The paper's
// shape: Global reduces read time ~10% and phase duration ~8-16% vs Clos,
// with Local in between and close to Global at this small scale.
//
// Execution: the 3 modes x 2 applications fan across the exec pool as six
// independent cells; BENCH_fig11.json holds one row per mode. --seed is
// the broadcast generator's seed (default 11, the library default); the
// shuffle generator uses seed + 2 (13, its library default).
#include <cstdio>
#include <string>
#include <vector>

#include "bench/util.h"
#include "core/flat_tree.h"
#include "topo/params.h"
#include "traffic/apps.h"

namespace flattree {
namespace {

struct AppResult {
  double read_s{0.0};
  double phase_s{0.0};
};

AppResult run_app(const Graph& g, const Workload& flows, std::uint32_t k,
                  const obs::ObsSink& sink) {
  FluidOptions options;
  options.sink = sink;
  FluidSimulator sim{g, bench::ksp_provider(g, k, sink), options};
  const auto results = sim.run(flows);
  double read_total = 0;
  double first_start = 1e18, last_finish = 0;
  std::size_t done = 0;
  for (std::size_t i = 0; i < results.size(); ++i) {
    if (!results[i].completed) continue;
    // End-to-end data read time = transfer + ser/deser overhead (§5.4).
    read_total += results[i].fct_s() + flows[i].dep_delay_s;
    first_start = std::min(first_start, results[i].start_s);
    last_finish = std::max(last_finish, results[i].finish_s);
    ++done;
  }
  AppResult r;
  r.read_s = read_total / static_cast<double>(done);
  r.phase_s = last_finish - first_start;
  return r;
}

void run(exec::RunnerOptions runner_options) {
  exec::ExperimentRunner runner{std::move(runner_options)};
  FlatTreeParams params;
  params.clos = ClosParams::testbed();
  params.six_port_per_column = 1;
  params.four_port_per_column = 1;
  const FlatTree tree{params};

  BroadcastParams bparams;
  bparams.master = 0;
  bparams.num_workers = 23;
  bparams.block_bytes = 256e6;
  bparams.iterations = 3;
  bparams.seed = runner.seed();
  const Workload broadcast = spark_broadcast(bparams);

  ShuffleParams sparams;
  sparams.first_worker = 1;
  sparams.num_mappers = 23;
  sparams.num_reducers = 8;
  sparams.bytes_per_pair = 128e6;
  sparams.seed = runner.seed() + 2;
  const Workload shuffle = hadoop_shuffle(sparams);

  bench::print_header(
      "Figure 11: Spark broadcast & Hadoop shuffle on the testbed",
      "avg data-flow read duration and communication-phase duration (s)\n"
      "per flat-tree mode; k = 4 paths + MPTCP as in §5.3.");

  const PodMode modes[] = {PodMode::kGlobal, PodMode::kLocal, PodMode::kClos};
  std::vector<Graph> graphs;
  for (const PodMode mode : modes) graphs.push_back(tree.realize_uniform(mode));
  const Workload* apps[] = {&broadcast, &shuffle};
  // Cell i runs application i % 2 on mode i / 2.
  const std::vector<AppResult> cells = runner.timed_stage("fig11 grid", [&] {
    return exec::parallel_map(
        runner.pool(), 2 * graphs.size(), [&](std::size_t i) {
          return run_app(graphs[i / 2], *apps[i % 2], 4, runner.obs());
        });
  });

  bench::print_row({"mode", "bcast-read", "bcast-phase", "shuffle-read",
                    "shuffle-phase"},
                   14);
  for (std::size_t m = 0; m < graphs.size(); ++m) {
    const AppResult& b = cells[2 * m];
    const AppResult& s = cells[2 * m + 1];
    bench::print_row({to_string(modes[m]), bench::fmt(b.read_s, 3),
                      bench::fmt(b.phase_s, 3), bench::fmt(s.read_s, 3),
                      bench::fmt(s.phase_s, 3)},
                     14);
    exec::ResultRow row;
    row.set("mode", to_string(modes[m]))
        .set("bcast_read_s", b.read_s)
        .set("bcast_phase_s", b.phase_s)
        .set("shuffle_read_s", s.read_s)
        .set("shuffle_phase_s", s.phase_s);
    runner.add_row(std::move(row));
  }
  // Relative improvements of global mode (cells 0-1) over Clos (4-5).
  const AppResult& b = cells[0];
  const AppResult& s = cells[1];
  const AppResult& clos_b = cells[4];
  const AppResult& clos_s = cells[5];
  std::printf("\nglobal vs clos: bcast read %+.1f%%, bcast phase %+.1f%%, "
              "shuffle read %+.1f%%, shuffle phase %+.1f%%\n",
              (b.read_s / clos_b.read_s - 1) * 100,
              (b.phase_s / clos_b.phase_s - 1) * 100,
              (s.read_s / clos_s.read_s - 1) * 100,
              (s.phase_s / clos_s.phase_s - 1) * 100);
  std::printf("paper: read -10%% / phase -16%% (bcast); read -10.5%% / "
              "phase -8%% (shuffle)\n");
}

}  // namespace
}  // namespace flattree

int main(int argc, char** argv) {
  flattree::run(flattree::bench::parse_runner_options("fig11", argc, argv, 11));
  return 0;
}
