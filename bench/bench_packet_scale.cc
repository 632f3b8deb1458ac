// Packet-engine scaling sweep: k-ary fat-tree flat-tree fabrics (flat-tree
// realization in Clos mode) at k = 8, 16, 32, driven by ShardedPacketSim —
// one shard per Pod, intra-pod permutation traffic, so shards are
// link-disjoint and the sharded run is event-for-event identical to a
// monolithic simulation of the same workload (see src/sim/sharded.h).
//
// Output discipline: stdout and BENCH_packet_scale.json are a pure function
// of --seed (shard count is pods, never the thread count), so runs with
// --threads 1/2/8 are byte-identical. Perf observations — events/sec, wall
// time, peak RSS — go to stderr only, like the runner's stage timings.
//
// Flags beyond the shared runner set:
//   --quick               k = 8 only (the CI determinism + perf-smoke gates)
//   --baseline PATH       assert k=8 events/sec >= baseline/2 (perf smoke;
//                         baseline JSON: tests/golden/packet_scale_baseline.json)
#include <sys/resource.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "bench/util.h"
#include "core/flat_tree.h"
#include "sim/packet.h"
#include "sim/sharded.h"
#include "topo/params.h"

namespace flattree {
namespace {

struct ScaleOptions {
  bool quick{false};
  std::string baseline_path;
};

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux: KiB
}

Graph build_fabric(std::uint32_t k) {
  ClosParams clos = ClosParams::fat_tree(k);
  clos.link_bps = 100e6;  // scaled from 10G to keep event counts tractable
  FlatTreeParams params = FlatTreeParams::defaults_for(clos);
  params.clos.link_bps = clos.link_bps;
  return FlatTree{params}.realize_uniform(PodMode::kClos);
}

// Intra-pod permutation: every server sends one finite flow to a
// shuffled same-pod peer. Paths stay inside the pod (shortest intra-pod
// routes never climb to the core), which is what makes per-pod shards
// link-disjoint.
void add_pod_flows(PacketSim& sim, PathCache& cache, const ClosParams& clos,
                   std::uint32_t pod, Rng& rng) {
  const std::uint32_t per_pod = clos.edge_per_pod * clos.servers_per_edge;
  std::vector<std::uint32_t> dst(per_pod);
  for (std::uint32_t i = 0; i < per_pod; ++i) dst[i] = pod * per_pod + i;
  shuffle(dst, rng);
  for (std::uint32_t i = 0; i < per_pod; ++i) {
    const std::uint32_t src = pod * per_pod + i;
    if (dst[i] == src) continue;
    const double bytes = 1e5 + rng.next_double() * 3e5;
    sim.add_flow(src, dst[i], bytes, rng.next_double() * 0.05,
                 cache.server_paths(NodeId{src}, NodeId{dst[i]}));
  }
}

constexpr double kHorizonS = 2.0;

struct SweepPoint {
  std::uint32_t k;
  ShardedRunStats stats;
  double wall_s;
};

SweepPoint run_point(std::uint32_t k, exec::ExperimentRunner& runner) {
  const Graph g = build_fabric(k);
  ClosParams clos = ClosParams::fat_tree(k);
  clos.link_bps = 100e6;
  ShardedPacketSim sharded{g, PacketSimOptions{}, runner.seed()};
  const auto t0 = std::chrono::steady_clock::now();
  ShardedRunStats stats = sharded.run(
      clos.pods,
      [&](std::uint32_t pod, PacketSim& sim, Rng& rng) {
        PathCache cache{g, 1};
        add_pod_flows(sim, cache, clos, pod, rng);
      },
      kHorizonS, runner.pool(), runner.obs());
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  return SweepPoint{k, std::move(stats), wall};
}

// Reads "events_per_sec" for the k=8 row out of the pinned baseline JSON.
// The file is flat enough ({"k8_events_per_sec": N}) that a string scan is
// all the parsing needed.
double read_baseline(const std::string& path) {
  std::ifstream in{path};
  if (!in) {
    std::fprintf(stderr, "packet_scale: cannot open baseline %s\n",
                 path.c_str());
    std::exit(2);
  }
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string text = buffer.str();
  const std::string key = "\"k8_events_per_sec\"";
  const std::size_t at = text.find(key);
  if (at == std::string::npos) {
    std::fprintf(stderr, "packet_scale: %s lacks %s\n", path.c_str(),
                 key.c_str());
    std::exit(2);
  }
  const std::size_t colon = text.find(':', at);
  return std::strtod(text.c_str() + colon + 1, nullptr);
}

int run(const ScaleOptions& scale, exec::RunnerOptions options) {
  exec::ExperimentRunner runner{std::move(options)};
  const std::vector<std::uint32_t> ks =
      scale.quick ? std::vector<std::uint32_t>{8}
                  : std::vector<std::uint32_t>{8, 16, 32};

  bench::print_header(
      "Packet-engine scaling: sharded pooled event engine on fat-tree "
      "flat-trees",
      "Intra-pod permutation, one shard per Pod, 100 Mb/s links, 2 s "
      "horizon;\nperf (events/sec, wall, RSS) on stderr — stdout is "
      "seed-deterministic.");
  bench::print_row({"k", "servers", "shards", "flows", "completed", "events",
                    "drops", "goodput_gbps"},
                   11);

  double k8_events_per_sec = 0.0;
  for (const std::uint32_t k : ks) {
    const SweepPoint point = runner.timed_stage(
        "packet_scale k=" + std::to_string(k),
        [&] { return run_point(k, runner); });
    const ClosParams clos = ClosParams::fat_tree(k);
    const double goodput_gbps =
        static_cast<double>(point.stats.bytes_acked) * 8 / kHorizonS / 1e9;
    const double events_per_sec =
        static_cast<double>(point.stats.events_processed) /
        (point.wall_s > 0 ? point.wall_s : 1e-9);
    if (k == 8) k8_events_per_sec = events_per_sec;
    bench::print_row(
        {std::to_string(k), std::to_string(clos.total_servers()),
         std::to_string(clos.pods), std::to_string(point.stats.flows),
         std::to_string(point.stats.flows_completed),
         std::to_string(point.stats.events_processed),
         std::to_string(point.stats.packets_dropped),
         bench::fmt(goodput_gbps)},
        11);
    std::fprintf(stderr,
                 "[perf] k=%u events=%llu wall=%.3fs events/sec=%.3e "
                 "peak_rss=%.1f MiB heap_max=%llu arena=%llu\n",
                 k,
                 static_cast<unsigned long long>(
                     point.stats.events_processed),
                 point.wall_s, events_per_sec, peak_rss_mib(),
                 static_cast<unsigned long long>(point.stats.heap_max),
                 static_cast<unsigned long long>(
                     point.stats.arena_high_water));
    exec::ResultRow row;
    row.set("k", k)
        .set("servers", clos.total_servers())
        .set("shards", clos.pods)
        .set("flows", point.stats.flows)
        .set("flows_completed", point.stats.flows_completed)
        .set("events_processed", point.stats.events_processed)
        .set("packets_dropped", point.stats.packets_dropped)
        .set("bytes_acked", point.stats.bytes_acked)
        .set("goodput_gbps", goodput_gbps);
    runner.add_row(std::move(row));
  }

  if (!scale.baseline_path.empty()) {
    const double baseline = read_baseline(scale.baseline_path);
    // The k=8 quick run is ~30 ms, so a single wall-clock sample is
    // noise-dominated on a loaded machine; gate on the best of three extra
    // reruns (stderr-only, no result rows).
    for (int rep = 0; rep < 3; ++rep) {
      const SweepPoint again = run_point(8, runner);
      const double eps = static_cast<double>(again.stats.events_processed) /
                         (again.wall_s > 0 ? again.wall_s : 1e-9);
      if (eps > k8_events_per_sec) k8_events_per_sec = eps;
    }
    // 2x slack: the gate catches order-of-magnitude regressions (an
    // accidental O(n) heap, a debug build) without flaking on machine noise.
    if (k8_events_per_sec < baseline / 2) {
      std::fprintf(stderr,
                   "packet_scale: PERF REGRESSION k=8 %.3e events/sec < "
                   "baseline %.3e / 2\n",
                   k8_events_per_sec, baseline);
      return 1;
    }
    std::fprintf(stderr,
                 "[perf] k=8 %.3e events/sec >= baseline %.3e / 2: ok\n",
                 k8_events_per_sec, baseline);
  }
  return runner.write() ? 0 : 1;
}

}  // namespace
}  // namespace flattree

int main(int argc, char** argv) {
  flattree::ScaleOptions scale;
  // Strip the bench-specific flags before handing the rest to the shared
  // runner parser (which rejects unknown arguments).
  std::vector<char*> rest;
  rest.push_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      scale.quick = true;
    } else if (std::strcmp(argv[i], "--baseline") == 0 && i + 1 < argc) {
      scale.baseline_path = argv[++i];
    } else {
      rest.push_back(argv[i]);
    }
  }
  const auto options = flattree::bench::parse_runner_options(
      "packet_scale", static_cast<int>(rest.size()), rest.data(), 20170821);
  return flattree::run(scale, options);
}
