// Substitution validation: the large-scale experiments (Figures 6-8) run on
// the flow-level fluid simulator because packet-level simulation cannot
// reach 4096 servers. This bench justifies that substitution: the same
// finite-flow workload runs through BOTH simulators on the testbed network
// in all three modes, and the quantity the experiments rely on — the
// relative ranking (and rough ratios) of modes — must agree.
//
// Execution: the three modes fan across the exec pool as independent
// cells; BENCH_packet_validation.json holds one row per mode. --seed is the
// workload generator's seed (default 404).
#include <cstdio>
#include <vector>

#include "bench/util.h"
#include "core/flat_tree.h"
#include "net/rng.h"
#include "sim/packet.h"
#include "topo/params.h"

namespace flattree {
namespace {

Workload make_workload(const ClosParams& clos, std::uint64_t seed) {
  // Cross-pod-biased finite flows (the regime where modes differ most;
  // pod-local pairs are mixed in at 30%).
  Rng rng{seed};
  Workload flows;
  const std::uint32_t servers = clos.total_servers();
  const std::uint32_t per_pod = clos.servers_per_edge * clos.edge_per_pod;
  for (int i = 0; i < 90; ++i) {
    const std::uint32_t src = static_cast<std::uint32_t>(rng.next_below(servers));
    std::uint32_t dst;
    if (rng.next_double() < 0.3) {
      do {
        dst = (src / per_pod) * per_pod +
              static_cast<std::uint32_t>(rng.next_below(per_pod));
      } while (dst == src);
    } else {
      do {
        dst = static_cast<std::uint32_t>(rng.next_below(servers));
      } while (dst == src || dst / per_pod == src / per_pod);
    }
    Flow f;
    f.src = src;
    f.dst = dst;
    f.bytes = 2e6 * (1 + rng.next_below(4));
    f.start_s = rng.next_double() * 0.5;
    flows.push_back(f);
  }
  return flows;
}

// Mean FCT of one mode under both simulators, in milliseconds.
struct CellResult {
  double fluid_mean{0};
  double packet_mean{0};
};

CellResult run_cell(const Graph& g, const Workload& flows,
                    const obs::ObsSink& sink) {
  CellResult cell;
  // Fluid.
  FluidOptions options;
  options.sink = sink;
  FluidSimulator fluid{g, bench::ksp_provider(g, 4, sink), options};
  const auto fluid_results = fluid.run(flows);
  double fluid_total = 0;
  for (const auto& r : fluid_results) fluid_total += r.fct_s();
  cell.fluid_mean = fluid_total / flows.size() * 1e3;

  // Packet.
  PacketSim packet;
  packet.set_network(g);
  PathCache cache{g, 4};
  for (const Flow& f : flows) {
    packet.add_flow(f.src, f.dst, f.bytes, f.start_s,
                    cache.server_paths(NodeId{f.src}, NodeId{f.dst}));
  }
  packet.run_until(60.0);
  double packet_total = 0;
  std::size_t done = 0;
  for (std::uint32_t i = 0; i < flows.size(); ++i) {
    if (!packet.flow_completed(i)) continue;
    packet_total += packet.flow_finish_time(i) - flows[i].start_s;
    ++done;
  }
  cell.packet_mean = packet_total / static_cast<double>(done) * 1e3;
  return cell;
}

void run(exec::RunnerOptions runner_options) {
  exec::ExperimentRunner runner{std::move(runner_options)};
  FlatTreeParams params;
  params.clos = ClosParams::testbed();
  params.clos.link_bps = 200e6;  // scaled links keep the packet run short
  params.six_port_per_column = 1;
  params.four_port_per_column = 1;
  const FlatTree tree{params};
  const Workload flows = make_workload(params.clos, runner.seed());

  bench::print_header(
      "Substitution validation: packet-level vs fluid mean FCT (ms)",
      "same 90-flow workload, testbed network, k = 4 + MPTCP;\n"
      "the simulators must agree on magnitudes and near-tie structure.");

  const PodMode modes[] = {PodMode::kClos, PodMode::kLocal, PodMode::kGlobal};
  std::vector<Graph> graphs;
  for (const PodMode mode : modes) graphs.push_back(tree.realize_uniform(mode));
  const std::vector<CellResult> cells =
      runner.timed_stage("validation grid", [&] {
        return exec::parallel_map(
            runner.pool(), graphs.size(), [&](std::size_t i) {
              return run_cell(graphs[i], flows, runner.obs());
            });
      });

  bench::print_row({"mode", "fluid-mean", "packet-mean", "ratio"}, 14);
  for (std::size_t m = 0; m < graphs.size(); ++m) {
    const CellResult& cell = cells[m];
    const double ratio = cell.packet_mean / cell.fluid_mean;
    bench::print_row({to_string(modes[m]), bench::fmt(cell.fluid_mean, 1),
                      bench::fmt(cell.packet_mean, 1), bench::fmt(ratio, 2)},
                     14);
    exec::ResultRow row;
    row.set("mode", to_string(modes[m]))
        .set("fluid_mean_ms", cell.fluid_mean)
        .set("packet_mean_ms", cell.packet_mean)
        .set("ratio", ratio);
    runner.add_row(std::move(row));
  }
  std::printf(
      "\nexpected: packet-level FCTs run ~1.1-1.3x the fluid values (slow\n"
      "start, queueing, retransmissions, RTT) with per-mode ratios within a\n"
      "few percent of each other — at testbed scale the three modes are\n"
      "near-ties for mean FCT (the decisive mode differences appear under\n"
      "core saturation, validated packet-level by bench_fig10).\n");
}

}  // namespace
}  // namespace flattree

int main(int argc, char** argv) {
  flattree::run(flattree::bench::parse_runner_options("packet_validation",
                                                      argc, argv, 404));
  return 0;
}
