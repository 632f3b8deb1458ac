// Extension bench (§4.3): all-at-once vs gradual (Pod-by-Pod) conversion.
//
// The paper: "Network operators can ... convert the topology gradually
// involving some of the network devices ... Existing methods for updating
// or replacing a switch in the network, e.g. draining parts of the network
// incrementally before making the changes, can be used to avoid traffic
// disruption." This bench quantifies that: the same Clos -> global
// conversion on the testbed, executed (a) in one shot with a full
// control-plane blackout and (b) in four Pod stages where only rewired
// circuits stall. Reported: the goodput timeline and the total bytes lost
// relative to an unconverted run. BENCH_gradual.json holds one row per
// timeline bin and the two goodput deficits as metadata.
#include <cstdio>
#include <vector>

#include "bench/util.h"
#include "control/controller.h"
#include "sim/packet.h"
#include "topo/params.h"

namespace flattree {
namespace {

struct RunResult {
  std::vector<double> timeline_gbps;  // 0.25 s bins
  double total_bytes{0};
};

RunResult run_conversion(const Controller& ctl, bool gradual,
                         const obs::ObsSink& sink) {
  const ModeAssignment from = ModeAssignment::uniform(4, PodMode::kClos);
  const ModeAssignment to = ModeAssignment::uniform(4, PodMode::kGlobal);

  CompiledMode current = ctl.compile(from, 4);
  PacketSim sim;
  sim.attach_obs(sink);
  sim.set_network(current.graph());
  std::vector<std::pair<std::uint32_t, std::uint32_t>> pairs;
  for (std::uint32_t s = 0; s < 24; ++s) {
    for (std::uint32_t stride = 1; stride < 4; ++stride) {
      const std::uint32_t dst = (s + 6 * stride) % 24;
      pairs.emplace_back(s, dst);
      sim.add_flow(s, dst, 0, 0.0,
                   current.paths().server_paths(NodeId{s}, NodeId{dst}));
    }
  }
  const auto repath = [&](const CompiledMode& mode) {
    return [&, ptr = &mode](std::uint32_t flow) {
      return ptr->paths().server_paths(NodeId{pairs[flow].first},
                                       NodeId{pairs[flow].second});
    };
  };

  // 3 s warmup; conversion(s) start at t = 3 s; run to 10 s.
  RunResult result;
  std::uint64_t last = 0;
  double next_stage_t = 3.0;
  std::vector<ModeAssignment> stages =
      gradual ? Controller::gradual_plan(from, to)
              : std::vector<ModeAssignment>{to};
  std::size_t next_stage = 0;

  for (int bin = 1; bin <= 40; ++bin) {
    const double t = bin * 0.25;
    if (next_stage < stages.size() && t > next_stage_t) {
      CompiledMode target = ctl.compile(stages[next_stage], 4);
      const ConversionReport report = ctl.plan_conversion(current, target);
      sim.apply_conversion(target.graph(), repath(target),
                           gradual ? report.total_s() / 4 : report.total_s(),
                           gradual ? ConversionScope::kChangedOnly
                                   : ConversionScope::kFullBlackout);
      current = std::move(target);
      ++next_stage;
      next_stage_t += gradual ? 1.0 : 0.0;  // one stage per second
    }
    sim.run_until(t);
    const std::uint64_t bytes = sim.total_bytes_acked();
    result.timeline_gbps.push_back(static_cast<double>(bytes - last) * 8 /
                                   0.25 / 1e9);
    last = bytes;
  }
  result.total_bytes = static_cast<double>(sim.total_bytes_acked());
  return result;
}

void run(exec::RunnerOptions runner_options) {
  exec::ExperimentRunner runner{std::move(runner_options)};
  FlatTreeParams params;
  params.clos = ClosParams::testbed();
  params.clos.link_bps = 1e9;
  params.six_port_per_column = 1;
  params.four_port_per_column = 1;
  ControllerOptions options;
  options.k_global = options.k_local = options.k_clos = 4;
  const Controller ctl{FlatTree{params}, options};

  bench::print_header(
      "Extension: all-at-once vs gradual Pod-by-Pod conversion (§4.3)",
      "testbed Clos -> global at t=3s; iPerf to all other pods; 1 Gb/s\n"
      "links; gradual = 4 stages, 1 s apart, changed-circuits-only stalls.");

  // The two simulations share nothing but the const controller (each
  // compiles its own modes) and the commutative metrics sink, so they run
  // at once; results are stored by index, so the output is the same for
  // any thread count.
  const std::vector<RunResult> runs =
      runner.timed_stage("conversions", [&] {
        return exec::parallel_map(runner.pool(), 2, [&](std::size_t i) {
          return run_conversion(ctl, /*gradual=*/i == 1, runner.obs());
        });
      });
  const RunResult& once = runs[0];
  const RunResult& staged = runs[1];

  std::printf("\ntime_s  all-at-once  gradual   (goodput, Gb/s)\n");
  for (std::size_t bin = 0; bin < once.timeline_gbps.size(); ++bin) {
    const double t = (bin + 1) * 0.25;
    std::printf("%5.2f   %8.2f   %8.2f\n", t, once.timeline_gbps[bin],
                staged.timeline_gbps[bin]);
    exec::ResultRow row;
    row.set("time_s", t)
        .set("all_at_once_gbps", once.timeline_gbps[bin])
        .set("gradual_gbps", staged.timeline_gbps[bin]);
    runner.add_row(std::move(row));
  }

  // Disruption = goodput deficit during the conversion window [3 s, 8 s]
  // relative to the pre-conversion plateau.
  const auto deficit = [](const RunResult& r) {
    const double plateau = r.timeline_gbps[10];  // t = 2.75 s
    double missing = 0;
    for (std::size_t bin = 12; bin < 32; ++bin) {
      missing += std::max(0.0, plateau - r.timeline_gbps[bin]) * 0.25;
    }
    return missing;  // Gb not delivered vs steady Clos
  };
  std::printf("\ngoodput deficit through the conversion window:\n");
  std::printf("  all-at-once: %.2f Gb\n", deficit(once));
  std::printf("  gradual    : %.2f Gb\n", deficit(staged));
  runner.add_meta("all_at_once_deficit_gb", deficit(once));
  runner.add_meta("gradual_deficit_gb", deficit(staged));
  std::printf("\nexpected: the staged conversion trades a longer window for\n"
              "a much shallower dip — no network-wide outage.\n");
}

}  // namespace
}  // namespace flattree

int main(int argc, char** argv) {
  flattree::run(
      flattree::bench::parse_runner_options("gradual", argc, argv, 20170821));
  return 0;
}
