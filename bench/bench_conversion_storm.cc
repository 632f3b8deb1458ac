// Conversion under fire: what the storm-tolerant staged executor (live
// re-planning + per-Pod stage checkpoints + controller failover) buys over
// the full-rollback baseline when data-plane failures, control-plane loss
// and a controller death land on an in-flight conversion.
//
// Scenario: the testbed flat-tree carries a permutation workload while
// every pod converts Clos -> global. A seeded link-flap storm (distinct
// fabric links on installed routes, each failing and recovering inside the
// conversion window) runs concurrently with the step schedule, swept
// against control loss, a permanent OCS partition fault, and a primary
// controller kill. Two protocols run every scenario:
//
//   storm-tolerant: staged + stage checkpoints (gradual per-Pod stages,
//     each a durable rollback point) + live re-planning (broken routes
//     re-route at the fold boundary; recoveries reconcile back to plan).
//   full-rollback: the staged protocol alone — no checkpoints (any
//     exhausted step rolls back to the origin) and no re-planning (routes
//     broken by the storm stay dark until the next flip or the recovery).
//
// Each cell replays its execution timeline through the fluid simulator
// (FCT inflation vs an undisturbed run) plus a packet-level spot check,
// and verifies the terminal contract: once the storm has drained, the
// fabric runs bit-for-bit one of the checkpointed modes (graph, configs
// and canonical routes). The claims to check: the storm-tolerant executor
// holds blackhole time to the physical fold->re-plan gap (strictly below
// the baseline's, which dangles broken routes), converts or lands on a
// late checkpoint where the baseline gives the whole conversion back, and
// survives failover without mixed-epoch state.
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "bench/util.h"
#include "control/conversion_exec.h"
#include "control/controller.h"
#include "core/flat_tree.h"
#include "net/failures.h"
#include "sim/packet.h"
#include "traffic/patterns.h"

namespace flattree {
namespace {

using bench::RunStats;
using bench::summarize;

// Distinct fabric links that installed routes of the tracked pairs cross —
// flapping one is guaranteed to hit live traffic.
std::vector<LinkId> route_fabric_links(
    const CompiledMode& mode,
    const std::vector<std::pair<NodeId, NodeId>>& pairs, std::size_t want) {
  const Graph& g = mode.graph();
  std::vector<bool> taken(g.link_count(), false);
  std::vector<LinkId> picked;
  for (const auto& [src, dst] : pairs) {
    if (picked.size() >= want) break;
    for (const Path& path : mode.paths().server_paths(src, dst)) {
      if (picked.size() >= want) break;
      for (std::size_t h = 1; h + 2 < path.size(); ++h) {
        const NodeId a = path[h];
        const NodeId b = path[h + 1];
        for (std::uint32_t i = 0; i < g.link_count(); ++i) {
          if (taken[i]) continue;
          const Link& l = g.link(LinkId{i});
          if ((l.a == a && l.b == b) || (l.a == b && l.b == a)) {
            taken[i] = true;
            picked.push_back(LinkId{i});
            break;
          }
        }
        if (picked.size() >= want) break;
      }
    }
  }
  return picked;
}

// One flap per link: fails staggered across [t0, t0 + 0.55 * window], each
// outage lasting six gaps (adjacent outages overlap). Long outages matter:
// they straddle several step boundaries, so a re-planning executor gets to
// cut the exposure short, while a non-re-planning one eats the whole
// physical window. Every recovery still lands well before either protocol
// finishes, so the terminal bit-for-bit contract is testable.
FailureSchedule make_flap_storm(const std::vector<LinkId>& links, double t0,
                                double window) {
  FailureSchedule storm;
  const double gap = 0.55 * window / static_cast<double>(links.size() + 1);
  for (std::size_t i = 0; i < links.size(); ++i) {
    const double t = t0 + gap * static_cast<double>(i + 1);
    storm.fail_at(t, FailureSet{{links[i]}, {}});
    storm.recover_at(t + 6.0 * gap, FailureSet{{links[i]}, {}});
  }
  return storm;
}

// The terminal contract, checked per cell: graph, configs and installed
// routes bit-for-bit equal to the terminal checkpoint's mode.
bool terminal_is_checkpoint(const Controller& ctl,
                            const ExecutionReport& report) {
  if (report.checkpoints.empty() || report.timeline.empty()) return false;
  const CheckpointRecord& terminal = report.checkpoints.back();
  if (report.terminal_configs != terminal.configs) return false;
  const auto multiset = [](const Graph& g) {
    std::vector<std::pair<std::uint32_t, std::uint32_t>> out;
    for (std::uint32_t i = 0; i < g.link_count(); ++i) {
      const Link& l = g.link(LinkId{i});
      out.emplace_back(std::min(l.a.value(), l.b.value()),
                       std::max(l.a.value(), l.b.value()));
    }
    std::sort(out.begin(), out.end());
    return out;
  };
  const Graph realized = ctl.tree().realize(terminal.configs);
  const TimelinePoint& last = report.timeline.back();
  if (multiset(*last.graph) != multiset(realized)) return false;
  return last.routes == terminal.routes;
}

struct Scenario {
  const char* name;
  bool storm{false};
  double loss{0.0};
  bool ocs_fault{false};
  bool kill_primary{false};
};

struct CellOutcome {
  ExecutionReport report;
  RunStats base;
  RunStats churn;
  bool terminal_ok{false};
  std::uint64_t packet_bytes_acked{0};
  std::size_t packet_completed{0};
  std::size_t packet_flows{0};
};

void run(int argc, char** argv) {
  exec::ExperimentRunner runner{
      bench::parse_runner_options("conversion_storm", argc, argv, 31)};

  FlatTreeParams params;
  params.clos = ClosParams::testbed();
  params.six_port_per_column = 1;
  params.four_port_per_column = 1;
  ControllerOptions opts;
  opts.count_rules = false;
  opts.sink = runner.obs();
  const Controller controller{FlatTree{params}, opts};

  Rng traffic_rng{runner.seed()};
  Workload flows =
      permutation_traffic(params.clos.total_servers(), traffic_rng);
  for (Flow& f : flows) f.bytes = 2e9;

  const double t0 = 0.1;
  const bool protocols[] = {true, false};  // storm-tolerant, full-rollback
  const Scenario scenarios[] = {
      {"calm", false, 0.0, false, false},
      {"flaps", true, 0.0, false, false},
      {"loss", true, 0.10, false, false},
      {"loss+ocs", true, 0.10, true, false},
      {"loss+kill", true, 0.10, false, true},
  };
  constexpr std::size_t kScenarios = 5;
  constexpr std::size_t kCells = 2 * kScenarios;

  // Calibration: the undisturbed executions fix the storm window, the
  // controller kill time and each protocol's final OCS partition index
  // (the injected permanent fault). Identical physical storm for both
  // protocols; the OCS fault targets each protocol's own last pass.
  const CompiledMode cal_from = controller.compile_uniform(PodMode::kClos);
  const CompiledMode cal_to = controller.compile_uniform(PodMode::kGlobal);
  const auto& cal_servers = cal_from.graph().servers();
  std::vector<std::pair<NodeId, NodeId>> cal_pairs;
  cal_pairs.reserve(flows.size());
  for (const Flow& f : flows) {
    cal_pairs.emplace_back(cal_servers[f.src], cal_servers[f.dst]);
  }
  double window[2] = {0.0, 0.0};
  std::uint32_t last_partition[2] = {0, 0};
  for (std::size_t pi = 0; pi < 2; ++pi) {
    ConversionExecOptions cal_opts;
    cal_opts.stage_checkpoints = protocols[pi];
    cal_opts.live_replanning = protocols[pi];
    cal_opts.seed = runner.seed();
    const ExecutionReport cal = ConversionExecutor{controller, cal_opts}
                                    .execute(cal_from, cal_to, cal_pairs,
                                             ConversionFaults{}, t0);
    for (const StepRecord& s : cal.steps) {
      if (s.kind == StepKind::kOcs && !s.rollback) {
        last_partition[pi] = std::max(last_partition[pi], s.partition);
      }
    }
    window[pi] = cal.finish_s - t0;
  }
  // The same physical flap storm drives both protocols, sized to the
  // shorter calm run so every recovery folds before either finishes; the
  // controller dies at 45% of each protocol's own calm duration.
  const std::vector<LinkId> victims =
      route_fabric_links(cal_from, cal_pairs, 12);
  const FailureSchedule storm =
      make_flap_storm(victims, t0, std::min(window[0], window[1]));
  const double kill_at[2] = {t0 + 0.45 * window[0], t0 + 0.45 * window[1]};

  bench::print_header(
      "Conversion under fire: storm-tolerant staged execution vs full "
      "rollback",
      "testbed flat-tree (24 servers), permutation traffic, 2 GB flows;\n"
      "every pod converts Clos -> global at t=0.1s while a seeded link-flap\n"
      "storm (12 distinct route-carrying fabric links, fail + recover inside\n"
      "the conversion window) runs concurrently. Scenarios: calm (no storm),\n"
      "flaps (storm, lossless control), loss (storm + 10% control loss),\n"
      "loss+ocs (+ a permanent OCS partition fault on the final pass),\n"
      "loss+kill (+ the primary controller dies mid-conversion).\n"
      "tolerant = per-Pod stage checkpoints + live re-planning;\n"
      "rollback = staged protocol, no checkpoints, no re-planning.\n"
      "terminal=ckpt verifies the fabric ended bit-for-bit on a checkpointed\n"
      "mode (graph + configs + canonical routes); blackhole in pair-seconds.");
  bench::print_row({"protocol", "scenario", "outcome", "stages", "blackhole",
                    "replans", "failovers", "inflation", "completed",
                    "terminal=ckpt"},
                   12);

  const std::vector<CellOutcome> outcomes = runner.timed_stage(
      "conversion_storm cells", [&] {
        return exec::parallel_map(
            runner.pool(), kCells, [&](std::size_t cell) {
              const bool tolerant = protocols[cell / kScenarios];
              const Scenario& sc = scenarios[cell % kScenarios];
              const CompiledMode from =
                  controller.compile_uniform(PodMode::kClos);
              const CompiledMode to =
                  controller.compile_uniform(PodMode::kGlobal);
              const auto& servers = from.graph().servers();
              std::vector<std::pair<NodeId, NodeId>> pairs;
              pairs.reserve(flows.size());
              for (const Flow& f : flows) {
                pairs.emplace_back(servers[f.src], servers[f.dst]);
              }

              ConversionExecOptions exec_opts;
              exec_opts.stage_checkpoints = tolerant;
              exec_opts.live_replanning = tolerant;
              exec_opts.channel.drop_probability = sc.loss;
              exec_opts.seed = runner.seed();
              exec_opts.sink = runner.obs();
              const ConversionExecutor executor{controller, exec_opts};

              ConversionFaults faults;
              if (sc.ocs_fault) {
                faults.fail_ocs_partitions = {last_partition[tolerant ? 0 : 1]};
              }
              if (sc.kill_primary) {
                faults.kill_primary_at_s = kill_at[tolerant ? 0 : 1];
              }

              CellOutcome out;
              out.report = executor.execute_under_storm(
                  from, to, pairs, sc.storm ? storm : FailureSchedule{},
                  faults, t0);
              out.terminal_ok = terminal_is_checkpoint(controller, out.report);

              FluidOptions fluid_opts;
              fluid_opts.sink = runner.obs();
              FluidSimulator baseline{
                  from.graph(),
                  [&](NodeId src, NodeId dst, std::uint32_t) {
                    return from.paths().server_paths(src, dst);
                  },
                  fluid_opts};
              out.base = summarize(baseline.run(flows));
              out.churn = summarize(
                  run_fluid_with_conversion(out.report, flows, fluid_opts));

              PacketSim sim;
              sim.set_network(*out.report.timeline.front().graph);
              out.packet_flows = 8;
              for (std::size_t i = 0; i < out.packet_flows; ++i) {
                const Flow& f = flows[i];
                sim.add_flow(f.src, f.dst, 2e6, 0.0,
                             conversion_paths_for(out.report, f));
              }
              drive_packet_sim(sim, out.report, flows,
                               out.report.finish_s + 5.0);
              for (std::size_t i = 0; i < out.packet_flows; ++i) {
                const auto fi = static_cast<std::uint32_t>(i);
                out.packet_bytes_acked += sim.flow_bytes_acked(fi);
                if (sim.flow_completed(fi)) ++out.packet_completed;
              }
              return out;
            });
      });

  double tolerant_storm_blackhole = 0.0;
  double baseline_storm_blackhole = 0.0;
  for (std::size_t cell = 0; cell < kCells; ++cell) {
    const CellOutcome& out = outcomes[cell];
    const bool tolerant = protocols[cell / kScenarios];
    const Scenario& sc = scenarios[cell % kScenarios];
    const ExecutionReport& rep = out.report;
    if (sc.storm) {
      (tolerant ? tolerant_storm_blackhole : baseline_storm_blackhole) +=
          rep.total_blackhole_s;
    }
    bench::print_row(
        {tolerant ? "tolerant" : "rollback", sc.name, to_string(rep.outcome),
         std::to_string(rep.stages_committed) + "/" +
             std::to_string(rep.stages_total),
         bench::fmt(rep.total_blackhole_s, 3), std::to_string(rep.replans),
         std::to_string(rep.failovers),
         bench::fmt(out.churn.worst_fct / out.base.worst_fct, 2) + "x",
         std::to_string(out.churn.completed) + "/" +
             std::to_string(out.churn.total),
         out.terminal_ok ? "yes" : "NO"},
        12);
    exec::ResultRow row;
    row.set("protocol", tolerant ? "storm-tolerant" : "full-rollback")
        .set("scenario", sc.name)
        .set("loss", sc.loss)
        .set("outcome", to_string(rep.outcome))
        .set("stages_total", rep.stages_total)
        .set("stages_committed", rep.stages_committed)
        .set("checkpoints", rep.checkpoints.size())
        .set("terminal_is_checkpoint", out.terminal_ok)
        .set("total_blackhole_s", rep.total_blackhole_s)
        .set("max_pair_blackhole_s", rep.max_pair_blackhole_s)
        .set("duration_s", rep.finish_s - rep.start_s)
        .set("steps", rep.steps.size())
        .set("retries", rep.retries)
        .set("messages_dropped", rep.messages_dropped)
        .set("replans", rep.replans)
        .set("pairs_replanned", rep.pairs_replanned)
        .set("failovers", rep.failovers)
        .set("steps_reissued", rep.steps_reissued)
        .set("violations", rep.violations.size())
        .set("base_worst_fct_s", out.base.worst_fct)
        .set("churn_worst_fct_s", out.churn.worst_fct)
        .set("churn_p99_fct_s", out.churn.p99_fct)
        .set("inflation", out.churn.worst_fct / out.base.worst_fct)
        .set("completed", out.churn.completed)
        .set("total_flows", out.churn.total)
        .set("packet_bytes_acked", out.packet_bytes_acked)
        .set("packet_completed", out.packet_completed)
        .set("packet_flows", out.packet_flows);
    runner.add_row(std::move(row));
  }

  std::printf(
      "\nexpected shape: every cell ends terminal=ckpt — the fabric always\n"
      "lands bit-for-bit on a checkpointed mode once the storm drains. The\n"
      "tolerant executor re-plans at every fold, so its blackhole time is\n"
      "only the fold->re-plan gap (%.3f pair-s across storm cells), strictly\n"
      "below rollback's (%.3f pair-s), which dangles broken routes until a\n"
      "flip or the recovery. When control loss exhausts a step, tolerant\n"
      "keeps its committed stages and lands partial — a hybrid mode from the\n"
      "convertibility spectrum — where rollback under the OCS fault gives\n"
      "the whole conversion back to the origin. The controller kill costs\n"
      "one takeover plus one re-issued step and never mixes epochs.\n",
      tolerant_storm_blackhole, baseline_storm_blackhole);
  if (!(tolerant_storm_blackhole < baseline_storm_blackhole)) {
    std::printf("WARNING: tolerant blackhole not below baseline\n");
  }
}

}  // namespace
}  // namespace flattree

int main(int argc, char** argv) {
  flattree::run(argc, argv);
  return 0;
}
