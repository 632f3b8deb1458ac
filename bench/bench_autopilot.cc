// Closed-loop autopilot: demand-aware reconfiguration driven by live
// telemetry, measured against the static endpoints of the convertibility
// spectrum.
//
// The paper's operational story is that flat-tree is *convertible*: Clos
// for rack locality, local for Pod locality, global for none (§5.2). This
// bench closes the loop the paper leaves to the operator: per decision
// epoch, both simulators' per-flow telemetry folds into a decayed
// inter-Pod demand estimate (TrafficMatrixEstimator), the ReconfigPolicy
// prices the Advisor's recommendation (fluid-model FCT forecast vs the
// Table-3 conversion delay) behind hysteresis gates, and accepted
// decisions run through the storm-tolerant staged executor while traffic
// keeps flowing (AutopilotLoop).
//
// Arms, per time-varying trace:
//   autopilot      the closed loop, starting from uniform Clos
//   static-clos / static-local / static-global
//                  the same epoch-partitioned serving on one fixed mode
//   oracle         per-epoch best uniform mode with free, instant
//                  conversions — the lower bound no real controller hits
//
// Traces: a diurnal ramp (Web's Pod-local mix drifting to Hadoop's
// network-wide shuffle over 12 s) and multi-tenant churn (tenants arrive,
// emit with per-tenant locality, depart). A third cell family drives a
// square-wave Web <-> Hadoop oscillation against the autopilot with and
// without hysteresis: the dwell + gain gates must bound conversions to at
// most one per demand regime while the ungated loop thrashes.
//
// The claims to check: the closed loop beats BOTH static Clos and static
// global on aggregate FCT under both shifting traces (it tracks the
// demand), and the hysteresis cell converts at most once per regime.
#include <cstdio>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "bench/util.h"
#include "control/autopilot/autopilot.h"
#include "control/conversion_exec.h"
#include "control/controller.h"
#include "core/flat_tree.h"
#include "obs/telemetry.h"
#include "sim/packet.h"
#include "traffic/traces.h"

namespace flattree {
namespace {

constexpr double kDuration = 12.0;
// The churn trace runs longer: the closed loop pays a fixed convergence
// cost (cold start on all-Clos plus two staged conversions) before it
// tracks the oracle's endpoint, while a static mode pays its locality
// mismatch every epoch. Twenty seconds is enough demand history for the
// amortization the autopilot exists to win.
constexpr double kChurnDuration = 20.0;
constexpr double kEpoch = 1.0;
constexpr double kSquarePeriod = 4.0;  // regime = period / 2

enum class Arm : std::uint8_t {
  kAutopilot,
  kStaticClos,
  kStaticLocal,
  kStaticGlobal,
  kOracle,
  kThrashHysteresis,
  kThrashUngated,
};

struct Cell {
  const char* trace;
  const char* arm;
  Arm kind;
  std::size_t workload;  // index into the generated trace list
  double duration_s;
};

struct Outcome {
  std::size_t flows{0};
  std::size_t completed{0};
  double fct_sum_s{0.0};
  std::uint32_t conversions{0};
  std::uint32_t committed{0};
  std::uint32_t decisions_convert{0};
  std::uint32_t holds{0};
  std::string final_modes;
  // Packet-side telemetry spot check (autopilot arms with >= 1 conversion):
  // the first conversion's timeline replayed through the packet simulator;
  // distinct (src, dst) pairs and the bytes its flow records delivered.
  std::size_t packet_pairs{0};
  double packet_bytes{0.0};
};

std::string mode_string(const ModeAssignment& assignment) {
  std::string s;
  for (PodMode m : assignment.pod_modes) {
    s += m == PodMode::kClos ? 'C' : (m == PodMode::kLocal ? 'L' : 'G');
  }
  return s;
}

// The same epoch partition AutopilotLoop uses, so static and oracle arms
// are served apples-to-apples with the closed loop.
std::vector<Workload> bucketize(const Workload& flows, double duration_s) {
  const auto epochs =
      static_cast<std::size_t>(std::ceil(duration_s / kEpoch - 1e-12));
  std::vector<Workload> bucket(epochs);
  for (const Flow& f : flows) {
    const auto e = static_cast<std::size_t>(f.start_s / kEpoch);
    bucket[std::min(e, bucket.size() - 1)].push_back(f);
  }
  return bucket;
}

struct EpochStats {
  std::size_t completed{0};
  double fct_sum_s{0.0};
};

EpochStats serve_epoch(const CompiledMode& mode, const Workload& flows,
                       const obs::ObsSink& sink) {
  EpochStats stats;
  if (flows.empty()) return stats;
  FluidOptions opts;
  opts.sink = sink;
  FluidSimulator sim{mode.graph(),
                     [&mode](NodeId src, NodeId dst, std::uint32_t) {
                       return mode.paths().server_paths(src, dst);
                     },
                     opts};
  for (const FluidFlowResult& r : sim.run(flows)) {
    if (!r.completed) continue;
    ++stats.completed;
    stats.fct_sum_s += r.fct_s();
  }
  return stats;
}

ReconfigPolicyOptions policy_defaults() {
  ReconfigPolicyOptions policy;
  policy.min_dwell_s = 1.5;
  policy.min_gain_frac = 0.05;
  policy.gain_cost_multiple = 1.0;
  policy.horizon_s = 2.0;
  // Enough synthetic flows per matrix entry that the forecast feels the
  // multiplexing the real epoch traffic creates — two bundles per entry
  // under-predicts congestion gains at testbed load.
  policy.flows_per_entry = 6;
  return policy;
}

Outcome run_autopilot(const Controller& controller, const Workload& flows,
                      double duration_s, const ReconfigPolicyOptions& policy,
                      std::uint64_t seed, const obs::ObsSink& sink) {
  AutopilotOptions opts;
  opts.epoch_s = kEpoch;
  opts.estimator.half_life_s = 1.0;
  opts.policy = policy;
  opts.exec.stage_checkpoints = true;
  opts.exec.seed = seed;
  opts.exec.sink = sink;
  opts.sink = sink;
  const AutopilotLoop loop{controller, opts};
  const AutopilotResult result =
      loop.run(flows, ModeAssignment::uniform(controller.tree().clos().pods,
                                              PodMode::kClos),
               duration_s);

  Outcome out;
  out.flows = result.flows;
  out.completed = result.completed;
  out.fct_sum_s = result.fct_sum_s;
  out.conversions = result.conversions_started;
  out.committed = result.conversions_committed;
  for (const EpochRecord& rec : result.epochs) {
    if (rec.decision.action == PolicyAction::kConvert) {
      ++out.decisions_convert;
    } else {
      ++out.holds;
    }
  }
  out.final_modes = mode_string(result.final_assignment);

  // Packet-side spot check: replay the first conversion's timeline through
  // the packet simulator and summarize its exported flow records.
  if (!result.conversions.empty()) {
    const ExecutionReport& report = result.conversions.front();
    const std::vector<Workload> bucket = bucketize(flows, duration_s);
    Workload epoch_flows;
    for (const EpochRecord& rec : result.epochs) {
      if (rec.conversion_executed) {
        epoch_flows = bucket[rec.epoch];
        break;
      }
    }
    PacketSim sim;
    sim.set_network(*report.timeline.front().graph);
    const std::size_t spot = std::min<std::size_t>(8, epoch_flows.size());
    Workload spot_flows;
    for (std::size_t i = 0; i < spot; ++i) {
      const Flow& f = epoch_flows[i];
      sim.add_flow(f.src, f.dst, 2e6, 0.0,
                   conversion_paths_for(report, f));
      spot_flows.push_back(f);
    }
    drive_packet_sim(sim, report, spot_flows, report.finish_s + 5.0);
    std::set<std::pair<std::uint32_t, std::uint32_t>> pairs;
    for (const obs::FlowRecord& r : sim.export_flow_records()) {
      pairs.emplace(r.src, r.dst);
      out.packet_bytes += r.bytes;
    }
    out.packet_pairs = pairs.size();
  }
  return out;
}

Outcome run_static(const Controller& controller, const Workload& flows,
                   double duration_s, PodMode mode,
                   const obs::ObsSink& sink) {
  const CompiledMode compiled = controller.compile_uniform(mode);
  Outcome out;
  for (const Workload& epoch : bucketize(flows, duration_s)) {
    out.flows += epoch.size();
    const EpochStats stats = serve_epoch(compiled, epoch, sink);
    out.completed += stats.completed;
    out.fct_sum_s += stats.fct_sum_s;
  }
  out.final_modes = mode_string(compiled.assignment());
  return out;
}

Outcome run_oracle(const Controller& controller, const Workload& flows,
                   double duration_s, const obs::ObsSink& sink) {
  const CompiledMode modes[3] = {controller.compile_uniform(PodMode::kClos),
                                 controller.compile_uniform(PodMode::kLocal),
                                 controller.compile_uniform(PodMode::kGlobal)};
  Outcome out;
  std::size_t last_best = 0;
  for (const Workload& epoch : bucketize(flows, duration_s)) {
    out.flows += epoch.size();
    EpochStats best;
    bool first = true;
    std::size_t best_i = last_best;
    for (std::size_t i = 0; i < 3; ++i) {
      const EpochStats stats = serve_epoch(modes[i], epoch, sink);
      if (first || stats.fct_sum_s < best.fct_sum_s) {
        best = stats;
        best_i = i;
        first = false;
      }
    }
    if (best_i != last_best) ++out.conversions;  // free, instant
    last_best = best_i;
    out.completed += best.completed;
    out.fct_sum_s += best.fct_sum_s;
  }
  out.final_modes = mode_string(modes[last_best].assignment());
  return out;
}

void run(int argc, char** argv) {
  exec::ExperimentRunner runner{
      bench::parse_runner_options("autopilot", argc, argv, 41)};

  FlatTreeParams params;
  params.clos = ClosParams::testbed();
  params.six_port_per_column = 1;
  params.four_port_per_column = 1;
  ControllerOptions ctl_opts;
  ctl_opts.count_rules = true;  // the policy prices real rule churn
  // The staged executor pushes every tracked pair's route rules through the
  // Table-3 per-rule delays, so conversion time scales with k and with the
  // paper's §4.3 distributed-controller fan-out. One controller per switch
  // (24) and 2-way multipath keep a full-fabric conversion at a few
  // seconds — in scale with the decision epoch, as the paper's ~1 s
  // testbed conversions are to its operational cadence.
  ctl_opts.delay.controllers = 24;
  ctl_opts.k_global = ctl_opts.k_local = ctl_opts.k_clos = 2;
  ctl_opts.sink = runner.obs();
  const Controller controller{FlatTree{params}, ctl_opts};

  // Equal offered load on both endpoints of each blend so only the
  // locality mix (and hence the right mode) shifts over time.
  TraceParams web = TraceParams::web();
  TraceParams hadoop = TraceParams::hadoop1();
  web.flows_per_s = hadoop.flows_per_s = 600.0;
  web.mean_flow_bytes = hadoop.mean_flow_bytes = 8e6;

  ModulatedTraceParams diurnal;
  diurnal.low = web;
  diurnal.high = hadoop;
  diurnal.duration_s = kDuration;
  diurnal.shape = ModulatedTraceParams::Shape::kRamp;
  diurnal.seed = runner.seed();

  TenantChurnParams churn;
  churn.duration_s = kChurnDuration;
  churn.arrivals_per_s = 0.75;
  churn.mean_lifetime_s = 4.0;
  churn.flows_per_s = 300.0;
  churn.mean_flow_bytes = 8e6;
  churn.seed = runner.seed() + 1;

  ModulatedTraceParams square = diurnal;
  square.shape = ModulatedTraceParams::Shape::kSquare;
  square.period_s = kSquarePeriod;

  const Workload traces[3] = {
      generate_modulated_trace(params.clos, diurnal),
      generate_tenant_churn(params.clos, churn),
      generate_modulated_trace(params.clos, square)};

  const Cell cells[] = {
      {"diurnal", "autopilot", Arm::kAutopilot, 0, kDuration},
      {"diurnal", "static-clos", Arm::kStaticClos, 0, kDuration},
      {"diurnal", "static-local", Arm::kStaticLocal, 0, kDuration},
      {"diurnal", "static-global", Arm::kStaticGlobal, 0, kDuration},
      {"diurnal", "oracle", Arm::kOracle, 0, kDuration},
      {"churn", "autopilot", Arm::kAutopilot, 1, kChurnDuration},
      {"churn", "static-clos", Arm::kStaticClos, 1, kChurnDuration},
      {"churn", "static-local", Arm::kStaticLocal, 1, kChurnDuration},
      {"churn", "static-global", Arm::kStaticGlobal, 1, kChurnDuration},
      {"churn", "oracle", Arm::kOracle, 1, kChurnDuration},
      {"square", "hysteresis", Arm::kThrashHysteresis, 2, kDuration},
      {"square", "ungated", Arm::kThrashUngated, 2, kDuration},
  };
  constexpr std::size_t kCells = sizeof(cells) / sizeof(cells[0]);

  bench::print_header(
      "Closed-loop autopilot vs the static convertibility endpoints",
      "testbed flat-tree (24 servers); per 1 s epoch the fluid-served\n"
      "telemetry folds into a decayed demand estimate, the policy prices\n"
      "the Advisor's target (FCT forecast vs Table-3 delay) behind dwell +\n"
      "gain hysteresis, and accepted conversions run through the staged\n"
      "storm-tolerant executor while traffic flows. Traces: diurnal = Web\n"
      "(Pod-local) ramping to Hadoop (network-wide) over 12 s; churn =\n"
      "20 s of tenant arrival/departure with per-tenant locality;\n"
      "square = Web <-> Hadoop flip every 2 s (hysteresis stress: gated\n"
      "dwell vs ungated).\n"
      "fct = aggregate completed-flow FCT; conv = conversions executed\n"
      "(committed); final = per-Pod terminal modes.");
  bench::print_row({"trace", "arm", "flows", "done", "fct", "mean_fct",
                    "conv", "final"},
                   13);

  const std::vector<Outcome> outcomes =
      runner.timed_stage("autopilot cells", [&] {
        return exec::parallel_map(
            runner.pool(), kCells, [&](std::size_t i) {
              const Cell& cell = cells[i];
              const Workload& flows = traces[cell.workload];
              switch (cell.kind) {
                case Arm::kAutopilot:
                  return run_autopilot(controller, flows, cell.duration_s,
                                       policy_defaults(), runner.seed(),
                                       runner.obs());
                case Arm::kStaticClos:
                  return run_static(controller, flows, cell.duration_s,
                                    PodMode::kClos, runner.obs());
                case Arm::kStaticLocal:
                  return run_static(controller, flows, cell.duration_s,
                                    PodMode::kLocal, runner.obs());
                case Arm::kStaticGlobal:
                  return run_static(controller, flows, cell.duration_s,
                                    PodMode::kGlobal, runner.obs());
                case Arm::kOracle:
                  return run_oracle(controller, flows, cell.duration_s,
                                    runner.obs());
                case Arm::kThrashHysteresis:
                  return run_autopilot(controller, flows, cell.duration_s,
                                       policy_defaults(), runner.seed(),
                                       runner.obs());
                case Arm::kThrashUngated: {
                  ReconfigPolicyOptions ungated = policy_defaults();
                  ungated.min_dwell_s = 0.0;
                  ungated.min_gain_frac = 0.0;
                  ungated.gain_cost_multiple = 0.0;
                  ungated.require_positive_gain = false;
                  return run_autopilot(controller, flows, cell.duration_s,
                                       ungated, runner.seed(), runner.obs());
                }
              }
              return Outcome{};
            });
      });

  double fct[3][8] = {};
  std::uint32_t conv[3][8] = {};
  for (std::size_t i = 0; i < kCells; ++i) {
    const Cell& cell = cells[i];
    const Outcome& out = outcomes[i];
    fct[cell.workload][static_cast<std::size_t>(cell.kind)] = out.fct_sum_s;
    conv[cell.workload][static_cast<std::size_t>(cell.kind)] =
        out.conversions;
    const double mean_fct =
        out.completed > 0
            ? out.fct_sum_s / static_cast<double>(out.completed)
            : 0.0;
    bench::print_row(
        {cell.trace, cell.arm, std::to_string(out.flows),
         std::to_string(out.completed), bench::fmt(out.fct_sum_s, 1),
         bench::fmt(mean_fct, 4),
         std::to_string(out.conversions) + "(" +
             std::to_string(out.committed) + ")",
         out.final_modes},
        13);
    exec::ResultRow row;
    row.set("trace", cell.trace)
        .set("arm", cell.arm)
        .set("flows", out.flows)
        .set("completed", out.completed)
        .set("fct_sum_s", out.fct_sum_s)
        .set("mean_fct_s", mean_fct)
        .set("conversions", out.conversions)
        .set("conversions_committed", out.committed)
        .set("decisions_convert", out.decisions_convert)
        .set("decisions_hold", out.holds)
        .set("final_modes", out.final_modes)
        .set("packet_pairs", out.packet_pairs)
        .set("packet_bytes", out.packet_bytes);
    runner.add_row(std::move(row));
  }

  const auto a = [&](std::size_t t, Arm k) {
    return fct[t][static_cast<std::size_t>(k)];
  };
  constexpr auto kRegimes =
      static_cast<std::uint32_t>(kDuration / (kSquarePeriod / 2.0));
  const std::uint32_t hyst_conv =
      conv[2][static_cast<std::size_t>(Arm::kThrashHysteresis)];
  const std::uint32_t ungated_conv =
      conv[2][static_cast<std::size_t>(Arm::kThrashUngated)];
  std::printf(
      "\nexpected shape: the closed loop tracks the demand shift — its\n"
      "aggregate FCT lands below BOTH static Clos and static global on the\n"
      "diurnal and churn traces, between the per-phase best static and the\n"
      "free-conversion oracle. Under the square-wave flip, hysteresis\n"
      "bounds conversions to at most one per demand regime (%u regimes);\n"
      "the ungated loop converts more (%u vs %u here), paying the\n"
      "conversion transients each flip.\n",
      kRegimes, ungated_conv, hyst_conv);
  for (std::size_t t = 0; t < 2; ++t) {
    if (!(a(t, Arm::kAutopilot) < a(t, Arm::kStaticClos)) ||
        !(a(t, Arm::kAutopilot) < a(t, Arm::kStaticGlobal))) {
      std::printf("WARNING: autopilot not below both statics on trace %zu\n",
                  t);
    }
  }
  if (hyst_conv > kRegimes) {
    std::printf("WARNING: hysteresis exceeded one conversion per regime\n");
  }
  if (ungated_conv < hyst_conv) {
    std::printf("WARNING: ungated loop converted less than hysteresis\n");
  }
}

}  // namespace
}  // namespace flattree

int main(int argc, char** argv) {
  flattree::run(argc, argv);
  return 0;
}
