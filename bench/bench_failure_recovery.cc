// Extension bench (the paper's deferred failure evaluation, §4.2.1
// footnote 2, taken dynamic): FCT inflation under a live failure schedule
// with controller-driven recovery, for flat-tree Clos / local / global
// modes on the same physical network.
//
// Scenario: a permutation workload is in flight when three quarters of the
// core layer dies (three whole core columns — a correlated failure: one
// OCS partition, one power feed). The data plane breaks immediately; the
// controller recomputes routing state incrementally around the failure
// (Controller::plan_repair) and the refreshed routes land one repair lag
// later, priced by the Table-3 delay model from the exact rule delta. In
// global mode the repair includes the converter rewire: servers broken out
// onto the dead cores are re-homed onto their aggregation switches by
// flipping the converter pair to local (one OCS pass). The simulation runs
// on the union of the base realization and the rescue circuits — unused
// links are inert under max-min filling, so pre-repair behaviour is
// unchanged and the rescued attachments become routable the moment the
// repaired paths arrive.
//
// The claim to check (footnote 2 made dynamic): Clos concentrates all
// inter-pod capacity in the core layer, so losing most of it throttles the
// worst flow for the entire outage no matter how fast routing reconverges;
// the flattened modes keep inter-pod capacity in side/local circuits that
// bypass the cores, so after one repair lag their worst flows run nearly
// unthrottled — worst-case FCT inflates faster in Clos mode than in global
// mode under the same FailureSchedule.
#include <cstdio>
#include <vector>

#include "bench/util.h"
#include "control/controller.h"
#include "core/flat_tree.h"
#include "net/failures.h"
#include "sim/fluid.h"
#include "traffic/patterns.h"

namespace flattree {
namespace {

using bench::RunStats;
using bench::summarize;

PathProvider mode_provider(CompiledMode& mode) {
  return [&mode](NodeId src, NodeId dst, std::uint32_t) {
    return mode.paths().server_paths(src, dst);
  };
}

// Everything one mode's pipeline produces: baseline sim, repair plan,
// scheduled (failure-injected) sim. One exec cell per mode.
struct ModeOutcome {
  RunStats base;
  RunStats failed;
  double repair_lag_s{0.0};
  std::size_t pairs_invalidated{0};
  std::size_t pairs_retained{0};
  ScheduleRunStats sched;
};

void run(int argc, char** argv) {
  // Default seed = the permutation-workload seed the seed-state bench
  // hard-coded.
  exec::ExperimentRunner runner{
      bench::parse_runner_options("failure_recovery", argc, argv, 17)};
  const ClosParams clos{8, 4, 4, 4, 8, 4, 16, 8};  // 256 servers, 2:1 edge
  FlatTreeParams params;
  params.clos = clos;
  params.six_port_per_column = 2;
  params.four_port_per_column = 2;
  const FlatTree tree{params};

  // Rule updates fan out over distributed controllers (§4.3: "a set of
  // controllers each managing a number of switches") so the repair lag
  // lands on the same time scale as the FCTs; the 160 ms OCS pass does not
  // divide.
  ControllerOptions opts;
  opts.count_rules = false;  // the fluid section prices repairs per pair
  opts.delay.controllers = 64;
  opts.sink = runner.obs();
  const Controller controller{FlatTree{params}, opts};

  Rng traffic_rng{runner.seed()};
  Workload flows = permutation_traffic(clos.total_servers(), traffic_rng);
  for (Flow& f : flows) f.bytes = 200e6;  // 200 MB, all arriving at t=0

  // Three whole core columns (three quarters of the core layer) die at
  // t=0.05 s and stay down past the run. Node ids are mode-invariant, so
  // the identical schedule applies to every mode.
  const std::uint32_t column_width = clos.core_connectors_per_edge();
  const double t_fail = 0.05;
  const double t_recover = 60.0;

  bench::print_header(
      "Extension: FCT inflation under live core-column failure + recovery",
      "permutation traffic, 200 MB flows; three core columns (12/16 cores) fail\n"
      "at t=0.05s for the rest of the run; the controller repairs routing\n"
      "incrementally (global mode: + converter rewire rescuing the servers\n"
      "stranded on the dead cores), lag priced by the Table-3 delay model\n"
      "(64 controllers). FCTs in seconds.");
  bench::print_row({"mode", "base-worst", "fail-worst", "inflation",
                    "lag(s)", "evicted", "retained", "reroutes", "blackhole"},
                   11);

  // The three modes share nothing mutable (each cell compiles its own
  // CompiledModes and runs its own simulators), so they fan across the
  // pool as multi-replicate fluid-sim runs.
  const PodMode modes[] = {PodMode::kClos, PodMode::kLocal, PodMode::kGlobal};
  const std::vector<ModeOutcome> outcomes = runner.timed_stage(
      "failure_recovery modes", [&] {
        return exec::parallel_map(
            runner.pool(), 3, [&](std::size_t cell) {
              const PodMode mode = modes[cell];
              CompiledMode live = controller.compile_uniform(mode);
              const FailureSet columns = core_column_failure(
                  live.graph(), 0, 3 * column_width);

              // Failure-free baseline; warms the path cache with exactly
              // the pairs the workload uses, so the repair below prices a
              // realistic blast radius.
              FluidOptions fluid_opts;
              fluid_opts.sink = runner.obs();
              FluidSimulator baseline{live.graph(), mode_provider(live),
                                      fluid_opts};
              ModeOutcome out;
              out.base = summarize(baseline.run(flows));

              // The controller's incremental repair: rescue stranded
              // servers by converter rewire (global mode only — the other
              // modes attach no servers to cores), evict only the broken
              // pairs, re-solve them on the repaired topology, price the
              // rule delta.
              RepairPlan plan =
                  controller.plan_repair(live, columns, RepairOptions{});

              // The scheduled run: healthy routes until the failure
              // refresh installs the repaired cache. The union graph
              // carries the rescue circuits, inert until the repaired
              // paths route onto them.
              // The union graph carries the rescue circuits of the repair:
              // present from the start but unused (and therefore inert under
              // max-min filling) until the repaired paths route onto them.
              CompiledMode pre = controller.compile_uniform(mode);
              const Graph sim_graph = graph_union(pre.graph(), *plan.graph);
              FluidSimulator sim{sim_graph, mode_provider(pre), fluid_opts};
              FailureSchedule schedule;
              schedule.fail_at(t_fail, columns);
              schedule.recover_at(t_recover, columns);
              const RoutingRefresh refresh =
                  [&](const Graph&) -> PathProvider {
                return mode_provider(live);
              };
              out.failed = summarize(sim.run_with_schedule(
                  flows, schedule, plan.total_s(), refresh, &out.sched));
              out.repair_lag_s = plan.total_s();
              out.pairs_invalidated = plan.pairs_invalidated;
              out.pairs_retained = plan.pairs_retained;
              return out;
            });
      });

  for (std::size_t cell = 0; cell < 3; ++cell) {
    const ModeOutcome& out = outcomes[cell];
    const PodMode mode = modes[cell];
    bench::print_row(
        {to_string(mode), bench::fmt(out.base.worst_fct, 3),
         bench::fmt(out.failed.worst_fct, 3),
         bench::fmt(out.failed.worst_fct / out.base.worst_fct, 2) + "x",
         bench::fmt(out.repair_lag_s, 3),
         std::to_string(out.pairs_invalidated),
         std::to_string(out.pairs_retained),
         std::to_string(out.sched.reroutes),
         std::to_string(out.sched.black_holed)},
        11);
    if (out.failed.completed != out.failed.total) {
      std::printf("  (%s: %zu/%zu flows completed)\n", to_string(mode),
                  out.failed.completed, out.failed.total);
    }
    exec::ResultRow row;
    row.set("mode", to_string(mode))
        .set("base_worst_fct_s", out.base.worst_fct)
        .set("base_p99_fct_s", out.base.p99_fct)
        .set("fail_worst_fct_s", out.failed.worst_fct)
        .set("fail_p99_fct_s", out.failed.p99_fct)
        .set("inflation", out.failed.worst_fct / out.base.worst_fct)
        .set("repair_lag_s", out.repair_lag_s)
        .set("pairs_invalidated", out.pairs_invalidated)
        .set("pairs_retained", out.pairs_retained)
        .set("reroutes", out.sched.reroutes)
        .set("black_holed", out.sched.black_holed)
        .set("completed", out.failed.completed)
        .set("total_flows", out.failed.total);
    runner.add_row(std::move(row));
  }

  // ---- repair pricing: incremental vs full recompile, converter rewire ---
  bench::print_header(
      "Repair pricing (global mode, one dead core column)",
      "incremental plan_repair vs recompiling the whole mode; converter\n"
      "rewire re-homes the servers stranded on the dead cores (one OCS\n"
      "pass) — repair-by-reconfiguration, the flat-tree-native action.\n"
      "Cache fully warm (every switch pair), 64 controllers.");
  ControllerOptions full_opts;  // count_rules on: full-compile rule totals
  full_opts.delay.controllers = 64;
  full_opts.sink = runner.obs();
  const Controller pricing{FlatTree{params}, full_opts};
  bench::print_row({"repair", "conv", "rules-del", "rules-add", "ocs(s)",
                    "total(s)"},
                   11);
  for (const bool rewire : {false, true}) {
    CompiledMode live = pricing.compile_uniform(PodMode::kGlobal);
    const std::uint64_t full_rules = live.total_rules();
    const FailureSet column = core_column_failure(live.graph(), 0,
                                                  column_width);
    RepairOptions repair_options;
    repair_options.allow_converter_rewire = rewire;
    const RepairPlan plan = pricing.plan_repair(live, column, repair_options);
    bench::print_row({rewire ? "rewire" : "reroute",
                      std::to_string(plan.converters_changed),
                      std::to_string(plan.rules_deleted),
                      std::to_string(plan.rules_added),
                      bench::fmt(plan.ocs_s, 3), bench::fmt(plan.total_s(), 3)},
                     11);
    exec::ResultRow row;
    row.set("repair", rewire ? "rewire" : "reroute")
        .set("converters_changed", plan.converters_changed)
        .set("rules_deleted", plan.rules_deleted)
        .set("rules_added", plan.rules_added)
        .set("ocs_s", plan.ocs_s)
        .set("total_s", plan.total_s());
    runner.add_row(std::move(row));
    if (!rewire) {
      std::printf("  full recompile would rewrite ~%llu rules; incremental "
                  "touches %llu\n",
                  static_cast<unsigned long long>(2 * full_rules),
                  static_cast<unsigned long long>(plan.rules_deleted +
                                                  plan.rules_added));
    }
  }
  std::printf(
      "\nexpected shape: Clos mode funnels all inter-pod traffic through the\n"
      "halved core layer, so its worst flow stays throttled for the whole\n"
      "outage; global mode reroutes onto side/local circuits (and rescues\n"
      "its core-attached servers by rewire) after one repair lag, so its\n"
      "worst-case FCT inflates less under the same schedule; repair cost\n"
      "scales with the evicted pairs, not the network size.\n");
}

}  // namespace
}  // namespace flattree

int main(int argc, char** argv) {
  flattree::run(argc, argv);
  return 0;
}
