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
// repaired paths arrive. Each mode is one scenario, built in code and run
// through scenario::run_scenario's repair pipeline.
//
// The claim to check (footnote 2 made dynamic): Clos concentrates all
// inter-pod capacity in the core layer, so losing most of it throttles the
// worst flow for the entire outage no matter how fast routing reconverges;
// the flattened modes keep inter-pod capacity in side/local circuits that
// bypass the cores, so after one repair lag their worst flows run nearly
// unthrottled — worst-case FCT inflates faster in Clos mode than in global
// mode under the same FailureSchedule.
#include <cstdio>
#include <string>
#include <vector>

#include "bench/util.h"
#include "control/controller.h"
#include "core/flat_tree.h"
#include "net/failures.h"
#include "scenario/runner.h"

namespace flattree {
namespace {

// One mode's cell as a scenario: the same fabric, workload, failure and
// repair pipeline for every mode, with every field the grammar would
// resolve at parse time set explicitly.
scenario::Scenario mode_scenario(PodMode mode, std::uint64_t seed) {
  scenario::Scenario spec;
  spec.name = std::string{"failure_recovery_"} + to_string(mode);
  spec.seed = seed;
  // 256 servers, 2:1 edge: k = 8 with 8 servers per edge switch.
  spec.topology.kind = scenario::TopologyKind::kFlatTree;
  spec.topology.k = 8;
  spec.topology.servers_per_edge = 8;
  spec.topology.m = 2;
  spec.topology.n = 2;
  spec.topology.pod_modes = {mode};
  scenario::TrafficSpec traffic;
  traffic.seed = seed;
  traffic.bytes = 200e6;  // 200 MB permutation flows, all arriving at t=0
  spec.traffic = {traffic};
  // Three whole core columns (12 of the 16 cores) die at t=0.05 s and stay
  // down past the run. Node ids are mode-invariant, so the identical
  // schedule applies to every mode.
  scenario::FailureSpec columns;
  columns.kind = scenario::FailureKind::kCoreColumn;
  columns.first = 0;
  columns.count = 12;
  columns.fail_at = 0.05;
  columns.recover_at = 60.0;
  columns.seed = seed;
  spec.failures = {columns};
  // Rule updates fan out over distributed controllers (§4.3: "a set of
  // controllers each managing a number of switches") so the repair lag
  // lands on the same time scale as the FCTs; the 160 ms OCS pass does not
  // divide. The fluid section prices repairs per pair, so no rule counts.
  spec.sim.refresh = scenario::RefreshMode::kRepair;
  spec.sim.controllers = 64;
  spec.sim.k_paths = 8;
  spec.sim.count_rules = false;
  return spec;
}

void run(int argc, char** argv) {
  // Default seed = the permutation-workload seed the seed-state bench
  // hard-coded.
  exec::ExperimentRunner runner{
      bench::parse_runner_options("failure_recovery", argc, argv, 17)};

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

  // The three scenarios share nothing mutable, so they fan across the pool.
  const PodMode modes[] = {PodMode::kClos, PodMode::kLocal, PodMode::kGlobal};
  scenario::RunOptions run_options;
  run_options.sink = runner.obs();
  const std::vector<scenario::ScenarioResult> results = runner.timed_stage(
      "failure_recovery modes", [&] {
        return exec::parallel_map(
            runner.pool(), 3, [&](std::size_t cell) {
              return scenario::run_scenario(
                  scenario::compile_scenario(
                      mode_scenario(modes[cell], runner.seed())),
                  run_options);
            });
      });

  for (std::size_t cell = 0; cell < 3; ++cell) {
    const scenario::ScenarioResult& r = results[cell];
    const scenario::ClassSummary& failed = r.aggregate;
    const PodMode mode = modes[cell];
    const auto count = [&r](const char* key) {
      return static_cast<std::uint64_t>(r.extra(key));
    };
    bench::print_row(
        {to_string(mode), bench::fmt(r.extra("base_worst_fct_s"), 3),
         bench::fmt(failed.worst_fct_s, 3),
         bench::fmt(r.extra("inflation"), 2) + "x",
         bench::fmt(r.extra("repair_lag_s"), 3),
         std::to_string(count("pairs_invalidated")),
         std::to_string(count("pairs_retained")),
         std::to_string(count("reroutes")),
         std::to_string(count("black_holed"))},
        11);
    if (failed.completed != failed.flows) {
      std::printf("  (%s: %zu/%zu flows completed)\n", to_string(mode),
                  failed.completed, failed.flows);
    }
    exec::ResultRow row;
    row.set("mode", to_string(mode))
        .set("base_worst_fct_s", r.extra("base_worst_fct_s"))
        .set("base_p99_fct_s", r.extra("base_p99_fct_s"))
        .set("fail_worst_fct_s", failed.worst_fct_s)
        .set("fail_p99_fct_s", failed.p99_fct_s)
        .set("inflation", r.extra("inflation"))
        .set("repair_lag_s", r.extra("repair_lag_s"))
        .set("pairs_invalidated", count("pairs_invalidated"))
        .set("pairs_retained", count("pairs_retained"))
        .set("reroutes", count("reroutes"))
        .set("black_holed", count("black_holed"))
        .set("completed", static_cast<std::uint64_t>(failed.completed))
        .set("total_flows", static_cast<std::uint64_t>(failed.flows));
    runner.add_row(std::move(row));
  }

  // ---- repair pricing: incremental vs full recompile, converter rewire ---
  bench::print_header(
      "Repair pricing (global mode, one dead core column)",
      "incremental plan_repair vs recompiling the whole mode; converter\n"
      "rewire re-homes the servers stranded on the dead cores (one OCS\n"
      "pass) — repair-by-reconfiguration, the flat-tree-native action.\n"
      "Cache fully warm (every switch pair), 64 controllers.");
  const FlatTreeParams params =
      scenario::compile_scenario(mode_scenario(PodMode::kGlobal, runner.seed()))
          .tree->params();
  const std::uint32_t column_width = params.clos.core_connectors_per_edge();
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
