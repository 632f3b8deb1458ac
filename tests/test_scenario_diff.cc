// Differential pin: the scenario runner's repair pipeline against an
// independent inline copy of it. scenarios/failure_recovery_clos.json
// describes bench_failure_recovery's fabric (topology, permutation workload,
// core-column schedule, repair refresh) in Clos mode; the same file with
// "kind": "flat_tree" and one Pod mode describes the local and global
// cells, global's repair including the converter rewire. run_scenario must
// reproduce the inline pipeline *bit for bit* in every mode — baseline and
// failed FCTs, repair lag, eviction counts, schedule counters. This is what
// licenses the DSL as a replacement for hand-coded bench pipelines: a
// scenario is not an approximation of the experiment, it IS the
// experiment (bench_failure_recovery now runs its cells through it).
//
// The left-hand side below builds the pipeline by hand from the
// controller and the fluid simulator; the right-hand side compiles and
// runs the scenario. Any divergence — a reordered random draw, a different
// default, a drifted percentile definition — fails with exact values on
// both sides.
#include <algorithm>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "control/controller.h"
#include "core/flat_tree.h"
#include "net/failures.h"
#include "net/stats.h"
#include "scenario/runner.h"
#include "sim/fluid.h"
#include "traffic/patterns.h"

namespace flattree::scenario {
namespace {

struct RunStats {
  double worst_fct{0.0};
  double p99_fct{0.0};
  std::size_t completed{0};
  std::size_t total{0};
};

RunStats summarize(const std::vector<FluidFlowResult>& results) {
  RunStats stats;
  std::vector<double> fcts;
  for (const FluidFlowResult& r : results) {
    ++stats.total;
    if (!r.completed) continue;
    ++stats.completed;
    fcts.push_back(r.fct_s());
  }
  for (double f : fcts) stats.worst_fct = std::max(stats.worst_fct, f);
  stats.p99_fct = percentile(fcts, 99.0);
  return stats;
}

class FailureRecoveryDiff : public ::testing::TestWithParam<PodMode> {};

TEST_P(FailureRecoveryDiff, CellIsBitIdentical) {
  const PodMode mode = GetParam();

  // ---- left: the repair pipeline, inlined ----
  const ClosParams clos{8, 4, 4, 4, 8, 4, 16, 8};  // 256 servers, 2:1 edge
  FlatTreeParams params;
  params.clos = clos;
  params.six_port_per_column = 2;
  params.four_port_per_column = 2;

  ControllerOptions opts;
  opts.count_rules = false;
  opts.delay.controllers = 64;
  const Controller controller{FlatTree{params}, opts};

  Rng traffic_rng{17};
  Workload flows = permutation_traffic(clos.total_servers(), traffic_rng);
  for (Flow& f : flows) f.bytes = 200e6;

  CompiledMode live = controller.compile_uniform(mode);
  const std::uint32_t column_width = clos.core_connectors_per_edge();
  const FailureSet columns =
      core_column_failure(live.graph(), 0, 3 * column_width);

  FluidOptions fluid_opts;
  FluidSimulator baseline{live.graph(), mode_provider(live), fluid_opts};
  const RunStats base = summarize(baseline.run(flows));

  RepairPlan plan = controller.plan_repair(live, columns, RepairOptions{});

  CompiledMode pre = controller.compile_uniform(mode);
  const Graph sim_graph = graph_union(pre.graph(), *plan.graph);
  FluidSimulator sim{sim_graph, mode_provider(pre), fluid_opts};
  FailureSchedule schedule;
  schedule.fail_at(0.05, columns);
  schedule.recover_at(60.0, columns);
  const RoutingRefresh refresh = [&](const Graph&) -> PathProvider {
    return mode_provider(live);
  };
  ScheduleRunStats sched;
  const RunStats failed = summarize(
      sim.run_with_schedule(flows, schedule, plan.total_s(), refresh, &sched));

  // ---- right: the scenario file, through the DSL pipeline ----
  Scenario spec = parse_scenario_file(std::string{SCENARIO_DIR} +
                                      "/failure_recovery_clos.json");
  if (mode != PodMode::kClos) {
    spec.topology.kind = TopologyKind::kFlatTree;
    spec.topology.pod_modes = {mode};
  }
  const ScenarioResult result = run_scenario(compile_scenario(spec));

  // Exact double equality throughout: the claim is bit-identity, not
  // tolerance. EXPECT_EQ on doubles compares with ==.
  EXPECT_EQ(result.aggregate.flows, failed.total);
  EXPECT_EQ(result.aggregate.completed, failed.completed);
  EXPECT_EQ(result.aggregate.worst_fct_s, failed.worst_fct);
  EXPECT_EQ(result.aggregate.p99_fct_s, failed.p99_fct);

  EXPECT_EQ(result.extra("base_worst_fct_s"), base.worst_fct);
  EXPECT_EQ(result.extra("base_p99_fct_s"), base.p99_fct);
  EXPECT_EQ(result.extra("inflation"), failed.worst_fct / base.worst_fct);
  EXPECT_EQ(result.extra("repair_lag_s"), plan.total_s());
  EXPECT_EQ(result.extra("pairs_invalidated"),
            static_cast<double>(plan.pairs_invalidated));
  EXPECT_EQ(result.extra("pairs_retained"),
            static_cast<double>(plan.pairs_retained));

  EXPECT_EQ(result.extra("fail_events"),
            static_cast<double>(sched.fail_events));
  EXPECT_EQ(result.extra("recover_events"),
            static_cast<double>(sched.recover_events));
  EXPECT_EQ(result.extra("refreshes"), static_cast<double>(sched.refreshes));
  EXPECT_EQ(result.extra("reroutes"), static_cast<double>(sched.reroutes));
  EXPECT_EQ(result.extra("black_holed"),
            static_cast<double>(sched.black_holed));

  // Sanity on the left side itself: the schedule must actually have fired
  // (otherwise both sides would trivially agree on a failure-free run), and
  // only global mode strands servers on the dead cores for the rewire to
  // rescue.
  EXPECT_EQ(sched.fail_events, 1u);
  EXPECT_EQ(sched.recover_events, 1u);
  EXPECT_GT(plan.pairs_invalidated, 0u);
  EXPECT_GT(failed.worst_fct, base.worst_fct);
  EXPECT_EQ(plan.converters_changed > 0, mode == PodMode::kGlobal);
}

INSTANTIATE_TEST_SUITE_P(Modes, FailureRecoveryDiff,
                         ::testing::Values(PodMode::kClos, PodMode::kLocal,
                                           PodMode::kGlobal),
                         [](const ::testing::TestParamInfo<PodMode>& info) {
                           return std::string{to_string(info.param)};
                         });

// The scenario's declared topology (fat_tree k=8, servers_per_edge=8,
// m=n=2) must land on the exact device budget the inline pipeline above
// hard-codes; if the spec's defaults drift, the bit-identity test would fail
// confusingly downstream, so pin the budget translation separately.
TEST(ScenarioDiff, ScenarioTopologyMatchesBenchBudget) {
  const CompiledScenario compiled = compile_scenario_file(
      std::string{SCENARIO_DIR} + "/failure_recovery_clos.json");
  const ClosParams bench_clos{8, 4, 4, 4, 8, 4, 16, 8};
  EXPECT_EQ(compiled.clos.total_servers(), bench_clos.total_servers());
  EXPECT_EQ(compiled.servers, 256u);
  EXPECT_EQ(compiled.flows.size(), 256u);
  EXPECT_EQ(compiled.spec.sim.controllers, 64u);
  EXPECT_FALSE(compiled.spec.sim.count_rules);
  EXPECT_EQ(compiled.spec.seed, 17u);
  EXPECT_EQ(compiled.spec.traffic[0].seed, 17u);  // explicit in the file
}

}  // namespace
}  // namespace flattree::scenario
