// Scenario execution: compile a parsed Scenario against real substrate
// objects, then drive the chosen simulator through it.
//
// compile_scenario() is the second validation tier after parse_scenario():
// it builds the topology (fat-tree / flat-tree / random graph / two-stage),
// generates and merges the traffic mix (dependency indices and coflow
// groups re-based across entries), materializes the failure schedule on the
// realized graph, and constructs the conversion delay model — invoking
// FailureSchedule::validate() and ConversionDelayModel::validate() so an
// invalid embedded schedule is rejected *before* any simulator runs, never
// mid-run. All rejections throw ScenarioError with a "<file>: ..." prefix.
//
// run_scenario() executes one compiled scenario and returns a deterministic
// summary: aggregate and per-tenant-class FCT statistics, engine-specific
// counters, and one verdict per SLO assertion. Determinism contract: every
// random draw comes from seeds resolved at parse time, simulators follow
// their own byte-identical-across-threads contracts, and the summary row's
// field order is fixed — so bench_scenarios output is byte-identical for
// --threads 1/2/8 (the golden_scenarios / obs_determinism_scenarios gates).
//
// Engine pipelines (SimSpec::engine x scenario content):
//   fluid                   FluidSimulator::run
//   fluid + failures        run_with_schedule; refresh "repair" runs the
//                           repair pipeline (baseline run,
//                           Controller::plan_repair, union graph,
//                           repaired-mode refresh) that bench_failure_recovery
//                           drives per mode, pinned bit for bit against an
//                           inline copy by tests/test_scenario_diff.cc;
//                           "reroute" re-solves a PathCache per refresh;
//                           "none" is capacity-only
//   fluid + conversion      ConversionExecutor::execute[_under_storm] +
//                           run_fluid_with_conversion
//   packet                  monolithic PacketSim to the horizon
//   packet_sharded          per-Pod ShardedPacketSim (Pod-local traffic)
//   autopilot               AutopilotLoop closed loop
#pragma once

#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "control/controller.h"
#include "core/flat_tree.h"
#include "exec/pool.h"
#include "exec/results.h"
#include "net/failures.h"
#include "net/graph.h"
#include "obs/sink.h"
#include "scenario/spec.h"
#include "topo/params.h"
#include "traffic/flow.h"

namespace flattree::scenario {

// A scenario bound to real substrate objects, ready to run.
struct CompiledScenario {
  Scenario spec;
  std::string file;

  // Device budget / positional rack & Pod layout (valid for every kind).
  ClosParams clos;
  std::uint32_t servers{0};
  std::uint32_t servers_per_rack{0};
  std::uint32_t servers_per_pod{0};

  // Merged workload, traffic entries concatenated in declaration order;
  // per-flow dependency indices and coflow groups re-based so entries never
  // collide. flow_class[i] indexes class_names (one per distinct tenant
  // class, first-use order).
  Workload flows;
  std::vector<std::uint32_t> flow_class;
  std::vector<std::string> class_names;

  // Flat kinds only: the convertible tree and the initial mode assignment.
  std::shared_ptr<const FlatTree> tree;
  ModeAssignment assignment;

  // The operating topology traffic starts on (flat kinds: the assignment's
  // realization; random kinds: the wired graph).
  std::shared_ptr<const Graph> base_graph;

  // Failure schedule in base_graph's link space, flaps expanded, validated.
  FailureSchedule failures;

  // Conversion target (spec.conversion.present) and the validated Table-3
  // delay model (from the conversion spec, or defaults with the sim
  // section's controller count).
  ModeAssignment conversion_to;
  ConversionDelayModel delay;
};

// Binds `spec` to substrate objects and re-validates everything only the
// realized topology can check. Throws ScenarioError ("<file>: ...") on any
// rejection — including "failure schedule rejected: ..." from
// FailureSchedule construction/validate() and "conversion delay model
// rejected: ..." from ConversionDelayModel::validate().
[[nodiscard]] CompiledScenario compile_scenario(
    const Scenario& spec, std::string_view file = "<scenario>");

// parse_scenario_file + compile_scenario.
[[nodiscard]] CompiledScenario compile_scenario_file(const std::string& path);

// FCT statistics over one flow population (aggregate or one tenant class).
struct ClassSummary {
  std::string name;  // "" = aggregate
  std::size_t flows{0};
  std::size_t completed{0};
  double worst_fct_s{0.0};
  double p99_fct_s{0.0};
  double p50_fct_s{0.0};
  double mean_fct_s{0.0};

  [[nodiscard]] double completed_frac() const {
    return flows == 0 ? 0.0
                      : static_cast<double>(completed) /
                            static_cast<double>(flows);
  }
};

struct SloVerdict {
  SloSpec spec;
  double value{0.0};
  bool pass{true};
};

struct ScenarioResult {
  std::string name;
  ClassSummary aggregate;
  // One per defined tenant class (class_names order); empty for engines
  // that report aggregate-only (packet_sharded, autopilot).
  std::vector<ClassSummary> classes;
  std::vector<SloVerdict> slos;
  bool slos_pass{true};
  // slos_pass == spec.expect_pass: the battery's self-check.
  bool matches_expect{true};
  // Engine-specific numeric extras in emission order (exact values, for
  // differential tests); duplicated into `row`.
  std::vector<std::pair<std::string, double>> extras;
  // The extra named `key`; throws std::out_of_range when there is none.
  [[nodiscard]] double extra(std::string_view key) const;
  // The full summary as one deterministic BENCH row (fixed field order).
  exec::ResultRow row;
};

struct RunOptions {
  // Fan-out for the sharded packet engine only (null = serial shards; a
  // battery already parallel across scenarios should pass null).
  exec::ThreadPool* pool{nullptr};
  // Threaded into every simulator / controller the pipeline builds.
  obs::ObsSink sink{};
};

[[nodiscard]] ScenarioResult run_scenario(const CompiledScenario& compiled,
                                          const RunOptions& options = {});

}  // namespace flattree::scenario
