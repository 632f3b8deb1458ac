// AutopilotLoop: the closed loop — telemetry -> estimate -> decision ->
// storm-tolerant conversion, while the simulators keep serving traffic.
//
// The loop partitions a workload into fixed decision epochs. Each epoch it
// (1) serves the epoch's flows on the live compiled mode through the fluid
// simulator — through run_fluid_with_conversion when a conversion executes
// concurrently, so the traffic experiences every transient topology of the
// staged protocol; (2) folds the resulting per-flow telemetry into the
// TrafficMatrixEstimator; (3) asks the ReconfigPolicy for a decision at the
// epoch boundary. A kConvert decision launches
// ConversionExecutor::execute_under_storm at the start of the next epoch
// (against any ambient failure storm), and the committed terminal mode
// becomes the live mode.
//
// No lookahead: the decision at a boundary consumes only telemetry from
// epochs already served. The decision log (one EpochRecord per epoch)
// captures every input the policy consumed — the estimate snapshot, the
// live assignment, the dwell clock — plus the priced decision and the
// conversion outcome, so any decision replays bit-for-bit through
// ReconfigPolicy::evaluate (AutopilotTest.DecisionLogReplays).
//
// Determinism: epochs run serially, the estimator folds ordered telemetry,
// the policy is pure, the executor is seeded — the whole loop is a pure
// function of (workload, initial assignment, options, storm, faults), and
// every autopilot.* metric update is commutative.
#pragma once

#include <cstdint>
#include <vector>

#include "control/autopilot/estimator.h"
#include "control/autopilot/policy.h"
#include "control/conversion_exec.h"
#include "control/controller.h"
#include "net/failures.h"
#include "obs/sink.h"
#include "traffic/flow.h"

namespace flattree {

struct AutopilotOptions {
  TrafficMatrixEstimatorOptions estimator{};
  ReconfigPolicyOptions policy{};
  ConversionExecOptions exec{};
  double epoch_s{1.0};  // decision cadence
  // policy.demand_window_s is ignored: the loop overwrites it with the
  // estimator's effective averaging window (half_life / ln 2) so the byte
  // forecast is calibrated to the decay actually in use.
  // autopilot.* metrics (epochs, decisions by kind, conversions by outcome,
  // served-flow counters). Commutative updates only.
  obs::ObsSink sink{};

  void validate() const;
};

// One decision epoch: the traffic served, the telemetry-driven decision at
// the closing boundary, and (if a conversion ran during this epoch) its
// outcome. `estimate`, `assignment_at_decision` and `last_conversion_s` are
// exactly the policy's inputs — the replay contract.
struct EpochRecord {
  std::uint32_t epoch{0};
  double start_s{0.0};
  double end_s{0.0};
  ModeAssignment assignment;  // mode serving this epoch's traffic (at start)
  std::size_t flows{0};
  std::size_t completed{0};
  double bytes{0.0};      // delivered bytes (completed flows)
  double fct_sum_s{0.0};  // aggregate FCT of completed flows
  // Conversion executed during this epoch (decided at the previous
  // boundary), if any.
  bool conversion_executed{false};
  ConversionOutcome conversion_outcome{ConversionOutcome::kRolledBack};
  double conversion_finish_s{0.0};
  // Decision at the closing boundary, with its exact inputs.
  DemandEstimate estimate;
  ModeAssignment assignment_at_decision;
  double last_conversion_s{0.0};
  PolicyDecision decision;
};

struct AutopilotResult {
  std::vector<EpochRecord> epochs;
  std::vector<ExecutionReport> conversions;  // execution order
  std::size_t flows{0};
  std::size_t completed{0};
  double fct_sum_s{0.0};
  std::uint32_t conversions_started{0};
  std::uint32_t conversions_committed{0};  // outcome == kConverted
  ModeAssignment final_assignment;
};

class AutopilotLoop {
 public:
  AutopilotLoop(const Controller& controller, AutopilotOptions options);

  [[nodiscard]] const AutopilotOptions& options() const { return options_; }

  // Runs the closed loop over `flows` for duration_s starting from
  // `initial` (compiled internally). `storm` is the ambient data-plane
  // failure schedule every conversion executes under (empty = calm
  // fabric); `faults` injects control-plane chaos (dead switches, primary
  // kill) into each conversion.
  [[nodiscard]] AutopilotResult run(
      const Workload& flows, const ModeAssignment& initial, double duration_s,
      const FailureSchedule& storm = FailureSchedule{},
      const ConversionFaults& faults = ConversionFaults{}) const;

 private:
  const Controller* controller_;
  AutopilotOptions options_;
};

}  // namespace flattree
