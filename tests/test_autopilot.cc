#include "control/autopilot/autopilot.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "control/autopilot/estimator.h"
#include "control/autopilot/policy.h"
#include "core/flat_tree.h"
#include "traffic/traces.h"

namespace flattree {
namespace {

constexpr double kInfPast = -std::numeric_limits<double>::infinity();

Controller make_controller() {
  FlatTreeParams params;
  params.clos = ClosParams::testbed();
  params.six_port_per_column = 1;
  params.four_port_per_column = 1;
  ControllerOptions opts;
  opts.count_rules = true;
  opts.delay.controllers = 24;
  opts.k_global = opts.k_local = opts.k_clos = 2;
  return Controller{FlatTree{params}, opts};
}

// One cross-Pod record: server 0 of src_pod to server 0 of dst_pod.
obs::FlowRecord cross_pod(const ClosParams& layout, std::uint32_t src_pod,
                          std::uint32_t dst_pod, double bytes) {
  const std::uint32_t per_pod = layout.servers_per_edge * layout.edge_per_pod;
  obs::FlowRecord rec;
  rec.src = src_pod * per_pod;
  rec.dst = dst_pod * per_pod;
  rec.bytes = bytes;
  rec.completed = true;
  return rec;
}

// A demand estimate that unambiguously wants all-global from all-Clos:
// every directed Pod pair carries heavy cross-Pod mass.
DemandEstimate network_wide_estimate(const ClosParams& layout, double bytes) {
  TrafficMatrixEstimator est{layout, {.half_life_s = 1.0}};
  std::vector<obs::FlowRecord> records;
  for (std::uint32_t p = 0; p < layout.pods; ++p) {
    for (std::uint32_t q = 0; q < layout.pods; ++q) {
      if (p != q) records.push_back(cross_pod(layout, p, q, bytes));
    }
  }
  est.observe(records, 1.0);
  return est.estimate();
}

// --- TrafficMatrixEstimator ------------------------------------------------

TEST(AutopilotTest, EstimatorDecayHalvesMassPerHalfLife) {
  const ClosParams layout = ClosParams::testbed();
  TrafficMatrixEstimator est{layout, {.half_life_s = 2.0}};
  est.observe({cross_pod(layout, 0, 1, 1000.0)}, 0.0);
  EXPECT_DOUBLE_EQ(est.estimate().at(0, 1), 1000.0);

  est.advance_to(2.0);  // exactly one half-life
  EXPECT_DOUBLE_EQ(est.estimate().at(0, 1), 500.0);
  est.advance_to(6.0);  // two more
  EXPECT_DOUBLE_EQ(est.estimate().at(0, 1), 125.0);

  // The per-Pod profiles decay in lockstep with the matrix. A cross-Pod
  // flow is credited to both endpoint Pods' profiles but counts once in
  // the fabric-wide mass.
  const DemandEstimate e = est.estimate();
  EXPECT_DOUBLE_EQ(e.per_pod[0].inter_pod, 125.0);
  EXPECT_DOUBLE_EQ(e.per_pod[1].inter_pod, 125.0);
  EXPECT_DOUBLE_EQ(e.total_bytes, 125.0);
}

TEST(AutopilotTest, EstimatorClockNeverRunsBackwards) {
  const ClosParams layout = ClosParams::testbed();
  TrafficMatrixEstimator est{layout, {.half_life_s = 1.0}};
  est.observe({cross_pod(layout, 0, 1, 64.0)}, 4.0);
  est.advance_to(2.0);  // stale batch boundary: no-op
  EXPECT_DOUBLE_EQ(est.now(), 4.0);
  EXPECT_DOUBLE_EQ(est.estimate().at(0, 1), 64.0);
}

// --- ReconfigPolicy hysteresis edges ---------------------------------------

TEST(AutopilotTest, EmptyTelemetryColdStartHolds) {
  const Controller controller = make_controller();
  const ReconfigPolicy policy{controller, {}};
  TrafficMatrixEstimator est{controller.tree().clos(), {}};
  const CompiledMode current = controller.compile_uniform(PodMode::kClos);

  const PolicyDecision d =
      policy.evaluate(est.estimate(), current, 5.0, kInfPast);
  EXPECT_EQ(d.action, PolicyAction::kHold);
  EXPECT_EQ(d.hold_reason, HoldReason::kColdStart);
  EXPECT_FALSE(d.priced);  // nothing was forecast, nothing was compiled
  EXPECT_EQ(d.target.pod_modes, current.assignment().pod_modes);
}

TEST(AutopilotTest, DwellBoundaryIsExclusive) {
  const Controller controller = make_controller();
  ReconfigPolicyOptions opts;
  opts.min_dwell_s = 3.0;
  opts.min_gain_frac = 0.0;
  opts.gain_cost_multiple = 0.0;
  const ReconfigPolicy policy{controller, opts};
  const CompiledMode current = controller.compile_uniform(PodMode::kClos);
  const DemandEstimate estimate =
      network_wide_estimate(controller.tree().clos(), 1e9);

  // Inside the window (now - last < dwell): held, however good the move.
  const PolicyDecision held =
      policy.evaluate(estimate, current, 12.0, 9.0 + 1e-9);
  EXPECT_EQ(held.action, PolicyAction::kHold);
  EXPECT_EQ(held.hold_reason, HoldReason::kDwell);
  EXPECT_TRUE(held.priced);  // the decision log still carries gain/cost

  // Exactly at the boundary (now - last == dwell): the gate is strict `<`,
  // so the conversion goes through.
  const PolicyDecision fired = policy.evaluate(estimate, current, 12.0, 9.0);
  EXPECT_EQ(fired.action, PolicyAction::kConvert);
  EXPECT_EQ(fired.hold_reason, HoldReason::kNone);
}

TEST(AutopilotTest, DemandStepExactlyAtGainThreshold) {
  const Controller controller = make_controller();
  const CompiledMode current = controller.compile_uniform(PodMode::kClos);
  const DemandEstimate estimate =
      network_wide_estimate(controller.tree().clos(), 1e9);

  // First measure the priced gain with the floors at zero.
  ReconfigPolicyOptions base;
  base.min_dwell_s = 0.0;
  base.min_gain_frac = 0.0;
  base.gain_cost_multiple = 0.0;
  const PolicyDecision probe = ReconfigPolicy{controller, base}.evaluate(
      estimate, current, 10.0, kInfPast);
  ASSERT_EQ(probe.action, PolicyAction::kConvert);
  ASSERT_GT(probe.predicted_gain_s, 0.0);
  const double frac_at_gain =
      probe.predicted_gain_s / probe.predicted_current_fct_s;

  // A gain floor one ulp below the gain converts; one ulp above holds.
  // The gate is strict `<`: a demand step landing exactly on the threshold
  // fires (the boundary belongs to the conversion, pinned here from both
  // sides).
  ReconfigPolicyOptions below = base;
  below.min_gain_frac = std::nextafter(frac_at_gain, 0.0);
  const PolicyDecision fired = ReconfigPolicy{controller, below}.evaluate(
      estimate, current, 10.0, kInfPast);
  EXPECT_EQ(fired.action, PolicyAction::kConvert);

  ReconfigPolicyOptions above = base;
  above.min_gain_frac = std::nextafter(frac_at_gain, 1.0);
  const PolicyDecision held = ReconfigPolicy{controller, above}.evaluate(
      estimate, current, 10.0, kInfPast);
  EXPECT_EQ(held.action, PolicyAction::kHold);
  EXPECT_EQ(held.hold_reason, HoldReason::kGain);
}

TEST(AutopilotTest, OscillatingDemandBoundedByDwell) {
  const Controller controller = make_controller();
  const ClosParams& layout = controller.tree().clos();
  ReconfigPolicyOptions opts;
  opts.min_dwell_s = 3.0;
  opts.min_gain_frac = 0.0;
  opts.gain_cost_multiple = 0.0;
  const ReconfigPolicy policy{controller, opts};

  // Pod-local demand: every Pod talks only to itself, across racks.
  TrafficMatrixEstimator local_est{layout, {.half_life_s = 1.0}};
  {
    std::vector<obs::FlowRecord> records;
    const std::uint32_t per_rack = layout.servers_per_edge;
    for (std::uint32_t p = 0; p < layout.pods; ++p) {
      obs::FlowRecord rec = cross_pod(layout, p, p, 1e9);
      rec.dst += per_rack;  // cross-rack, same Pod
      records.push_back(rec);
    }
    local_est.observe(records, 1.0);
  }
  const DemandEstimate local = local_est.estimate();
  const DemandEstimate global = network_wide_estimate(layout, 1e9);

  // Flip the demand every 1 s for 12 s; conversions commit instantly (the
  // adversarial best case for thrash). The dwell alone must keep any two
  // conversions at least min_dwell_s apart.
  CompiledMode current = controller.compile_uniform(PodMode::kClos);
  double last_conversion = kInfPast;
  std::uint32_t conversions = 0;
  double prev_fire = kInfPast;
  for (std::uint32_t epoch = 1; epoch <= 12; ++epoch) {
    const double now = static_cast<double>(epoch);
    const DemandEstimate& estimate = epoch % 2 == 0 ? global : local;
    const PolicyDecision d =
        policy.evaluate(estimate, current, now, last_conversion);
    if (d.action != PolicyAction::kConvert) continue;
    ++conversions;
    if (prev_fire > kInfPast) {
      EXPECT_GE(now - prev_fire, opts.min_dwell_s)
          << "conversions closer than the dwell window";
    }
    prev_fire = now;
    last_conversion = now;
    current = controller.compile(d.target);
  }
  EXPECT_GE(conversions, 1u);  // the loop did react
  EXPECT_LE(conversions, 4u);  // 12 s / 3 s dwell
}

// --- AutopilotLoop ---------------------------------------------------------

AutopilotResult run_small_loop(const Controller& controller) {
  TraceParams web = TraceParams::web();
  TraceParams hadoop = TraceParams::hadoop1();
  web.flows_per_s = hadoop.flows_per_s = 200.0;
  web.mean_flow_bytes = hadoop.mean_flow_bytes = 4e6;
  ModulatedTraceParams trace;
  trace.low = web;
  trace.high = hadoop;
  trace.duration_s = 6.0;
  trace.seed = 7;
  const Workload flows =
      generate_modulated_trace(controller.tree().clos(), trace);

  AutopilotOptions opts;
  opts.epoch_s = 1.0;
  opts.estimator.half_life_s = 1.0;
  opts.policy.min_dwell_s = 1.5;
  opts.policy.min_gain_frac = 0.05;
  opts.policy.flows_per_entry = 6;
  opts.policy.horizon_s = 2.0;
  opts.exec.stage_checkpoints = true;
  opts.exec.seed = 7;
  const AutopilotLoop loop{controller, opts};
  return loop.run(flows,
                  ModeAssignment::uniform(controller.tree().clos().pods,
                                          PodMode::kClos),
                  trace.duration_s);
}

TEST(AutopilotTest, DecisionLogReplays) {
  const Controller controller = make_controller();
  const AutopilotResult result = run_small_loop(controller);
  ASSERT_FALSE(result.epochs.empty());

  // Rebuild the policy from the loop's (derived) options and re-evaluate
  // every logged decision from its recorded inputs: the replay must match
  // the log bit-for-bit.
  AutopilotOptions opts;
  opts.epoch_s = 1.0;
  opts.estimator.half_life_s = 1.0;
  opts.policy.min_dwell_s = 1.5;
  opts.policy.min_gain_frac = 0.05;
  opts.policy.flows_per_entry = 6;
  opts.policy.horizon_s = 2.0;
  opts.exec.stage_checkpoints = true;
  opts.exec.seed = 7;
  const AutopilotLoop configured{controller, opts};
  const ReconfigPolicy policy{controller, configured.options().policy};

  for (const EpochRecord& rec : result.epochs) {
    const CompiledMode current =
        controller.compile(rec.assignment_at_decision);
    const PolicyDecision replay = policy.evaluate(
        rec.estimate, current, rec.end_s, rec.last_conversion_s);
    EXPECT_EQ(replay.action, rec.decision.action) << "epoch " << rec.epoch;
    EXPECT_EQ(replay.hold_reason, rec.decision.hold_reason)
        << "epoch " << rec.epoch;
    EXPECT_EQ(replay.target.pod_modes, rec.decision.target.pod_modes)
        << "epoch " << rec.epoch;
    EXPECT_EQ(replay.predicted_current_fct_s,
              rec.decision.predicted_current_fct_s)
        << "epoch " << rec.epoch;
    EXPECT_EQ(replay.predicted_target_fct_s,
              rec.decision.predicted_target_fct_s)
        << "epoch " << rec.epoch;
    EXPECT_EQ(replay.predicted_gain_s, rec.decision.predicted_gain_s)
        << "epoch " << rec.epoch;
    EXPECT_EQ(replay.conversion_cost_s, rec.decision.conversion_cost_s)
        << "epoch " << rec.epoch;
    EXPECT_EQ(replay.priced, rec.decision.priced) << "epoch " << rec.epoch;
  }
}

TEST(AutopilotTest, LoopIsDeterministic) {
  const Controller controller = make_controller();
  const AutopilotResult a = run_small_loop(controller);
  const AutopilotResult b = run_small_loop(controller);
  ASSERT_EQ(a.epochs.size(), b.epochs.size());
  EXPECT_EQ(a.fct_sum_s, b.fct_sum_s);
  EXPECT_EQ(a.conversions_started, b.conversions_started);
  EXPECT_EQ(a.final_assignment.pod_modes, b.final_assignment.pod_modes);
  for (std::size_t i = 0; i < a.epochs.size(); ++i) {
    EXPECT_EQ(a.epochs[i].fct_sum_s, b.epochs[i].fct_sum_s) << "epoch " << i;
    EXPECT_EQ(a.epochs[i].decision.action, b.epochs[i].decision.action)
        << "epoch " << i;
  }
}

}  // namespace
}  // namespace flattree
