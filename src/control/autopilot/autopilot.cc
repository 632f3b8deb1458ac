#include "control/autopilot/autopilot.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <set>
#include <stdexcept>
#include <utility>

#include "sim/fluid.h"

namespace flattree {

void AutopilotOptions::validate() const {
  estimator.validate();
  policy.validate();
  if (std::isnan(epoch_s) || epoch_s <= 0.0) {
    throw std::invalid_argument("AutopilotOptions.epoch_s: must be positive");
  }
}

AutopilotLoop::AutopilotLoop(const Controller& controller,
                             AutopilotOptions options)
    : controller_{&controller}, options_{std::move(options)} {
  options_.policy.demand_window_s =
      options_.estimator.half_life_s / std::log(2.0);
  options_.validate();
}

namespace {

// Unique server pairs of a flow list, sorted — the tracked-pair set for the
// executor (run_fluid_with_conversion serves routes only for tracked pairs,
// so every pair the epoch's traffic uses must appear).
std::vector<std::pair<NodeId, NodeId>> pairs_of(const Workload& flows) {
  std::set<std::pair<NodeId, NodeId>> unique;
  for (const Flow& f : flows) {
    if (f.src != f.dst) unique.emplace(f.src, f.dst);
  }
  return {unique.begin(), unique.end()};
}

}  // namespace

std::vector<Workload> epoch_buckets(const Workload& flows, double duration_s,
                                    double epoch_s) {
  const auto epochs =
      static_cast<std::size_t>(std::ceil(duration_s / epoch_s - 1e-12));
  std::vector<Workload> bucket(std::max<std::size_t>(1, epochs));
  for (const Flow& f : flows) {
    const auto e = static_cast<std::size_t>(f.start_s / epoch_s);
    bucket[std::min(e, bucket.size() - 1)].push_back(f);
  }
  return bucket;
}

AutopilotResult AutopilotLoop::run(const Workload& flows,
                                   const ModeAssignment& initial,
                                   double duration_s,
                                   const FailureSchedule& storm,
                                   const ConversionFaults& faults) const {
  if (std::isnan(duration_s) || duration_s <= 0.0) {
    throw std::invalid_argument("AutopilotLoop::run: duration must be positive");
  }
  const ClosParams& layout = controller_->tree().clos();
  if (initial.pod_modes.size() != layout.pods) {
    throw std::invalid_argument(
        "AutopilotLoop::run: initial assignment Pod count != fabric");
  }

  obs::MetricsRegistry* mx = options_.sink.metrics();
  obs::Counter* m_epochs =
      mx != nullptr ? &mx->counter("autopilot.epochs") : nullptr;
  obs::Counter* m_flows =
      mx != nullptr ? &mx->counter("autopilot.flows.served") : nullptr;
  obs::Counter* m_done =
      mx != nullptr ? &mx->counter("autopilot.flows.completed") : nullptr;
  obs::Counter* m_convert =
      mx != nullptr ? &mx->counter("autopilot.decisions.convert") : nullptr;
  obs::Counter* m_hold =
      mx != nullptr ? &mx->counter("autopilot.decisions.hold") : nullptr;
  obs::Counter* m_committed =
      mx != nullptr ? &mx->counter("autopilot.conversions.converted") : nullptr;
  obs::Counter* m_not_committed =
      mx != nullptr ? &mx->counter("autopilot.conversions.not_converted")
                    : nullptr;

  const std::vector<Workload> bucket =
      epoch_buckets(flows, duration_s, options_.epoch_s);

  TrafficMatrixEstimator estimator{layout, options_.estimator};
  const ReconfigPolicy policy{*controller_, options_.policy};

  CompiledMode current = controller_->compile(initial);
  double last_conversion_s = -std::numeric_limits<double>::infinity();
  bool pending = false;
  ModeAssignment pending_target;

  AutopilotResult result;
  for (std::size_t e = 0; e < bucket.size(); ++e) {
    EpochRecord rec;
    rec.epoch = static_cast<std::uint32_t>(e);
    rec.start_s = static_cast<double>(e) * options_.epoch_s;
    rec.end_s = std::min(rec.start_s + options_.epoch_s, duration_s);
    rec.assignment = current.assignment();
    const Workload& epoch_flows = bucket[e];
    rec.flows = epoch_flows.size();

    FluidOptions fluid_opts;
    fluid_opts.sink = options_.sink;
    std::vector<FluidFlowResult> served;
    if (pending) {
      // Execute the conversion decided at the previous boundary while this
      // epoch's traffic rides through the transients.
      const CompiledMode target = controller_->compile(pending_target);
      ConversionExecOptions exec_opts = options_.exec;
      // Decorrelate control-channel draws across conversions.
      exec_opts.seed = options_.exec.seed + result.conversions_started;
      const ConversionExecutor executor{*controller_, exec_opts};
      const std::vector<std::pair<NodeId, NodeId>> pairs =
          pairs_of(epoch_flows);
      ExecutionReport report = executor.execute_under_storm(
          current, target, pairs, storm, faults, rec.start_s);
      if (!epoch_flows.empty()) {
        served = run_fluid_with_conversion(report, epoch_flows, fluid_opts);
      }
      rec.conversion_executed = true;
      rec.conversion_outcome = report.outcome;
      rec.conversion_finish_s = report.finish_s;
      last_conversion_s = report.finish_s;
      ++result.conversions_started;
      if (report.outcome == ConversionOutcome::kConverted) {
        current = controller_->compile(target.assignment());
        ++result.conversions_committed;
        obs::add(m_committed);
      } else {
        // Partial / rolled back: the fabric sits at the last checkpoint.
        current = controller_->compile(report.terminal_assignment);
        obs::add(m_not_committed);
      }
      result.conversions.push_back(std::move(report));
      pending = false;
    } else if (!epoch_flows.empty()) {
      FluidSimulator sim{current.graph(), mode_provider(current), fluid_opts};
      served = sim.run(epoch_flows);
    }

    for (std::size_t i = 0; i < served.size(); ++i) {
      if (!served[i].completed) continue;
      ++rec.completed;
      rec.bytes += epoch_flows[i].bytes;
      rec.fct_sum_s += served[i].fct_s();
    }
    obs::add(m_epochs);
    obs::add(m_flows, rec.flows);
    obs::add(m_done, rec.completed);

    // Fold this epoch's telemetry, then decide at the closing boundary.
    estimator.observe(collect_flow_records(epoch_flows, served), rec.end_s);
    rec.estimate = estimator.estimate();
    rec.assignment_at_decision = current.assignment();
    rec.last_conversion_s = last_conversion_s;
    rec.decision =
        policy.evaluate(rec.estimate, current, rec.end_s, last_conversion_s);
    if (rec.decision.action == PolicyAction::kConvert) {
      pending = true;
      pending_target = rec.decision.target;
      obs::add(m_convert);
    } else {
      obs::add(m_hold);
    }

    result.flows += rec.flows;
    result.completed += rec.completed;
    result.fct_sum_s += rec.fct_sum_s;
    result.epochs.push_back(std::move(rec));
  }
  result.final_assignment = current.assignment();
  return result;
}

}  // namespace flattree
