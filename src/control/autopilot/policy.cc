#include "control/autopilot/policy.h"

#include <algorithm>
#include <cmath>
#include <optional>
#include <stdexcept>
#include <vector>

#include "sim/fluid.h"

namespace flattree {
namespace {

void check_nonneg(double value, const char* field) {
  if (std::isnan(value) || value < 0.0) {
    throw std::invalid_argument(std::string("ReconfigPolicyOptions.") + field +
                                ": negative or NaN");
  }
}

void check_pos(double value, const char* field) {
  if (std::isnan(value) || value <= 0.0) {
    throw std::invalid_argument(std::string("ReconfigPolicyOptions.") + field +
                                ": must be positive");
  }
}

}  // namespace

void ReconfigPolicyOptions::validate() const {
  advisor.validate();
  check_nonneg(min_dwell_s, "min_dwell_s");
  check_nonneg(min_gain_frac, "min_gain_frac");
  check_nonneg(gain_cost_multiple, "gain_cost_multiple");
  check_nonneg(min_total_bytes, "min_total_bytes");
  check_nonneg(idle_pod_bytes, "idle_pod_bytes");
  check_pos(demand_window_s, "demand_window_s");
  check_pos(horizon_s, "horizon_s");
  if (flows_per_entry == 0) {
    throw std::invalid_argument(
        "ReconfigPolicyOptions.flows_per_entry: must be positive");
  }
}

const char* to_string(PolicyAction action) {
  switch (action) {
    case PolicyAction::kHold:
      return "hold";
    case PolicyAction::kConvert:
      return "convert";
  }
  return "?";
}

const char* to_string(HoldReason reason) {
  switch (reason) {
    case HoldReason::kNone:
      return "none";
    case HoldReason::kColdStart:
      return "cold_start";
    case HoldReason::kSameMode:
      return "same_mode";
    case HoldReason::kDwell:
      return "dwell";
    case HoldReason::kGain:
      return "gain";
  }
  return "?";
}

ReconfigPolicy::ReconfigPolicy(const Controller& controller,
                               ReconfigPolicyOptions options)
    : controller_{&controller}, options_{options} {
  options_.validate();
}

Workload ReconfigPolicy::synthesize_workload(
    const DemandEstimate& estimate) const {
  const ClosParams& layout = controller_->tree().clos();
  const std::uint32_t per_rack = layout.servers_per_edge;
  const std::uint32_t per_pod = per_rack * layout.edge_per_pod;
  // Decayed mass approximates the bytes seen over the estimator's effective
  // window; rate * horizon is the byte forecast the pricing runs carry.
  const double forecast = options_.horizon_s / options_.demand_window_s;

  // Flow budget: flows_per_entry * active entries, allocated to each entry
  // in proportion to its demand mass (minimum one). A fixed per-entry count
  // would let the many light cross-Pod entries outnumber a few heavy
  // diagonal ones, manufacturing core congestion the estimate never saw and
  // hiding the intra-Pod congestion it did — the forecast would
  // systematically misrank Local against Global.
  std::uint32_t active = 0;
  double total_mass = 0.0;
  for (std::uint32_t p = 0; p < estimate.pods; ++p) {
    for (std::uint32_t q = 0; q < estimate.pods; ++q) {
      if (estimate.at(p, q) > 0.0) {
        ++active;
        total_mass += estimate.at(p, q);
      }
    }
  }
  const double budget =
      static_cast<double>(options_.flows_per_entry) * active;

  Workload flows;
  for (std::uint32_t p = 0; p < estimate.pods; ++p) {
    for (std::uint32_t q = 0; q < estimate.pods; ++q) {
      const double mass = estimate.at(p, q);
      if (!(mass > 0.0)) continue;
      const std::uint32_t n = static_cast<std::uint32_t>(std::max<long long>(
          1, std::llround(budget * mass / total_mass)));
      const double bytes_per_flow = mass * forecast / n;
      if (p != q) {
        for (std::uint32_t j = 0; j < n; ++j) {
          Flow f;
          f.src = p * per_pod + j % per_pod;
          f.dst = q * per_pod + (j + per_rack) % per_pod;
          f.bytes = bytes_per_flow;
          flows.push_back(f);
        }
        continue;
      }
      // Diagonal entry: split rack-local vs cross-rack per the Pod's own
      // locality profile, placing flows so they actually exercise (or skip)
      // the intra-rack hop.
      const PodTrafficProfile& profile = estimate.per_pod[p];
      const double local_mass = profile.intra_rack + profile.intra_pod;
      const double rack_share =
          local_mass > 0.0 ? profile.intra_rack / local_mass : 0.0;
      for (std::uint32_t j = 0; j < n; ++j) {
        Flow f;
        // First round(rack_share * n) flows are rack-local; a one-rack-wide
        // layout (per_rack == 1) cannot host a rack-local pair, so
        // everything goes cross-rack there.
        const bool rack_local =
            per_rack >= 2 && j < static_cast<std::uint32_t>(std::llround(
                                     rack_share * static_cast<double>(n)));
        if (rack_local) {
          f.src = p * per_pod + j % per_rack;
          f.dst = p * per_pod + (j + 1) % per_rack;
        } else if (layout.edge_per_pod >= 2) {
          const std::uint32_t r = j % layout.edge_per_pod;
          f.src = p * per_pod + r * per_rack + j % per_rack;
          f.dst = p * per_pod + ((r + 1) % layout.edge_per_pod) * per_rack +
                  j % per_rack;
        } else {
          f.src = p * per_pod + j % per_rack;
          f.dst = p * per_pod + (j + 1) % per_rack;
        }
        if (f.src == f.dst) continue;  // degenerate single-server layout
        f.bytes = bytes_per_flow;
        flows.push_back(f);
      }
    }
  }
  return flows;
}

double ReconfigPolicy::aggregate_fct(const CompiledMode& mode,
                                     const Workload& flows) const {
  if (flows.empty()) return 0.0;
  FluidSimulator sim{mode.graph(), mode_provider(mode)};
  const std::vector<FluidFlowResult> results = sim.run(flows);
  double total = 0.0;
  for (const FluidFlowResult& r : results) {
    if (r.completed) total += r.fct_s();
  }
  return total;
}

PolicyDecision ReconfigPolicy::evaluate(const DemandEstimate& estimate,
                                        const CompiledMode& current,
                                        double now_s,
                                        double last_conversion_s) const {
  estimate.validate();
  const ClosParams& layout = controller_->tree().clos();
  if (estimate.pods != layout.pods) {
    throw std::invalid_argument(
        "ReconfigPolicy::evaluate: estimate Pod count != fabric Pod count");
  }

  PolicyDecision decision;
  decision.target = current.assignment();

  // Cold start: an empty (or nearly empty) estimate recommends nothing.
  if (estimate.total_bytes < options_.min_total_bytes) {
    decision.hold_reason = HoldReason::kColdStart;
    return decision;
  }

  // Advisor recommendation from the decayed locality profiles. Pods without
  // meaningful demand keep their current mode — an idle Pod must not flap
  // between defaults as its residual mass decays.
  ModeAssignment advised = current.assignment();
  for (std::uint32_t p = 0; p < estimate.pods; ++p) {
    const PodTrafficProfile& profile = estimate.per_pod[p];
    if (profile.total_bytes < options_.idle_pod_bytes) continue;
    advised.pod_modes[p] = profile.recommended(options_.advisor);
  }
  decision.target = advised;

  // Candidate set: the advisor's per-Pod call plus the three uniform
  // endpoints of the convertibility spectrum. The advisor is a locality
  // heuristic; the fluid forecast is the arbiter, and the uniform
  // candidates keep one mis-profiled Pod from locking the fabric out of a
  // better global optimum. Order fixes the deterministic tie-break: the
  // advisor's target wins ties, then Clos < Local < Global.
  std::vector<ModeAssignment> candidates;
  candidates.push_back(advised);
  for (PodMode mode :
       {PodMode::kClos, PodMode::kLocal, PodMode::kGlobal}) {
    candidates.push_back(ModeAssignment::uniform(layout.pods, mode));
  }
  std::erase_if(candidates, [&current](const ModeAssignment& a) {
    return a.pod_modes == current.assignment().pod_modes;
  });
  for (std::size_t i = 1; i < candidates.size();) {
    bool dup = false;
    for (std::size_t j = 0; j < i; ++j) {
      if (candidates[j].pod_modes == candidates[i].pod_modes) dup = true;
    }
    if (dup) {
      candidates.erase(candidates.begin() + static_cast<std::ptrdiff_t>(i));
    } else {
      ++i;
    }
  }
  if (candidates.empty()) {
    decision.hold_reason = HoldReason::kSameMode;
    return decision;
  }

  // Price every candidate on the forecasted workload; strict improvement
  // keeps the first-listed winner on ties.
  const Workload forecast = synthesize_workload(estimate);
  decision.predicted_current_fct_s = aggregate_fct(current, forecast);
  std::optional<CompiledMode> best;
  for (const ModeAssignment& assignment : candidates) {
    CompiledMode candidate = controller_->compile(assignment);
    const double fct = aggregate_fct(candidate, forecast);
    if (!best.has_value() || fct < decision.predicted_target_fct_s) {
      decision.predicted_target_fct_s = fct;
      decision.target = assignment;
      best.emplace(std::move(candidate));
    }
  }
  decision.predicted_gain_s =
      decision.predicted_current_fct_s - decision.predicted_target_fct_s;
  decision.conversion_cost_s =
      controller_->plan_conversion(current, *best).total_s();
  decision.priced = true;

  // Hysteresis gates, dwell first: a conversion inside the dwell window is
  // rejected no matter how good it looks.
  if (now_s - last_conversion_s < options_.min_dwell_s) {
    decision.hold_reason = HoldReason::kDwell;
    return decision;
  }
  if (options_.require_positive_gain) {
    const double gain_floor = std::max(
        options_.gain_cost_multiple * decision.conversion_cost_s,
        options_.min_gain_frac * decision.predicted_current_fct_s);
    if (decision.predicted_gain_s < gain_floor) {
      decision.hold_reason = HoldReason::kGain;
      return decision;
    }
  }

  decision.action = PolicyAction::kConvert;
  decision.hold_reason = HoldReason::kNone;
  return decision;
}

}  // namespace flattree
