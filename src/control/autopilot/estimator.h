// TrafficMatrixEstimator: decayed inter-Pod demand from flow telemetry.
//
// The closed loop's sensor. Both simulators export per-flow telemetry (a
// vector of obs::FlowRecord); this folds it into a decayed byte-mass
// estimate of the inter-Pod traffic matrix plus the per-Pod locality
// profiles the Advisor consumes. Decay is an explicit exponential
// half-life applied at observation time (mass *= 2^(-dt / half_life)), so
// demand that stopped flowing fades out and a diurnal shift shows up in the
// estimate within a few half-lives.
//
// Determinism contract (the autopilot's decisions must be byte-identical
// across --threads 1/2/8): every fold is a serial, ordered reduction — the
// telemetry arrives as a FlowRecord vector in flow order, decay factors
// are pure functions of (t_prev, t_now, half_life), and no wall-clock or
// scheduling-dependent value ever enters the state. Two estimators fed the
// same observation sequence hold bit-identical state — which is also the
// failover story: EstimatorState is plain data a standby can restore() and
// continue from, byte-exact (pinned by
// AutopilotTest.EstimatorStateSurvivesFailover).
#pragma once

#include <cstdint>
#include <vector>

#include "control/advisor.h"
#include "obs/telemetry.h"
#include "topo/params.h"

namespace flattree {

struct TrafficMatrixEstimatorOptions {
  double half_life_s{2.0};  // byte-mass decay half-life
  // Throws std::invalid_argument on a non-positive or NaN half-life.
  void validate() const;
};

// One snapshot of the estimate: decayed byte mass per directed Pod pair
// (row-major pods x pods; the diagonal holds intra-Pod mass, rack-local
// included) plus the advisor-ready locality profiles.
struct DemandEstimate {
  double t{0.0};            // time the estimate was advanced to
  std::uint32_t pods{0};
  std::vector<double> inter_pod;            // pods * pods, row-major
  std::vector<PodTrafficProfile> per_pod;   // decayed, advisor-ready
  double total_bytes{0.0};                  // decayed fabric-wide mass

  [[nodiscard]] double at(std::uint32_t src_pod, std::uint32_t dst_pod) const {
    return inter_pod[src_pod * pods + dst_pod];
  }

  // Rejects negative/NaN mass anywhere (per-field diagnostics via
  // PodTrafficProfile::validate) and shape mismatches. The policy engine
  // validates every estimate it prices — the estimator is upstream of a
  // trust boundary once state crosses a failover.
  void validate() const;
};

// Serializable estimator state for controller failover: plain data, no
// hidden caches. restore() on a fresh estimator reproduces the primary's
// subsequent estimates byte-for-byte.
struct EstimatorState {
  double t{0.0};
  std::vector<double> inter_pod;
  std::vector<PodTrafficProfile> per_pod;
};

class TrafficMatrixEstimator {
 public:
  TrafficMatrixEstimator(const ClosParams& layout,
                         TrafficMatrixEstimatorOptions options = {});

  // Advances the decay clock to `now_s` (no-op when now_s <= the current
  // clock: telemetry from a batch that straddles the boundary never turns
  // time backwards).
  void advance_to(double now_s);

  // advance_to(now_s), then folds the records in order. Records are
  // credited like Advisor profiles: the source Pod always, the destination
  // Pod when different. Incomplete flows contribute the bytes they actually
  // delivered (the packet sim reports partial delivery; the fluid sim
  // reports zero), so a black-holed pair does not inflate demand.
  void observe(const std::vector<obs::FlowRecord>& records, double now_s);

  [[nodiscard]] DemandEstimate estimate() const;
  [[nodiscard]] double now() const { return t_; }
  [[nodiscard]] const ClosParams& layout() const { return layout_; }

  // Failover support: plain-data state out / in.
  [[nodiscard]] EstimatorState state() const;
  void restore(const EstimatorState& state);

 private:
  void fold(std::uint32_t src, std::uint32_t dst, double bytes);

  ClosParams layout_;
  TrafficMatrixEstimatorOptions options_;
  std::uint32_t per_rack_{0};
  std::uint32_t per_pod_{0};
  double t_{0.0};
  std::vector<double> inter_pod_;           // pods * pods row-major
  std::vector<PodTrafficProfile> per_pod_profile_;
};

}  // namespace flattree
