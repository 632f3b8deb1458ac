#include "control/autopilot/estimator.h"

#include <cmath>
#include <stdexcept>
#include <string>

namespace flattree {

void TrafficMatrixEstimatorOptions::validate() const {
  if (std::isnan(half_life_s) || half_life_s <= 0.0) {
    throw std::invalid_argument(
        "TrafficMatrixEstimatorOptions.half_life_s: must be positive");
  }
}

void DemandEstimate::validate() const {
  if (inter_pod.size() != static_cast<std::size_t>(pods) * pods) {
    throw std::invalid_argument("DemandEstimate: matrix shape mismatch");
  }
  if (per_pod.size() != pods) {
    throw std::invalid_argument("DemandEstimate: profile count mismatch");
  }
  for (std::size_t i = 0; i < inter_pod.size(); ++i) {
    if (std::isnan(inter_pod[i]) || inter_pod[i] < 0.0) {
      throw std::invalid_argument(
          "DemandEstimate.inter_pod[" + std::to_string(i / pods) + "][" +
          std::to_string(i % pods) + "]: negative or NaN demand");
    }
  }
  for (std::size_t p = 0; p < per_pod.size(); ++p) {
    const std::string context =
        "DemandEstimate.per_pod[" + std::to_string(p) + "]";
    per_pod[p].validate(context.c_str());
  }
  if (std::isnan(total_bytes) || total_bytes < 0.0) {
    throw std::invalid_argument(
        "DemandEstimate.total_bytes: negative or NaN demand");
  }
}

TrafficMatrixEstimator::TrafficMatrixEstimator(
    const ClosParams& layout, TrafficMatrixEstimatorOptions options)
    : layout_{layout}, options_{options} {
  layout_.validate();
  options_.validate();
  per_rack_ = layout_.servers_per_edge;
  per_pod_ = per_rack_ * layout_.edge_per_pod;
  inter_pod_.assign(static_cast<std::size_t>(layout_.pods) * layout_.pods,
                    0.0);
  per_pod_profile_.assign(layout_.pods, PodTrafficProfile{});
}

void TrafficMatrixEstimator::advance_to(double now_s) {
  if (std::isnan(now_s) || now_s <= t_) return;
  const double factor = std::exp2(-(now_s - t_) / options_.half_life_s);
  for (double& mass : inter_pod_) mass *= factor;
  for (PodTrafficProfile& profile : per_pod_profile_) {
    profile.intra_rack *= factor;
    profile.intra_pod *= factor;
    profile.inter_pod *= factor;
    profile.total_bytes *= factor;
  }
  t_ = now_s;
}

void TrafficMatrixEstimator::fold(std::uint32_t src, std::uint32_t dst,
                                  double bytes) {
  if (bytes <= 0.0 || std::isnan(bytes)) return;
  if (src >= layout_.total_servers() || dst >= layout_.total_servers()) {
    throw std::invalid_argument(
        "TrafficMatrixEstimator: server index out of range");
  }
  const std::uint32_t src_pod = src / per_pod_;
  const std::uint32_t dst_pod = dst / per_pod_;
  inter_pod_[static_cast<std::size_t>(src_pod) * layout_.pods + dst_pod] +=
      bytes;
  const auto credit = [&](PodTrafficProfile& profile) {
    profile.total_bytes += bytes;
    if (src / per_rack_ == dst / per_rack_) {
      profile.intra_rack += bytes;
    } else if (src_pod == dst_pod) {
      profile.intra_pod += bytes;
    } else {
      profile.inter_pod += bytes;
    }
  };
  credit(per_pod_profile_[src_pod]);
  if (dst_pod != src_pod) credit(per_pod_profile_[dst_pod]);
}

void TrafficMatrixEstimator::observe(
    const std::vector<obs::FlowRecord>& records, double now_s) {
  advance_to(now_s);
  for (const obs::FlowRecord& r : records) fold(r.src, r.dst, r.bytes);
}

DemandEstimate TrafficMatrixEstimator::estimate() const {
  DemandEstimate est;
  est.t = t_;
  est.pods = layout_.pods;
  est.inter_pod = inter_pod_;
  est.per_pod = per_pod_profile_;
  est.total_bytes = 0.0;
  for (double mass : inter_pod_) est.total_bytes += mass;
  return est;
}

EstimatorState TrafficMatrixEstimator::state() const {
  return EstimatorState{t_, inter_pod_, per_pod_profile_};
}

void TrafficMatrixEstimator::restore(const EstimatorState& state) {
  if (state.inter_pod.size() != inter_pod_.size() ||
      state.per_pod.size() != per_pod_profile_.size()) {
    throw std::invalid_argument(
        "TrafficMatrixEstimator::restore: state shape mismatch");
  }
  t_ = state.t;
  inter_pod_ = state.inter_pod;
  per_pod_profile_ = state.per_pod;
}

}  // namespace flattree
