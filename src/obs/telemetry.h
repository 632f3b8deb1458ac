// Per-flow telemetry: the record the closed-loop control plane consumes.
//
// The metrics registry (obs/metrics.h) aggregates by *name*, which is the
// right shape for fabric-wide counters but not for the per-server-pair
// bytes a demand estimator folds — a string per pair would allocate on the
// hot path and serialize the registry mutex. So simulators export plain
// FlowRecords instead (one per flow: endpoints, delivered bytes, FCT), in
// flow order, and the consumer folds the vector serially in that order:
// a fixed record sequence always yields identical bytes.
//
// Producers: collect_flow_records (sim/fluid.h) for the fluid simulator,
// PacketSim::export_flow_records for the packet simulator. Consumer:
// TrafficMatrixEstimator::observe (control/autopilot/estimator.h).
#pragma once

#include <cstdint>

namespace flattree::obs {

// One flow's telemetry, as both simulators report it. `src`/`dst` are
// global server indices (the NodeId values of every realized graph);
// `bytes` is what the transport actually delivered (acked bytes for the
// packet sim, the flow size for a completed fluid flow).
struct FlowRecord {
  std::uint32_t src{0};
  std::uint32_t dst{0};
  double bytes{0.0};
  double start_s{0.0};
  double fct_s{0.0};     // meaningful only when completed
  bool completed{false};
};

}  // namespace flattree::obs
