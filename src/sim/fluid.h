// Flow-level fluid simulator.
//
// Large-scale experiments (Figures 6-8) need flow completion times over
// thousands of flows on thousand-server topologies, where packet-level
// simulation is intractable (the paper used htsim on one topology size; we
// use packet-level simulation for the testbed-scale runs and this fluid
// model at scale). The fluid model assumes congestion control converges
// quickly to max-min fair rates at subflow granularity between flow arrival
// and departure events — the standard fluid approximation for
// MPTCP/TCP-fair networks. Each flow is split over the paths its routing
// scheme provides (k subflows for k-shortest-path + MPTCP, one path for
// ECMP + TCP); rates are recomputed by progressive filling at every arrival
// or departure. The recomputation replays the previous event's
// water-filling trace (sim/fluid_incremental.h): bit-for-bit the rates of
// a from-scratch solve_max_min_fill, in O(affected bottleneck levels) per
// event instead of O(network). Per-subflow max-min is cheap enough to
// recompute per event, and its biases apply equally to every topology being
// compared; the more faithful coupled-MPTCP model (solve_mptcp_model in
// lp/mcf.h) embeds an LP and is reserved for the throughput-bound
// experiments.
//
// Dependencies (Flow::depends_on) gate flow release, which is how the
// application phase models (§5.4) express broadcast rounds and barriers.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "net/capacity.h"
#include "net/failures.h"
#include "net/graph.h"
#include "obs/sink.h"
#include "obs/telemetry.h"
#include "routing/path.h"
#include "traffic/flow.h"

namespace flattree {

// Supplies the subflow paths for a flow. Implementations typically wrap a
// PathCache (k-shortest-path routing) or an EcmpRouter (single hashed path).
using PathProvider =
    std::function<std::vector<Path>(NodeId src, NodeId dst,
                                    std::uint32_t flow_index)>;

struct FluidFlowResult {
  bool started{false};
  bool completed{false};
  double start_s{0.0};
  double finish_s{0.0};
  [[nodiscard]] double fct_s() const { return finish_s - start_s; }
};

struct FluidOptions {
  double max_time_s{1e6};  // simulation horizon; unfinished flows reported
  // Observability. When attached the simulator records fluid.* metrics
  // (rate-update iterations, max relative rate delta per update — the
  // convergence residual of the fluid model — FCTs, failure/refresh
  // counters) and emits flow-lifetime spans plus failure/refresh instants,
  // all stamped with simulated time. Disabled (all-null) by default.
  obs::ObsSink sink{};
};

// Coflow completion times over a simulated workload: for each flow group,
// the span from the earliest member start to the latest member finish (the
// application-level metric for shuffle jobs; see Flow::group).
[[nodiscard]] std::vector<CoflowStats> coflow_completion_times(
    const Workload& flows, const std::vector<FluidFlowResult>& results);

// Per-flow telemetry export (obs/telemetry.h): one FlowRecord per workload
// flow, in flow order. Completed flows report their full size and FCT;
// unfinished flows report zero delivered bytes (the fluid model has no
// partial-delivery accounting). `results` must be parallel to `flows`, as
// returned by run()/run_with_schedule(). This is the fluid half of the
// flow-record feed the demand estimator folds; the packet half is
// PacketSim::export_flow_records.
[[nodiscard]] std::vector<obs::FlowRecord> collect_flow_records(
    const Workload& flows, const std::vector<FluidFlowResult>& results);

// Called when the control plane refreshes routing state after a failure or
// recovery event (one repair lag after the event). Receives the currently
// degraded topology (node ids shared with the base graph; the reference
// stays valid until the next refresh or the end of the run) and returns the
// provider all subsequent path lookups use — typically a PathCache over the
// degraded graph, or a CompiledMode cache repaired incrementally via
// Controller::plan_repair.
using RoutingRefresh = std::function<PathProvider(const Graph& degraded)>;

// Observability counters for a scheduled (failure-injected) run.
struct ScheduleRunStats {
  std::uint32_t fail_events{0};
  std::uint32_t recover_events{0};
  std::uint32_t refreshes{0};    // routing-state refreshes performed
  std::uint32_t reroutes{0};     // flows whose path set actually changed
  std::uint32_t black_holed{0};  // flow lookups that found no route
};

class FluidSimulator {
 public:
  FluidSimulator(const Graph& graph, PathProvider provider,
                 FluidOptions options = FluidOptions{});

  // Event-driven FCT simulation for finite flows (bytes > 0).
  [[nodiscard]] std::vector<FluidFlowResult> run(const Workload& flows);

  // run() under a live failure schedule. At each event the failed elements'
  // capacity drops to zero immediately (flows crossing them stall — the
  // data plane breaks at once); `repair_lag_s` later the routing state
  // refreshes: `refresh` supplies a provider over the degraded topology and
  // every unfinished flow is re-pathed through it (flows whose pair is
  // disconnected keep their stalled paths until a recovery event restores a
  // route). Recovery events restore capacity the same way — data plane
  // first, routing one repair lag behind. A null `refresh` keeps the
  // original provider throughout (capacity changes only, no rerouting).
  [[nodiscard]] std::vector<FluidFlowResult> run_with_schedule(
      const Workload& flows, const FailureSchedule& schedule,
      double repair_lag_s, const RoutingRefresh& refresh,
      ScheduleRunStats* stats = nullptr);

  // Steady-state max-min rates (bits/s) for persistent flows: all flows
  // active simultaneously; returns the per-flow rate vector.
  [[nodiscard]] std::vector<double> measure_rates(const Workload& flows);

 private:
  const Graph* graph_;
  LogicalTopology topology_;
  PathProvider provider_;
  FluidOptions options_;
};

}  // namespace flattree
