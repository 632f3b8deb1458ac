// Path-based multi-commodity-flow throughput models (§5.1 methodology).
//
// Each commodity (flow) is given a fixed set of candidate paths (from
// k-shortest-path routing); the model chooses per-path rates subject to
// directed-edge capacities. Two LP objectives match the paper exactly:
//
//   "LP minimum"  maximize t  s.t.  sum of a flow's path rates >= t
//                 (ideal load balancing; the paper then stops allocating
//                 residual bandwidth, so every flow's rate is exactly t*)
//   "LP average"  maximize the total (equivalently average) rate
//                 (best utilization; can starve flows to zero)
//
// A third allocator, progressive filling at subflow granularity, is the
// scalable stand-in used by the fluid simulator and by full-scale runs: it
// is exact max-min over subflows and mirrors what per-path congestion
// control converges to.
#pragma once

#include <cstdint>
#include <vector>

#include "lp/simplex.h"

namespace flattree {

struct McfCommodity {
  // Each path is a list of directed-edge indices into McfInstance::capacity.
  std::vector<std::vector<std::uint32_t>> paths;
};

struct McfInstance {
  std::vector<double> capacity;  // per directed edge
  std::vector<McfCommodity> commodities;
};

struct McfResult {
  bool feasible{false};
  double min_rate{0.0};
  double avg_rate{0.0};
  std::vector<double> flow_rate;                // per commodity
  std::vector<std::vector<double>> path_rates;  // per commodity, per path
};

// LP: maximize the minimum flow rate (all flows end up at exactly t*).
[[nodiscard]] McfResult solve_lp_min(const McfInstance& instance,
                                     const SimplexSolver& solver = SimplexSolver{});

// LP: maximize the total rate.
[[nodiscard]] McfResult solve_lp_avg(const McfInstance& instance,
                                     const SimplexSolver& solver = SimplexSolver{});

// Progressive filling: every subflow (commodity, path) ramps up at the same
// rate; a subflow freezes when any edge it crosses saturates. Exact max-min
// over subflows; a flow's rate is the sum of its subflow rates. O(E^2) in
// the number of distinct saturated edges.
//
// Note: at subflow granularity extra paths always attract extra traffic,
// including long detours that waste capacity — which is NOT how coupled
// MPTCP behaves. Use it as an optimal-routing throughput proxy; use
// solve_mptcp_model as the MPTCP model.
[[nodiscard]] McfResult solve_max_min_fill(const McfInstance& instance);

// Fluid model of k-shortest-path routing + coupled MPTCP, matching the
// empirical behaviour in §5.1: congestion-aware splitting drives every flow
// to (at least) the max-min fair rate — the LP-minimum allocation with
// optimal path splits — and congestion control then opportunistically
// consumes residual capacity where it exists (unlike LP-minimum, which
// stops). Computed as solve_lp_min followed by progressive filling on the
// residual capacities. Average throughput therefore lands between the
// LP-minimum and LP-average bounds, and larger k helps by enlarging the
// LP's split options — exactly the Figure 6 shape.
[[nodiscard]] McfResult solve_mptcp_model(
    const McfInstance& instance,
    const SimplexSolver& solver = SimplexSolver{});

}  // namespace flattree
