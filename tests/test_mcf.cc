#include "lp/mcf.h"

#include <gtest/gtest.h>

#include "lp/throughput.h"
#include "net/capacity.h"
#include "routing/ksp.h"
#include "topo/clos.h"

namespace flattree {
namespace {

// Two flows share one unit-capacity edge.
McfInstance shared_edge_instance() {
  McfInstance inst;
  inst.capacity = {1.0};
  inst.commodities.resize(2);
  inst.commodities[0].paths = {{0}};
  inst.commodities[1].paths = {{0}};
  return inst;
}

TEST(McfLpMin, SharedEdgeSplitsEvenly) {
  const McfResult r = solve_lp_min(shared_edge_instance());
  ASSERT_TRUE(r.feasible);
  EXPECT_NEAR(r.min_rate, 0.5, 1e-7);
  EXPECT_NEAR(r.avg_rate, 0.5, 1e-7);  // LP-min allocates no residual
}

TEST(McfLpAvg, SharedEdgeTotalIsCapacity) {
  const McfResult r = solve_lp_avg(shared_edge_instance());
  ASSERT_TRUE(r.feasible);
  EXPECT_NEAR(r.avg_rate * 2, 1.0, 1e-7);
}

TEST(McfFill, SharedEdgeSplitsEvenly) {
  const McfResult r = solve_max_min_fill(shared_edge_instance());
  EXPECT_NEAR(r.flow_rate[0], 0.5, 1e-9);
  EXPECT_NEAR(r.flow_rate[1], 0.5, 1e-9);
}

// Classic max-min example: flows A(e0), B(e0,e1), C(e1); cap(e0)=1,
// cap(e1)=2. Max-min rates: A=B=0.5, C=1.5.
McfInstance chain_instance() {
  McfInstance inst;
  inst.capacity = {1.0, 2.0};
  inst.commodities.resize(3);
  inst.commodities[0].paths = {{0}};
  inst.commodities[1].paths = {{0, 1}};
  inst.commodities[2].paths = {{1}};
  return inst;
}

TEST(McfFill, ProgressiveFillingChain) {
  const McfResult r = solve_max_min_fill(chain_instance());
  EXPECT_NEAR(r.flow_rate[0], 0.5, 1e-9);
  EXPECT_NEAR(r.flow_rate[1], 0.5, 1e-9);
  EXPECT_NEAR(r.flow_rate[2], 1.5, 1e-9);
}

TEST(McfLpMin, ChainMaxMinObjective) {
  const McfResult r = solve_lp_min(chain_instance());
  ASSERT_TRUE(r.feasible);
  EXPECT_NEAR(r.min_rate, 0.5, 1e-7);
}

TEST(McfLpAvg, ChainMaximizesUtilization) {
  // LP average starves B: A=1, C=2, B=0 -> total 3.
  const McfResult r = solve_lp_avg(chain_instance());
  ASSERT_TRUE(r.feasible);
  EXPECT_NEAR(r.avg_rate * 3, 3.0, 1e-7);
  EXPECT_NEAR(r.flow_rate[1], 0.0, 1e-7);
}

// Multipath: one flow with two disjoint unit paths reaches rate 2.
TEST(McfAll, MultipathAggregates) {
  McfInstance inst;
  inst.capacity = {1.0, 1.0};
  inst.commodities.resize(1);
  inst.commodities[0].paths = {{0}, {1}};
  EXPECT_NEAR(solve_lp_min(inst).min_rate, 2.0, 1e-7);
  EXPECT_NEAR(solve_lp_avg(inst).avg_rate, 2.0, 1e-7);
  EXPECT_NEAR(solve_max_min_fill(inst).flow_rate[0], 2.0, 1e-9);
}

TEST(McfLpMin, LpSplitBeatsSubflowFill) {
  // LP-min can shift load between paths; subflow filling cannot. Flow A has
  // paths {e0} and {e1}; flow B only {e0}. cap = 1 each.
  // Fill: e0 splits 0.5/0.5, A also gets e1 full: A=1.5, B=0.5.
  // LP-min: A can vacate e0 -> A=1 (e1), B=1 (e0): min = 1.
  McfInstance inst;
  inst.capacity = {1.0, 1.0};
  inst.commodities.resize(2);
  inst.commodities[0].paths = {{0}, {1}};
  inst.commodities[1].paths = {{0}};
  const McfResult lp = solve_lp_min(inst);
  const McfResult fill = solve_max_min_fill(inst);
  EXPECT_NEAR(lp.min_rate, 1.0, 1e-7);
  EXPECT_NEAR(fill.flow_rate[1], 0.5, 1e-9);
  EXPECT_GE(lp.min_rate, fill.min_rate - 1e-9);  // LP-min dominates fill min
}

// ---- coupled-MPTCP model (LP-min base + residual filling) ------------------

TEST(McfMptcpModel, DominatesLpMin) {
  const McfResult mptcp = solve_mptcp_model(chain_instance());
  const McfResult lp_min = solve_lp_min(chain_instance());
  ASSERT_TRUE(mptcp.feasible);
  // Every flow gets at least the max-min fair rate...
  EXPECT_GE(mptcp.min_rate, lp_min.min_rate - 1e-6);
  // ...and residual capacity is consumed: flow C rides the slack on e1.
  EXPECT_GT(mptcp.avg_rate, lp_min.avg_rate + 0.1);
}

TEST(McfMptcpModel, BoundedByLpAvg) {
  const McfResult mptcp = solve_mptcp_model(chain_instance());
  const McfResult lp_avg = solve_lp_avg(chain_instance());
  EXPECT_LE(mptcp.avg_rate, lp_avg.avg_rate + 1e-6);
}

TEST(McfMptcpModel, RespectsCapacities) {
  const McfInstance inst = chain_instance();
  const McfResult r = solve_mptcp_model(inst);
  std::vector<double> load(inst.capacity.size(), 0.0);
  for (std::size_t f = 0; f < inst.commodities.size(); ++f) {
    for (std::size_t p = 0; p < inst.commodities[f].paths.size(); ++p) {
      for (std::uint32_t e : inst.commodities[f].paths[p]) {
        load[e] += r.path_rates[f][p];
      }
    }
  }
  for (std::size_t e = 0; e < load.size(); ++e) {
    EXPECT_LE(load[e], inst.capacity[e] + 1e-6);
  }
}

TEST(McfMptcpModel, MorePathsNeverHurt) {
  // The LP base can only improve with extra path columns.
  McfInstance narrow;
  narrow.capacity = {1.0, 1.0, 1.0};
  narrow.commodities.resize(2);
  narrow.commodities[0].paths = {{0}};
  narrow.commodities[1].paths = {{0}};
  McfInstance wide = narrow;
  wide.commodities[0].paths.push_back({1});
  wide.commodities[1].paths.push_back({2});
  EXPECT_GE(solve_mptcp_model(wide).min_rate,
            solve_mptcp_model(narrow).min_rate - 1e-9);
}

TEST(McfValidate, EmptyCommodityPathsThrow) {
  McfInstance inst;
  inst.capacity = {1.0};
  inst.commodities.resize(1);
  EXPECT_THROW((void)solve_lp_min(inst), std::invalid_argument);
  EXPECT_THROW((void)solve_max_min_fill(inst), std::invalid_argument);
}

TEST(McfValidate, BadEdgeIndexThrows) {
  McfInstance inst;
  inst.capacity = {1.0};
  inst.commodities.resize(1);
  inst.commodities[0].paths = {{3}};
  EXPECT_THROW((void)solve_lp_avg(inst), std::invalid_argument);
}

TEST(McfEmpty, NoCommoditiesIsFeasiblyZero) {
  McfInstance inst;
  inst.capacity = {1.0};
  EXPECT_TRUE(solve_lp_min(inst).feasible);
  EXPECT_TRUE(solve_lp_avg(inst).feasible);
}

TEST(BuildMcfInstance, CompressesToUsedEdges) {
  const Graph g = build_clos(ClosParams::testbed());
  const LogicalTopology topo{g};
  PathCache cache{g, 4};
  const auto servers = g.servers();
  std::vector<FlowPaths> flows;
  flows.push_back(
      FlowPaths{servers[0], servers[6], cache.server_paths(servers[0], servers[6])});
  const McfInstance inst = build_mcf_instance(topo, flows);
  EXPECT_EQ(inst.commodities.size(), 1u);
  // Row count is bounded by the edges the paths touch, not the whole net.
  EXPECT_LT(inst.capacity.size(), topo.directed_count());
  EXPECT_GT(inst.capacity.size(), 0u);
}

TEST(BuildMcfInstance, LpAgreesWithFillOnSymmetricClos) {
  // Pod-stride-like pair of flows on the testbed: both solvers should find
  // the same (symmetric) optimum.
  const Graph g = build_clos(ClosParams::testbed());
  const LogicalTopology topo{g};
  PathCache cache{g, 4};
  const auto servers = g.servers();
  std::vector<FlowPaths> flows;
  flows.push_back(FlowPaths{servers[0], servers[6],
                            cache.server_paths(servers[0], servers[6])});
  flows.push_back(FlowPaths{servers[6], servers[0],
                            cache.server_paths(servers[6], servers[0])});
  const McfInstance inst = build_mcf_instance(topo, flows);
  const McfResult lp = solve_lp_min(inst);
  const McfResult fill = solve_max_min_fill(inst);
  ASSERT_TRUE(lp.feasible);
  // One 10G NIC each, opposite directions: both reach full rate.
  EXPECT_NEAR(lp.min_rate, 10e9, 1e3);
  EXPECT_NEAR(fill.min_rate, 10e9, 1e3);
}

}  // namespace
}  // namespace flattree
