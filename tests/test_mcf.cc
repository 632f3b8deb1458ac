#include "lp/mcf.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>

#include "lp/fluid_incremental.h"
#include "lp/throughput.h"
#include "max_min_oracle.h"
#include "net/capacity.h"
#include "net/rng.h"
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

// A negative or NaN capacity is rejected by every entry point, naming the
// edge; zero (a failed link) and +inf stay valid (McfFillOracle below).
TEST(McfValidate, NegativeOrNanCapacityThrows) {
  for (const double bad : {-1.0, std::numeric_limits<double>::quiet_NaN()}) {
    SCOPED_TRACE(bad);
    McfInstance inst;
    inst.capacity = {1.0, 2.0, bad};
    inst.commodities.resize(1);
    inst.commodities[0].paths = {{0}};
    const auto expect_rejected = [&](auto&& solve) {
      try {
        (void)solve(inst);
        ADD_FAILURE() << "accepted capacity " << bad;
      } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string{e.what()}.find("edge 2"), std::string::npos)
            << e.what();
      }
    };
    expect_rejected([](const McfInstance& i) { return solve_lp_min(i); });
    expect_rejected([](const McfInstance& i) { return solve_lp_avg(i); });
    expect_rejected([](const McfInstance& i) { return solve_max_min_fill(i); });
    expect_rejected([](const McfInstance& i) { return solve_mptcp_model(i); });
  }
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

// ---- progressive filling against the naive oracle, bit for bit ------------

std::uint64_t bits(double v) {
  std::uint64_t u = 0;
  std::memcpy(&u, &v, sizeof(u));
  return u;
}

// Every McfResult field of solve_max_min_fill equals the oracle's exactly.
void expect_oracle_bits(const McfInstance& inst) {
  const McfResult got = solve_max_min_fill(inst);
  const McfResult want = max_min_fill_oracle(inst);
  EXPECT_EQ(got.feasible, want.feasible);
  EXPECT_EQ(bits(got.min_rate), bits(want.min_rate)) << got.min_rate;
  EXPECT_EQ(bits(got.avg_rate), bits(want.avg_rate)) << got.avg_rate;
  ASSERT_EQ(got.flow_rate.size(), want.flow_rate.size());
  ASSERT_EQ(got.path_rates.size(), want.path_rates.size());
  for (std::size_t f = 0; f < got.flow_rate.size(); ++f) {
    EXPECT_EQ(bits(got.flow_rate[f]), bits(want.flow_rate[f])) << "flow " << f;
    ASSERT_EQ(got.path_rates[f].size(), want.path_rates[f].size());
    for (std::size_t p = 0; p < got.path_rates[f].size(); ++p) {
      EXPECT_EQ(bits(got.path_rates[f][p]), bits(want.path_rates[f][p]))
          << "flow " << f << " path " << p;
    }
  }
}

// A path that crosses one edge twice counts twice against it: A = {e0, e0}
// and B = {e0, e1} split e0 three ways, then C takes the rest of e1.
TEST(McfFillOracle, PathCrossingAnEdgeTwice) {
  McfInstance inst;
  inst.capacity = {1.0, 3.0};
  inst.commodities.resize(3);
  inst.commodities[0].paths = {{0, 0}};
  inst.commodities[1].paths = {{0, 1}};
  inst.commodities[2].paths = {{1}};
  expect_oracle_bits(inst);
  const McfResult r = solve_max_min_fill(inst);
  EXPECT_NEAR(r.flow_rate[0], 1.0 / 3, 1e-12);
  EXPECT_NEAR(r.flow_rate[1], 1.0 / 3, 1e-12);
  EXPECT_NEAR(r.flow_rate[2], 8.0 / 3, 1e-12);
}

// An edgeless path never freezes: it rides every round up to the final
// fill level.
TEST(McfFillOracle, EdgelessPathNextToARealOne) {
  McfInstance inst;
  inst.capacity = {1.0};
  inst.commodities.resize(2);
  inst.commodities[0].paths = {{}, {0}};
  inst.commodities[1].paths = {{0}};
  expect_oracle_bits(inst);
  const McfResult r = solve_max_min_fill(inst);
  EXPECT_EQ(r.path_rates[0][0], 0.5);
  EXPECT_EQ(r.path_rates[0][1], 0.5);
  EXPECT_EQ(r.flow_rate[1], 0.5);

  McfInstance edgeless_only;
  edgeless_only.capacity = {1.0};
  edgeless_only.commodities.resize(1);
  edgeless_only.commodities[0].paths = {{}};
  expect_oracle_bits(edgeless_only);
  EXPECT_EQ(solve_max_min_fill(edgeless_only).flow_rate[0], 0.0);
}

TEST(McfFillOracle, ZeroAndInfiniteCapacityEdges) {
  McfInstance inst;
  inst.capacity = {0.0, std::numeric_limits<double>::infinity(), 2.0};
  inst.commodities.resize(3);
  inst.commodities[0].paths = {{0}, {2}};
  inst.commodities[1].paths = {{1, 2}};
  inst.commodities[2].paths = {{1}};
  // An infinite capacity has no saturation threshold: progressive filling
  // rejects it rather than freezing its crossers in the first round.
  EXPECT_THROW((void)solve_max_min_fill(inst), std::invalid_argument);
  // Without the uncapped edge: the zero-capacity path freezes at 0 in the
  // first round.
  inst.capacity[1] = 2.0;
  expect_oracle_bits(inst);
  EXPECT_EQ(solve_max_min_fill(inst).path_rates[0][0], 0.0);
}

TEST(McfFill, NonFiniteCapacityNamesTheEdge) {
  McfInstance inst = shared_edge_instance();
  inst.capacity = {1.0, std::numeric_limits<double>::infinity()};
  try {
    (void)solve_max_min_fill(inst);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string{e.what()}.find("edge 1 "), std::string::npos)
        << e.what();
  }
  // The allocator itself refuses an infinite or NaN capacity at reset and
  // at set_capacity, and keeps the capacity it had.
  IncrementalMaxMinSolver solver;
  EXPECT_THROW(solver.reset({1.0, std::numeric_limits<double>::infinity()}, 1),
               std::invalid_argument);
  solver.reset({1.0, 2.0}, 1);
  EXPECT_THROW(solver.set_capacity(1, std::numeric_limits<double>::infinity()),
               std::invalid_argument);
  EXPECT_THROW(solver.set_capacity(0, std::nan("")), std::invalid_argument);
  EXPECT_EQ(solver.capacity(1), 2.0);
  // The LP entry points keep accepting +inf; the MPTCP model's residual
  // fill does not.
  EXPECT_TRUE(solve_lp_min(inst).feasible);
  EXPECT_THROW((void)solve_mptcp_model(inst), std::invalid_argument);
}

// Random small instances: repeated edges within a path, edgeless paths,
// zero-capacity and +inf-capacity edges. An instance with a +inf edge must
// be rejected; every other one must match the oracle bit for bit.
TEST(McfFillOracle, RandomInstances) {
  Rng rng{2017};
  for (int trial = 0; trial < 500; ++trial) {
    SCOPED_TRACE(trial);
    McfInstance inst;
    const std::uint32_t edges = 1 + static_cast<std::uint32_t>(rng.next_below(8));
    for (std::uint32_t e = 0; e < edges; ++e) {
      const std::uint64_t kind = rng.next_below(10);
      inst.capacity.push_back(
          kind == 0   ? 0.0
          : kind == 1 ? std::numeric_limits<double>::infinity()
                      : rng.next_double() * 10.0);
    }
    const std::uint64_t flows = 1 + rng.next_below(6);
    for (std::uint64_t f = 0; f < flows; ++f) {
      McfCommodity commodity;
      const std::uint64_t paths = 1 + rng.next_below(3);
      for (std::uint64_t p = 0; p < paths; ++p) {
        std::vector<std::uint32_t> path;
        const std::uint64_t hops = rng.next_below(5);
        for (std::uint64_t h = 0; h < hops; ++h) {
          path.push_back(static_cast<std::uint32_t>(rng.next_below(edges)));
        }
        commodity.paths.push_back(std::move(path));
      }
      inst.commodities.push_back(std::move(commodity));
    }
    if (std::any_of(inst.capacity.begin(), inst.capacity.end(),
                    [](double c) { return std::isinf(c); })) {
      EXPECT_THROW((void)solve_max_min_fill(inst), std::invalid_argument);
      continue;
    }
    expect_oracle_bits(inst);
  }
}

}  // namespace
}  // namespace flattree
