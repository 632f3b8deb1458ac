#include "sim/fluid.h"

#include <gtest/gtest.h>

#include "net/rng.h"
#include "obs/metrics.h"
#include "routing/ksp.h"
#include "topo/clos.h"

namespace flattree {
namespace {

// Dumbbell: 2 servers per side, 1G bottleneck between the switches.
struct Dumbbell {
  Graph g;
  std::vector<NodeId> servers;
  Dumbbell() {
    const NodeId s0 = g.add_node(NodeRole::kServer);
    const NodeId s1 = g.add_node(NodeRole::kServer);
    const NodeId s2 = g.add_node(NodeRole::kServer);
    const NodeId s3 = g.add_node(NodeRole::kServer);
    const NodeId e0 = g.add_node(NodeRole::kEdge);
    const NodeId e1 = g.add_node(NodeRole::kEdge);
    g.add_link(s0, e0, 10e9);
    g.add_link(s1, e0, 10e9);
    g.add_link(s2, e1, 10e9);
    g.add_link(s3, e1, 10e9);
    g.add_link(e0, e1, 1e9);
    servers = {s0, s1, s2, s3};
  }
};

PathProvider ksp_provider(const Graph& g, std::uint32_t k) {
  auto cache = std::make_shared<PathCache>(g, k);
  return [cache](NodeId src, NodeId dst, std::uint32_t) {
    return cache->server_paths(src, dst);
  };
}

TEST(FluidRates, SingleFlowGetsBottleneck) {
  Dumbbell net;
  FluidSimulator sim{net.g, ksp_provider(net.g, 1)};
  Workload flows{Flow{0, 2}};
  const auto rates = sim.measure_rates(flows);
  ASSERT_EQ(rates.size(), 1u);
  EXPECT_NEAR(rates[0], 1e9, 1.0);
}

TEST(FluidRates, TwoFlowsShareBottleneck) {
  Dumbbell net;
  FluidSimulator sim{net.g, ksp_provider(net.g, 1)};
  Workload flows{Flow{0, 2}, Flow{1, 3}};
  const auto rates = sim.measure_rates(flows);
  EXPECT_NEAR(rates[0], 0.5e9, 1.0);
  EXPECT_NEAR(rates[1], 0.5e9, 1.0);
}

TEST(FluidRates, OppositeDirectionsDontContend) {
  Dumbbell net;
  FluidSimulator sim{net.g, ksp_provider(net.g, 1)};
  Workload flows{Flow{0, 2}, Flow{2, 0}};
  const auto rates = sim.measure_rates(flows);
  EXPECT_NEAR(rates[0], 1e9, 1.0);
  EXPECT_NEAR(rates[1], 1e9, 1.0);
}

TEST(FluidRun, SingleFlowFct) {
  Dumbbell net;
  FluidSimulator sim{net.g, ksp_provider(net.g, 1)};
  Workload flows{Flow{0, 2, /*bytes=*/1e9 / 8, /*start=*/0.5}};
  const auto results = sim.run(flows);
  ASSERT_TRUE(results[0].completed);
  EXPECT_NEAR(results[0].start_s, 0.5, 1e-9);
  // 125 MB at 1 Gb/s = 1 s.
  EXPECT_NEAR(results[0].fct_s(), 1.0, 1e-6);
}

TEST(FluidRun, SequentialFlowsDontInterfere) {
  Dumbbell net;
  FluidSimulator sim{net.g, ksp_provider(net.g, 1)};
  Workload flows{Flow{0, 2, 1e8, 0.0}, Flow{1, 3, 1e8, 100.0}};
  const auto results = sim.run(flows);
  EXPECT_NEAR(results[0].fct_s(), 8e8 / 1e9, 1e-6);
  EXPECT_NEAR(results[1].fct_s(), 8e8 / 1e9, 1e-6);
}

TEST(FluidRun, ConcurrentFlowsSlowdown) {
  Dumbbell net;
  FluidSimulator sim{net.g, ksp_provider(net.g, 1)};
  Workload flows{Flow{0, 2, 1e8, 0.0}, Flow{1, 3, 1e8, 0.0}};
  const auto results = sim.run(flows);
  // Perfect sharing: both finish at 1.6 s (0.8 s of work each at half rate).
  EXPECT_NEAR(results[0].fct_s(), 1.6, 1e-6);
  EXPECT_NEAR(results[1].fct_s(), 1.6, 1e-6);
}

TEST(FluidRun, ShorterFlowReleasesBandwidth) {
  Dumbbell net;
  FluidSimulator sim{net.g, ksp_provider(net.g, 1)};
  // Flow B is half the size: finishes first, then A speeds up.
  Workload flows{Flow{0, 2, 1e8, 0.0}, Flow{1, 3, 0.5e8, 0.0}};
  const auto results = sim.run(flows);
  // B: 0.4e9 bits at 0.5G = 0.8 s. A: 0.4e9 bits at 0.5G + 0.4e9 at 1G = 1.2 s.
  EXPECT_NEAR(results[1].fct_s(), 0.8, 1e-6);
  EXPECT_NEAR(results[0].fct_s(), 1.2, 1e-6);
}

TEST(FluidRun, DependenciesGateRelease) {
  Dumbbell net;
  FluidSimulator sim{net.g, ksp_provider(net.g, 1)};
  Workload flows;
  flows.push_back(Flow{0, 2, 1e8, 0.0});
  Flow second{2, 0, 1e8, 0.0};
  second.depends_on = {0};
  second.dep_delay_s = 0.25;
  flows.push_back(second);
  const auto results = sim.run(flows);
  EXPECT_NEAR(results[0].finish_s, 0.8, 1e-6);
  EXPECT_NEAR(results[1].start_s, 0.8 + 0.25, 1e-6);
  EXPECT_NEAR(results[1].finish_s, 1.05 + 0.8, 1e-6);
}

TEST(FluidRun, DependencyChainOrders) {
  Dumbbell net;
  FluidSimulator sim{net.g, ksp_provider(net.g, 1)};
  Workload flows;
  for (int i = 0; i < 4; ++i) {
    Flow f{static_cast<std::uint32_t>(i % 2), static_cast<std::uint32_t>(2 + i % 2),
           1e7, 0.0};
    if (i > 0) f.depends_on = {static_cast<std::uint32_t>(i - 1)};
    flows.push_back(f);
  }
  const auto results = sim.run(flows);
  for (int i = 1; i < 4; ++i) {
    EXPECT_GE(results[i].start_s, results[i - 1].finish_s - 1e-9);
  }
}

TEST(FluidRun, MultipathUsesBothPaths) {
  // Two switches connected by two parallel 1G links -> logical 2G pipe; a
  // 2-subflow flow should fill both.
  Graph g;
  const NodeId s0 = g.add_node(NodeRole::kServer);
  const NodeId s1 = g.add_node(NodeRole::kServer);
  const NodeId e0 = g.add_node(NodeRole::kEdge);
  const NodeId a0 = g.add_node(NodeRole::kAgg);
  const NodeId a1 = g.add_node(NodeRole::kAgg);
  const NodeId e1 = g.add_node(NodeRole::kEdge);
  g.add_link(s0, e0, 10e9);
  g.add_link(s1, e1, 10e9);
  g.add_link(e0, a0, 1e9);
  g.add_link(e0, a1, 1e9);
  g.add_link(a0, e1, 1e9);
  g.add_link(a1, e1, 1e9);
  FluidSimulator sim{g, ksp_provider(g, 2)};
  Workload flows{Flow{0, 1}};
  const auto rates = sim.measure_rates(flows);
  EXPECT_NEAR(rates[0], 2e9, 1.0);
}

TEST(FluidRun, CoflowCompletionTimes) {
  Dumbbell net;
  FluidSimulator sim{net.g, ksp_provider(net.g, 1)};
  // Two coflows: group 0 has a fast and a slow member; group 1 one flow.
  Workload flows;
  Flow a{0, 2, 1e7, 0.0};
  a.group = 0;
  Flow b{1, 3, 5e7, 0.0};
  b.group = 0;
  Flow c{0, 3, 1e7, 10.0};
  c.group = 1;
  flows = {a, b, c};
  const auto results = sim.run(flows);
  const auto coflows = coflow_completion_times(flows, results);
  ASSERT_EQ(coflows.size(), 2u);
  EXPECT_TRUE(coflows[0].completed);
  EXPECT_EQ(coflows[0].flows, 2u);
  // CCT = the slow member's finish (both started at 0).
  EXPECT_NEAR(coflows[0].cct_s, results[1].finish_s, 1e-9);
  EXPECT_GT(coflows[0].cct_s, results[0].fct_s());
  EXPECT_NEAR(coflows[1].cct_s, results[2].fct_s(), 1e-9);
}

TEST(FluidRun, UngroupedFlowsExcludedFromCoflows) {
  Dumbbell net;
  FluidSimulator sim{net.g, ksp_provider(net.g, 1)};
  Workload flows{Flow{0, 2, 1e6, 0.0}};  // group defaults to kNoGroup
  const auto results = sim.run(flows);
  EXPECT_TRUE(coflow_completion_times(flows, results).empty());
}

TEST(FluidRun, RejectsZeroByteFlows) {
  Dumbbell net;
  FluidSimulator sim{net.g, ksp_provider(net.g, 1)};
  Workload flows{Flow{0, 2, 0.0, 0.0}};
  EXPECT_THROW((void)sim.run(flows), std::invalid_argument);
}

TEST(FluidRun, RejectsBadDependencyIndex) {
  Dumbbell net;
  FluidSimulator sim{net.g, ksp_provider(net.g, 1)};
  Flow f{0, 2, 1e6, 0.0};
  f.depends_on = {7};
  EXPECT_THROW((void)sim.run({f}), std::invalid_argument);
}

TEST(FluidRun, HorizonCutsOff) {
  Dumbbell net;
  FluidOptions options;
  options.max_time_s = 0.1;
  FluidSimulator sim{net.g, ksp_provider(net.g, 1), options};
  Workload flows{Flow{0, 2, 1e12, 0.0}};  // would take ~2 hours
  const auto results = sim.run(flows);
  EXPECT_FALSE(results[0].completed);
  EXPECT_TRUE(results[0].started);
}

TEST(FluidRun, SubUlpFlowTailTerminates) {
  // Zeno-stall regression: a flow remainder just above the retirement
  // threshold, draining at a rate whose completion increment is smaller
  // than one ulp of the clock, used to round `now + dt` back to `now` and
  // spin the event loop forever. The forced minimal step must retire it.
  Graph g;
  const NodeId a = g.add_node(NodeRole::kServer);
  const NodeId b = g.add_node(NodeRole::kServer);
  g.add_link(a, b, 100e9);
  FluidSimulator sim{g, ksp_provider(g, 1)};
  Flow f{0, 1, 1.1e-6};  // above the 1e-6 retire threshold
  f.start_s = 16.0;      // ulp(16) >> 1.1e-6 * 8 / 100e9
  const auto results = sim.run({f});
  ASSERT_EQ(results.size(), 1u);
  EXPECT_TRUE(results[0].completed);
}

TEST(FluidSchedule, CapacityOnlyFailureStallsAndResumes) {
  // Null refresh: the bottleneck vanishes mid-flow and the flow stalls on
  // its (unchanged) path until the recovery event restores capacity.
  Dumbbell net;
  FluidSimulator sim{net.g, ksp_provider(net.g, 1)};
  const LinkId bottleneck{4};  // e0-e1, the fifth link added
  FailureSchedule schedule;
  schedule.fail_at(0.2, FailureSet{{bottleneck}, {}});
  schedule.recover_at(1.0, FailureSet{{bottleneck}, {}});
  Workload flows{Flow{0, 2, 1e8, 0.0}};  // 0.8 s at 1 Gb/s uninterrupted
  ScheduleRunStats stats;
  const auto results =
      sim.run_with_schedule(flows, schedule, 0.05, nullptr, &stats);
  ASSERT_TRUE(results[0].completed);
  // 0.2 s of progress, a 0.8 s outage, then the remaining 0.6 s.
  EXPECT_NEAR(results[0].fct_s(), 1.6, 1e-6);
  EXPECT_EQ(stats.fail_events, 1u);
  EXPECT_EQ(stats.recover_events, 1u);
  EXPECT_EQ(stats.reroutes, 0u);
}

TEST(FluidSchedule, RerouteAfterRepairLag) {
  // Two disjoint 1G paths e0-a0-e1 / e0-a1-e1; kill the agg the flow uses
  // and check it stalls for exactly one repair lag, then finishes at full
  // rate on the surviving path.
  Graph g;
  const NodeId s0 = g.add_node(NodeRole::kServer);
  const NodeId s1 = g.add_node(NodeRole::kServer);
  const NodeId e0 = g.add_node(NodeRole::kEdge);
  const NodeId a0 = g.add_node(NodeRole::kAgg);
  const NodeId a1 = g.add_node(NodeRole::kAgg);
  const NodeId e1 = g.add_node(NodeRole::kEdge);
  g.add_link(s0, e0, 10e9);
  g.add_link(s1, e1, 10e9);
  g.add_link(e0, a0, 1e9);
  g.add_link(e0, a1, 1e9);
  g.add_link(a0, e1, 1e9);
  g.add_link(a1, e1, 1e9);

  auto cache = std::make_shared<PathCache>(g, 1);
  const auto paths = cache->server_paths(s0, s1);
  ASSERT_EQ(paths.size(), 1u);
  ASSERT_EQ(paths[0].size(), 5u);  // s0 e0 agg e1 s1
  const NodeId agg_used = paths[0][2];

  FluidSimulator sim{g, [cache](NodeId src, NodeId dst, std::uint32_t) {
                       return cache->server_paths(src, dst);
                     }};
  FailureSchedule schedule;
  schedule.fail_at(0.2, FailureSet{{}, {agg_used}});
  const RoutingRefresh refresh = [](const Graph& degraded) -> PathProvider {
    auto fresh = std::make_shared<PathCache>(degraded, 1);
    return [fresh](NodeId src, NodeId dst, std::uint32_t) {
      return fresh->server_paths(src, dst);
    };
  };
  Workload flows{Flow{0, 1, 1e8, 0.0}};
  ScheduleRunStats stats;
  const auto results =
      sim.run_with_schedule(flows, schedule, 0.3, refresh, &stats);
  ASSERT_TRUE(results[0].completed);
  // Progress stops at t=0.2; the refreshed routing lands at t=0.5 and the
  // remaining 0.6 s drains on the other agg: 0.8 s of work + 0.3 s stalled.
  EXPECT_NEAR(results[0].fct_s(), 1.1, 1e-6);
  EXPECT_EQ(stats.fail_events, 1u);
  EXPECT_EQ(stats.refreshes, 1u);
  EXPECT_EQ(stats.reroutes, 1u);
  EXPECT_EQ(stats.black_holed, 0u);
}

TEST(FluidSchedule, BlackHoledFlowWaitsForRecovery) {
  // The only inter-side path dies: the routing refresh finds no route
  // (black-holed), and the flow sits stalled until the recovery event
  // restores its old path's capacity.
  Dumbbell net;
  FluidSimulator sim{net.g, ksp_provider(net.g, 1)};
  const LinkId bottleneck{4};
  FailureSchedule schedule;
  schedule.fail_at(0.2, FailureSet{{bottleneck}, {}});
  schedule.recover_at(1.0, FailureSet{{bottleneck}, {}});
  const RoutingRefresh refresh = [](const Graph& degraded) -> PathProvider {
    auto fresh = std::make_shared<PathCache>(degraded, 1);
    return [fresh](NodeId src, NodeId dst, std::uint32_t) {
      return fresh->server_paths(src, dst);
    };
  };
  Workload flows{Flow{0, 2, 1e8, 0.0}};
  ScheduleRunStats stats;
  const auto results =
      sim.run_with_schedule(flows, schedule, 0.1, refresh, &stats);
  ASSERT_TRUE(results[0].completed);
  EXPECT_NEAR(results[0].fct_s(), 1.6, 1e-6);
  EXPECT_EQ(stats.black_holed, 1u);
  EXPECT_EQ(stats.refreshes, 2u);
  EXPECT_EQ(stats.reroutes, 0u);
}

TEST(FluidSchedule, RefreshSkipsFlowsWhoseHandleIsUnchanged) {
  // Refreshes that change no capacity: the first answers flow 0 with the
  // handle it already holds and flow 1 with equal paths in new storage; the
  // second black-holes flow 0 and hands flow 1 its original handle back;
  // the third answers both with the handles they hold. Only an answer in
  // storage the flow does not hold is resolved to edge lists (flow 1 at the
  // first two), the black-holed answer is counted as before (and leaves
  // flow 0's handle in place), and no flow is rerouted.
  Dumbbell net;
  PathCache cache{net.g, 1};
  const RouteSet held0 = cache.server_paths(NodeId{0}, NodeId{2});
  const RouteSet held1 = cache.server_paths(NodeId{1}, NodeId{3});
  const auto handles = [&](bool fresh1, bool dark0) -> PathProvider {
    return [&, fresh1, dark0](NodeId src, NodeId, std::uint32_t) -> RouteSet {
      if (src == NodeId{0}) return dark0 ? RouteSet{} : held0;
      return fresh1 ? RouteSet{held1.paths()} : held1;
    };
  };
  obs::MetricsRegistry reg;
  FluidOptions options;
  options.sink = obs::ObsSink{&reg, nullptr};
  FluidSimulator sim{net.g, handles(false, false), options};
  FailureSchedule schedule;
  schedule.recover_at(0.1, FailureSet{});
  schedule.recover_at(0.2, FailureSet{});
  schedule.recover_at(0.3, FailureSet{});
  std::size_t refresh_count = 0;
  const RoutingRefresh refresh = [&](const Graph&) -> PathProvider {
    ++refresh_count;
    return handles(/*fresh1=*/refresh_count == 1, /*dark0=*/refresh_count == 2);
  };
  const Workload flows{Flow{0, 2, 1e8, 0.0}, Flow{1, 3, 1e8, 0.0}};
  ScheduleRunStats stats;
  const auto results = sim.run_with_schedule(flows, schedule, 0.0, refresh,
                                             &stats);
  EXPECT_EQ(stats.refreshes, 3u);
  EXPECT_EQ(stats.reroutes, 0u);
  EXPECT_EQ(stats.black_holed, 1u);
  EXPECT_EQ(reg.counter("fluid.refresh.flows_resolved").value(), 2u);
  // The refreshes leave the allocation as it was.
  FluidSimulator plain{net.g, ksp_provider(net.g, 1)};
  const auto expected = plain.run(flows);
  for (std::size_t f = 0; f < flows.size(); ++f) {
    ASSERT_TRUE(results[f].completed);
    EXPECT_EQ(results[f].fct_s(), expected[f].fct_s());
  }
}

TEST(FluidRun, OnClosTestbedManyFlows) {
  const Graph g = build_clos(ClosParams::testbed());
  FluidSimulator sim{g, ksp_provider(g, 4)};
  Workload flows;
  Rng rng{3};
  for (int i = 0; i < 50; ++i) {
    const auto src = static_cast<std::uint32_t>(rng.next_below(24));
    auto dst = static_cast<std::uint32_t>(rng.next_below(24));
    if (dst == src) dst = (dst + 1) % 24;
    flows.push_back(Flow{src, dst, 1e7, rng.next_double()});
  }
  const auto results = sim.run(flows);
  for (const auto& r : results) {
    EXPECT_TRUE(r.completed);
    EXPECT_GT(r.fct_s(), 0.0);
  }
}

}  // namespace
}  // namespace flattree
