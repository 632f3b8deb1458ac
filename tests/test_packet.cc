#include "sim/packet.h"

#include <gtest/gtest.h>

#include "core/flat_tree.h"
#include "routing/ksp.h"
#include "topo/clos.h"

namespace flattree {
namespace {

// Dumbbell with a 100 Mb/s bottleneck (small rates keep event counts low).
struct Dumbbell {
  Graph g;
  Dumbbell() {
    const NodeId s0 = g.add_node(NodeRole::kServer);
    const NodeId s1 = g.add_node(NodeRole::kServer);
    const NodeId s2 = g.add_node(NodeRole::kServer);
    const NodeId s3 = g.add_node(NodeRole::kServer);
    const NodeId e0 = g.add_node(NodeRole::kEdge);
    const NodeId e1 = g.add_node(NodeRole::kEdge);
    g.add_link(s0, e0, 1e9);
    g.add_link(s1, e0, 1e9);
    g.add_link(s2, e1, 1e9);
    g.add_link(s3, e1, 1e9);
    g.add_link(e0, e1, 100e6);
  }
  [[nodiscard]] std::vector<Path> path(std::uint32_t src,
                                       std::uint32_t dst) const {
    PathCache cache{g, 1};
    return cache.server_paths(NodeId{src}, NodeId{dst});
  }
};

TEST(PacketSim, SingleFlowSaturatesBottleneck) {
  Dumbbell net;
  PacketSim sim;
  sim.set_network(net.g);
  sim.add_flow(0, 2, /*bytes=*/0, /*start=*/0.0, net.path(0, 2));
  sim.run_until(2.0);
  const double goodput = sim.flow_bytes_acked(0) * 8 / 2.0;
  EXPECT_GT(goodput, 80e6);   // > 80% of the 100M bottleneck
  EXPECT_LT(goodput, 101e6);  // never exceeds capacity
}

TEST(PacketSim, TwoFlowsShareFairly) {
  Dumbbell net;
  PacketSim sim;
  sim.set_network(net.g);
  sim.add_flow(0, 2, 0, 0.0, net.path(0, 2));
  sim.add_flow(1, 3, 0, 0.0, net.path(1, 3));
  sim.run_until(3.0);
  const double a = static_cast<double>(sim.flow_bytes_acked(0));
  const double b = static_cast<double>(sim.flow_bytes_acked(1));
  EXPECT_GT(a + b, 0.8 * 100e6 / 8 * 3);
  EXPECT_GT(a / b, 0.6);
  EXPECT_LT(a / b, 1.67);
}

TEST(PacketSim, FiniteFlowCompletes) {
  Dumbbell net;
  PacketSim sim;
  sim.set_network(net.g);
  const auto id = sim.add_flow(0, 2, 1e6, 0.0, net.path(0, 2));
  sim.run_until(5.0);
  EXPECT_TRUE(sim.flow_completed(id));
  // 1 MB at ~100 Mb/s is ~0.08 s plus slow start.
  EXPECT_GT(sim.flow_finish_time(id), 0.08);
  EXPECT_LT(sim.flow_finish_time(id), 1.0);
}

TEST(PacketSim, FlowStartTimeRespected) {
  Dumbbell net;
  PacketSim sim;
  sim.set_network(net.g);
  const auto id = sim.add_flow(0, 2, 1e5, 1.0, net.path(0, 2));
  sim.run_until(0.9);
  EXPECT_EQ(sim.flow_bytes_acked(id), 0u);
  sim.run_until(3.0);
  EXPECT_TRUE(sim.flow_completed(id));
  EXPECT_GT(sim.flow_finish_time(id), 1.0);
}

TEST(PacketSim, DropsUnderCongestion) {
  Dumbbell net;
  PacketSimOptions options;
  options.queue_packets = 8;  // tiny buffers
  PacketSim sim{options};
  sim.set_network(net.g);
  sim.add_flow(0, 2, 0, 0.0, net.path(0, 2));
  sim.add_flow(1, 3, 0, 0.0, net.path(1, 3));
  sim.run_until(2.0);
  EXPECT_GT(sim.packets_dropped(), 0u);
  // And yet both flows keep making progress.
  EXPECT_GT(sim.flow_bytes_acked(0), 1e6);
  EXPECT_GT(sim.flow_bytes_acked(1), 1e6);
}

TEST(PacketSim, MptcpUsesParallelPaths) {
  // Two disjoint 100M paths: an MPTCP flow with 2 subflows should beat one
  // path's capacity.
  Graph g;
  const NodeId s0 = g.add_node(NodeRole::kServer);
  const NodeId s1 = g.add_node(NodeRole::kServer);
  const NodeId e0 = g.add_node(NodeRole::kEdge);
  const NodeId a0 = g.add_node(NodeRole::kAgg);
  const NodeId a1 = g.add_node(NodeRole::kAgg);
  const NodeId e1 = g.add_node(NodeRole::kEdge);
  g.add_link(s0, e0, 1e9);
  g.add_link(s1, e1, 1e9);
  g.add_link(e0, a0, 100e6);
  g.add_link(e0, a1, 100e6);
  g.add_link(a0, e1, 100e6);
  g.add_link(a1, e1, 100e6);
  PacketSim sim;
  sim.set_network(g);
  PathCache cache{g, 2};
  sim.add_flow(0, 1, 0, 0.0, cache.server_paths(s0, s1));
  sim.run_until(2.0);
  const double goodput = sim.flow_bytes_acked(0) * 8 / 2.0;
  EXPECT_GT(goodput, 140e6);  // well beyond a single 100M path
}

TEST(PacketSim, UncoupledSubflowsGrabMoreThanCoupled) {
  // LIA caps a multipath flow near a single-TCP share; uncoupled subflows
  // behave like independent TCPs and take more from a shared bottleneck.
  // The uncoupled arm is two single-subflow flows (independent Reno each)
  // from the same source over the same bottleneck.
  Graph g;
  const NodeId s0 = g.add_node(NodeRole::kServer);
  const NodeId s1 = g.add_node(NodeRole::kServer);
  const NodeId s2 = g.add_node(NodeRole::kServer);
  const NodeId s3 = g.add_node(NodeRole::kServer);
  const NodeId e0 = g.add_node(NodeRole::kEdge);
  const NodeId e1 = g.add_node(NodeRole::kEdge);
  g.add_link(s0, e0, 1e9);
  g.add_link(s1, e0, 1e9);
  g.add_link(s2, e1, 1e9);
  g.add_link(s3, e1, 1e9);
  g.add_link(e0, e1, 100e6);
  PathCache cache{g, 1};
  const Path a_path = cache.server_paths(s0, s2)[0];
  const auto share_of_multipath = [&](bool coupled) {
    PacketSim sim;
    sim.set_network(g);
    // Flow A: two subflows over the same bottleneck (one MPTCP flow, or two
    // TCP flows); flow B: one.
    std::vector<std::uint32_t> a_flows;
    if (coupled) {
      a_flows.push_back(sim.add_flow(0, 2, 0, 0.0, {a_path, a_path}));
    } else {
      a_flows.push_back(sim.add_flow(0, 2, 0, 0.0, {a_path}));
      a_flows.push_back(sim.add_flow(0, 2, 0, 0.0, {a_path}));
    }
    const std::uint32_t b =
        sim.add_flow(1, 3, 0, 0.0, cache.server_paths(s1, s3));
    sim.run_until(4.0);
    double a_bytes = 0.0;
    for (std::uint32_t f : a_flows) {
      a_bytes += static_cast<double>(sim.flow_bytes_acked(f));
    }
    return a_bytes /
           (a_bytes + static_cast<double>(sim.flow_bytes_acked(b)));
  };
  const double coupled_share = share_of_multipath(true);
  const double uncoupled_share = share_of_multipath(false);
  EXPECT_GT(uncoupled_share, coupled_share);
  // Coupled MPTCP stays in the neighborhood of a fair half.
  EXPECT_LT(coupled_share, 0.62);
}

TEST(PacketSim, ConversionDropsThenRecovers) {
  Dumbbell net;
  PacketSim sim;
  sim.set_network(net.g);
  sim.add_flow(0, 2, 0, 0.0, net.path(0, 2));
  sim.run_until(1.0);
  const std::uint64_t before = sim.flow_bytes_acked(0);
  EXPECT_GT(before, 0u);
  // "Convert" to the same topology with a 200 ms blackout.
  sim.apply_conversion(
      net.g, [&](std::uint32_t) { return net.path(0, 2); }, 0.2);
  sim.run_until(1.15);
  // During the blackout almost nothing gets through.
  EXPECT_LT(sim.flow_bytes_acked(0) - before, 100e6 / 8 * 0.15 * 0.5);
  sim.run_until(3.0);
  const double post_rate =
      (sim.flow_bytes_acked(0) - before) * 8.0 / 2.0;  // over [1s, 3s]
  EXPECT_GT(post_rate, 50e6);  // recovered to a healthy fraction
}

TEST(PacketSim, ConversionToBetterTopologyRaisesThroughput) {
  // Start with a 50M middle link; convert to a 200M one.
  Graph slow, fast;
  for (Graph* g : {&slow, &fast}) {
    const NodeId s0 = g->add_node(NodeRole::kServer);
    const NodeId s1 = g->add_node(NodeRole::kServer);
    const NodeId e0 = g->add_node(NodeRole::kEdge);
    const NodeId e1 = g->add_node(NodeRole::kEdge);
    g->add_link(s0, e0, 1e9);
    g->add_link(s1, e1, 1e9);
    g->add_link(e0, e1, g == &slow ? 50e6 : 200e6);
  }
  PathCache cache_slow{slow, 1};
  PacketSim sim;
  sim.set_network(slow);
  sim.add_flow(0, 1, 0, 0.0, cache_slow.server_paths(NodeId{0}, NodeId{1}));
  sim.run_until(2.0);
  const double rate_before = sim.flow_bytes_acked(0) * 8 / 2.0;
  PathCache cache_fast{fast, 1};
  sim.apply_conversion(
      fast,
      [&](std::uint32_t) {
        return cache_fast.server_paths(NodeId{0}, NodeId{1});
      },
      0.1);
  const std::uint64_t at_conv = sim.flow_bytes_acked(0);
  sim.run_until(5.0);
  const double rate_after = (sim.flow_bytes_acked(0) - at_conv) * 8 / 3.0;
  EXPECT_GT(rate_after, rate_before * 2);
}

TEST(PacketSim, FlowPathsAccessor) {
  Dumbbell net;
  PacketSim sim;
  sim.set_network(net.g);
  const auto paths = net.path(0, 2);
  const auto id = sim.add_flow(0, 2, 0, 0.0, paths);
  EXPECT_EQ(sim.flow_paths(id), paths);
}

TEST(PacketSim, Deterministic) {
  Dumbbell net;
  std::uint64_t acked[2];
  for (int trial = 0; trial < 2; ++trial) {
    PacketSim sim;
    sim.set_network(net.g);
    sim.add_flow(0, 2, 0, 0.0, net.path(0, 2));
    sim.add_flow(1, 3, 0, 0.0, net.path(1, 3));
    sim.run_until(1.0);
    acked[trial] = sim.flow_bytes_acked(0) + sim.flow_bytes_acked(1);
  }
  EXPECT_EQ(acked[0], acked[1]);
}

TEST(PacketSim, ErrorsOnMisuse) {
  PacketSim sim;
  Dumbbell net;
  EXPECT_THROW((void)sim.add_flow(0, 2, 0, 0.0, net.path(0, 2)),
               std::logic_error);
  sim.set_network(net.g);
  EXPECT_THROW((void)sim.add_flow(0, 2, 0, 0.0, {}), std::invalid_argument);
}

TEST(PacketSim, ConversionRoundTripRevivesRemovedPipes) {
  // Global -> Clos -> Global on the testbed. A flow from a server that
  // global mode relocates keeps its global path set throughout, as a
  // black-holed pair does under drive_packet_sim: Clos mode removes the
  // server's global access link, so its packets die there, and the
  // conversion back revives that pipe at the same index the flow's
  // subflow still holds. The flow then completes on its unchanged paths.
  FlatTreeParams p;
  p.clos = ClosParams::testbed();
  p.clos.link_bps = 100e6;
  p.six_port_per_column = 1;
  p.four_port_per_column = 1;
  const FlatTree tree{p};
  const Graph global = tree.realize_uniform(PodMode::kGlobal);
  const Graph clos = tree.realize_uniform(PodMode::kClos);
  std::uint32_t src = 0;
  while (global.attachment_switch(NodeId{src}) ==
         clos.attachment_switch(NodeId{src})) {
    ++src;
  }
  const std::uint32_t dst = (src + 12) % 24;
  PathCache cache{global, 1};
  const std::vector<Path> paths =
      cache.server_paths(NodeId{src}, NodeId{dst});
  const auto same_paths = [&](std::uint32_t) { return paths; };

  PacketSim sim;
  sim.set_network(global);
  const auto id = sim.add_flow(src, dst, 2e6, 0.0, paths);
  sim.run_until(0.05);
  const std::uint64_t before = sim.flow_bytes_acked(id);
  ASSERT_GT(before, 0u);
  ASSERT_FALSE(sim.flow_completed(id));

  sim.apply_conversion(clos, same_paths, 0.01);
  sim.run_until(0.5);
  // Dead access pipe: nothing sent after the conversion gets across.
  EXPECT_FALSE(sim.flow_completed(id));
  EXPECT_LT(sim.flow_bytes_acked(id) - before, 1e5);

  sim.apply_conversion(global, same_paths, 0.01);
  sim.run_until(5.0);
  EXPECT_EQ(sim.flow_paths(id), paths);
  ASSERT_TRUE(sim.flow_completed(id));
  EXPECT_GT(sim.flow_finish_time(id), 0.5);
  EXPECT_EQ(sim.flow_bytes_acked(id), 1334u * 1500u);  // ceil(2e6 / MTU)
}

TEST(PacketSim, TestbedFlatTreeGlobalModeRuns) {
  // Smoke: the full testbed network in global mode carries pod-stride
  // traffic at nontrivial rate.
  FlatTreeParams p;
  p.clos = ClosParams::testbed();
  p.clos.link_bps = 100e6;  // scale down for test speed
  p.six_port_per_column = 1;
  p.four_port_per_column = 1;
  const FlatTree tree{p};
  const Graph g = tree.realize_uniform(PodMode::kGlobal);
  PacketSim sim;
  sim.set_network(g);
  PathCache cache{g, 4};
  for (std::uint32_t s = 0; s < 6; ++s) {
    sim.add_flow(s, s + 6, 0, 0.0,
                 cache.server_paths(NodeId{s}, NodeId{s + 6}));
  }
  sim.run_until(1.0);
  EXPECT_GT(sim.total_bytes_acked() * 8.0, 6 * 20e6);
  EXPECT_GT(sim.events_processed(), 1000u);
}

}  // namespace
}  // namespace flattree
