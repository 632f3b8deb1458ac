#include "net/stats.h"

#include <gtest/gtest.h>

#include "topo/clos.h"
#include "topo/params.h"

namespace flattree {
namespace {

Graph line_graph() {
  // s0 - e0 - e1 - e2 - s1   (a path of three switches with end servers)
  Graph g;
  const NodeId s0 = g.add_node(NodeRole::kServer);
  const NodeId s1 = g.add_node(NodeRole::kServer);
  const NodeId e0 = g.add_node(NodeRole::kEdge);
  const NodeId e1 = g.add_node(NodeRole::kEdge);
  const NodeId e2 = g.add_node(NodeRole::kEdge);
  g.add_link(s0, e0, 1e9);
  g.add_link(s1, e2, 1e9);
  g.add_link(e0, e1, 1e9);
  g.add_link(e1, e2, 1e9);
  return g;
}

TEST(PathLengthStats, LineGraph) {
  const auto stats = compute_path_length_stats(line_graph());
  // Ordered switch pairs: (e0,e1)=1 (e0,e2)=2 (e1,e0)=1 (e1,e2)=1 (e2,e0)=2
  // (e2,e1)=1 -> avg = 8/6.
  EXPECT_NEAR(stats.avg_switch_pair_hops, 8.0 / 6.0, 1e-12);
  EXPECT_EQ(stats.diameter, 2u);
  // Server pairs: s0<->s1 both directions, switch distance 2, +2 hops = 4.
  EXPECT_NEAR(stats.avg_server_pair_hops, 4.0, 1e-12);
}

TEST(PathLengthStats, Histogram) {
  const auto stats = compute_path_length_stats(line_graph());
  EXPECT_EQ(stats.switch_hop_histogram.at(1), 4u);
  EXPECT_EQ(stats.switch_hop_histogram.at(2), 2u);
}

TEST(PathLengthStats, SameSwitchServerPairsCountTwoHops) {
  Graph g;
  const NodeId a = g.add_node(NodeRole::kServer);
  const NodeId b = g.add_node(NodeRole::kServer);
  const NodeId c = g.add_node(NodeRole::kServer);
  const NodeId e0 = g.add_node(NodeRole::kEdge);
  const NodeId e1 = g.add_node(NodeRole::kEdge);
  g.add_link(a, e0, 1e9);
  g.add_link(b, e0, 1e9);
  g.add_link(c, e1, 1e9);
  g.add_link(e0, e1, 1e9);
  const auto stats = compute_path_length_stats(g);
  // Pairs: (a,b),(b,a): 2 hops. (a,c),(c,a),(b,c),(c,b): 1+2=3 hops.
  EXPECT_NEAR(stats.avg_server_pair_hops, (2 * 2 + 4 * 3) / 6.0, 1e-12);
}

TEST(PathLengthStats, DisconnectedThrows) {
  Graph g;
  g.add_node(NodeRole::kEdge);
  g.add_node(NodeRole::kEdge);
  EXPECT_THROW((void)compute_path_length_stats(g), std::logic_error);
}

TEST(PathLengthStats, FatTreeDiameter) {
  // Canonical fat-tree: switch diameter 4 (edge-agg-core-agg-edge).
  const Graph g = build_clos(ClosParams::fat_tree(4));
  const auto stats = compute_path_length_stats(g);
  EXPECT_EQ(stats.diameter, 4u);
}

TEST(ServersPerSwitch, ClosEdgesUniform) {
  const ClosParams p = ClosParams::testbed();
  const Graph g = build_clos(p);
  const auto per_edge = servers_per_switch(g, NodeRole::kEdge);
  ASSERT_EQ(per_edge.size(), p.total_edges());
  for (const std::size_t c : per_edge) EXPECT_EQ(c, p.servers_per_edge);
  for (const std::size_t c : servers_per_switch(g, NodeRole::kCore)) {
    EXPECT_EQ(c, 0u);
  }
  for (const std::size_t c : servers_per_switch(g, NodeRole::kAgg)) {
    EXPECT_EQ(c, 0u);
  }
}

TEST(LinksByPeerRole, ClosCoreSeesOnlyAggs) {
  const ClosParams p = ClosParams::testbed();
  const Graph g = build_clos(p);
  const auto agg_links = links_by_peer_role(g, NodeRole::kCore, NodeRole::kAgg);
  for (const std::size_t c : agg_links) EXPECT_EQ(c, p.core_ports);
  const auto edge_links =
      links_by_peer_role(g, NodeRole::kCore, NodeRole::kEdge);
  for (const std::size_t c : edge_links) EXPECT_EQ(c, 0u);
}

}  // namespace
}  // namespace flattree
