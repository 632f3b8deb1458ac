#include "routing/ksp.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "core/flat_tree.h"
#include "routing/path.h"
#include "topo/clos.h"

namespace flattree {
namespace {

// Diamond: a - {b, c} - d, plus a longer detour a - e - f - d.
class DiamondGraph : public ::testing::Test {
 protected:
  void SetUp() override {
    a_ = g_.add_node(NodeRole::kEdge);
    b_ = g_.add_node(NodeRole::kEdge);
    c_ = g_.add_node(NodeRole::kEdge);
    d_ = g_.add_node(NodeRole::kEdge);
    e_ = g_.add_node(NodeRole::kEdge);
    f_ = g_.add_node(NodeRole::kEdge);
    g_.add_link(a_, b_, 1e9);
    g_.add_link(a_, c_, 1e9);
    g_.add_link(b_, d_, 1e9);
    g_.add_link(c_, d_, 1e9);
    g_.add_link(a_, e_, 1e9);
    g_.add_link(e_, f_, 1e9);
    g_.add_link(f_, d_, 1e9);
  }
  Graph g_;
  NodeId a_, b_, c_, d_, e_, f_;
};

TEST_F(DiamondGraph, ShortestPath) {
  const KspSolver solver{g_};
  const auto path = solver.shortest_path(a_, d_);
  ASSERT_TRUE(path.has_value());
  EXPECT_EQ(path_length(*path), 2u);
  // Lexicographic tie-break picks b (lower id) over c.
  EXPECT_EQ((*path)[1], b_);
}

TEST_F(DiamondGraph, TrivialPath) {
  const KspSolver solver{g_};
  const auto path = solver.shortest_path(a_, a_);
  ASSERT_TRUE(path.has_value());
  EXPECT_EQ(path->size(), 1u);
}

TEST_F(DiamondGraph, KShortestOrdering) {
  const KspSolver solver{g_};
  const auto paths = solver.k_shortest_paths(a_, d_, 3);
  ASSERT_EQ(paths.size(), 3u);
  EXPECT_EQ(path_length(paths[0]), 2u);
  EXPECT_EQ(path_length(paths[1]), 2u);
  EXPECT_EQ(path_length(paths[2]), 3u);
  EXPECT_EQ(paths[0][1], b_);
  EXPECT_EQ(paths[1][1], c_);
  EXPECT_EQ(paths[2][1], e_);
}

TEST_F(DiamondGraph, KLargerThanPathCount) {
  const KspSolver solver{g_};
  const auto paths = solver.k_shortest_paths(a_, d_, 50);
  // Exactly 3 loopless paths exist.
  EXPECT_EQ(paths.size(), 3u);
}

TEST_F(DiamondGraph, PathsAreLooplessAndValid) {
  const KspSolver solver{g_};
  for (const Path& p : solver.k_shortest_paths(a_, d_, 10)) {
    EXPECT_TRUE(is_valid_path(g_, p));
  }
}

TEST_F(DiamondGraph, PathsAreDistinct) {
  const KspSolver solver{g_};
  const auto paths = solver.k_shortest_paths(a_, d_, 10);
  for (std::size_t i = 0; i < paths.size(); ++i) {
    for (std::size_t j = i + 1; j < paths.size(); ++j) {
      EXPECT_NE(paths[i], paths[j]);
    }
  }
}

TEST_F(DiamondGraph, ZeroKReturnsEmpty) {
  const KspSolver solver{g_};
  EXPECT_TRUE(solver.k_shortest_paths(a_, d_, 0).empty());
}

TEST(Ksp, DisconnectedReturnsNothing) {
  Graph g;
  const NodeId a = g.add_node(NodeRole::kEdge);
  const NodeId b = g.add_node(NodeRole::kEdge);
  const KspSolver solver{g};
  EXPECT_FALSE(solver.shortest_path(a, b).has_value());
  EXPECT_TRUE(solver.k_shortest_paths(a, b, 4).empty());
}

TEST(Ksp, ServersNotTransited) {
  // a - s - b but also a - c - b; the server route must not be used.
  Graph g;
  const NodeId a = g.add_node(NodeRole::kEdge);
  const NodeId b = g.add_node(NodeRole::kEdge);
  const NodeId s = g.add_node(NodeRole::kServer);
  const NodeId c = g.add_node(NodeRole::kEdge);
  g.add_link(a, s, 1e9);
  g.add_link(s, b, 1e9);
  g.add_link(a, c, 1e9);
  g.add_link(c, b, 1e9);
  const KspSolver solver{g};
  const auto paths = solver.k_shortest_paths(a, b, 5);
  ASSERT_EQ(paths.size(), 1u);
  EXPECT_EQ((*paths.begin())[1], c);
}

TEST(Ksp, ServerCountIsNotBounded) {
  // A ring of 4 switches, each followed by 17,000 servers: 68,004 nodes,
  // more than 16-bit distances could index, and servers between the
  // switch ids. Distances are kept per switch, so the solver builds.
  Graph g;
  std::vector<NodeId> sw;
  std::vector<NodeId> first;  // each switch's first server
  for (int i = 0; i < 4; ++i) {
    sw.push_back(g.add_node(NodeRole::kEdge));
    for (int j = 0; j < 17000; ++j) {
      const NodeId s = g.add_node(NodeRole::kServer);
      if (j == 0) first.push_back(s);
      g.add_link(s, sw.back(), 1e9);
    }
  }
  for (int i = 0; i < 4; ++i) g.add_link(sw[i], sw[(i + 1) % 4], 1e9);
  ASSERT_GT(g.node_count(), 65535u);
  const KspSolver solver{g};
  const auto paths = solver.k_shortest_paths(first[0], first[2], 3);
  ASSERT_EQ(paths.size(), 2u);
  EXPECT_EQ(paths[0], (Path{first[0], sw[0], sw[1], sw[2], first[2]}));
  EXPECT_EQ(paths[1], (Path{first[0], sw[0], sw[3], sw[2], first[2]}));
}

TEST(Ksp, SwitchCountIsBounded) {
  // A line of switches with a server at each end. At 65,533 switches the
  // end-to-end distance, 65,534 hops, still fits a 16-bit table entry;
  // one switch more is refused.
  const auto line = [](std::uint32_t switches) {
    Graph g;
    NodeId prev = g.add_node(NodeRole::kServer);
    for (std::uint32_t i = 0; i <= switches; ++i) {
      const NodeId next =
          g.add_node(i < switches ? NodeRole::kEdge : NodeRole::kServer);
      g.add_link(prev, next, 1e9);
      prev = next;
    }
    return g;
  };
  const Graph longest = line(65533);
  const auto path =
      KspSolver{longest}.shortest_path(NodeId{0}, NodeId{65534});
  ASSERT_TRUE(path.has_value());
  EXPECT_EQ(path_length(*path), 65534u);
  EXPECT_THROW((void)KspSolver{line(65534)}, std::length_error);
}

TEST(Ksp, FatTreeEqualCostPaths) {
  // k=4 fat-tree: 4 shortest inter-pod switch paths (one per core).
  const Graph g = build_clos(ClosParams::fat_tree(4));
  const KspSolver solver{g};
  const auto edges = g.nodes_with_role(NodeRole::kEdge);
  const auto paths = solver.k_shortest_paths(edges[0], edges[2], 8);
  ASSERT_GE(paths.size(), 4u);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(path_length(paths[i]), 4u);  // edge-agg-core-agg-edge
  }
  if (paths.size() > 4) {
    EXPECT_GT(path_length(paths[4]), 4u);
  }
}

TEST(Ksp, Deterministic) {
  const Graph g = build_clos(ClosParams::testbed());
  const KspSolver solver{g};
  const auto edges = g.nodes_with_role(NodeRole::kEdge);
  const auto p1 = solver.k_shortest_paths(edges[0], edges[5], 6);
  const auto p2 = solver.k_shortest_paths(edges[0], edges[5], 6);
  EXPECT_EQ(p1, p2);
}

TEST(PathCache, CachesAndReturnsServerPaths) {
  const Graph g = build_clos(ClosParams::testbed());
  PathCache cache{g, 4};
  const auto servers = g.servers();
  // Cross-pod pair.
  const NodeId src = servers[0];
  const NodeId dst = servers[10];
  const auto paths = cache.server_paths(src, dst);
  ASSERT_FALSE(paths.empty());
  EXPECT_LE(paths.size(), 4u);
  for (const Path& p : paths) {
    EXPECT_TRUE(is_valid_path(g, p));
    EXPECT_EQ(p.front(), src);
    EXPECT_EQ(p.back(), dst);
  }
  EXPECT_GE(cache.cached_pairs(), 1u);
  // Second call hits the cache (same switch pair).
  (void)cache.server_paths(src, dst);
  EXPECT_EQ(cache.cached_pairs(), 1u);
}

TEST(PathCache, SameRackPairUsesSharedSwitch) {
  const Graph g = build_clos(ClosParams::testbed());
  PathCache cache{g, 4};
  const auto servers = g.servers();
  // Servers 0,1,2 share edge 0 in the testbed layout.
  const auto paths = cache.server_paths(servers[0], servers[1]);
  ASSERT_EQ(paths.size(), 1u);
  EXPECT_EQ(paths[0].size(), 3u);
}

TEST(PathCache, GlobalModeFlatTreePathsShorter) {
  // Flattening must reduce (or preserve) inter-pod switch distance.
  FlatTreeParams params = FlatTreeParams::defaults_for(ClosParams::testbed());
  const FlatTree tree{params};
  const Graph clos = tree.realize_uniform(PodMode::kClos);
  const Graph global = tree.realize_uniform(PodMode::kGlobal);
  const KspSolver sc{clos};
  const KspSolver sg{global};
  const auto edges_c = clos.nodes_with_role(NodeRole::kEdge);
  double total_c = 0, total_g = 0;
  int pairs = 0;
  for (std::size_t i = 0; i < edges_c.size(); ++i) {
    for (std::size_t j = 0; j < edges_c.size(); ++j) {
      if (i == j) continue;
      total_c += path_length(*sc.shortest_path(edges_c[i], edges_c[j]));
      total_g += path_length(*sg.shortest_path(edges_c[i], edges_c[j]));
      ++pairs;
    }
  }
  EXPECT_LE(total_g, total_c);
}

}  // namespace
}  // namespace flattree
