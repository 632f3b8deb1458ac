#include "routing/ecmp.h"

#include <gtest/gtest.h>

#include <set>

#include "routing/path.h"
#include "topo/clos.h"

namespace flattree {
namespace {

TEST(Ecmp, PathIsValidAndShortest) {
  const Graph g = build_clos(ClosParams::fat_tree(4));
  EcmpRouter router{g};
  const auto servers = g.servers();
  const Path p = router.flow_path(servers[0], servers[15], /*flow_key=*/1);
  EXPECT_TRUE(is_valid_path(g, p));
  EXPECT_EQ(p.front(), servers[0]);
  EXPECT_EQ(p.back(), servers[15]);
  // Inter-pod server path in a fat-tree: 6 hops (srv-e-a-c-a-e-srv).
  EXPECT_EQ(path_length(p), 6u);
}

TEST(Ecmp, SameRackPath) {
  const Graph g = build_clos(ClosParams::fat_tree(4));
  EcmpRouter router{g};
  const auto servers = g.servers();
  const Path p = router.flow_path(servers[0], servers[1], 1);
  EXPECT_EQ(path_length(p), 2u);
}

TEST(Ecmp, DeterministicPerFlow) {
  const Graph g = build_clos(ClosParams::fat_tree(4));
  EcmpRouter r1{g}, r2{g};
  const auto servers = g.servers();
  EXPECT_EQ(r1.flow_path(servers[0], servers[15], 9),
            r2.flow_path(servers[0], servers[15], 9));
}

TEST(Ecmp, DifferentFlowsSpreadAcrossPaths) {
  const Graph g = build_clos(ClosParams::fat_tree(8));
  EcmpRouter router{g};
  const auto servers = g.servers();
  std::set<Path> distinct;
  for (std::uint64_t flow = 0; flow < 64; ++flow) {
    distinct.insert(router.flow_path(servers[0], servers.back(), flow));
  }
  // 16 equal-cost paths exist; hashing should find several.
  EXPECT_GE(distinct.size(), 4u);
}

TEST(Ecmp, SingleFlowUsesSinglePath) {
  // The paper's point about ECMP: one flow -> one path, repeatedly.
  const Graph g = build_clos(ClosParams::fat_tree(8));
  EcmpRouter router{g};
  const auto servers = g.servers();
  const Path first = router.flow_path(servers[3], servers[100], 77);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(router.flow_path(servers[3], servers[100], 77), first);
  }
}

TEST(Ecmp, SeedChangesHashing) {
  const Graph g = build_clos(ClosParams::fat_tree(8));
  EcmpRouter r1{g, 1}, r2{g, 2};
  const auto servers = g.servers();
  int diffs = 0;
  for (std::uint64_t flow = 0; flow < 32; ++flow) {
    if (r1.flow_path(servers[0], servers.back(), flow) !=
        r2.flow_path(servers[0], servers.back(), flow)) {
      ++diffs;
    }
  }
  EXPECT_GT(diffs, 0);
}

}  // namespace
}  // namespace flattree
