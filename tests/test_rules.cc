#include "routing/rules.h"

#include <gtest/gtest.h>

#include "core/flat_tree.h"
#include "topo/clos.h"

namespace flattree {
namespace {

StateCounts analyze(const Graph& g, std::uint32_t k) {
  PathCache cache{g, k};
  return analyze_states(g, cache, all_ingress_pairs(g));
}

FlatTree testbed_tree() {
  FlatTreeParams p;
  p.clos = ClosParams::testbed();
  p.six_port_per_column = 1;
  p.four_port_per_column = 1;
  return FlatTree{p};
}

TEST(AllIngressPairs, ClosOnlyEdgesAreIngress) {
  const Graph g = build_clos(ClosParams::testbed());
  const auto pairs = all_ingress_pairs(g);
  // 8 edge switches -> 8*7 ordered pairs.
  EXPECT_EQ(pairs.size(), 56u);
}

TEST(AllIngressPairs, GlobalModeAllSwitchesAreIngress) {
  const Graph g = testbed_tree().realize_uniform(PodMode::kGlobal);
  // All 20 switches carry servers in global mode.
  EXPECT_EQ(all_ingress_pairs(g).size(), 20u * 19u);
}

TEST(StateCounts, ReductionHierarchy) {
  // §4.2: naive >> aggregated >= source-routing ingress state.
  const Graph g = build_clos(ClosParams::testbed());
  const StateCounts counts = analyze(g, 4);
  EXPECT_GT(counts.naive_avg, counts.aggregated_avg);
  EXPECT_GE(counts.aggregated_max, counts.ingress_max);
  EXPECT_GT(counts.path_count, 0u);
}

TEST(StateCounts, NaiveScalesWithServerFan) {
  // Testbed racks hold 3 servers; naive state multiplies by 3*3 per pair.
  const Graph g = build_clos(ClosParams::testbed());
  const StateCounts counts = analyze(g, 4);
  EXPECT_NEAR(counts.naive_avg / counts.aggregated_avg, 9.0, 1e-9);
}

TEST(StateCounts, FormulaTracksExactCounts) {
  // The paper's closed-form S^2 k L / N should be within a factor ~2 of the
  // measured per-switch average (it ignores endpoint effects).
  const Graph g = build_clos(ClosParams::testbed());
  const StateCounts counts = analyze(g, 4);
  EXPECT_GT(counts.formula_aggregated_avg, counts.aggregated_avg * 0.4);
  EXPECT_LT(counts.formula_aggregated_avg, counts.aggregated_avg * 2.5);
}

TEST(StateCounts, MoreIngressSwitchesMoreRules) {
  // Global mode (20 ingress switches) needs more aggregated rules than
  // Clos mode (8) — the §5.3 testbed observation (242 vs 76).
  const FlatTree tree = testbed_tree();
  const StateCounts global = analyze(tree.realize_uniform(PodMode::kGlobal), 4);
  const StateCounts local = analyze(tree.realize_uniform(PodMode::kLocal), 4);
  const StateCounts clos = analyze(tree.realize_uniform(PodMode::kClos), 4);
  EXPECT_GT(global.aggregated_max, local.aggregated_max);
  EXPECT_GT(local.aggregated_max, clos.aggregated_max);
}

TEST(StateCounts, KScalesIngressState) {
  const Graph g = build_clos(ClosParams::testbed());
  const StateCounts k2 = analyze(g, 2);
  const StateCounts k4 = analyze(g, 4);
  EXPECT_GT(k4.ingress_avg, k2.ingress_avg);
}

TEST(SourceRouteBudget, TestbedPathsAgainstTheSixHopMac) {
  // §4.2.2: the ingress switch writes a route into the 48-bit source MAC,
  // one byte per switch hop, so a source route holds at most 6 hops. The
  // "src-routed" state of bench_states assumes the installed paths fit.
  // They do for every k=4 path between ingress switches of the testbed in
  // global and local mode.
  constexpr std::size_t kMacHops = 6;
  const FlatTree tree = testbed_tree();
  for (const PodMode mode : {PodMode::kGlobal, PodMode::kLocal}) {
    const Graph g = tree.realize_uniform(mode);
    PathCache cache{g, 4};
    std::size_t paths = 0;
    for (const SwitchPair& pair : all_ingress_pairs(g)) {
      for (const Path& path : cache.switch_paths(pair.src, pair.dst)) {
        ++paths;
        EXPECT_LE(path_length(path), kMacHops) << to_string(mode);
      }
    }
    EXPECT_GT(paths, 0u) << to_string(mode);
  }

  // In Clos mode every inter-Pod path fits, but a Pod has only two 2-hop
  // paths between its edge switches: the third and fourth shortest detour
  // through another Pod in 8 hops, which no MAC route can carry. Those 16
  // of the 224 paths are counted in bench_states' Clos row all the same.
  const Graph g = tree.realize_uniform(PodMode::kClos);
  PathCache cache{g, 4};
  std::size_t over_budget = 0;
  for (const SwitchPair& pair : all_ingress_pairs(g)) {
    const auto& path_set = cache.switch_paths(pair.src, pair.dst);
    ASSERT_EQ(path_set.size(), 4u);
    if (g.node(pair.src).pod != g.node(pair.dst).pod) {
      for (const Path& path : path_set) EXPECT_LE(path_length(path), kMacHops);
      continue;
    }
    EXPECT_EQ(path_length(path_set[0]), 2u);
    EXPECT_EQ(path_length(path_set[1]), 2u);
    EXPECT_EQ(path_length(path_set[2]), 8u);
    EXPECT_EQ(path_length(path_set[3]), 8u);
    over_budget += 2;
  }
  EXPECT_EQ(over_budget, 16u);
}

}  // namespace
}  // namespace flattree
