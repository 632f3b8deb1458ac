// Randomized cross-validation properties: independent implementations (or
// mathematical identities) checked against each other over seeded random
// instances. These catch subtle algorithmic bugs that fixed examples miss.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <set>

#include "core/flat_tree.h"
#include "lp/mcf.h"
#include "net/rng.h"
#include "routing/ksp.h"
#include "sim/fluid.h"
#include "sim/packet.h"
#include "topo/clos.h"
#include "topo/random_graph.h"

namespace flattree {
namespace {

// ---- Yen's algorithm vs exhaustive path enumeration ------------------------

// All loopless switch paths from src to dst, by DFS.
void enumerate_paths(const Graph& g, NodeId here, NodeId dst,
                     std::vector<NodeId>& stack, std::set<NodeId>& seen,
                     std::vector<Path>& out) {
  if (here == dst) {
    out.push_back(stack);
    return;
  }
  for (const Adjacency& adj : g.neighbors(here)) {
    if (!is_switch(g.node(adj.peer).role)) continue;
    if (seen.contains(adj.peer)) continue;
    seen.insert(adj.peer);
    stack.push_back(adj.peer);
    enumerate_paths(g, adj.peer, dst, stack, seen, out);
    stack.pop_back();
    seen.erase(adj.peer);
  }
}

Graph random_switch_graph(std::uint64_t seed, std::uint32_t nodes,
                          std::uint32_t extra_links) {
  Graph g;
  Rng rng{seed};
  std::vector<NodeId> switches;
  for (std::uint32_t i = 0; i < nodes; ++i) {
    switches.push_back(g.add_node(NodeRole::kEdge));
  }
  // Random spanning tree first (connectivity), then extra random links.
  for (std::uint32_t i = 1; i < nodes; ++i) {
    g.add_link(switches[i], switches[rng.next_below(i)], 1e9);
  }
  std::uint32_t added = 0;
  while (added < extra_links) {
    const std::uint32_t a = static_cast<std::uint32_t>(rng.next_below(nodes));
    const std::uint32_t b = static_cast<std::uint32_t>(rng.next_below(nodes));
    if (a == b) continue;
    bool exists = false;
    for (const Adjacency& adj : g.neighbors(switches[a])) {
      if (adj.peer == switches[b]) exists = true;
    }
    if (exists) continue;
    g.add_link(switches[a], switches[b], 1e9);
    ++added;
  }
  return g;
}

class YenVsBruteForce : public ::testing::TestWithParam<std::uint64_t> {};
INSTANTIATE_TEST_SUITE_P(Seeds, YenVsBruteForce,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

TEST_P(YenVsBruteForce, TopKLengthsMatch) {
  const Graph g = random_switch_graph(GetParam(), 8, 6);
  const KspSolver solver{g};
  const NodeId src{0}, dst{7};

  std::vector<Path> all;
  std::vector<NodeId> stack{src};
  std::set<NodeId> seen{src};
  enumerate_paths(g, src, dst, stack, seen, all);
  ASSERT_FALSE(all.empty());
  std::vector<std::size_t> lengths;
  for (const Path& p : all) lengths.push_back(path_length(p));
  std::sort(lengths.begin(), lengths.end());

  const std::uint32_t k = 5;
  const auto yen = solver.k_shortest_paths(src, dst, k);
  ASSERT_EQ(yen.size(), std::min<std::size_t>(k, all.size()));
  for (std::size_t i = 0; i < yen.size(); ++i) {
    EXPECT_EQ(path_length(yen[i]), lengths[i]) << "rank " << i;
  }
  // Yen's paths must each be one of the enumerated paths.
  for (const Path& p : yen) {
    EXPECT_NE(std::find(all.begin(), all.end(), p), all.end());
  }
}

TEST_P(YenVsBruteForce, PathsAreDistinctAndSorted) {
  const Graph g = random_switch_graph(GetParam() + 100, 9, 8);
  const KspSolver solver{g};
  const auto paths = solver.k_shortest_paths(NodeId{0}, NodeId{8}, 10);
  for (std::size_t i = 1; i < paths.size(); ++i) {
    EXPECT_GE(path_length(paths[i]), path_length(paths[i - 1]));
    for (std::size_t j = 0; j < i; ++j) EXPECT_NE(paths[i], paths[j]);
  }
}

// ---- LP-min vs progressive filling on single-path flows --------------------
// With one path per flow, progressive filling's first saturation level is
// exactly the LP max-min optimum.

class LpVsFill : public ::testing::TestWithParam<std::uint64_t> {};
INSTANTIATE_TEST_SUITE_P(Seeds, LpVsFill, ::testing::Values(11, 12, 13, 14, 15));

McfInstance random_single_path_instance(std::uint64_t seed) {
  Rng rng{seed};
  McfInstance inst;
  const std::uint32_t edges = 6 + static_cast<std::uint32_t>(rng.next_below(6));
  for (std::uint32_t e = 0; e < edges; ++e) {
    inst.capacity.push_back(1e9 * (1 + rng.next_below(10)));
  }
  const std::uint32_t flows = 4 + static_cast<std::uint32_t>(rng.next_below(8));
  for (std::uint32_t f = 0; f < flows; ++f) {
    std::vector<std::uint32_t> path;
    const std::uint32_t hops = 1 + static_cast<std::uint32_t>(rng.next_below(4));
    std::set<std::uint32_t> used;
    for (std::uint32_t h = 0; h < hops; ++h) {
      const std::uint32_t e = static_cast<std::uint32_t>(rng.next_below(edges));
      if (used.insert(e).second) path.push_back(e);
    }
    inst.commodities.push_back(McfCommodity{{path}});
  }
  return inst;
}

TEST_P(LpVsFill, SinglePathMaxMinEqualsLpMin) {
  const McfInstance inst = random_single_path_instance(GetParam());
  const McfResult lp = solve_lp_min(inst);
  const McfResult fill = solve_max_min_fill(inst);
  ASSERT_TRUE(lp.feasible);
  EXPECT_NEAR(lp.min_rate / fill.min_rate, 1.0, 1e-6);
}

TEST_P(LpVsFill, MptcpSandwichedBetweenBounds) {
  const McfInstance inst = random_single_path_instance(GetParam() + 99);
  const McfResult lp_min = solve_lp_min(inst);
  const McfResult lp_avg = solve_lp_avg(inst);
  const McfResult mptcp = solve_mptcp_model(inst);
  ASSERT_TRUE(mptcp.feasible);
  EXPECT_GE(mptcp.min_rate, lp_min.min_rate - 1.0);
  EXPECT_LE(mptcp.avg_rate, lp_avg.avg_rate + 1.0);
  EXPECT_GE(mptcp.avg_rate, lp_min.avg_rate - 1.0);
}

// ---- allocators respect capacities ------------------------------------------

class CapacityRespect : public ::testing::TestWithParam<std::uint64_t> {};
INSTANTIATE_TEST_SUITE_P(Seeds, CapacityRespect,
                         ::testing::Values(21, 22, 23, 24));

McfInstance random_multipath_instance(std::uint64_t seed) {
  Rng rng{seed};
  McfInstance inst;
  const std::uint32_t edges = 10;
  for (std::uint32_t e = 0; e < edges; ++e) {
    inst.capacity.push_back(1e9 * (1 + rng.next_below(5)));
  }
  for (std::uint32_t f = 0; f < 6; ++f) {
    McfCommodity commodity;
    const std::uint32_t paths = 1 + static_cast<std::uint32_t>(rng.next_below(3));
    for (std::uint32_t p = 0; p < paths; ++p) {
      std::vector<std::uint32_t> path;
      std::set<std::uint32_t> used;
      for (std::uint32_t h = 0; h < 1 + rng.next_below(3); ++h) {
        const std::uint32_t e =
            static_cast<std::uint32_t>(rng.next_below(edges));
        if (used.insert(e).second) path.push_back(e);
      }
      commodity.paths.push_back(std::move(path));
    }
    inst.commodities.push_back(std::move(commodity));
  }
  return inst;
}

TEST_P(CapacityRespect, AllAllocatorsFeasible) {
  const McfInstance inst = random_multipath_instance(GetParam());
  const auto check = [&](const McfResult& r) {
    std::vector<double> load(inst.capacity.size(), 0.0);
    for (std::size_t f = 0; f < inst.commodities.size(); ++f) {
      for (std::size_t p = 0; p < inst.commodities[f].paths.size(); ++p) {
        for (std::uint32_t e : inst.commodities[f].paths[p]) {
          load[e] += r.path_rates[f][p];
        }
      }
    }
    for (std::size_t e = 0; e < load.size(); ++e) {
      EXPECT_LE(load[e], inst.capacity[e] * (1 + 1e-9) + 1e-3);
    }
  };
  check(solve_max_min_fill(inst));
  check(solve_mptcp_model(inst));
  const McfResult lp = solve_lp_avg(inst);
  if (lp.feasible) check(lp);
}

// ---- packet simulator vs fluid model ----------------------------------------

TEST(PacketVsFluid, DumbbellRatesAgree) {
  // Long-run TCP goodput on a shared bottleneck should approach the fluid
  // max-min allocation (equal shares).
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
  g.add_link(e0, e1, 200e6);

  auto cache = std::make_shared<PathCache>(g, 1);
  const auto provider = [cache](NodeId a, NodeId b, std::uint32_t) {
    return cache->server_paths(a, b);
  };
  FluidSimulator fluid{g, provider};
  const Workload flows{Flow{0, 2}, Flow{1, 3}};
  const auto fluid_rates = fluid.measure_rates(flows);

  PacketSim packet;
  packet.set_network(g);
  packet.add_flow(0, 2, 0, 0.0, provider(s0, s2, 0));
  packet.add_flow(1, 3, 0, 0.0, provider(s1, s3, 1));
  packet.run_until(4.0);
  for (int f = 0; f < 2; ++f) {
    const double goodput = packet.flow_bytes_acked(f) * 8 / 4.0;
    EXPECT_NEAR(goodput / fluid_rates[f], 1.0, 0.15) << "flow " << f;
  }
}

TEST(PacketVsFluid, FctOrderingPreserved) {
  // A 4x larger flow should take ~4x longer in both simulators.
  Graph g;
  const NodeId s0 = g.add_node(NodeRole::kServer);
  const NodeId s1 = g.add_node(NodeRole::kServer);
  const NodeId e0 = g.add_node(NodeRole::kEdge);
  const NodeId e1 = g.add_node(NodeRole::kEdge);
  g.add_link(s0, e0, 1e9);
  g.add_link(s1, e1, 1e9);
  g.add_link(e0, e1, 100e6);
  auto cache = std::make_shared<PathCache>(g, 1);
  const auto provider = [cache](NodeId a, NodeId b, std::uint32_t) {
    return cache->server_paths(a, b);
  };

  FluidSimulator fluid{g, provider};
  const auto fluid_results =
      fluid.run({Flow{0, 1, 1e6, 0.0}, Flow{0, 1, 4e6, 10.0}});
  const double fluid_ratio =
      fluid_results[1].fct_s() / fluid_results[0].fct_s();

  PacketSim packet;
  packet.set_network(g);
  const auto f1 = packet.add_flow(0, 1, 1e6, 0.0, provider(s0, s1, 0));
  const auto f2 = packet.add_flow(0, 1, 4e6, 10.0, provider(s0, s1, 1));
  packet.run_until(30.0);
  ASSERT_TRUE(packet.flow_completed(f1));
  ASSERT_TRUE(packet.flow_completed(f2));
  const double packet_ratio = (packet.flow_finish_time(f2) - 10.0) /
                              packet.flow_finish_time(f1);
  EXPECT_NEAR(packet_ratio / fluid_ratio, 1.0, 0.35);
}

// ---- realized flat-tree invariants over a parameter sweep -------------------

class FlatTreeSweep
    : public ::testing::TestWithParam<std::tuple<std::uint32_t, std::uint32_t>> {};
INSTANTIATE_TEST_SUITE_P(MnGrid, FlatTreeSweep,
                         ::testing::Combine(::testing::Values(1u, 2u, 3u),
                                            ::testing::Values(1u, 2u, 3u)));

TEST_P(FlatTreeSweep, EveryMnRealizesEveryMode) {
  const auto& [m, n] = GetParam();
  FlatTreeParams p;
  p.clos = ClosParams{4, 4, 4, 4, 8, 8, 32, 4};  // h/r = 8: room for m+n <= 6
  p.six_port_per_column = m;
  p.four_port_per_column = n;
  const FlatTree tree{p};
  for (const PodMode mode : {PodMode::kClos, PodMode::kLocal, PodMode::kGlobal}) {
    const Graph g = tree.realize_uniform(mode);
    EXPECT_TRUE(g.connected()) << "m=" << m << " n=" << n;
    for (NodeId core : g.nodes_with_role(NodeRole::kCore)) {
      EXPECT_EQ(g.degree(core), p.clos.core_ports);
    }
  }
}

// ---- random converter configurations ----------------------------------------

class RandomConfigs : public ::testing::TestWithParam<std::uint64_t> {};
INSTANTIATE_TEST_SUITE_P(Seeds, RandomConfigs,
                         ::testing::Values(31, 32, 33, 34, 35, 36));

TEST_P(RandomConfigs, RealizeEitherThrowsOrConservesPorts) {
  // Fuzz the configuration space: any per-type-legal configuration vector
  // must either be rejected (mismatched side bundles) or realize into a
  // port-conserving connected graph — never crash or corrupt.
  FlatTreeParams p;
  p.clos = ClosParams::testbed();
  p.six_port_per_column = 1;
  p.four_port_per_column = 1;
  const FlatTree tree{p};
  Rng rng{GetParam()};
  std::vector<ConverterConfig> configs;
  for (const Converter& conv : tree.converters()) {
    if (conv.type == ConverterType::kFourPort) {
      configs.push_back(rng.next_below(2) == 0 ? ConverterConfig::kDefault
                                               : ConverterConfig::kLocal);
    } else {
      switch (rng.next_below(4)) {
        case 0: configs.push_back(ConverterConfig::kDefault); break;
        case 1: configs.push_back(ConverterConfig::kLocal); break;
        case 2: configs.push_back(ConverterConfig::kSide); break;
        default: configs.push_back(ConverterConfig::kCross); break;
      }
    }
  }
  try {
    const Graph g = tree.realize(configs);
    // Accepted: the physical invariants must hold.
    for (NodeId core : g.nodes_with_role(NodeRole::kCore)) {
      EXPECT_EQ(g.degree(core), p.clos.core_ports);
    }
    for (NodeId server : g.servers()) {
      EXPECT_EQ(g.degree(server), 1u);
    }
  } catch (const std::logic_error&) {
    // Rejected: a half-configured side bundle. Also fine.
  }
}

// ---- repeated run-time conversions -------------------------------------------

TEST(PacketSimStress, ManyBackToBackConversions) {
  FlatTreeParams p;
  p.clos = ClosParams::testbed();
  p.clos.link_bps = 50e6;
  p.six_port_per_column = 1;
  p.four_port_per_column = 1;
  const FlatTree tree{p};
  const Graph clos = tree.realize_uniform(PodMode::kClos);
  const Graph global = tree.realize_uniform(PodMode::kGlobal);
  PathCache clos_paths{clos, 4};
  PathCache global_paths{global, 4};

  PacketSim sim;
  sim.set_network(clos);
  for (std::uint32_t s = 0; s < 6; ++s) {
    sim.add_flow(s, s + 6, 0, 0.0,
                 clos_paths.server_paths(NodeId{s}, NodeId{s + 6}));
  }
  double t = 0.3;
  sim.run_until(t);
  std::uint64_t last = sim.total_bytes_acked();
  for (int round = 0; round < 10; ++round) {
    const bool to_global = round % 2 == 0;
    PathCache& paths = to_global ? global_paths : clos_paths;
    sim.apply_conversion(
        to_global ? global : clos,
        [&](std::uint32_t flow) {
          return paths.server_paths(NodeId{flow}, NodeId{flow + 6});
        },
        0.02);
    t += 0.3;
    sim.run_until(t);
    // Traffic keeps moving after every flip.
    EXPECT_GT(sim.total_bytes_acked(), last) << "round " << round;
    last = sim.total_bytes_acked();
  }
}

}  // namespace
}  // namespace flattree
