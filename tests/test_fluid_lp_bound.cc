// Cross-layer invariant: the fluid simulator's steady-state max-min rates
// are one feasible point of the very MCF instance the LP layer optimizes,
// so they can never beat the LP optima. Violations mean the two layers
// disagree about capacity accounting (the bug class this test exists for:
// e.g. the fluid model double-counting parallel links or the LP compressing
// the wrong edges). Checked on the Table-1 architecture trio.
#include "sim/fluid.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "lp/fluid_incremental.h"
#include "lp/mcf.h"
#include "lp/throughput.h"
#include "net/capacity.h"
#include "net/rng.h"
#include "routing/ksp.h"
#include "topo/clos.h"
#include "topo/random_graph.h"
#include "traffic/patterns.h"

namespace flattree {
namespace {

constexpr double kRelTol = 1e-6;

struct Instance {
  std::vector<double> fluid_rates;
  McfResult lp_min;
  McfResult lp_avg;
};

// The fluid rates and the LP bounds over the SAME routing: one shared
// PathCache supplies both the simulator's provider and the MCF commodities.
Instance solve_both(const Graph& g, const Workload& flows, std::uint32_t k) {
  auto cache = std::make_shared<PathCache>(g, k);
  const PathProvider provider = [cache](NodeId src, NodeId dst,
                                        std::uint32_t) {
    return cache->server_paths(src, dst);
  };
  FluidSimulator fluid{g, provider};

  const LogicalTopology topo{g};
  std::vector<FlowPaths> flow_paths;
  flow_paths.reserve(flows.size());
  for (const Flow& f : flows) {
    flow_paths.push_back(FlowPaths{
        NodeId{f.src}, NodeId{f.dst},
        cache->server_paths(NodeId{f.src}, NodeId{f.dst})});
  }
  const McfInstance instance = build_mcf_instance(topo, flow_paths);

  Instance out;
  out.fluid_rates = fluid.measure_rates(flows);
  out.lp_min = solve_lp_min(instance);
  out.lp_avg = solve_lp_avg(instance);
  return out;
}

void expect_bounded(const Instance& inst, const char* label) {
  ASSERT_FALSE(inst.fluid_rates.empty()) << label;
  ASSERT_TRUE(inst.lp_min.feasible) << label;
  ASSERT_TRUE(inst.lp_avg.feasible) << label;

  double total = 0.0;
  double min_rate = std::numeric_limits<double>::infinity();
  for (const double r : inst.fluid_rates) {
    EXPECT_GE(r, 0.0) << label;
    total += r;
    min_rate = std::min(min_rate, r);
  }
  const double n = static_cast<double>(inst.fluid_rates.size());
  const double lp_total = inst.lp_avg.avg_rate * n;
  // LP-average maximizes total throughput over every feasible allocation.
  EXPECT_LE(total, lp_total * (1 + kRelTol)) << label;
  // LP-minimum maximizes the worst flow's rate over every feasible
  // allocation, so no feasible point has a better minimum.
  EXPECT_LE(min_rate, inst.lp_min.min_rate * (1 + kRelTol)) << label;
}

TEST(FluidLpBound, Table1ArchitecturesClusteredTraffic) {
  const ClosParams clos = ClosParams::fat_tree(4);
  const Graph fat_tree = build_clos(clos);
  RandomGraphParams rg = RandomGraphParams::from_clos(clos);
  rg.seed = 20170821;
  const Graph random_graph = build_random_graph(rg);
  TwoStageParams ts = TwoStageParams::from_clos(clos);
  ts.seed = 20170821;
  const Graph two_stage = build_two_stage_random_graph(ts);

  const Workload flows = clustered_all_to_all(clos.total_servers(), 4);
  expect_bounded(solve_both(fat_tree, flows, 4), "fat_tree");
  expect_bounded(solve_both(random_graph, flows, 4), "random_graph");
  expect_bounded(solve_both(two_stage, flows, 4), "two_stage");
}

TEST(FluidLpBound, PermutationTrafficAndMorePaths) {
  const ClosParams clos = ClosParams::fat_tree(4);
  const Graph fat_tree = build_clos(clos);
  Rng rng{7};
  const Workload flows = permutation_traffic(clos.total_servers(), rng);
  expect_bounded(solve_both(fat_tree, flows, 1), "k=1");
  expect_bounded(solve_both(fat_tree, flows, 8), "k=8");
}

// With single-path routing the fluid rate vector maps directly onto edge
// loads, so feasibility can be checked against raw capacities too.
TEST(FluidLpBound, SinglePathRatesRespectEdgeCapacities) {
  const ClosParams clos = ClosParams::fat_tree(4);
  const Graph g = build_clos(clos);
  const LogicalTopology topo{g};
  PathCache cache{g, 1};
  const Workload flows = clustered_all_to_all(clos.total_servers(), 8);

  const PathProvider provider = [&cache](NodeId src, NodeId dst,
                                         std::uint32_t) {
    return cache.server_paths(src, dst);
  };
  FluidSimulator fluid{g, provider};
  const std::vector<double> rates = fluid.measure_rates(flows);
  ASSERT_EQ(rates.size(), flows.size());

  std::vector<double> load(topo.directed_count(), 0.0);
  for (std::size_t i = 0; i < flows.size(); ++i) {
    const auto paths = cache.server_paths(NodeId{flows[i].src},
                                          NodeId{flows[i].dst});
    ASSERT_EQ(paths.size(), 1u);
    for (const std::uint32_t e : topo.path_edges(paths[0])) {
      load[e] += rates[i];
    }
  }
  for (std::size_t e = 0; e < load.size(); ++e) {
    EXPECT_LE(load[e],
              topo.capacity(static_cast<std::uint32_t>(e)) * (1 + kRelTol))
        << "directed edge " << e << " oversubscribed";
  }
}

// ---- water-filling optimality certificate for the incremental solver -------
//
// After every event of a fuzzed stream driven through the *incremental*
// allocator (lp/fluid_incremental.h), the allocation must carry the
// progressive-filling certificate:
//   (a) feasibility — no directed edge's load exceeds its capacity;
//   (b) bottleneck  — every subflow crosses at least one saturated edge on
//       which its rate equals the maximum crosser rate (it froze when that
//       edge filled, so nothing crossing the edge outranks it).
// Together these are exactly max-min optimality of the subflow allocation;
// a violation means the trace replay reused a stale bottleneck level.
void expect_water_filling_certificate(const Graph& g, std::uint64_t seed) {
  SCOPED_TRACE("seed=" + std::to_string(seed));
  const LogicalTopology topo{g};
  PathCache cache{g, 4};
  std::vector<NodeId> servers;
  for (std::uint32_t i = 0; i < g.node_count(); ++i) {
    if (!is_switch(g.node(NodeId{i}).role)) servers.push_back(NodeId{i});
  }

  constexpr std::uint32_t kSlots = 32;
  std::vector<double> caps(topo.directed_count());
  for (std::size_t e = 0; e < caps.size(); ++e) {
    caps[e] = topo.capacity(static_cast<std::uint32_t>(e));
  }
  IncrementalMaxMinSolver inc;
  inc.reset(caps, kSlots);
  std::vector<std::vector<std::vector<std::uint32_t>>> paths_of(kSlots);
  std::vector<bool> present(kSlots, false);
  std::vector<bool> edge_failed(topo.edge_count(), false);

  Rng rng{seed};
  for (int ev = 0; ev < 120; ++ev) {
    const double roll = rng.next_double();
    const std::uint32_t slot =
        static_cast<std::uint32_t>(rng.next_below(kSlots));
    if (roll < 0.45) {
      const NodeId src = servers[rng.next_below(servers.size())];
      NodeId dst = src;
      while (dst == src) dst = servers[rng.next_below(servers.size())];
      std::vector<std::vector<std::uint32_t>> pe;
      for (const Path& p : cache.server_paths(src, dst)) {
        pe.push_back(topo.path_edges(p));
      }
      if (present[slot]) inc.remove_flow(slot);
      inc.add_flow(slot, pe);
      paths_of[slot] = std::move(pe);
      present[slot] = true;
    } else if (roll < 0.70) {
      if (present[slot]) {
        inc.remove_flow(slot);
        present[slot] = false;
      }
    } else {
      const std::uint32_t e =
          static_cast<std::uint32_t>(rng.next_below(topo.edge_count()));
      edge_failed[e] = !edge_failed[e];
      for (const std::uint32_t d : {2 * e, 2 * e + 1}) {
        inc.set_capacity(d, edge_failed[e] ? 0.0 : topo.capacity(d));
      }
    }
    inc.solve();

    // Per-edge load and per-edge max subflow rate from the solver's own
    // per-path rates.
    std::vector<double> load(topo.directed_count(), 0.0);
    std::vector<double> max_rate(topo.directed_count(), 0.0);
    for (std::uint32_t s = 0; s < kSlots; ++s) {
      if (!present[s]) continue;
      const std::vector<double> pr = inc.path_rates(s);
      ASSERT_EQ(pr.size(), paths_of[s].size());
      for (std::size_t p = 0; p < pr.size(); ++p) {
        for (const std::uint32_t e : paths_of[s][p]) {
          load[e] += pr[p];
          max_rate[e] = std::max(max_rate[e], pr[p]);
        }
      }
    }
    for (std::size_t e = 0; e < load.size(); ++e) {
      const double cap = inc.capacity(static_cast<std::uint32_t>(e));
      EXPECT_LE(load[e], cap * (1 + kRelTol) + 1e-9)
          << "event " << ev << ": directed edge " << e << " over capacity";
    }
    const auto saturated = [&](std::uint32_t e) {
      const double cap = inc.capacity(e);
      return cap - load[e] <= kRelTol * cap + 1e-9;
    };
    for (std::uint32_t s = 0; s < kSlots; ++s) {
      if (!present[s]) continue;
      const std::vector<double> pr = inc.path_rates(s);
      for (std::size_t p = 0; p < pr.size(); ++p) {
        if (paths_of[s][p].empty()) continue;
        bool bottlenecked = false;
        for (const std::uint32_t e : paths_of[s][p]) {
          if (saturated(e) && pr[p] >= max_rate[e] * (1 - kRelTol) - 1e-9) {
            bottlenecked = true;
            break;
          }
        }
        EXPECT_TRUE(bottlenecked)
            << "event " << ev << ": slot " << s << " path " << p
            << " (rate " << pr[p] << ") crosses no saturated edge it "
            << "dominates — not max-min";
      }
    }
  }
}

TEST(FluidLpBound, IncrementalWaterFillingCertificateFatTree) {
  const Graph g = build_clos(ClosParams::fat_tree(4));
  for (const std::uint64_t seed : {3u, 13u, 23u}) {
    expect_water_filling_certificate(g, seed);
  }
}

TEST(FluidLpBound, IncrementalWaterFillingCertificateTwoStage) {
  TwoStageParams ts = TwoStageParams::from_clos(ClosParams::fat_tree(4));
  ts.seed = 20170821;
  const Graph g = build_two_stage_random_graph(ts);
  for (const std::uint64_t seed : {5u, 15u}) {
    expect_water_filling_certificate(g, seed);
  }
}

}  // namespace
}  // namespace flattree
