#include "net/failures.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>

#include "control/conversion_exec.h"
#include "control/hierarchy.h"
#include "core/flat_tree.h"
#include "routing/ksp.h"
#include "sim/fluid.h"
#include "topo/clos.h"
#include "traffic/patterns.h"

namespace flattree {
namespace {

TEST(RemoveLinks, PreservesNodesRemovesLinks) {
  const Graph g = build_clos(ClosParams::testbed());
  const Graph degraded = remove_links(g, {LinkId{0}, LinkId{5}});
  EXPECT_EQ(degraded.node_count(), g.node_count());
  EXPECT_EQ(degraded.link_count(), g.link_count() - 2);
  for (std::uint32_t i = 0; i < g.node_count(); ++i) {
    EXPECT_EQ(degraded.node(NodeId{i}).role, g.node(NodeId{i}).role);
  }
}

TEST(RemoveLinks, EmptyFailureSetIsIdentity) {
  const Graph g = build_clos(ClosParams::testbed());
  const Graph same = remove_links(g, {});
  EXPECT_EQ(same.link_count(), g.link_count());
}

TEST(RemoveLinks, DuplicateIdsRemoveOnce) {
  const Graph g = build_clos(ClosParams::testbed());
  const Graph degraded = remove_links(g, {LinkId{3}, LinkId{3}});
  EXPECT_EQ(degraded.link_count(), g.link_count() - 1);
}

TEST(RemoveLinks, OutOfRangeThrows) {
  const Graph g = build_clos(ClosParams::testbed());
  EXPECT_THROW((void)remove_links(g, {LinkId{99999}}), std::invalid_argument);
}

TEST(SampleFabricFailures, NeverTouchesServerLinks) {
  const Graph g = build_clos(ClosParams::testbed());
  Rng rng{5};
  for (LinkId id : sample_fabric_failures(g, 0.5, rng)) {
    const Link& l = g.link(id);
    EXPECT_TRUE(is_switch(g.node(l.a).role));
    EXPECT_TRUE(is_switch(g.node(l.b).role));
  }
}

TEST(SampleFabricFailures, FractionRespected) {
  const Graph g = build_clos(ClosParams::topo2());
  Rng rng{5};
  const std::size_t fabric_links = g.link_count() - g.servers().size();
  const auto failed = sample_fabric_failures(g, 0.25, rng);
  EXPECT_NEAR(static_cast<double>(failed.size()),
              0.25 * static_cast<double>(fabric_links), 2.0);
}

TEST(SampleFabricFailures, BadFractionThrows) {
  const Graph g = build_clos(ClosParams::testbed());
  Rng rng{5};
  EXPECT_THROW((void)sample_fabric_failures(g, 1.5, rng),
               std::invalid_argument);
  EXPECT_THROW((void)sample_fabric_failures(g, -0.1, rng),
               std::invalid_argument);
  // NaN compares false against every bound, so a naive range check passes
  // it through; the validation must reject it explicitly.
  EXPECT_THROW(
      (void)sample_fabric_failures(g, std::numeric_limits<double>::quiet_NaN(),
                                   rng),
      std::invalid_argument);
}

TEST(SampleSwitchFailures, SamplesOnlyRequestedRole) {
  const Graph g = build_clos(ClosParams::testbed());
  Rng rng{7};
  const auto failed = sample_switch_failures(g, NodeRole::kCore, 0.5, rng);
  EXPECT_FALSE(failed.empty());
  for (NodeId id : failed) {
    EXPECT_EQ(g.node(id).role, NodeRole::kCore);
  }
}

TEST(SampleSwitchFailures, RejectsBadInputs) {
  const Graph g = build_clos(ClosParams::testbed());
  Rng rng{7};
  EXPECT_THROW((void)sample_switch_failures(g, NodeRole::kCore, 2.0, rng),
               std::invalid_argument);
  EXPECT_THROW((void)sample_switch_failures(
                   g, NodeRole::kCore, std::numeric_limits<double>::quiet_NaN(),
                   rng),
               std::invalid_argument);
  EXPECT_THROW((void)sample_switch_failures(g, NodeRole::kServer, 0.5, rng),
               std::invalid_argument);
}

TEST(Degrade, SwitchFailureSeversFabricKeepsServerLinks) {
  const Graph g = build_clos(ClosParams::testbed());
  const NodeId edge = g.nodes_with_role(NodeRole::kEdge).front();
  const Graph degraded = degrade(g, FailureSet{{}, {edge}});
  EXPECT_EQ(degraded.node_count(), g.node_count());
  // Every neighbor left on the dead edge switch is a server: the servers
  // stay cabled to the dead box, all switch-switch links are gone.
  std::size_t server_links = 0;
  for (const Adjacency& adj : degraded.neighbors(edge)) {
    EXPECT_EQ(degraded.node(adj.peer).role, NodeRole::kServer);
    ++server_links;
  }
  EXPECT_GT(server_links, 0u);
  // Those servers are attached but unreachable from the rest.
  EXPECT_FALSE(servers_connected(degraded));
  EXPECT_EQ(degraded.attachment_switch(degraded.neighbors(edge)[0].peer),
            edge);
}

TEST(Degrade, RejectsServerAsFailedSwitch) {
  const Graph g = build_clos(ClosParams::testbed());
  const NodeId server = g.servers().front();
  EXPECT_THROW((void)degrade(g, FailureSet{{}, {server}}),
               std::invalid_argument);
  EXPECT_THROW((void)degrade(g, FailureSet{{}, {NodeId{99999}}}),
               std::invalid_argument);
}

TEST(DegradeMapped, ResolvesLinksAcrossRealizations) {
  // The same flat-tree in two modes: link ids differ, node ids are shared.
  FlatTreeParams p;
  p.clos = ClosParams::testbed();
  p.six_port_per_column = 1;
  p.four_port_per_column = 1;
  const FlatTree tree{p};
  const Graph global = tree.realize_uniform(PodMode::kGlobal);
  const Graph local = tree.realize_uniform(PodMode::kLocal);
  // Pick a fabric link that exists (as a node pair) in both realizations.
  for (std::uint32_t i = 0; i < global.link_count(); ++i) {
    const Link& l = global.link(LinkId{i});
    if (!is_switch(global.node(l.a).role) || !is_switch(global.node(l.b).role))
      continue;
    if (!local.adjacent(l.a, l.b)) continue;
    const Graph degraded = degrade_mapped(local, global, FailureSet{{LinkId{i}}, {}});
    EXPECT_LT(degraded.link_count(), local.link_count());
    EXPECT_FALSE(degraded.adjacent(l.a, l.b));
    return;
  }
  FAIL() << "no shared fabric pair between realizations";
}

TEST(CoreColumnFailure, SelectsConsecutiveCoresWrapping) {
  const Graph g = build_clos(ClosParams::testbed());
  const auto cores = g.nodes_with_role(NodeRole::kCore);
  ASSERT_GE(cores.size(), 2u);
  const FailureSet wrap = core_column_failure(
      g, static_cast<std::uint32_t>(cores.size()) - 1, 2);
  ASSERT_EQ(wrap.switches.size(), 2u);
  EXPECT_EQ(wrap.switches.front(), cores.front());
  EXPECT_EQ(wrap.switches.back(), cores.back());
  EXPECT_THROW((void)core_column_failure(
                   g, 0, static_cast<std::uint32_t>(cores.size()) + 1),
               std::invalid_argument);
}

TEST(FailureSchedule, EventsSortedStably) {
  FailureSchedule schedule;
  schedule.fail_at(2.0, FailureSet{{LinkId{2}}, {}});
  schedule.fail_at(1.0, FailureSet{{LinkId{0}}, {}});
  schedule.recover_at(1.0, FailureSet{{LinkId{0}}, {}});
  ASSERT_EQ(schedule.events().size(), 3u);
  EXPECT_DOUBLE_EQ(schedule.events()[0].time_s, 1.0);
  // Equal timestamps keep insertion order: the fail added first stays first.
  EXPECT_FALSE(schedule.events()[0].recover);
  EXPECT_TRUE(schedule.events()[1].recover);
  EXPECT_DOUBLE_EQ(schedule.events()[2].time_s, 2.0);
}

TEST(FailureSchedule, ActiveAtAccumulates) {
  FailureSchedule schedule;
  schedule.fail_at(1.0, FailureSet{{LinkId{0}, LinkId{1}}, {NodeId{9}}});
  schedule.recover_at(2.0, FailureSet{{LinkId{0}}, {}});
  EXPECT_TRUE(schedule.active_at(0.5).empty());
  const FailureSet mid = schedule.active_at(1.5);
  EXPECT_EQ(mid.links.size(), 2u);
  EXPECT_EQ(mid.switches.size(), 1u);
  const FailureSet late = schedule.active_at(3.0);
  ASSERT_EQ(late.links.size(), 1u);
  EXPECT_EQ(late.links[0], LinkId{1});
  EXPECT_EQ(late.switches.size(), 1u);
}

TEST(FailureSchedule, RejectsRecoverBeforeFail) {
  // Recovering an element that was never failed used to be a silent no-op;
  // it is now rejected at construction time, and the rejected event leaves
  // the schedule untouched.
  FailureSchedule schedule;
  EXPECT_THROW(schedule.recover_at(1.0, FailureSet{{LinkId{3}}, {NodeId{2}}}),
               std::invalid_argument);
  EXPECT_TRUE(schedule.empty());
  // Recover scheduled before (or colliding into the slot ahead of) the
  // element's fail is the same violation, even when inserted fail-first.
  schedule.fail_at(2.0, FailureSet{{LinkId{3}}, {}});
  EXPECT_THROW(schedule.recover_at(1.0, FailureSet{{LinkId{3}}, {}}),
               std::invalid_argument);
  EXPECT_EQ(schedule.events().size(), 1u);
}

TEST(FailureSchedule, RejectsDuplicateFailWithoutRecover) {
  FailureSchedule schedule;
  schedule.fail_at(1.0, FailureSet{{LinkId{0}}, {NodeId{7}}});
  EXPECT_THROW(schedule.fail_at(2.0, FailureSet{{LinkId{0}}, {}}),
               std::invalid_argument);
  EXPECT_THROW(schedule.fail_at(2.0, FailureSet{{}, {NodeId{7}}}),
               std::invalid_argument);
  // A fail landing *before* the existing fail is the same double-fail.
  EXPECT_THROW(schedule.fail_at(0.5, FailureSet{{LinkId{0}}, {}}),
               std::invalid_argument);
  // After a recover the element may fail again (flap).
  schedule.recover_at(2.0, FailureSet{{LinkId{0}}, {}});
  schedule.fail_at(3.0, FailureSet{{LinkId{0}}, {}});
  EXPECT_EQ(schedule.events().size(), 3u);
  ASSERT_EQ(schedule.active_at(5.0).links.size(), 1u);
}

TEST(FailureSchedule, RejectsDuplicateElementInOneEvent) {
  FailureSchedule schedule;
  EXPECT_THROW(schedule.fail_at(1.0, FailureSet{{LinkId{4}, LinkId{4}}, {}}),
               std::invalid_argument);
  EXPECT_THROW(schedule.fail_at(1.0, FailureSet{{}, {NodeId{4}, NodeId{4}}}),
               std::invalid_argument);
  EXPECT_TRUE(schedule.empty());
}

TEST(FailureSchedule, ValidatePassesConstructedSchedules) {
  FailureSchedule schedule;
  schedule.fail_at(1.0, FailureSet{{LinkId{0}}, {NodeId{3}}});
  schedule.recover_at(2.0, FailureSet{{LinkId{0}}, {}});
  schedule.fail_at(2.5, FailureSet{{LinkId{0}}, {}});
  schedule.recover_at(3.0, FailureSet{{LinkId{0}}, {NodeId{3}}});
  EXPECT_NO_THROW(schedule.validate());
  EXPECT_NO_THROW(FailureSchedule{}.validate());
}

TEST(FailureSchedule, NegativeTimeThrows) {
  FailureSchedule schedule;
  EXPECT_THROW(schedule.fail_at(-0.1, FailureSet{}), std::invalid_argument);
  EXPECT_THROW(
      schedule.fail_at(std::numeric_limits<double>::quiet_NaN(), FailureSet{}),
      std::invalid_argument);
}

// Fuzzed valid schedules: folding the events one at a time through
// fold_failure_event must agree with active_at(t) — and with a plain
// per-entity set walk — at every event time, including same-timestamp
// fail+recover pairs, and the folded set stays sorted and duplicate-free.
TEST(FoldFailureEvent, MatchesActiveAtOnFuzzedSchedules) {
  Rng rng{0xF01D};
  for (int round = 0; round < 200; ++round) {
    constexpr std::uint32_t kEntities = 6;
    std::vector<bool> link_down(kEntities, false);
    std::vector<bool> switch_down(kEntities, false);
    FailureSchedule schedule;
    double t = 0.0;
    const int events = 1 + static_cast<int>(rng.next_below(14));
    for (int e = 0; e < events; ++e) {
      if (rng.next_double() < 0.6) t += 0.25 * (1.0 + rng.next_below(3));
      const bool recover = rng.next_double() < 0.5;
      FailureSet set;
      for (std::uint32_t id = 0; id < kEntities; ++id) {
        if (rng.next_double() < 0.4 && link_down[id] == recover) {
          set.links.push_back(LinkId{id});
          link_down[id] = !recover;
        }
        if (rng.next_double() < 0.3 && switch_down[id] == recover) {
          set.switches.push_back(NodeId{id});
          switch_down[id] = !recover;
        }
      }
      if (recover) {
        schedule.recover_at(t, set);
      } else {
        schedule.fail_at(t, set);
        if (rng.next_double() < 0.3) {
          // Same-timestamp flap: the elements never stay down.
          schedule.recover_at(t, set);
          for (LinkId id : set.links) link_down[id.index()] = false;
          for (NodeId id : set.switches) switch_down[id.index()] = false;
        }
      }
    }

    const std::vector<FailureEvent>& evs = schedule.events();
    FailureSet folded;
    std::set<LinkId> oracle_links;
    std::set<NodeId> oracle_switches;
    for (std::size_t e = 0; e < evs.size(); ++e) {
      fold_failure_event(folded, evs[e]);
      for (LinkId id : evs[e].elements.links) {
        if (evs[e].recover) oracle_links.erase(id); else oracle_links.insert(id);
      }
      for (NodeId id : evs[e].elements.switches) {
        if (evs[e].recover) {
          oracle_switches.erase(id);
        } else {
          oracle_switches.insert(id);
        }
      }
      ASSERT_TRUE(std::is_sorted(folded.links.begin(), folded.links.end()));
      ASSERT_TRUE(
          std::is_sorted(folded.switches.begin(), folded.switches.end()));
      // Compare once every event sharing this timestamp has folded.
      if (e + 1 < evs.size() && evs[e + 1].time_s == evs[e].time_s) continue;
      const FailureSet active = schedule.active_at(evs[e].time_s);
      EXPECT_EQ(folded.links, active.links) << "round " << round;
      EXPECT_EQ(folded.switches, active.switches) << "round " << round;
      EXPECT_EQ(folded.links, std::vector<LinkId>(oracle_links.begin(),
                                                   oracle_links.end()));
      EXPECT_EQ(folded.switches,
                std::vector<NodeId>(oracle_switches.begin(),
                                    oracle_switches.end()));
    }
  }
}

// The one window test both consumers ask: [start_s, end_s) on its own Pod,
// open-ended when end_s < 0.
TEST(ControlPartition, CoversItsHalfOpenWindowOnItsPod) {
  const ControlPartition heals{PodId{1}, 1.0, 2.0};
  EXPECT_FALSE(heals.covers(PodId{1}, 0.999));
  EXPECT_TRUE(heals.covers(PodId{1}, 1.0));
  EXPECT_TRUE(heals.covers(PodId{1}, 1.999));
  EXPECT_FALSE(heals.covers(PodId{1}, 2.0));
  EXPECT_FALSE(heals.covers(PodId{0}, 1.5));
  EXPECT_FALSE(heals.covers(PodId{}, 1.5));

  const ControlPartition never_heals{PodId{2}, 0.0, -1.0};
  EXPECT_TRUE(never_heals.covers(PodId{2}, 0.0));
  EXPECT_TRUE(never_heals.covers(PodId{2}, 1e9));
  EXPECT_FALSE(never_heals.covers(PodId{3}, 1.0));
}

// Every consumer of a control-partition window (the conversion executor,
// the control hierarchy) rejects a malformed one with the same message.
TEST(ControlPartition, ValidatePinsTheWindowDiagnostics) {
  const auto message = [](const ControlPartition& p) -> std::string {
    try {
      p.validate(4);
    } catch (const std::invalid_argument& e) {
      return e.what();
    }
    return "";
  };
  EXPECT_EQ("", message(ControlPartition{PodId{3}, 0.0, -1.0}));
  EXPECT_EQ("", message(ControlPartition{PodId{0}, 1.0, 2.0}));
  EXPECT_EQ("ControlPartition: pod out of range",
            message(ControlPartition{PodId{4}, 0.0, 1.0}));
  EXPECT_EQ("ControlPartition: pod out of range",
            message(ControlPartition{PodId{}, 0.0, 1.0}));
  EXPECT_EQ("ControlPartition: start_s must be >= 0",
            message(ControlPartition{PodId{0}, -1.0, 1.0}));
  EXPECT_EQ("ControlPartition: start_s must be >= 0",
            message(ControlPartition{
                PodId{0}, std::numeric_limits<double>::quiet_NaN(), 1.0}));
  EXPECT_EQ("ControlPartition: window must end after it starts",
            message(ControlPartition{PodId{0}, 2.0, 1.0}));
  EXPECT_EQ("ControlPartition: window must end after it starts",
            message(ControlPartition{PodId{0}, 1.0, 1.0}));

  // Both consumers surface exactly this diagnostic.
  FlatTreeParams params;
  params.clos = ClosParams::testbed();
  params.six_port_per_column = 1;
  params.four_port_per_column = 1;
  ControllerOptions options;
  options.count_rules = false;
  const Controller controller{FlatTree{params}, options};
  const CompiledMode from = controller.compile_uniform(PodMode::kClos);
  const CompiledMode to = controller.compile_uniform(PodMode::kGlobal);
  const std::vector<std::pair<NodeId, NodeId>> pairs{
      {from.graph().servers().front(), from.graph().servers().back()}};
  const ControlPartition backwards{PodId{0}, 2.0, 1.0};
  const std::string expected =
      "ControlPartition: window must end after it starts";

  ConversionFaults exec_faults;
  exec_faults.partitions.push_back(backwards);
  try {
    (void)ConversionExecutor{controller, {}}.execute(from, to, pairs,
                                                      exec_faults);
    ADD_FAILURE() << "executor accepted a backwards window";
  } catch (const std::invalid_argument& e) {
    EXPECT_EQ(expected, e.what());
  }

  HierarchyFaults hier_faults;
  hier_faults.partitions.push_back(backwards);
  try {
    (void)ControlHierarchy{controller, ControlPlaneKind::kHierarchical, {}}
        .run(from, pairs, FailureSchedule{}, hier_faults, 1.0);
    ADD_FAILURE() << "hierarchy accepted a backwards window";
  } catch (const std::invalid_argument& e) {
    EXPECT_EQ(expected, e.what());
  }
}

TEST(ServersConnected, DetectsPartition) {
  Graph g;
  const NodeId s0 = g.add_node(NodeRole::kServer);
  const NodeId s1 = g.add_node(NodeRole::kServer);
  const NodeId e0 = g.add_node(NodeRole::kEdge);
  const NodeId e1 = g.add_node(NodeRole::kEdge);
  g.add_link(s0, e0, 1e9);
  g.add_link(s1, e1, 1e9);
  const LinkId bridge = g.add_link(e0, e1, 1e9);
  EXPECT_TRUE(servers_connected(g));
  EXPECT_FALSE(servers_connected(remove_links(g, {bridge})));
}

// The headline property the paper asserts but defers: flat-tree global mode
// degrades more gracefully than Clos mode under fabric failures.
TEST(FailureResilience, GlobalDegradesMoreGracefullyThanClos) {
  // Same 256-server layout as bench_failure: large enough that the
  // worst-flow statistic is stable across failure draws.
  FlatTreeParams p;
  p.clos = ClosParams{8, 4, 4, 4, 8, 4, 16, 8};
  p.six_port_per_column = 2;
  p.four_port_per_column = 2;
  const FlatTree tree{p};
  const Graph clos = tree.realize_uniform(PodMode::kClos);
  const Graph global = tree.realize_uniform(PodMode::kGlobal);

  // Worst-flow (max-min fair floor) throughput: the resilience metric.
  const auto throughput = [&](const Graph& g) {
    auto cache = std::make_shared<PathCache>(g, 8);
    FluidSimulator sim{g, [cache](NodeId s, NodeId d, std::uint32_t) {
                         return cache->server_paths(s, d);
                       }};
    Rng traffic_rng{9};
    const Workload flows =
        permutation_traffic(p.clos.total_servers(), traffic_rng);
    const auto rates = sim.measure_rates(flows);
    double worst = rates.empty() ? 0.0 : rates.front();
    for (double r : rates) worst = std::min(worst, r);
    return worst;
  };

  // Average over several failure draws at 20% — single draws are noisy
  // (one lucky Clos draw can miss every oversubscribed rack).
  const auto mean_retention = [&](const Graph& intact) {
    const double base = throughput(intact);
    double total = 0;
    int draws = 0;
    for (const std::uint64_t seed : {77u, 78u, 79u, 80u}) {
      Rng rng{seed};
      const Graph degraded =
          remove_links(intact, sample_fabric_failures(intact, 0.20, rng));
      if (!servers_connected(degraded)) continue;
      total += throughput(degraded) / base;
      ++draws;
    }
    EXPECT_GT(draws, 0);
    return total / draws;
  };

  const double clos_ratio = mean_retention(clos);
  const double global_ratio = mean_retention(global);
  // The flattened topology's worst flow must not degrade worse than the
  // Clos mode's.
  EXPECT_GE(global_ratio, clos_ratio - 0.05);
}

TEST(ServersConnected, SingleServerIsTriviallyConnected) {
  Graph g;
  const NodeId s = g.add_node(NodeRole::kServer);
  const NodeId e = g.add_node(NodeRole::kEdge);
  g.add_link(s, e, 1e9);
  EXPECT_TRUE(servers_connected(g));
}

TEST(ServersConnected, SwitchOnlyCutWithServersReachable) {
  // Two edges joined by two parallel fabric paths through distinct aggs;
  // cutting one agg's links partitions nothing server-visible.
  Graph g;
  const NodeId s0 = g.add_node(NodeRole::kServer);
  const NodeId s1 = g.add_node(NodeRole::kServer);
  const NodeId e0 = g.add_node(NodeRole::kEdge);
  const NodeId e1 = g.add_node(NodeRole::kEdge);
  const NodeId a0 = g.add_node(NodeRole::kAgg);
  const NodeId a1 = g.add_node(NodeRole::kAgg);
  g.add_link(s0, e0, 1e9);
  g.add_link(s1, e1, 1e9);
  const LinkId e0a0 = g.add_link(e0, a0, 1e9);
  g.add_link(e1, a0, 1e9);
  const LinkId e0a1 = g.add_link(e0, a1, 1e9);
  const LinkId e1a1 = g.add_link(e1, a1, 1e9);
  // Isolate a1 entirely: a switch becomes unreachable, but both servers
  // still reach each other through a0 — the predicate is about servers,
  // not about graph-wide connectivity.
  const Graph degraded = remove_links(g, {e0a1, e1a1});
  EXPECT_FALSE(degraded.connected());
  EXPECT_TRUE(servers_connected(degraded));
  // Cutting the remaining e0 uplink partitions the servers.
  EXPECT_FALSE(servers_connected(remove_links(g, {e0a0, e0a1})));
}

TEST(ServersConnected, FullyPartitioned) {
  // Every fabric link gone: each server sits alone behind its edge switch.
  Graph g;
  const NodeId s0 = g.add_node(NodeRole::kServer);
  const NodeId s1 = g.add_node(NodeRole::kServer);
  const NodeId e0 = g.add_node(NodeRole::kEdge);
  const NodeId e1 = g.add_node(NodeRole::kEdge);
  g.add_link(s0, e0, 1e9);
  g.add_link(s1, e1, 1e9);
  EXPECT_FALSE(servers_connected(g));
}

TEST(PathCacheInvalidate, EvictsOnlyBrokenPairsAndReportsRules) {
  FlatTreeParams p;
  p.clos = ClosParams::testbed();
  p.six_port_per_column = 1;
  p.four_port_per_column = 1;
  const FlatTree tree{p};
  const Graph g = tree.realize_uniform(PodMode::kClos);
  PathCache cache{g, 4};
  const auto servers = g.servers();
  // Warm the cache with a handful of pairs.
  for (std::size_t i = 0; i + 1 < servers.size(); i += 2) {
    (void)cache.server_paths(servers[i], servers[i + 1]);
  }
  const std::size_t warm = cache.cached_pairs();
  ASSERT_GT(warm, 0u);

  // Kill one core switch; pairs in the same pod never transit cores, so
  // some cached pairs must survive while inter-pod ones are evicted.
  const NodeId core = g.nodes_with_role(NodeRole::kCore).front();
  const Graph degraded = degrade(g, FailureSet{{}, {core}});
  std::vector<EvictedPair> evicted;
  const std::vector<NodeId> failed{core};
  const std::size_t n = cache.rebind_and_invalidate(degraded, failed, &evicted);
  EXPECT_EQ(n, evicted.size());
  EXPECT_EQ(cache.cached_pairs(), warm - n);
  for (const EvictedPair& pair : evicted) {
    EXPECT_GT(pair.rules, 0u);
  }
  // Survivors still hold valid paths on the degraded graph.
  for (std::size_t i = 0; i + 1 < servers.size(); i += 2) {
    for (const Path& path : cache.server_paths(servers[i], servers[i + 1])) {
      EXPECT_TRUE(is_valid_path(degraded, path));
      for (NodeId hop : path) EXPECT_NE(hop, core);
    }
  }
}

TEST(FailureResilience, RoutingSurvivesModestFailures) {
  FlatTreeParams p;
  p.clos = ClosParams::testbed();
  p.six_port_per_column = 1;
  p.four_port_per_column = 1;
  const FlatTree tree{p};
  const Graph g = tree.realize_uniform(PodMode::kGlobal);
  Rng rng{3};
  const Graph degraded = remove_links(g, sample_fabric_failures(g, 0.1, rng));
  if (!servers_connected(degraded)) GTEST_SKIP();
  PathCache cache{degraded, 4};
  const auto servers = degraded.servers();
  for (std::size_t i = 0; i < servers.size(); i += 5) {
    const auto paths =
        cache.server_paths(servers[i], servers[(i + 7) % servers.size()]);
    EXPECT_FALSE(paths.empty());
    for (const Path& path : paths) {
      EXPECT_TRUE(is_valid_path(degraded, path));
    }
  }
}

// -- same-timestamp semantics -------------------------------------------------
// FailureEvent's contract (net/failures.h): events at one timestamp apply in
// insertion order, and both simulators drain the whole batch before acting on
// the resulting state — so a fail and a recover of the same element at the
// identical timestamp net out and the element is never observed failed.

// Single-path dumbbell: s0 - e0 =100Mb= e1 - s1. Failing the bottleneck
// stalls the one flow, so any observed outage shows up in its FCT.
struct ScheduleDumbbell {
  Graph g;
  LinkId bottleneck{};
  ScheduleDumbbell() {
    const NodeId s0 = g.add_node(NodeRole::kServer);
    const NodeId s1 = g.add_node(NodeRole::kServer);
    const NodeId e0 = g.add_node(NodeRole::kEdge);
    const NodeId e1 = g.add_node(NodeRole::kEdge);
    g.add_link(s0, e0, 1e9);
    g.add_link(s1, e1, 1e9);
    bottleneck = g.add_link(e0, e1, 100e6);
  }
};

TEST(SameTimestampFailRecover, FluidNeverObservesTheOutage) {
  ScheduleDumbbell net;
  auto cache = std::make_shared<PathCache>(net.g, 1);
  const auto provider = [cache](NodeId s, NodeId d, std::uint32_t) {
    return cache->server_paths(s, d);
  };
  // 10 MB: 0.8 s at 100 Mb/s.
  const Workload flows{Flow{.src = 0, .dst = 1, .bytes = 1e7}};

  FluidSimulator clean{net.g, provider};
  const double baseline = clean.run(flows)[0].fct_s();

  FailureSchedule schedule;
  schedule.fail_at(0.2, FailureSet{{net.bottleneck}, {}});
  schedule.recover_at(0.2, FailureSet{{net.bottleneck}, {}});
  FluidSimulator sim{net.g, provider};
  ScheduleRunStats stats;
  const auto results =
      sim.run_with_schedule(flows, schedule, 0.05, nullptr, &stats);
  ASSERT_TRUE(results[0].completed);
  EXPECT_NEAR(results[0].fct_s(), baseline, 1e-9);
  // Both events were processed — they netted out, not got dropped.
  EXPECT_EQ(stats.fail_events, 1u);
  EXPECT_EQ(stats.recover_events, 1u);

  // Control: the same two events pulled apart stall the flow for the gap,
  // proving the zero-width window netted out rather than the link not
  // mattering.
  FailureSchedule apart;
  apart.fail_at(0.2, FailureSet{{net.bottleneck}, {}});
  apart.recover_at(1.0, FailureSet{{net.bottleneck}, {}});
  FluidSimulator stalled{net.g, provider};
  const auto slow = stalled.run_with_schedule(flows, apart, 0.05, nullptr);
  ASSERT_TRUE(slow[0].completed);
  EXPECT_NEAR(slow[0].fct_s(), baseline + 0.8, 1e-6);
}

TEST(SameTimestampFailRecover, FluidInsertionOrderBreaksTies) {
  // A flap whose recover collides with the next fail: at t=0.2 the recover
  // (inserted first) lands first, then the fail re-applies — the batch's
  // net state is "failed", so the outage that started at t=0.1 runs
  // unbroken until the final recovery. If equal-timestamp events applied
  // in reverse insertion order the link would be UP after 0.2 and the flow
  // would finish ~0.8 s earlier.
  ScheduleDumbbell net;
  auto cache = std::make_shared<PathCache>(net.g, 1);
  const auto provider = [cache](NodeId s, NodeId d, std::uint32_t) {
    return cache->server_paths(s, d);
  };
  FailureSchedule schedule;
  schedule.fail_at(0.1, FailureSet{{net.bottleneck}, {}});
  schedule.recover_at(0.2, FailureSet{{net.bottleneck}, {}});
  schedule.fail_at(0.2, FailureSet{{net.bottleneck}, {}});
  schedule.recover_at(1.0, FailureSet{{net.bottleneck}, {}});
  FluidSimulator sim{net.g, provider};
  const Workload flows{Flow{.src = 0, .dst = 1, .bytes = 1e7}};
  const auto results = sim.run_with_schedule(flows, schedule, 0.05, nullptr);
  ASSERT_TRUE(results[0].completed);
  // 0.1 s of progress, a 0.9 s outage, the remaining 0.7 s.
  EXPECT_NEAR(results[0].fct_s(), 1.7, 1e-6);
}

}  // namespace
}  // namespace flattree
