// The two-level control plane: topology-aware RTTs, partition detection,
// Pod-local repair with journal/rejoin reconciliation, root failover, and
// the conversion delegation path.
//
// Load-bearing guarantees pinned here:
//   1. channel_for derives per-switch delays from hop distance: under the
//      hierarchy a Pod switch is charged its Pod controller's distance,
//      never more than the flat root's.
//   2. An islanded Pod repairs intra-Pod damage locally (journaled) while
//      the flat plane defers the same repair until the island heals — the
//      hierarchical plane's blackhole integral is never worse.
//   3. Rejoin replays exactly the journaled installs; every diverged pair
//      is reconciled back to the canonical plan.
//   4. Conversions delegated through the hierarchy inherit the executor's
//      checkpoint guarantee: the terminal state is bit-for-bit one of the
//      checkpointed modes, under any compound same-tick fault mix
//      (control_partition + controller_crash + link failure), and the
//      whole run is a pure function of its arguments.
#include "control/hierarchy.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <stdexcept>
#include <utility>
#include <vector>

#include "control/conversion_exec.h"
#include "core/flat_tree.h"
#include "net/failures.h"
#include "net/rng.h"

namespace flattree {
namespace {

Controller testbed_controller(std::uint32_t k = 4) {
  FlatTreeParams p;
  p.clos = ClosParams::testbed();
  p.six_port_per_column = 1;
  p.four_port_per_column = 1;
  ControllerOptions options;
  options.k_global = k;
  options.k_local = k;
  options.k_clos = k;
  options.count_rules = false;
  return Controller{FlatTree{p}, options};
}

// Two intra-Pod pairs (Pods 0 and 1, spanning racks) plus one cross-Pod
// pair: enough to exercise both repair dispatch arms.
std::vector<std::pair<NodeId, NodeId>> mixed_pairs(const Graph& g) {
  std::vector<std::vector<NodeId>> by_pod;
  for (NodeId s : g.servers()) {
    const std::size_t p = g.node(s).pod.index();
    if (by_pod.size() <= p) by_pod.resize(p + 1);
    by_pod[p].push_back(s);
  }
  std::vector<std::pair<NodeId, NodeId>> pairs;
  pairs.emplace_back(by_pod[0].front(), by_pod[0].back());
  pairs.emplace_back(by_pod[1].front(), by_pod[1].back());
  pairs.emplace_back(by_pod[0][1], by_pod[2][1]);
  return pairs;
}

// A fabric link inside `pod` that an installed route of `pair` crosses.
LinkId intra_pod_route_link(const CompiledMode& mode,
                            const std::pair<NodeId, NodeId>& pair, PodId pod) {
  const Graph& g = mode.graph();
  for (const Path& path : mode.paths().server_paths(pair.first, pair.second)) {
    for (std::size_t h = 1; h + 2 < path.size(); ++h) {
      if (g.node(path[h]).pod != pod || g.node(path[h + 1]).pod != pod) {
        continue;
      }
      for (std::uint32_t i = 0; i < g.link_count(); ++i) {
        const Link& l = g.link(LinkId{i});
        if ((l.a == path[h] && l.b == path[h + 1]) ||
            (l.a == path[h + 1] && l.b == path[h])) {
          return LinkId{i};
        }
      }
    }
  }
  ADD_FAILURE() << "no intra-pod fabric link under the pair's routes";
  return LinkId{0};
}

void expect_results_identical(const HierarchyRunResult& a,
                              const HierarchyRunResult& b) {
  EXPECT_EQ(a.blackhole_pair_s, b.blackhole_pair_s);
  EXPECT_EQ(a.max_pair_blackhole_s, b.max_pair_blackhole_s);
  EXPECT_EQ(a.repairs_local, b.repairs_local);
  EXPECT_EQ(a.repairs_root, b.repairs_root);
  EXPECT_EQ(a.repairs_deferred, b.repairs_deferred);
  EXPECT_EQ(a.partitions_detected, b.partitions_detected);
  EXPECT_EQ(a.partitions_rejoined, b.partitions_rejoined);
  EXPECT_EQ(a.heartbeats_missed, b.heartbeats_missed);
  EXPECT_EQ(a.journal_appended, b.journal_appended);
  EXPECT_EQ(a.journal_replayed, b.journal_replayed);
  EXPECT_EQ(a.pairs_reconciled, b.pairs_reconciled);
  EXPECT_EQ(a.failovers, b.failovers);
  ASSERT_EQ(a.repairs.size(), b.repairs.size());
  for (std::size_t i = 0; i < a.repairs.size(); ++i) {
    EXPECT_EQ(a.repairs[i].pair, b.repairs[i].pair);
    EXPECT_EQ(a.repairs[i].failed_at_s, b.repairs[i].failed_at_s);
    EXPECT_EQ(a.repairs[i].installed_at_s, b.repairs[i].installed_at_s);
    EXPECT_EQ(a.repairs[i].local, b.repairs[i].local);
    EXPECT_EQ(a.repairs[i].deferred, b.repairs[i].deferred);
  }
  ASSERT_EQ(a.conversion.has_value(), b.conversion.has_value());
  if (a.conversion.has_value()) {
    EXPECT_EQ(a.conversion->outcome, b.conversion->outcome);
    EXPECT_EQ(a.conversion->finish_s, b.conversion->finish_s);
    EXPECT_EQ(a.conversion->stages_committed, b.conversion->stages_committed);
    EXPECT_EQ(a.conversion->terminal_configs, b.conversion->terminal_configs);
    EXPECT_EQ(a.conversion->total_blackhole_s, b.conversion->total_blackhole_s);
  }
}

// The executor's no-mixed-epoch contract, restated over the delegated
// conversion: the terminal configs equal some checkpoint's, bit for bit.
void expect_terminal_checkpointed(const ExecutionReport& rep) {
  ASSERT_FALSE(rep.checkpoints.empty());
  EXPECT_EQ(rep.terminal_configs, rep.checkpoints.back().configs);
  const bool matches_some_checkpoint =
      std::any_of(rep.checkpoints.begin(), rep.checkpoints.end(),
                  [&](const CheckpointRecord& c) {
                    return c.configs == rep.terminal_configs;
                  });
  EXPECT_TRUE(matches_some_checkpoint);
}

TEST(ControlHierarchy, ToStringNamesBothKinds) {
  EXPECT_STREQ("flat", to_string(ControlPlaneKind::kFlat));
  EXPECT_STREQ("hierarchical", to_string(ControlPlaneKind::kHierarchical));
}

TEST(ControlHierarchy, OptionsValidateRejectsOutOfRange) {
  const auto expect_rejects = [](auto mutate, const char* message) {
    ControlHierarchyOptions o;
    mutate(o);
    try {
      o.validate();
      ADD_FAILURE() << "expected rejection: " << message;
    } catch (const std::invalid_argument& e) {
      EXPECT_STREQ(message, e.what());
    }
  };
  expect_rejects([](auto& o) { o.per_hop_s = -1e-9; },
                 "ControlHierarchyOptions: per_hop_s must be >= 0");
  expect_rejects([](auto& o) { o.heartbeat_period_s = 0.0; },
                 "ControlHierarchyOptions: heartbeat_period_s must be > 0");
  expect_rejects([](auto& o) { o.heartbeat_miss_limit = 0; },
                 "ControlHierarchyOptions: heartbeat_miss_limit must be >= 1");
  expect_rejects([](auto& o) { o.failover_takeover_s = -0.1; },
                 "ControlHierarchyOptions: failover_takeover_s must be >= 0");
  // Channel fields flow through the channel's own validate.
  ControlHierarchyOptions bad;
  bad.channel.drop_probability = 1.0;
  EXPECT_THROW(bad.validate(), std::invalid_argument);
  EXPECT_THROW(
      (ControlHierarchy{testbed_controller(), ControlPlaneKind::kFlat, bad}),
      std::invalid_argument);
}

TEST(ControlHierarchy, SitesHomeOnCoresAndPodAggs) {
  const Controller ctl = testbed_controller();
  const CompiledMode mode = ctl.compile_uniform(PodMode::kClos);
  const Graph& g = mode.graph();
  const ControlHierarchy hier{ctl, ControlPlaneKind::kHierarchical, {}};

  const NodeId root = hier.root_site(g);
  const NodeId standby = hier.standby_site(g);
  ASSERT_TRUE(root.valid());
  ASSERT_TRUE(standby.valid());
  EXPECT_EQ(NodeRole::kCore, g.node(root).role);
  EXPECT_EQ(NodeRole::kCore, g.node(standby).role);
  EXPECT_NE(root, standby);

  for (std::uint32_t p = 0; p < ctl.tree().clos().pods; ++p) {
    const NodeId site = hier.pod_site(g, PodId{p});
    ASSERT_TRUE(site.valid());
    EXPECT_EQ(PodId{p}, g.node(site).pod);
    EXPECT_EQ(NodeRole::kAgg, g.node(site).role);
  }
}

TEST(ControlHierarchy, ChannelForChargesPodSwitchesFromTheirController) {
  const Controller ctl = testbed_controller();
  const CompiledMode mode = ctl.compile_uniform(PodMode::kClos);
  const Graph& g = mode.graph();
  const ControlHierarchy hier{ctl, ControlPlaneKind::kHierarchical, {}};
  const ControlHierarchy flat{ctl, ControlPlaneKind::kFlat, {}};

  const ControlChannelOptions hch = hier.channel_for(g);
  const ControlChannelOptions fch = flat.channel_for(g);
  ASSERT_EQ(g.node_count(), hch.switch_delay_s.size());
  ASSERT_EQ(g.node_count(), fch.switch_delay_s.size());
  hch.validate();
  fch.validate();

  // The Pod controller is at most as far from its own switches as the root
  // across the core; strictly closer for some switch in every Pod.
  bool some_strictly_closer = false;
  for (std::uint32_t i = 0; i < g.node_count(); ++i) {
    const Node& n = g.node(NodeId{i});
    if (!n.pod.valid() || !is_switch(n.role)) continue;
    EXPECT_LE(hch.switch_delay_s[i], fch.switch_delay_s[i]) << "node " << i;
    if (hch.switch_delay_s[i] < fch.switch_delay_s[i]) {
      some_strictly_closer = true;
    }
  }
  EXPECT_TRUE(some_strictly_closer);

  // Core switches are root-programmed under both shapes.
  for (NodeId c : g.nodes_with_role(NodeRole::kCore)) {
    EXPECT_EQ(fch.switch_delay_s[c.index()], hch.switch_delay_s[c.index()]);
  }
}

TEST(ControlHierarchy, RunValidatesArguments) {
  const Controller ctl = testbed_controller();
  const CompiledMode mode = ctl.compile_uniform(PodMode::kClos);
  const std::vector<std::pair<NodeId, NodeId>> pairs = mixed_pairs(mode.graph());
  const ControlHierarchy hier{ctl, ControlPlaneKind::kHierarchical, {}};

  EXPECT_THROW(
      (void)hier.run(mode, pairs, FailureSchedule{}, HierarchyFaults{}, 0.0),
      std::invalid_argument);

  HierarchyFaults bad_pod;
  bad_pod.partitions.push_back(ControlPartition{PodId{99}, 0.0, 1.0});
  EXPECT_THROW((void)hier.run(mode, pairs, FailureSchedule{}, bad_pod, 1.0),
               std::invalid_argument);

  HierarchyFaults bad_window;
  bad_window.partitions.push_back(ControlPartition{PodId{0}, 2.0, 1.0});
  EXPECT_THROW((void)hier.run(mode, pairs, FailureSchedule{}, bad_window, 1.0),
               std::invalid_argument);
}

TEST(ControlHierarchy, CalmRunIsDarkFree) {
  const Controller ctl = testbed_controller();
  const CompiledMode mode = ctl.compile_uniform(PodMode::kClos);
  const std::vector<std::pair<NodeId, NodeId>> pairs = mixed_pairs(mode.graph());
  const ControlHierarchy hier{ctl, ControlPlaneKind::kHierarchical, {}};

  const HierarchyRunResult res =
      hier.run(mode, pairs, FailureSchedule{}, HierarchyFaults{}, 2.0);
  EXPECT_EQ(0.0, res.blackhole_pair_s);
  EXPECT_EQ(0.0, res.max_pair_blackhole_s);
  EXPECT_TRUE(res.repairs.empty());
  EXPECT_EQ(0u, res.partitions_detected);
  EXPECT_EQ(0u, res.heartbeats_missed);
  EXPECT_FALSE(res.conversion.has_value());
}

TEST(ControlHierarchy, HeartbeatsDetectAndRejoinPartitions) {
  const Controller ctl = testbed_controller();
  const CompiledMode mode = ctl.compile_uniform(PodMode::kClos);
  const std::vector<std::pair<NodeId, NodeId>> pairs = mixed_pairs(mode.graph());
  ControlHierarchyOptions opts;
  opts.heartbeat_period_s = 0.125;  // binary-exact: the miss count is crisp
  opts.heartbeat_miss_limit = 2;
  const ControlHierarchy hier{ctl, ControlPlaneKind::kHierarchical, opts};

  HierarchyFaults faults;
  faults.partitions.push_back(ControlPartition{PodId{0}, 1.0, 2.0});
  faults.partitions.push_back(ControlPartition{PodId{1}, 1.0, -1.0});

  const HierarchyRunResult res =
      hier.run(mode, pairs, FailureSchedule{}, faults, 4.0);
  // Pod 0's one-second window and Pod 1's three remaining seconds, at
  // eight heartbeats a second.
  EXPECT_EQ(2u, res.partitions_detected);
  EXPECT_EQ(1u, res.partitions_rejoined);
  EXPECT_EQ(8u + 24u, res.heartbeats_missed);

  // A window shorter than the detection latency passes unnoticed.
  HierarchyFaults blip;
  blip.partitions.push_back(ControlPartition{PodId{0}, 1.0, 1.2});
  const HierarchyRunResult quiet =
      hier.run(mode, pairs, FailureSchedule{}, blip, 4.0);
  EXPECT_EQ(0u, quiet.partitions_detected);
  EXPECT_EQ(0u, quiet.partitions_rejoined);
  EXPECT_EQ(1u, quiet.heartbeats_missed);

  // The flat plane has no heartbeat machinery to report.
  const ControlHierarchy flat{ctl, ControlPlaneKind::kFlat, opts};
  const HierarchyRunResult fres =
      flat.run(mode, pairs, FailureSchedule{}, faults, 4.0);
  EXPECT_EQ(0u, fres.partitions_detected);
  EXPECT_EQ(0u, fres.heartbeats_missed);
}

TEST(ControlHierarchy, IslandedPodRepairsLocallyFlatDefers) {
  const Controller ctl = testbed_controller();
  const CompiledMode mode = ctl.compile_uniform(PodMode::kClos);
  const std::vector<std::pair<NodeId, NodeId>> pairs = mixed_pairs(mode.graph());
  const LinkId broken = intra_pod_route_link(mode, pairs[0], PodId{0});

  FailureSchedule storm;
  storm.fail_at(1.5, FailureSet{{broken}, {}});
  storm.recover_at(3.5, FailureSet{{broken}, {}});

  HierarchyFaults faults;
  faults.partitions.push_back(ControlPartition{PodId{0}, 1.0, 3.0});

  const ControlHierarchy hier{ctl, ControlPlaneKind::kHierarchical, {}};
  const ControlHierarchy flat{ctl, ControlPlaneKind::kFlat, {}};
  const HierarchyRunResult hres = hier.run(mode, pairs, storm, faults, 5.0);
  const HierarchyRunResult fres = flat.run(mode, pairs, storm, faults, 5.0);

  // KSP detour paths can put the broken Pod-0 link under other pairs'
  // route sets too; the contract under test is specifically pair 0's
  // repair (both endpoints inside the island).
  const auto repair_of = [](const HierarchyRunResult& r,
                            std::size_t pair) -> const HierarchyRepair& {
    const auto it =
        std::find_if(r.repairs.begin(), r.repairs.end(),
                     [&](const HierarchyRepair& x) { return x.pair == pair; });
    EXPECT_NE(it, r.repairs.end());
    return *it;
  };

  // The Pod controller fixes its own island: a local, journaled repair,
  // replayed to the root at rejoin.
  EXPECT_GE(hres.repairs_local, 1u);
  EXPECT_GE(hres.journal_appended, 1u);
  EXPECT_EQ(hres.journal_appended, hres.journal_replayed);
  ASSERT_FALSE(hres.repairs.empty());
  EXPECT_TRUE(repair_of(hres, 0).local);
  EXPECT_FALSE(repair_of(hres, 0).deferred);
  EXPECT_LT(repair_of(hres, 0).installed_at_s, 3.0);

  // The flat root cannot install rules into the island until it heals.
  EXPECT_EQ(0u, fres.repairs_local);
  EXPECT_GE(fres.repairs_deferred, 1u);
  ASSERT_FALSE(fres.repairs.empty());
  EXPECT_TRUE(repair_of(fres, 0).deferred);
  EXPECT_GE(repair_of(fres, 0).installed_at_s, 3.0);

  // The deferral window is the blackhole gap.
  EXPECT_LT(hres.blackhole_pair_s, fres.blackhole_pair_s);
  EXPECT_LT(hres.mean_repair_lag_s(), fres.mean_repair_lag_s());
}

TEST(ControlHierarchy, RootCrashPromotesStandbyAndDefersRootRepairs) {
  const Controller ctl = testbed_controller();
  const CompiledMode mode = ctl.compile_uniform(PodMode::kClos);
  const std::vector<std::pair<NodeId, NodeId>> pairs = mixed_pairs(mode.graph());
  // Break the cross-Pod pair: its repair needs the root seat.
  const LinkId broken = intra_pod_route_link(mode, pairs[2], PodId{0});

  FailureSchedule storm;
  storm.fail_at(1.0, FailureSet{{broken}, {}});
  storm.recover_at(4.0, FailureSet{{broken}, {}});

  ControlHierarchyOptions opts;
  opts.failover_takeover_s = 0.5;
  HierarchyFaults faults;
  faults.root_crash_at_s = 0.9;

  const ControlHierarchy hier{ctl, ControlPlaneKind::kHierarchical, opts};
  const HierarchyRunResult res = hier.run(mode, pairs, storm, faults, 5.0);
  EXPECT_EQ(1u, res.failovers);
  for (const HierarchyRepair& r : res.repairs) {
    if (r.local) continue;
    // Non-local repairs wait out the empty root seat.
    EXPECT_TRUE(r.deferred);
    EXPECT_GE(r.installed_at_s, 0.9 + 0.5);
  }
}

TEST(ControlHierarchy, DelegatedConversionAdoptsTerminalCheckpoint) {
  const Controller ctl = testbed_controller();
  const CompiledMode from = ctl.compile_uniform(PodMode::kClos);
  const CompiledMode to = ctl.compile_uniform(PodMode::kGlobal);
  const std::vector<std::pair<NodeId, NodeId>> pairs = mixed_pairs(from.graph());

  ConversionExecOptions exec_base;
  exec_base.stage_checkpoints = true;
  exec_base.seed = 7;

  const ControlHierarchy hier{ctl, ControlPlaneKind::kHierarchical, {}};
  const HierarchyRunResult res =
      hier.run(from, pairs, FailureSchedule{}, HierarchyFaults{}, 60.0, &to,
               1.0, exec_base);
  ASSERT_TRUE(res.conversion.has_value());
  EXPECT_EQ(ConversionOutcome::kConverted, res.conversion->outcome);
  EXPECT_EQ(to.configs(), res.conversion->terminal_configs);
  expect_terminal_checkpointed(*res.conversion);
  EXPECT_EQ(0.0, res.blackhole_pair_s);
}

// The hierarchy's takeover delay governs a delegated conversion too: a root
// crash mid-conversion promotes the standby failover_takeover_s after the
// crash, the same delay the serving path charges — not the executor's
// default.
TEST(ControlHierarchy, ConversionFailoverUsesHierarchyTakeover) {
  const Controller ctl = testbed_controller();
  const CompiledMode from = ctl.compile_uniform(PodMode::kClos);
  const CompiledMode to = ctl.compile_uniform(PodMode::kGlobal);
  const std::vector<std::pair<NodeId, NodeId>> pairs = mixed_pairs(from.graph());

  ConversionExecOptions exec_base;
  exec_base.stage_checkpoints = true;
  ASSERT_NE(0.5, exec_base.failover_takeover_s);
  ControlHierarchyOptions opts;
  opts.failover_takeover_s = 0.5;
  const double convert_at = 1.0;
  HierarchyFaults faults;
  faults.root_crash_at_s = convert_at + 0.3;

  const ControlHierarchy hier{ctl, ControlPlaneKind::kHierarchical, opts};
  const HierarchyRunResult res = hier.run(
      from, pairs, FailureSchedule{}, faults, 60.0, &to, convert_at, exec_base);
  ASSERT_TRUE(res.conversion.has_value());
  const ExecutionReport& rep = *res.conversion;
  ASSERT_GT(rep.finish_s, faults.root_crash_at_s);  // crashed mid-conversion
  ASSERT_EQ(1u, rep.failovers);
  const auto first_standby =
      std::find_if(rep.steps.begin(), rep.steps.end(),
                   [](const StepRecord& s) { return s.standby; });
  ASSERT_NE(rep.steps.end(), first_standby);
  ASSERT_NE(rep.steps.begin(), first_standby);
  EXPECT_GE(first_standby->start_s, faults.root_crash_at_s + 0.5);
  // Promotion happens at the first step boundary after the crash and costs
  // exactly the hierarchy's takeover delay.
  EXPECT_EQ(std::prev(first_standby)->finish_s + 0.5, first_standby->start_s);
  expect_terminal_checkpointed(rep);
}

// ISSUE satellite: compound same-tick chaos fuzz. Every seeded mix of a
// control partition, a root crash at the same instant, and a link failure
// on the same tick must terminate with the fabric bit-for-bit on a
// checkpointed mode — and the whole run must be a pure function of its
// arguments (two evaluations agree exactly).
TEST(ControlHierarchy, CompoundFaultFuzzTerminatesCheckpointed) {
  const Controller ctl = testbed_controller();
  const CompiledMode from = ctl.compile_uniform(PodMode::kClos);
  const CompiledMode to = ctl.compile_uniform(PodMode::kGlobal);
  const std::vector<std::pair<NodeId, NodeId>> pairs = mixed_pairs(from.graph());

  Rng rng{0xC0FFEE};
  for (std::uint32_t round = 0; round < 8; ++round) {
    const double tick = 0.5 + rng.next_double() * 2.0;
    const std::uint32_t pod = static_cast<std::uint32_t>(rng.next_below(4));
    const bool heals = rng.next_double() < 0.5;
    const double window = 0.5 + rng.next_double() * 2.0;
    const LinkId broken = intra_pod_route_link(
        from, pairs[pod % pairs.size()],
        from.graph().node(pairs[pod % pairs.size()].first).pod);

    FailureSchedule storm;
    storm.fail_at(tick, FailureSet{{broken}, {}});
    storm.recover_at(tick + 3.0, FailureSet{{broken}, {}});

    HierarchyFaults faults;
    faults.partitions.push_back(
        ControlPartition{PodId{pod}, tick, heals ? tick + window : -1.0});
    faults.root_crash_at_s = tick;  // same tick: crash + partition + failure

    ConversionExecOptions exec_base;
    exec_base.stage_checkpoints = true;
    exec_base.seed = 1000 + round;

    // Loss lives on the hierarchy's channel: run() re-derives the
    // executor's channel via channel_for, so exec_base.channel is ignored.
    ControlHierarchyOptions lossy;
    lossy.channel.drop_probability = 0.05;

    for (ControlPlaneKind kind :
         {ControlPlaneKind::kHierarchical, ControlPlaneKind::kFlat}) {
      const ControlHierarchy plane{ctl, kind, lossy};
      const HierarchyRunResult a =
          plane.run(from, pairs, storm, faults, 8.0, &to, tick, exec_base);
      ASSERT_TRUE(a.conversion.has_value());
      expect_terminal_checkpointed(*a.conversion);
      // Terminates: the executor came back with a finite timeline and the
      // serving loop drained to the horizon.
      EXPECT_GT(a.conversion->finish_s, tick);
      EXPECT_EQ(8.0, a.duration_s);

      const HierarchyRunResult b =
          plane.run(from, pairs, storm, faults, 8.0, &to, tick, exec_base);
      expect_results_identical(a, b);
    }
  }
}

TEST(ControlHierarchy, MetricsExportMatchesResultCounters) {
  obs::MetricsRegistry metrics;
  const obs::ObsSink sink{&metrics, nullptr};

  const Controller ctl = testbed_controller();
  const CompiledMode mode = ctl.compile_uniform(PodMode::kClos);
  const std::vector<std::pair<NodeId, NodeId>> pairs = mixed_pairs(mode.graph());
  const LinkId broken = intra_pod_route_link(mode, pairs[0], PodId{0});
  FailureSchedule storm;
  storm.fail_at(1.5, FailureSet{{broken}, {}});
  storm.recover_at(3.5, FailureSet{{broken}, {}});
  HierarchyFaults faults;
  faults.partitions.push_back(ControlPartition{PodId{0}, 1.0, 3.0});

  ControlHierarchyOptions opts;
  opts.sink = sink;
  const ControlHierarchy hier{ctl, ControlPlaneKind::kHierarchical, opts};
  const HierarchyRunResult res = hier.run(mode, pairs, storm, faults, 5.0);

  EXPECT_EQ(1u, metrics.counter("ctrl.hier.runs").value());
  EXPECT_EQ(res.repairs_local,
            metrics.counter("ctrl.hier.repairs.local").value());
  EXPECT_EQ(res.partitions_detected,
            metrics.counter("ctrl.hier.partitions.detected").value());
  EXPECT_EQ(res.journal_appended,
            metrics.counter("ctrl.hier.journal.appended").value());
}

}  // namespace
}  // namespace flattree
