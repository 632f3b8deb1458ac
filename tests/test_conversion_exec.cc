// Staged conversion execution: two-phase epoch protocol, lossy-channel
// retries, rollback, transient invariants, and the simulator drivers.
//
// The chaos battery is the load-bearing gate: a seeded adversary drops
// control messages, kills switches mid-conversion and fails OCS partitions,
// and every trial must land in exactly one of two terminal states — fully
// converted or fully rolled back — with zero blackhole/loop violations for
// the staged protocol.
#include "control/conversion_exec.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/flat_tree.h"
#include "net/failures.h"
#include "routing/path.h"
#include "sim/packet.h"
#include "traffic/patterns.h"

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
  options.count_rules = false;  // rule-state analysis is irrelevant here
  return Controller{FlatTree{p}, options};
}

std::vector<std::pair<NodeId, NodeId>> tracked_pairs(const Graph& graph,
                                                     std::size_t stride = 3) {
  const std::vector<NodeId> servers = graph.servers();
  std::vector<std::pair<NodeId, NodeId>> pairs;
  for (std::size_t i = 0; i < servers.size(); i += stride) {
    pairs.emplace_back(servers[i],
                       servers[(i + servers.size() / 2) % servers.size()]);
  }
  return pairs;
}

// Graphs as undirected node-pair multisets (link ids are renumbered by
// every realization; node pairs are the stable currency).
std::vector<std::pair<std::uint32_t, std::uint32_t>> link_multiset(
    const Graph& g) {
  std::vector<std::pair<std::uint32_t, std::uint32_t>> out;
  for (std::uint32_t i = 0; i < g.link_count(); ++i) {
    const Link& l = g.link(LinkId{i});
    out.emplace_back(std::min(l.a.value(), l.b.value()),
                     std::max(l.a.value(), l.b.value()));
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::size_t count_violations(const ExecutionReport& report, ViolationKind k) {
  return static_cast<std::size_t>(
      std::count_if(report.violations.begin(), report.violations.end(),
                    [k](const TransientViolation& v) { return v.kind == k; }));
}

TEST(ChannelOptions, ValidateRejectsBadFields) {
  ControlChannelOptions ch;
  EXPECT_NO_THROW(ch.validate());
  ch.drop_probability = 1.0;
  EXPECT_THROW(ch.validate(), std::invalid_argument);
  ch.drop_probability = -0.1;
  EXPECT_THROW(ch.validate(), std::invalid_argument);
  ch = ControlChannelOptions{};
  ch.delay_s = -1e-9;
  EXPECT_THROW(ch.validate(), std::invalid_argument);
  ch = ControlChannelOptions{};
  ch.timeout_s = 0.0;
  EXPECT_THROW(ch.validate(), std::invalid_argument);
  ch = ControlChannelOptions{};
  ch.backoff = 0.5;
  EXPECT_THROW(ch.validate(), std::invalid_argument);
  ch = ControlChannelOptions{};
  ch.max_attempts = 0;
  EXPECT_THROW(ch.validate(), std::invalid_argument);
}

TEST(ConversionExec, ZeroLossStagedConverges) {
  const Controller ctl = testbed_controller();
  const CompiledMode from = ctl.compile_uniform(PodMode::kClos);
  const CompiledMode to = ctl.compile_uniform(PodMode::kGlobal);
  const auto pairs = tracked_pairs(from.graph());
  const ConversionExecutor exec{ctl, ConversionExecOptions{}};
  const ExecutionReport report = exec.execute(from, to, pairs);

  EXPECT_EQ(report.outcome, ConversionOutcome::kConverted);
  EXPECT_TRUE(report.staged);
  EXPECT_EQ(report.retries, 0u);
  EXPECT_EQ(report.messages_dropped, 0u);
  EXPECT_EQ(report.steps_failed, 0u);
  EXPECT_TRUE(report.violations.empty());
  EXPECT_EQ(report.total_blackhole_s, 0.0);
  EXPECT_GT(report.finish_s, report.start_s);
  ASSERT_GE(report.timeline.size(), 3u);

  // Terminal state: the incoming mode's graph and routes, epoch flipped.
  const TimelinePoint& last = report.timeline.back();
  EXPECT_EQ(last.epoch, 1u);
  EXPECT_EQ(link_multiset(*last.graph), link_multiset(to.graph()));
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    EXPECT_EQ(last.routes[i],
              to.paths().server_paths(pairs[i].first, pairs[i].second));
  }
  // Make-before-break: every intermediate state keeps every pair routed.
  for (const TimelinePoint& pt : report.timeline) {
    for (const std::vector<Path>& rs : pt.routes) {
      ASSERT_FALSE(rs.empty());
      bool any_valid = false;
      for (const Path& path : rs) any_valid |= is_valid_path(*pt.graph, path);
      EXPECT_TRUE(any_valid);
    }
  }
}

TEST(ConversionExec, AtomicSwapHasBlackholeWindowStagedDoesNot) {
  const Controller ctl = testbed_controller();
  const CompiledMode from = ctl.compile_uniform(PodMode::kClos);
  const CompiledMode to = ctl.compile_uniform(PodMode::kGlobal);
  const auto pairs = tracked_pairs(from.graph());

  ConversionExecOptions staged_opts;
  ConversionExecOptions atomic_opts;
  atomic_opts.staged = false;
  const ExecutionReport staged =
      ConversionExecutor{ctl, staged_opts}.execute(from, to, pairs);
  const ExecutionReport atomic =
      ConversionExecutor{ctl, atomic_opts}.execute(from, to, pairs);

  EXPECT_EQ(staged.total_blackhole_s, 0.0);
  EXPECT_GT(atomic.total_blackhole_s, 0.0);
  EXPECT_GT(atomic.max_pair_blackhole_s, 0.0);
  EXPECT_GT(count_violations(atomic, ViolationKind::kBlackhole), 0u);
  EXPECT_EQ(atomic.outcome, ConversionOutcome::kConverted);
  // Both converge to the same terminal graph.
  EXPECT_EQ(link_multiset(*atomic.timeline.back().graph),
            link_multiset(to.graph()));
}

TEST(ConversionExec, StagedBeatsAtomicBlackholeAtTenPercentLoss) {
  const Controller ctl = testbed_controller();
  const CompiledMode from = ctl.compile_uniform(PodMode::kClos);
  const CompiledMode to = ctl.compile_uniform(PodMode::kGlobal);
  const auto pairs = tracked_pairs(from.graph());
  double staged_total = 0.0;
  double atomic_total = 0.0;
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    ConversionExecOptions opts;
    opts.channel.drop_probability = 0.10;
    opts.channel.max_attempts = 8;  // loss alone should not force rollback
    opts.seed = seed;
    const ExecutionReport staged =
        ConversionExecutor{ctl, opts}.execute(from, to, pairs);
    opts.staged = false;
    const ExecutionReport atomic =
        ConversionExecutor{ctl, opts}.execute(from, to, pairs);
    staged_total += staged.total_blackhole_s;
    atomic_total += atomic.total_blackhole_s;
    EXPECT_EQ(staged.total_blackhole_s, 0.0) << "seed " << seed;
  }
  EXPECT_LT(staged_total, atomic_total);
}

TEST(ConversionExec, DeadSwitchRollsBackToExactFromState) {
  const Controller ctl = testbed_controller();
  const CompiledMode from = ctl.compile_uniform(PodMode::kClos);
  const CompiledMode to = ctl.compile_uniform(PodMode::kGlobal);
  const auto pairs = tracked_pairs(from.graph());
  // Kill a switch the incoming mode's routes depend on: its new-epoch rule
  // install can never ack, so phase A must fail and roll back.
  const Path to_path =
      to.paths().server_paths(pairs[0].first, pairs[0].second).front();
  ConversionFaults faults;
  faults.dead_switches = {to_path[to_path.size() / 2]};
  ASSERT_TRUE(is_switch(from.graph().node(faults.dead_switches[0]).role));
  const ConversionExecutor exec{ctl, ConversionExecOptions{}};
  const ExecutionReport report = exec.execute(from, to, pairs, faults);

  EXPECT_EQ(report.outcome, ConversionOutcome::kRolledBack);
  EXPECT_GT(report.steps_failed, 0u);
  const TimelinePoint& last = report.timeline.back();
  EXPECT_EQ(last.epoch, 0u);
  EXPECT_EQ(link_multiset(*last.graph), link_multiset(from.graph()));
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    EXPECT_EQ(last.routes[i],
              from.paths().server_paths(pairs[i].first, pairs[i].second));
  }
  // Staged rollback never black-holes or loops a pair either.
  EXPECT_EQ(count_violations(report, ViolationKind::kBlackhole), 0u);
  EXPECT_EQ(count_violations(report, ViolationKind::kLoop), 0u);
}

TEST(ConversionExec, OcsPartitionFailureRollsBack) {
  const Controller ctl = testbed_controller();
  const CompiledMode from = ctl.compile_uniform(PodMode::kClos);
  const CompiledMode to = ctl.compile_uniform(PodMode::kGlobal);
  const auto pairs = tracked_pairs(from.graph());
  ConversionFaults faults;
  faults.fail_ocs_partitions = {1};  // second pass dies mid-conversion
  const ConversionExecutor exec{ctl, ConversionExecOptions{}};
  const ExecutionReport report = exec.execute(from, to, pairs, faults);

  EXPECT_EQ(report.outcome, ConversionOutcome::kRolledBack);
  EXPECT_EQ(link_multiset(*report.timeline.back().graph),
            link_multiset(from.graph()));
  EXPECT_EQ(count_violations(report, ViolationKind::kBlackhole), 0u);
  EXPECT_EQ(count_violations(report, ViolationKind::kLoop), 0u);
  // The first partition applied and was reverted: at least two OCS steps.
  const auto ocs_steps = std::count_if(
      report.steps.begin(), report.steps.end(),
      [](const StepRecord& s) { return s.kind == StepKind::kOcs; });
  EXPECT_GE(ocs_steps, 2);
}

// The headline gate: a seeded adversary (control-channel loss + dead
// switches + OCS partition failures) across many trials; every staged trial
// must terminate in exactly one of the two sanctioned states with zero
// blackhole/loop violations.
TEST(ConversionExec, ChaosSeededAdversary) {
  const Controller ctl = testbed_controller();
  const CompiledMode clos = ctl.compile_uniform(PodMode::kClos);
  const CompiledMode global = ctl.compile_uniform(PodMode::kGlobal);
  const auto pairs = tracked_pairs(clos.graph());
  const auto aggs = clos.graph().nodes_with_role(NodeRole::kAgg);
  const auto edges = clos.graph().nodes_with_role(NodeRole::kEdge);

  std::size_t converted = 0;
  std::size_t rolled_back = 0;
  for (std::uint64_t trial = 0; trial < 25; ++trial) {
    Rng adversary{0x9d2c5680u + trial};
    ConversionExecOptions opts;
    opts.seed = trial + 1;
    opts.channel.drop_probability = 0.05 + 0.25 * adversary.next_double();
    opts.channel.max_attempts = 3 + static_cast<std::uint32_t>(
                                        adversary.next_double() * 4);
    opts.ocs_partitions = 1 + static_cast<std::uint32_t>(
                                  adversary.next_double() * 6);
    ConversionFaults faults;
    if (adversary.next_double() < 0.4) {
      faults.dead_switches.push_back(
          aggs[static_cast<std::size_t>(adversary.next_double() *
                                        static_cast<double>(aggs.size()))]);
    }
    if (adversary.next_double() < 0.3) {
      faults.dead_switches.push_back(
          edges[static_cast<std::size_t>(adversary.next_double() *
                                         static_cast<double>(edges.size()))]);
    }
    if (adversary.next_double() < 0.4) {
      faults.fail_ocs_partitions.push_back(static_cast<std::uint32_t>(
          adversary.next_double() * opts.ocs_partitions));
    }
    const bool forward = adversary.next_double() < 0.5;
    const CompiledMode& from = forward ? clos : global;
    const CompiledMode& to = forward ? global : clos;

    const ConversionExecutor exec{ctl, opts};
    const ExecutionReport report = exec.execute(from, to, pairs, faults);

    // Exactly one of two terminal states, bit-for-bit.
    const CompiledMode& terminal =
        report.outcome == ConversionOutcome::kConverted ? to : from;
    const TimelinePoint& last = report.timeline.back();
    EXPECT_EQ(link_multiset(*last.graph), link_multiset(terminal.graph()))
        << "trial " << trial;
    for (std::size_t i = 0; i < pairs.size(); ++i) {
      EXPECT_EQ(last.routes[i], terminal.paths().server_paths(
                                    pairs[i].first, pairs[i].second))
          << "trial " << trial << " pair " << i;
    }
    // The staged protocol never black-holes, loops, or partitions.
    EXPECT_EQ(report.violations.size(), 0u) << "trial " << trial;
    EXPECT_EQ(report.total_blackhole_s, 0.0) << "trial " << trial;
    (report.outcome == ConversionOutcome::kConverted ? converted
                                                     : rolled_back)++;
  }
  // The adversary is tuned so both terminal states actually occur.
  EXPECT_GT(converted, 0u);
  EXPECT_GT(rolled_back, 0u);
}

TEST(ConversionExec, SameSeedSameReport) {
  const Controller ctl = testbed_controller();
  const CompiledMode from = ctl.compile_uniform(PodMode::kClos);
  const CompiledMode to = ctl.compile_uniform(PodMode::kLocal);
  const auto pairs = tracked_pairs(from.graph());
  ConversionExecOptions opts;
  opts.channel.drop_probability = 0.15;
  opts.seed = 42;
  const ConversionExecutor exec{ctl, opts};
  const ExecutionReport a = exec.execute(from, to, pairs);
  const ExecutionReport b = exec.execute(from, to, pairs);
  EXPECT_EQ(a.outcome, b.outcome);
  EXPECT_EQ(a.finish_s, b.finish_s);
  EXPECT_EQ(a.retries, b.retries);
  EXPECT_EQ(a.messages_dropped, b.messages_dropped);
  EXPECT_EQ(a.rules_added, b.rules_added);
  EXPECT_EQ(a.rules_deleted, b.rules_deleted);
  ASSERT_EQ(a.steps.size(), b.steps.size());
  for (std::size_t i = 0; i < a.steps.size(); ++i) {
    EXPECT_EQ(a.steps[i].kind, b.steps[i].kind);
    EXPECT_EQ(a.steps[i].attempts, b.steps[i].attempts);
    EXPECT_EQ(a.steps[i].finish_s, b.steps[i].finish_s);
  }
  ASSERT_EQ(a.timeline.size(), b.timeline.size());
  for (std::size_t k = 0; k < a.timeline.size(); ++k) {
    EXPECT_EQ(a.timeline[k].t, b.timeline[k].t);
    EXPECT_EQ(a.timeline[k].routes, b.timeline[k].routes);
  }
}

TEST(ConversionExec, DelayModelValidationPropagates) {
  FlatTreeParams p;
  p.clos = ClosParams::testbed();
  p.six_port_per_column = 1;
  p.four_port_per_column = 1;
  ControllerOptions options;
  options.count_rules = false;
  options.delay.rule_add_s = -1.0;
  const Controller ctl{FlatTree{p}, options};
  const CompiledMode from = ctl.compile_uniform(PodMode::kClos);
  const CompiledMode to = ctl.compile_uniform(PodMode::kGlobal);
  const auto pairs = tracked_pairs(from.graph());
  const ConversionExecutor exec{ctl, ConversionExecOptions{}};
  EXPECT_THROW((void)exec.execute(from, to, pairs), std::invalid_argument);
}

TEST(ConversionExec, RejectsBadArguments) {
  const Controller ctl = testbed_controller();
  const CompiledMode from = ctl.compile_uniform(PodMode::kClos);
  const CompiledMode to = ctl.compile_uniform(PodMode::kGlobal);
  const auto pairs = tracked_pairs(from.graph());
  ConversionExecOptions opts;
  opts.channel.drop_probability = 1.5;
  EXPECT_THROW(
      (void)ConversionExecutor(ctl, opts).execute(from, to, pairs),
      std::invalid_argument);
  ConversionFaults faults;
  faults.dead_switches = {from.graph().servers().front()};  // not a switch
  EXPECT_THROW((void)ConversionExecutor(ctl, ConversionExecOptions{})
                   .execute(from, to, pairs, faults),
               std::invalid_argument);
  EXPECT_THROW((void)ConversionExecutor(ctl, ConversionExecOptions{})
                   .execute(from, to, pairs, ConversionFaults{}, -1.0),
               std::invalid_argument);
}

// -- simulator drivers --------------------------------------------------------

TEST(ConversionDrive, FluidRunsThroughStagedConversion) {
  const Controller ctl = testbed_controller();
  const CompiledMode from = ctl.compile_uniform(PodMode::kClos);
  const CompiledMode to = ctl.compile_uniform(PodMode::kGlobal);
  const auto servers = from.graph().servers();
  Rng rng{7};
  Workload flows = permutation_traffic(servers.size(), rng);
  for (Flow& f : flows) f.bytes = 10e6;
  std::vector<std::pair<NodeId, NodeId>> pairs;
  for (const Flow& f : flows) {
    pairs.emplace_back(NodeId{f.src}, NodeId{f.dst});
  }
  ConversionExecOptions opts;
  opts.channel.drop_probability = 0.05;
  const ExecutionReport report =
      ConversionExecutor{ctl, opts}.execute(from, to, pairs);
  ASSERT_EQ(report.outcome, ConversionOutcome::kConverted);

  const ConversionDrive drive = make_conversion_drive(report);
  // The union graph covers every timeline state; every emitted event maps
  // to a timeline point.
  EXPECT_GE(drive.base->link_count(), from.graph().link_count());
  EXPECT_EQ(drive.schedule.events().size(), drive.refresh_point.size());
  for (std::size_t pt : drive.refresh_point) {
    EXPECT_LT(pt, report.timeline.size());
  }

  ScheduleRunStats stats;
  const std::vector<FluidFlowResult> results =
      run_fluid_with_conversion(report, flows, FluidOptions{}, &stats);
  ASSERT_EQ(results.size(), flows.size());
  for (const FluidFlowResult& r : results) {
    EXPECT_TRUE(r.completed);
  }
  // The staged protocol keeps every pair routed: no lookup ever comes back
  // empty during the conversion.
  EXPECT_EQ(stats.black_holed, 0u);
  EXPECT_GT(stats.refreshes, 0u);
}

TEST(ConversionDrive, PacketSimRunsThroughStagedConversion) {
  const Controller ctl = testbed_controller();
  const CompiledMode from = ctl.compile_uniform(PodMode::kClos);
  const CompiledMode to = ctl.compile_uniform(PodMode::kGlobal);
  const auto servers = from.graph().servers();
  Rng rng{11};
  Workload flows = permutation_traffic(servers.size(), rng);
  flows.resize(8);  // a handful of flows keeps the packet run quick
  for (Flow& f : flows) f.bytes = 1e6;
  std::vector<std::pair<NodeId, NodeId>> pairs;
  for (const Flow& f : flows) {
    pairs.emplace_back(NodeId{f.src}, NodeId{f.dst});
  }
  const ExecutionReport report =
      ConversionExecutor{ctl, ConversionExecOptions{}}.execute(
          from, to, pairs);
  ASSERT_EQ(report.outcome, ConversionOutcome::kConverted);

  // drive_packet_sim installs point 0 and adds every flow itself.
  PacketSim sim;
  const double horizon = report.finish_s + 5.0;
  drive_packet_sim(sim, report, flows, horizon);
  ASSERT_EQ(sim.flow_count(), flows.size());
  for (std::uint32_t i = 0; i < flows.size(); ++i) {
    EXPECT_TRUE(sim.flow_completed(i)) << "flow " << i;
    EXPECT_LE(sim.flow_finish_time(i), horizon);
  }
  // A flow over a pair the report does not track has no routes to ride.
  Workload untracked{flows[0]};
  untracked[0].dst = untracked[0].src;
  PacketSim rejected;
  EXPECT_THROW(drive_packet_sim(rejected, report, untracked, horizon),
               std::invalid_argument);
}

}  // namespace
}  // namespace flattree
