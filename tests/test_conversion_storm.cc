// Conversion under fire: the storm-tolerant executor layers.
//
// Three guarantees are load-bearing and pinned here:
//   1. Live re-planning: data-plane failures concurrent with the step
//      schedule re-route broken pairs instead of aborting, and a fully
//      recovered storm leaves the installed routes bit-for-bit on plan.
//   2. Stage checkpoints: gradual per-Pod stages each commit as a durable
//      rollback point; an exhausted step rolls back to the last checkpoint
//      (kPartial), and the terminal state is exactly that checkpoint.
//   3. Controller failover: a standby takes over mid-conversion from
//      durable state alone, re-issues the in-flight step, and the
//      execution still terminates in a checkpointed mode.
// Plus the channel-jitter contract: retry backoff jitter is decorrelated
// from the drop stream, so it reshapes timing without touching outcomes.
#include "control/conversion_exec.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/flat_tree.h"
#include "net/failures.h"
#include "net/rng.h"
#include "routing/path.h"
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
  options.count_rules = false;
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

// A fabric link of `graph` that some installed route of `mode` actually
// crosses — failing it is guaranteed to break a tracked pair.
LinkId route_fabric_link(const CompiledMode& mode,
                         const std::pair<NodeId, NodeId>& pair,
                         std::size_t hop = 1) {
  const std::vector<Path> paths =
      mode.paths().server_paths(pair.first, pair.second);
  EXPECT_FALSE(paths.empty());
  const Path& path = paths.front();
  EXPECT_GT(path.size(), hop + 1);
  const NodeId a = path[hop];
  const NodeId b = path[hop + 1];
  const Graph& g = mode.graph();
  for (std::uint32_t i = 0; i < g.link_count(); ++i) {
    const Link& l = g.link(LinkId{i});
    if ((l.a == a && l.b == b) || (l.a == b && l.b == a)) return LinkId{i};
  }
  ADD_FAILURE() << "no fabric link between consecutive route hops";
  return LinkId{0};
}

// The terminal contract: the last timeline point runs exactly the terminal
// checkpoint's mode — same physical graph, same canonical routes, per pair,
// bit for bit.
void expect_terminal_is_checkpoint(const Controller& ctl,
                                   const ExecutionReport& report) {
  ASSERT_FALSE(report.checkpoints.empty());
  const CheckpointRecord& terminal = report.checkpoints.back();
  EXPECT_EQ(report.terminal_assignment.pod_modes, terminal.assignment.pod_modes);
  EXPECT_EQ(report.terminal_configs, terminal.configs);
  const Graph realized = ctl.tree().realize(terminal.configs);
  const TimelinePoint& last = report.timeline.back();
  EXPECT_EQ(link_multiset(*last.graph), link_multiset(realized));
  ASSERT_EQ(last.routes.size(), terminal.routes.size());
  for (std::size_t i = 0; i < last.routes.size(); ++i) {
    EXPECT_EQ(last.routes[i], terminal.routes[i]) << "pair " << i;
  }
}

TEST(ConversionStorm, ReplansAroundFlapAndEndsOnPlan) {
  const Controller ctl = testbed_controller();
  const CompiledMode from = ctl.compile_uniform(PodMode::kClos);
  const CompiledMode to = ctl.compile_uniform(PodMode::kGlobal);
  const auto pairs = tracked_pairs(from.graph());
  const ConversionExecutor exec{ctl, ConversionExecOptions{}};

  // Calibrate storm times off the undisturbed execution.
  const ExecutionReport clean = exec.execute(from, to, pairs);
  ASSERT_EQ(clean.outcome, ConversionOutcome::kConverted);
  const double T = clean.finish_s;

  const LinkId victim = route_fabric_link(from, pairs.front());
  FailureSchedule storm;
  storm.fail_at(0.25 * T, FailureSet{{victim}, {}});
  storm.recover_at(0.60 * T, FailureSet{{victim}, {}});

  const ExecutionReport report =
      exec.execute_under_storm(from, to, pairs, storm);

  EXPECT_EQ(report.outcome, ConversionOutcome::kConverted);
  EXPECT_GE(report.replans, 1u);
  // At every boundary the executor had a chance to act, no reachable pair
  // is black-holed and no route loops: every broken pair is re-planned at
  // the fold boundary.
  EXPECT_EQ(count_violations(report, ViolationKind::kBlackhole), 0u);
  EXPECT_EQ(count_violations(report, ViolationKind::kLoop), 0u);
  EXPECT_EQ(count_violations(report, ViolationKind::kDisconnected), 0u);
  // The timeline binds the failure at its physical time, so the victim pair
  // is dark for the detection latency (failure -> next boundary's re-plan)
  // — but strictly less than the full outage a non-re-planning executor
  // would eat.
  ConversionExecOptions frozen_opts;
  frozen_opts.live_replanning = false;
  const ExecutionReport frozen = ConversionExecutor{ctl, frozen_opts}
                                     .execute_under_storm(from, to, pairs, storm);
  EXPECT_GT(frozen.total_blackhole_s, 0.0);
  EXPECT_LT(report.total_blackhole_s, frozen.total_blackhole_s);
  // Re-plan steps are marked as such.
  EXPECT_TRUE(std::any_of(
      report.steps.begin(), report.steps.end(),
      [](const StepRecord& s) { return s.replan && s.ok; }));
  // Terminal state: bit-for-bit the target plan (the storm recovered).
  expect_terminal_is_checkpoint(ctl, report);
  EXPECT_EQ(report.terminal_configs, to.configs());
  const TimelinePoint& last = report.timeline.back();
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    EXPECT_EQ(last.routes[i],
              to.paths().server_paths(pairs[i].first, pairs[i].second));
  }
}

TEST(ConversionStorm, DivergedRoutesReconcileOnRecovery) {
  const Controller ctl = testbed_controller();
  const CompiledMode from = ctl.compile_uniform(PodMode::kClos);
  const CompiledMode to = ctl.compile_uniform(PodMode::kGlobal);
  const auto pairs = tracked_pairs(from.graph());
  const ConversionExecutor exec{ctl, ConversionExecOptions{}};
  const double T = exec.execute(from, to, pairs).finish_s;

  // Two victims on different tracked routes; the second one never recovers
  // until very late, so mid-execution state is genuinely diverged.
  const LinkId v1 = route_fabric_link(from, pairs.front());
  const LinkId v2 = route_fabric_link(from, pairs.back());
  FailureSchedule storm;
  storm.fail_at(0.20 * T, FailureSet{{v1}, {}});
  if (v2 != v1) storm.fail_at(0.30 * T, FailureSet{{v2}, {}});
  storm.recover_at(0.55 * T, FailureSet{{v1}, {}});
  if (v2 != v1) storm.recover_at(0.70 * T, FailureSet{{v2}, {}});

  const ExecutionReport report =
      exec.execute_under_storm(from, to, pairs, storm);
  EXPECT_EQ(report.outcome, ConversionOutcome::kConverted);
  EXPECT_GE(report.pairs_replanned, 1u);
  EXPECT_EQ(count_violations(report, ViolationKind::kBlackhole), 0u);
  expect_terminal_is_checkpoint(ctl, report);
  EXPECT_EQ(report.terminal_configs, to.configs());
}

TEST(ConversionStorm, StageCheckpointsCommitPerPod) {
  const Controller ctl = testbed_controller();
  const CompiledMode from = ctl.compile_uniform(PodMode::kClos);
  const CompiledMode to = ctl.compile_uniform(PodMode::kGlobal);
  const auto pairs = tracked_pairs(from.graph());
  ConversionExecOptions opts;
  opts.stage_checkpoints = true;
  const ConversionExecutor exec{ctl, opts};
  const ExecutionReport report = exec.execute(from, to, pairs);

  const auto pods =
      static_cast<std::uint32_t>(from.assignment().pod_modes.size());
  EXPECT_EQ(report.outcome, ConversionOutcome::kConverted);
  EXPECT_EQ(report.stages_total, pods);  // one Pod converts per stage
  EXPECT_EQ(report.stages_committed, pods);
  ASSERT_EQ(report.checkpoints.size(), pods + 1);
  // Checkpoints march one Pod at a time from origin to target, and the
  // epoch counter counts committed stages.
  for (std::size_t s = 0; s < report.checkpoints.size(); ++s) {
    const CheckpointRecord& cp = report.checkpoints[s];
    EXPECT_EQ(cp.stage, s);
    EXPECT_EQ(cp.epoch, s);
    const auto converted = static_cast<std::size_t>(std::count(
        cp.assignment.pod_modes.begin(), cp.assignment.pod_modes.end(),
        PodMode::kGlobal));
    EXPECT_EQ(converted, s);
  }
  EXPECT_EQ(report.timeline.back().epoch, pods);
  EXPECT_EQ(report.checkpoints.back().assignment.pod_modes,
            to.assignment().pod_modes);
  // Every intermediate boundary keeps every pair routed (the hybrid stages
  // are real modes, driven through the same make-before-break protocol).
  EXPECT_TRUE(report.violations.empty());
  EXPECT_EQ(report.total_blackhole_s, 0.0);
  expect_terminal_is_checkpoint(ctl, report);
}

TEST(ConversionStorm, ExhaustedStepRollsBackToLastCheckpointNotOrigin) {
  const Controller ctl = testbed_controller();
  const CompiledMode from = ctl.compile_uniform(PodMode::kClos);
  const CompiledMode to = ctl.compile_uniform(PodMode::kGlobal);
  const auto pairs = tracked_pairs(from.graph());
  ConversionExecOptions opts;
  opts.stage_checkpoints = true;
  const ConversionExecutor exec{ctl, opts};

  // The last stage's last OCS partition, from a clean reference run
  // (StepRecord::partition carries the global partition index).
  const ExecutionReport clean = exec.execute(from, to, pairs);
  std::uint32_t last_partition = 0;
  for (const StepRecord& s : clean.steps) {
    if (s.kind == StepKind::kOcs && !s.rollback) {
      last_partition = std::max(last_partition, s.partition);
    }
  }

  ConversionFaults faults;
  faults.fail_ocs_partitions = {last_partition};
  const ExecutionReport report = exec.execute(from, to, pairs, faults);

  EXPECT_EQ(report.outcome, ConversionOutcome::kPartial);
  EXPECT_EQ(report.stages_committed, report.stages_total - 1);
  ASSERT_EQ(report.checkpoints.size(), report.stages_committed + 1);
  // The fabric landed on the *last checkpoint* — a hybrid mode with every
  // Pod but one converted — not back at the origin.
  const CheckpointRecord& terminal = report.checkpoints.back();
  EXPECT_NE(terminal.assignment.pod_modes, from.assignment().pod_modes);
  EXPECT_NE(terminal.assignment.pod_modes, to.assignment().pod_modes);
  expect_terminal_is_checkpoint(ctl, report);
  // The staged protocol keeps its transient guarantees through the
  // rollback: no pair ever black-holes.
  EXPECT_TRUE(report.violations.empty());
  EXPECT_EQ(report.total_blackhole_s, 0.0);
}

TEST(ConversionStorm, FailoverStandbyResumesFromDurableState) {
  const Controller ctl = testbed_controller();
  const CompiledMode from = ctl.compile_uniform(PodMode::kClos);
  const CompiledMode to = ctl.compile_uniform(PodMode::kGlobal);
  const auto pairs = tracked_pairs(from.graph());
  ConversionExecOptions opts;
  opts.stage_checkpoints = true;
  opts.channel.drop_probability = 0.02;
  opts.seed = 11;
  const ConversionExecutor exec{ctl, opts};
  const double T = exec.execute(from, to, pairs).finish_s;

  ConversionFaults faults;
  faults.kill_primary_at_s = 0.45 * T;
  const ExecutionReport report = exec.execute(from, to, pairs, faults);

  EXPECT_EQ(report.failovers, 1u);
  EXPECT_EQ(report.steps_reissued, 1u);
  EXPECT_EQ(report.outcome, ConversionOutcome::kConverted);
  EXPECT_TRUE(report.violations.empty());
  // Exactly one takeover point: primary steps strictly before standby
  // steps, and the re-issued confirm is the first standby step.
  bool seen_standby = false;
  for (const StepRecord& s : report.steps) {
    if (s.standby) {
      seen_standby = true;
    } else {
      EXPECT_FALSE(seen_standby) << "primary step after the takeover";
    }
  }
  EXPECT_TRUE(seen_standby);
  // The takeover costs promotion time but never epoch mixing: the terminal
  // state is still bit-for-bit the target.
  expect_terminal_is_checkpoint(ctl, report);
  EXPECT_EQ(report.terminal_configs, to.configs());
}

TEST(ConversionStorm, FailoverDuringStormStillTerminatesCheckpointed) {
  const Controller ctl = testbed_controller();
  const CompiledMode from = ctl.compile_uniform(PodMode::kClos);
  const CompiledMode to = ctl.compile_uniform(PodMode::kGlobal);
  const auto pairs = tracked_pairs(from.graph());
  ConversionExecOptions opts;
  opts.stage_checkpoints = true;
  opts.channel.drop_probability = 0.05;
  opts.seed = 29;
  const ConversionExecutor exec{ctl, opts};
  const double T = exec.execute(from, to, pairs).finish_s;

  const LinkId victim = route_fabric_link(from, pairs.front());
  FailureSchedule storm;
  storm.fail_at(0.30 * T, FailureSet{{victim}, {}});
  storm.recover_at(0.50 * T, FailureSet{{victim}, {}});
  ConversionFaults faults;
  faults.kill_primary_at_s = 0.40 * T;

  const ExecutionReport report =
      exec.execute_under_storm(from, to, pairs, storm, faults);
  EXPECT_EQ(report.failovers, 1u);
  // Whatever the outcome at this loss rate, the terminal state is one of
  // the checkpointed modes, exactly.
  expect_terminal_is_checkpoint(ctl, report);
  EXPECT_EQ(count_violations(report, ViolationKind::kBlackhole), 0u);
  EXPECT_EQ(count_violations(report, ViolationKind::kLoop), 0u);
}

// Satellite: the compound fault. An OCS partition failure and a data-plane
// link failure land on the in-flight stage in the same tick; the stage must
// roll back to the last checkpoint and the terminal state must still be
// bit-for-bit a checkpointed mode once the link recovers. (This test also
// runs under ASan/UBSan and TSan in CI.)
TEST(ConversionStorm, CompoundOcsAndLinkFaultSameTick) {
  const Controller ctl = testbed_controller();
  const CompiledMode from = ctl.compile_uniform(PodMode::kClos);
  const CompiledMode to = ctl.compile_uniform(PodMode::kGlobal);
  const auto pairs = tracked_pairs(from.graph());
  ConversionExecOptions opts;
  opts.stage_checkpoints = true;
  const ConversionExecutor exec{ctl, opts};

  // From the clean run, take the last stage's final OCS pass and schedule
  // the link failure at exactly its start time: both faults hit the same
  // execution tick of an in-flight (uncommitted) stage.
  const ExecutionReport clean = exec.execute(from, to, pairs);
  std::uint32_t last_partition = 0;
  double ocs_start = 0.0;
  for (const StepRecord& s : clean.steps) {
    if (s.kind == StepKind::kOcs && !s.rollback &&
        s.partition >= last_partition) {
      last_partition = s.partition;
      ocs_start = s.start_s;
    }
  }
  const LinkId victim = route_fabric_link(from, pairs.front());
  FailureSchedule storm;
  storm.fail_at(ocs_start, FailureSet{{victim}, {}});
  storm.recover_at(ocs_start + 1.0, FailureSet{{victim}, {}});
  ConversionFaults faults;
  faults.fail_ocs_partitions = {last_partition};

  const ExecutionReport report =
      exec.execute_under_storm(from, to, pairs, storm, faults);

  EXPECT_EQ(report.outcome, ConversionOutcome::kPartial);
  EXPECT_EQ(report.stages_committed, report.stages_total - 1);
  EXPECT_EQ(count_violations(report, ViolationKind::kBlackhole), 0u);
  EXPECT_EQ(count_violations(report, ViolationKind::kLoop), 0u);
  // The link recovered during the rollback, so the terminal state is
  // exactly the last checkpoint: graph, configs and routes, bit for bit.
  expect_terminal_is_checkpoint(ctl, report);
}

// Satellite: deterministic decorrelated jitter. The jitter stream only
// shapes retry *timing*; every delivery outcome (attempt counts, drops,
// step success, conversion outcome) is identical across jitter settings
// because the drop stream never sees a jitter draw.
TEST(ConversionStorm, JitterReshapesTimingWithoutTouchingOutcomes) {
  const Controller ctl = testbed_controller();
  const CompiledMode from = ctl.compile_uniform(PodMode::kClos);
  const CompiledMode to = ctl.compile_uniform(PodMode::kGlobal);
  const auto pairs = tracked_pairs(from.graph());

  ConversionExecOptions a;
  a.channel.drop_probability = 0.20;
  a.channel.jitter = 0.0;
  a.seed = 7;
  ConversionExecOptions b = a;
  b.channel.jitter = 0.30;

  const ExecutionReport ra = ConversionExecutor{ctl, a}.execute(from, to, pairs);
  const ExecutionReport rb = ConversionExecutor{ctl, b}.execute(from, to, pairs);

  EXPECT_EQ(ra.outcome, rb.outcome);
  EXPECT_EQ(ra.retries, rb.retries);
  EXPECT_EQ(ra.messages_dropped, rb.messages_dropped);
  EXPECT_EQ(ra.steps_failed, rb.steps_failed);
  ASSERT_EQ(ra.steps.size(), rb.steps.size());
  bool any_retry = false;
  for (std::size_t i = 0; i < ra.steps.size(); ++i) {
    EXPECT_EQ(ra.steps[i].kind, rb.steps[i].kind);
    EXPECT_EQ(ra.steps[i].attempts, rb.steps[i].attempts);
    EXPECT_EQ(ra.steps[i].ok, rb.steps[i].ok);
    EXPECT_EQ(ra.steps[i].rules_added, rb.steps[i].rules_added);
    EXPECT_EQ(ra.steps[i].rules_deleted, rb.steps[i].rules_deleted);
    if (ra.steps[i].attempts > 1) any_retry = true;
  }
  ASSERT_TRUE(any_retry);  // at 20% loss the seed must produce retries
  // Jitter strictly shortens backoff waits, so the jittered run finishes
  // earlier — timing moved, outcomes did not.
  EXPECT_LT(rb.finish_s, ra.finish_s);
}

TEST(ConversionStorm, ZeroDropRunsAreByteIdenticalAcrossJitter) {
  const Controller ctl = testbed_controller();
  const CompiledMode from = ctl.compile_uniform(PodMode::kClos);
  const CompiledMode to = ctl.compile_uniform(PodMode::kGlobal);
  const auto pairs = tracked_pairs(from.graph());
  ConversionExecOptions a;
  a.channel.jitter = 0.0;
  ConversionExecOptions b;
  b.channel.jitter = 1.0;
  const ExecutionReport ra = ConversionExecutor{ctl, a}.execute(from, to, pairs);
  const ExecutionReport rb = ConversionExecutor{ctl, b}.execute(from, to, pairs);
  // No retry ever happens, so no jitter is ever drawn: identical timings.
  ASSERT_EQ(ra.steps.size(), rb.steps.size());
  for (std::size_t i = 0; i < ra.steps.size(); ++i) {
    EXPECT_DOUBLE_EQ(ra.steps[i].finish_s, rb.steps[i].finish_s);
  }
  EXPECT_DOUBLE_EQ(ra.finish_s, rb.finish_s);
}

TEST(ConversionStorm, ApiValidation) {
  const Controller ctl = testbed_controller();
  const CompiledMode from = ctl.compile_uniform(PodMode::kClos);
  const CompiledMode to = ctl.compile_uniform(PodMode::kGlobal);
  const auto pairs = tracked_pairs(from.graph());

  ControlChannelOptions ch;
  ch.jitter = -0.1;
  EXPECT_THROW(ch.validate(), std::invalid_argument);
  ch.jitter = 1.5;
  EXPECT_THROW(ch.validate(), std::invalid_argument);

  // stage_checkpoints requires the staged protocol.
  ConversionExecOptions opts;
  opts.staged = false;
  opts.stage_checkpoints = true;
  const ConversionExecutor bad{ctl, opts};
  EXPECT_THROW((void)bad.execute(from, to, pairs), std::invalid_argument);

  // Storm link ids must name links of the origin realization, and storm
  // switches must be switches.
  const ConversionExecutor exec{ctl, ConversionExecOptions{}};
  FailureSchedule out_of_range;
  const auto link_count =
      static_cast<std::uint32_t>(from.graph().link_count());
  out_of_range.fail_at(0.1, FailureSet{{LinkId{link_count}}, {}});
  EXPECT_THROW(
      (void)exec.execute_under_storm(from, to, pairs, out_of_range),
      std::invalid_argument);
  FailureSchedule server_storm;
  server_storm.fail_at(0.1, FailureSet{{}, {from.graph().servers().front()}});
  EXPECT_THROW(
      (void)exec.execute_under_storm(from, to, pairs, server_storm),
      std::invalid_argument);
}

TEST(ConversionStorm, EmptyStormMatchesPlainExecute) {
  const Controller ctl = testbed_controller();
  const CompiledMode from = ctl.compile_uniform(PodMode::kClos);
  const CompiledMode to = ctl.compile_uniform(PodMode::kGlobal);
  const auto pairs = tracked_pairs(from.graph());
  ConversionExecOptions opts;
  opts.channel.drop_probability = 0.05;
  opts.seed = 3;
  const ConversionExecutor exec{ctl, opts};
  const ExecutionReport plain = exec.execute(from, to, pairs);
  const ExecutionReport storm =
      exec.execute_under_storm(from, to, pairs, FailureSchedule{});
  ASSERT_EQ(plain.steps.size(), storm.steps.size());
  for (std::size_t i = 0; i < plain.steps.size(); ++i) {
    EXPECT_DOUBLE_EQ(plain.steps[i].finish_s, storm.steps[i].finish_s);
    EXPECT_EQ(plain.steps[i].attempts, storm.steps[i].attempts);
  }
  EXPECT_EQ(plain.replans, storm.replans);
  EXPECT_DOUBLE_EQ(plain.finish_s, storm.finish_s);
}

// -- full-report digest pin ---------------------------------------------------
//
// The goldens and the perfbench digests pin report summaries (outcome,
// stages, blackhole, step counts); this pin hashes every ExecutionReport
// field — step order and step times included — over the storm bench's ten
// cells, the atomic baseline at three loss rates and a Pod-local island.
// Any change to the executor's step schedule or simulated timing moves it.

class ReportDigest {
 public:
  void u64(std::uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      h_ ^= (v >> (8 * b)) & 0xffu;
      h_ *= 0x100000001b3ULL;
    }
  }
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
  void node(NodeId n) { u64(n.valid() ? n.value() : 0xffffffffULL); }
  void routes(const std::vector<RouteSet>& rs) {
    u64(rs.size());
    for (const RouteSet& paths : rs) {
      u64(paths.size());
      for (const Path& path : paths) {
        u64(path.size());
        for (NodeId n : path) node(n);
      }
    }
  }
  void configs(const std::vector<ConverterConfig>& cs) {
    u64(cs.size());
    for (ConverterConfig c : cs) u64(static_cast<std::uint64_t>(c));
  }
  void assignment(const ModeAssignment& a) {
    u64(a.pod_modes.size());
    for (PodMode m : a.pod_modes) u64(static_cast<std::uint64_t>(m));
  }
  void report(const ExecutionReport& r) {
    u64(static_cast<std::uint64_t>(r.outcome));
    u64(r.staged);
    f64(r.start_s);
    f64(r.finish_s);
    u64(r.retries);
    u64(r.messages_dropped);
    u64(r.steps_failed);
    u64(r.rules_added);
    u64(r.rules_deleted);
    u64(r.rules_skipped_dead);
    u64(r.pairs_patched);
    u64(r.replans);
    u64(r.pairs_replanned);
    u64(r.stages_total);
    u64(r.stages_committed);
    u64(r.failovers);
    u64(r.steps_reissued);
    f64(r.total_blackhole_s);
    f64(r.max_pair_blackhole_s);
    u64(r.pairs.size());
    for (const auto& [src, dst] : r.pairs) {
      node(src);
      node(dst);
    }
    u64(r.steps.size());
    for (const StepRecord& s : r.steps) {
      u64(static_cast<std::uint64_t>(s.kind));
      u64(s.rollback);
      u64(s.replan);
      u64(s.standby);
      node(s.target);
      u64(s.partition);
      u64(s.rules_added);
      u64(s.rules_deleted);
      f64(s.start_s);
      f64(s.finish_s);
      u64(s.attempts);
      u64(s.ok);
    }
    u64(r.violations.size());
    for (const TransientViolation& v : r.violations) {
      u64(static_cast<std::uint64_t>(v.kind));
      u64(v.step);
      u64(v.pair);
    }
    u64(r.timeline.size());
    for (const TimelinePoint& pt : r.timeline) {
      f64(pt.t);
      u64(pt.epoch);
      f64(pt.blackout_s);
      u64(static_cast<std::uint64_t>(pt.scope));
      routes(pt.routes);
      const auto links = link_multiset(*pt.graph);
      u64(links.size());
      for (const auto& [a, b] : links) {
        u64(a);
        u64(b);
      }
    }
    u64(r.checkpoints.size());
    for (const CheckpointRecord& cp : r.checkpoints) {
      u64(cp.stage);
      f64(cp.t);
      u64(cp.epoch);
      assignment(cp.assignment);
      configs(cp.configs);
      routes(cp.routes);
    }
    assignment(r.terminal_assignment);
    configs(r.terminal_configs);
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_{0xcbf29ce484222325ULL};
};

// The tracked pairs of a permutation workload over the testbed's servers.
std::vector<std::pair<NodeId, NodeId>> permutation_pairs(const Graph& graph,
                                                         std::uint64_t seed) {
  Rng rng{seed};
  const std::vector<NodeId> servers = graph.servers();
  std::vector<std::pair<NodeId, NodeId>> pairs;
  for (const Flow& f :
       permutation_traffic(static_cast<std::uint32_t>(servers.size()), rng)) {
    pairs.emplace_back(servers[f.src], servers[f.dst]);
  }
  return pairs;
}

// bench_conversion_storm's victims: distinct fabric links on installed
// routes of the tracked pairs, in route order.
std::vector<LinkId> storm_victims(
    const CompiledMode& mode,
    const std::vector<std::pair<NodeId, NodeId>>& pairs, std::size_t want) {
  const Graph& g = mode.graph();
  std::vector<bool> taken(g.link_count(), false);
  std::vector<LinkId> picked;
  for (const auto& [src, dst] : pairs) {
    for (const Path& path : mode.paths().server_paths(src, dst)) {
      for (std::size_t h = 1; h + 2 < path.size(); ++h) {
        if (picked.size() >= want) return picked;
        for (std::uint32_t i = 0; i < g.link_count(); ++i) {
          const Link& l = g.link(LinkId{i});
          if (taken[i] || !((l.a == path[h] && l.b == path[h + 1]) ||
                            (l.a == path[h + 1] && l.b == path[h]))) {
            continue;
          }
          taken[i] = true;
          picked.push_back(LinkId{i});
          break;
        }
      }
    }
  }
  return picked;
}

TEST(ConversionStorm, FullReportDigestIsPinned) {
  const Controller ctl = testbed_controller(8);  // the benches' k
  const CompiledMode from = ctl.compile_uniform(PodMode::kClos);
  const CompiledMode to = ctl.compile_uniform(PodMode::kGlobal);
  const double t0 = 0.1;
  ReportDigest digest;
  const auto fold = [&](const ExecutionReport& r) {
    digest.report(r);
    // Every run lands bit-for-bit on a checkpointed mode.
    expect_terminal_is_checkpoint(ctl, r);
  };

  // bench_conversion_storm's ten cells (seed 31): tolerant and rollback
  // protocols x calm / flaps / loss / loss+ocs / loss+kill.
  const auto pairs = permutation_pairs(from.graph(), 31);
  double window[2];
  std::uint32_t last_partition[2] = {0, 0};
  for (int tolerant = 1; tolerant >= 0; --tolerant) {
    ConversionExecOptions opts;
    opts.stage_checkpoints = tolerant != 0;
    opts.live_replanning = tolerant != 0;
    opts.seed = 31;
    const ExecutionReport cal = ConversionExecutor{ctl, opts}.execute(
        from, to, pairs, ConversionFaults{}, t0);
    for (const StepRecord& s : cal.steps) {
      if (s.kind == StepKind::kOcs && !s.rollback) {
        last_partition[1 - tolerant] =
            std::max(last_partition[1 - tolerant], s.partition);
      }
    }
    window[1 - tolerant] = cal.finish_s - t0;
  }
  const std::vector<LinkId> victims = storm_victims(from, pairs, 12);
  ASSERT_EQ(victims.size(), 12u);
  FailureSchedule storm;
  const double span = std::min(window[0], window[1]);
  const double gap = 0.55 * span / static_cast<double>(victims.size() + 1);
  for (std::size_t i = 0; i < victims.size(); ++i) {
    const double t = t0 + gap * static_cast<double>(i + 1);
    storm.fail_at(t, FailureSet{{victims[i]}, {}});
    storm.recover_at(t + 6.0 * gap, FailureSet{{victims[i]}, {}});
  }
  struct Cell {
    bool storm;
    double loss;
    bool ocs_fault;
    bool kill;
  };
  const Cell cells[] = {{false, 0.0, false, false},
                        {true, 0.0, false, false},
                        {true, 0.10, false, false},
                        {true, 0.10, true, false},
                        {true, 0.10, false, true}};
  for (std::size_t pi = 0; pi < 2; ++pi) {
    for (const Cell& c : cells) {
      ConversionExecOptions opts;
      opts.stage_checkpoints = pi == 0;
      opts.live_replanning = pi == 0;
      opts.channel.drop_probability = c.loss;
      opts.seed = 31;
      ConversionFaults faults;
      if (c.ocs_fault) faults.fail_ocs_partitions = {last_partition[pi]};
      if (c.kill) faults.kill_primary_at_s = t0 + 0.45 * window[pi];
      fold(ConversionExecutor{ctl, opts}.execute_under_storm(
          from, to, pairs, c.storm ? storm : FailureSchedule{}, faults, t0));
    }
  }

  // The atomic baseline at bench_conversion_churn's loss rates (seed 23),
  // plus its rollback path under a permanent OCS fault.
  const auto churn_pairs = permutation_pairs(from.graph(), 23);
  for (double loss : {0.0, 0.01, 0.10}) {
    ConversionExecOptions opts;
    opts.staged = false;
    opts.channel.drop_probability = loss;
    opts.seed = 23;
    fold(ConversionExecutor{ctl, opts}.execute(from, to, churn_pairs,
                                               ConversionFaults{}, t0));
  }
  ConversionExecOptions atomic;
  atomic.staged = false;
  atomic.seed = 23;
  ConversionFaults ocs_fault;
  ocs_fault.fail_ocs_partitions = {0};
  const ExecutionReport atomic_back = ConversionExecutor{ctl, atomic}.execute(
      from, to, churn_pairs, ocs_fault, t0);
  EXPECT_EQ(atomic_back.outcome, ConversionOutcome::kRolledBack);
  fold(atomic_back);

  // A never-healing island under a Pod-local controller with authority
  // (rule steps into the Pod succeed, the flip barrier cannot span it) and
  // under the flat root (rule steps into the Pod fail).
  for (bool authority : {true, false}) {
    ConversionExecOptions opts;
    opts.stage_checkpoints = true;
    opts.pod_local_authority = authority;
    opts.seed = 31;
    ConversionFaults island;
    island.partitions.push_back(
        ControlPartition{PodId{1}, t0 + 0.3 * window[0], -1.0});
    const ExecutionReport islanded = ConversionExecutor{ctl, opts}.execute(
        from, to, pairs, island, t0);
    EXPECT_EQ(islanded.outcome, ConversionOutcome::kPartial);
    fold(islanded);
  }

  EXPECT_EQ(digest.value(), 0x283b8a42a7ffa58dULL)
      << std::hex << "0x" << digest.value();
}

// -- reuse oracle and sharing guard -------------------------------------------
//
// The executor's invariant check and the report's blackhole integral reuse
// a pair's previous result when its route set and graph are the same
// objects as at the previous point. The oracle below recomputes both by a
// plain full scan over every point and pair and demands bit-for-bit
// equality with the report (a storm run's violation list, which the report
// alone cannot reproduce, is pinned by hash instead).

// bench_conversion_storm's flap storm: one flap per victim, failures
// staggered over the first 55% of `window`, each outage six gaps long.
FailureSchedule flap_storm(const std::vector<LinkId>& victims, double t0,
                           double window) {
  FailureSchedule storm;
  const double gap = 0.55 * window / static_cast<double>(victims.size() + 1);
  for (std::size_t i = 0; i < victims.size(); ++i) {
    const double t = t0 + gap * static_cast<double>(i + 1);
    storm.fail_at(t, FailureSet{{victims[i]}, {}});
    storm.recover_at(t + 6.0 * gap, FailureSet{{victims[i]}, {}});
  }
  return storm;
}

// The route-availability integral, every point and pair evaluated afresh.
std::pair<double, double> scan_blackhole(const ExecutionReport& r) {
  std::vector<double> dark(r.pairs.size(), 0.0);
  for (std::size_t k = 0; k < r.timeline.size(); ++k) {
    const TimelinePoint& pt = r.timeline[k];
    const double t_end =
        k + 1 < r.timeline.size() ? r.timeline[k + 1].t : r.finish_s;
    const double dt = std::max(0.0, t_end - pt.t);
    if (dt == 0.0) continue;
    for (std::size_t i = 0; i < r.pairs.size(); ++i) {
      const std::vector<Path>& rs = pt.routes[i];
      if (rs.empty()) {
        dark[i] += dt;
        continue;
      }
      const auto invalid = static_cast<std::size_t>(
          std::count_if(rs.begin(), rs.end(), [&](const Path& p) {
            return !is_valid_path(*pt.graph, p);
          }));
      if (invalid != 0) {
        dark[i] += dt * static_cast<double>(invalid) /
                   static_cast<double>(rs.size());
      }
    }
  }
  double total = 0.0;
  double worst = 0.0;
  for (double d : dark) {
    total += d;
    worst = std::max(worst, d);
  }
  return {total, worst};
}

// The transient-invariant checker, every point and pair walked afresh.
// Without a storm each timeline point is one check on its own graph, taken
// right after the step that finished at the point's time.
std::vector<TransientViolation> scan_violations(const ExecutionReport& r) {
  std::vector<TransientViolation> out;
  for (const TimelinePoint& pt : r.timeline) {
    const auto done = static_cast<std::size_t>(std::count_if(
        r.steps.begin(), r.steps.end(),
        [&](const StepRecord& s) { return s.finish_s <= pt.t; }));
    const std::size_t step = done == 0 ? 0 : done - 1;
    const bool connected = servers_connected(*pt.graph);
    if (!connected) {
      out.push_back({ViolationKind::kDisconnected, step, 0});
    }
    for (std::size_t i = 0; i < r.pairs.size(); ++i) {
      const std::vector<Path>& rs = pt.routes[i];
      if (rs.empty()) {
        if (connected) out.push_back({ViolationKind::kBlackhole, step, i});
        continue;
      }
      for (const Path& path : rs) {
        Path sorted = path;
        std::sort(sorted.begin(), sorted.end());
        if (std::adjacent_find(sorted.begin(), sorted.end()) !=
            sorted.end()) {
          out.push_back({ViolationKind::kLoop, step, i});
        } else if (!is_valid_path(*pt.graph, path)) {
          out.push_back({ViolationKind::kBlackhole, step, i});
        }
      }
    }
  }
  return out;
}

void expect_matches_scan(const ExecutionReport& r, const std::string& label) {
  const auto [total, worst] = scan_blackhole(r);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(r.total_blackhole_s),
            std::bit_cast<std::uint64_t>(total))
      << label;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(r.max_pair_blackhole_s),
            std::bit_cast<std::uint64_t>(worst))
      << label;
}

void expect_violations_match_scan(const ExecutionReport& r,
                                  const std::string& label) {
  const std::vector<TransientViolation> want = scan_violations(r);
  ASSERT_EQ(r.violations.size(), want.size()) << label;
  for (std::size_t v = 0; v < want.size(); ++v) {
    EXPECT_EQ(r.violations[v].kind, want[v].kind) << label << " #" << v;
    EXPECT_EQ(r.violations[v].step, want[v].step) << label << " #" << v;
    EXPECT_EQ(r.violations[v].pair, want[v].pair) << label << " #" << v;
  }
}

TEST(ConversionStorm, ReuseMatchesFullScan) {
  const Controller ctl = testbed_controller(8);
  const CompiledMode from = ctl.compile_uniform(PodMode::kClos);
  const CompiledMode to = ctl.compile_uniform(PodMode::kGlobal);
  const double t0 = 0.1;
  std::size_t violations = 0;
  double blackhole = 0.0;
  // Under a storm the checker judged each boundary on the graph the
  // executor had detected by then, which the report does not carry, so
  // those violation lists cannot be rescanned from it. Their hash is pinned
  // instead, to the value the checker produced before it reused anything.
  ReportDigest storm_violations;
  const auto check = [&](const ExecutionReport& r, bool storm,
                         const std::string& label) {
    expect_matches_scan(r, label);
    blackhole += r.total_blackhole_s;
    if (!storm) {
      expect_violations_match_scan(r, label);
      violations += r.violations.size();
      return;
    }
    storm_violations.u64(r.violations.size());
    for (const TransientViolation& v : r.violations) {
      storm_violations.u64(static_cast<std::uint64_t>(v.kind));
      storm_violations.u64(v.step);
      storm_violations.u64(v.pair);
    }
  };
  for (std::uint64_t seed : {31u, 5u, 17u}) {
    const std::string at = " seed " + std::to_string(seed);
    // bench_conversion_storm's cells: tolerant and full-rollback protocols
    // x calm / flaps / loss / loss+ocs (a rollback) / loss+kill (a
    // failover). Each faulted cell also runs without its storm, where the
    // violation list is checked too.
    const auto pairs = permutation_pairs(from.graph(), seed);
    for (int tolerant = 1; tolerant >= 0; --tolerant) {
      ConversionExecOptions opts;
      opts.stage_checkpoints = tolerant != 0;
      opts.live_replanning = tolerant != 0;
      opts.seed = seed;
      const ExecutionReport cal = ConversionExecutor{ctl, opts}.execute(
          from, to, pairs, ConversionFaults{}, t0);
      check(cal, false, "calm" + at);
      std::uint32_t last_partition = 0;
      for (const StepRecord& s : cal.steps) {
        if (s.kind == StepKind::kOcs && !s.rollback) {
          last_partition = std::max(last_partition, s.partition);
        }
      }
      const double window = cal.finish_s - t0;
      const FailureSchedule storm =
          flap_storm(storm_victims(from, pairs, 12), t0, window);
      check(ConversionExecutor{ctl, opts}.execute_under_storm(
                from, to, pairs, storm, ConversionFaults{}, t0),
            true, "flaps" + at);
      ConversionExecOptions lossy = opts;
      lossy.channel.drop_probability = 0.10;
      ConversionFaults ocs;
      ocs.fail_ocs_partitions = {last_partition};
      ConversionFaults kill;
      kill.kill_primary_at_s = t0 + 0.45 * window;
      const ConversionExecutor exec{ctl, lossy};
      for (const auto& [faults, name] :
           {std::pair{ConversionFaults{}, "loss"}, std::pair{ocs, "loss+ocs"},
            std::pair{kill, "loss+kill"}}) {
        const std::string label = std::string{name} + at;
        check(exec.execute_under_storm(from, to, pairs, storm, faults, t0),
              true, label + " storm");
        check(exec.execute(from, to, pairs, faults, t0), false, label);
      }
    }
    // The atomic baseline at bench_conversion_churn's loss rates, and its
    // rollback under a permanent OCS fault.
    for (double loss : {0.0, 0.01, 0.10}) {
      ConversionExecOptions opts;
      opts.staged = false;
      opts.channel.drop_probability = loss;
      opts.seed = seed;
      check(ConversionExecutor{ctl, opts}.execute(from, to, pairs,
                                                  ConversionFaults{}, t0),
            false, "atomic loss " + std::to_string(loss) + at);
    }
    ConversionExecOptions atomic;
    atomic.staged = false;
    atomic.seed = seed;
    ConversionFaults ocs_fault;
    ocs_fault.fail_ocs_partitions = {0};
    check(ConversionExecutor{ctl, atomic}.execute(from, to, pairs, ocs_fault,
                                                  t0),
          false, "atomic rollback" + at);
  }
  // The oracle compared something: the atomic baseline's rule hole yields
  // violations, and it and the full-rollback protocol's dangling routes
  // charge blackhole time.
  EXPECT_GT(violations, 0u);
  EXPECT_GT(blackhole, 0.0);
  EXPECT_EQ(storm_violations.value(), 0x816ad4ba5b4de5d7ULL)
      << std::hex << "0x" << storm_violations.value();
}

// Storage identity of a route set: the address of its shared vector. The
// report holds every set it names, so no address is reused while the count
// runs.
const void* storage_of(const RouteSet& rs) { return &rs.paths(); }

TEST(ConversionStorm, UnchangedRoutesShareStorage) {
  const Controller ctl = testbed_controller(8);
  const CompiledMode from = ctl.compile_uniform(PodMode::kClos);
  const CompiledMode to = ctl.compile_uniform(PodMode::kGlobal);
  const double t0 = 0.1;
  const auto pairs = permutation_pairs(from.graph(), 31);
  ConversionExecOptions opts;
  opts.stage_checkpoints = true;
  opts.channel.drop_probability = 0.02;
  opts.seed = 31;
  const ConversionExecutor exec{ctl, opts};
  const double window =
      exec.execute(from, to, pairs, ConversionFaults{}, t0).finish_s - t0;
  const ExecutionReport r = exec.execute_under_storm(
      from, to, pairs, flap_storm(storm_victims(from, pairs, 12), t0, window),
      ConversionFaults{}, t0);
  ASSERT_GE(r.replans, 1u);
  ASSERT_GE(r.stages_committed, 2u);

  // Adjacent timeline points: a pair whose routes did not change shares
  // its storage. Installs count the route changes the report records.
  std::size_t installs = 0;
  for (std::size_t k = 1; k < r.timeline.size(); ++k) {
    for (std::size_t i = 0; i < pairs.size(); ++i) {
      const RouteSet& before = r.timeline[k - 1].routes[i];
      const RouteSet& after = r.timeline[k].routes[i];
      if (before == after) {
        EXPECT_TRUE(same_storage(before, after))
            << "point " << k << " pair " << i;
      } else {
        ++installs;
      }
    }
  }
  for (std::size_t c = 1; c < r.checkpoints.size(); ++c) {
    for (std::size_t i = 0; i < pairs.size(); ++i) {
      if (!(r.checkpoints[c - 1].routes[i] == r.checkpoints[c].routes[i])) {
        ++installs;
      }
    }
  }
  std::vector<const void*> storages;
  const auto collect = [&](const std::vector<RouteSet>& routes) {
    for (const RouteSet& rs : routes) {
      if (!rs.empty()) storages.push_back(storage_of(rs));
    }
  };
  for (const TimelinePoint& pt : r.timeline) collect(pt.routes);
  for (const CheckpointRecord& cp : r.checkpoints) collect(cp.routes);
  std::sort(storages.begin(), storages.end());
  const auto distinct = static_cast<std::size_t>(
      std::unique(storages.begin(), storages.end()) - storages.begin());
  EXPECT_GT(installs, 0u);
  EXPECT_LE(distinct, pairs.size() + installs);
  // Far below one copy per point and pair, the deep-copy footprint.
  EXPECT_LT(distinct, r.timeline.size() * pairs.size() / 4);
}

}  // namespace
}  // namespace flattree
