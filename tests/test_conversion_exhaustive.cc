// Exhaustive depth-1 fault placement for the checkpointed staged protocol.
//
// Every single fault the executor models is placed at every position the
// calm run exposes, one at a time, on the Figure-2 testbed with a lossless
// control channel and stage checkpoints on:
//   * each switch control-plane dead for the whole run;
//   * each OCS partition failing permanently;
//   * the primary controller killed at each step start of the calm run (the
//     takeover lands on the boundary ahead of that step) and halfway
//     through each step (it lands on the boundary after it);
//   * each Pod islanded from each step start, never healing and healing
//     one step later.
// Both directions (Clos -> global, global -> Clos) run under both control
// plane shapes (flat root, Pod-local authority). Every placement must end
// bit-for-bit on its last checkpoint (graph, configs, routes, epoch) with
// zero transient violations and zero blackhole time: the depth-1 slice of
// the protocol check. Each matrix also pins a digest of every placement's
// step schedule (order, targets, times, attempts), so a change that moves
// any step under any single fault shows up even when the terminal state
// holds.
#include "control/conversion_exec.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/flat_tree.h"
#include "routing/path.h"

namespace flattree {
namespace {

Controller testbed_controller() {
  FlatTreeParams p;
  p.clos = ClosParams::testbed();
  p.six_port_per_column = 1;
  p.four_port_per_column = 1;
  ControllerOptions options;
  options.k_global = 4;
  options.k_local = 4;
  options.k_clos = 4;
  options.count_rules = false;
  return Controller{FlatTree{p}, options};
}

std::vector<std::pair<NodeId, NodeId>> tracked_pairs(const Graph& graph) {
  const std::vector<NodeId> servers = graph.servers();
  std::vector<std::pair<NodeId, NodeId>> pairs;
  for (std::size_t i = 0; i < servers.size(); i += 3) {
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

// FNV-1a over 64-bit words.
void mix(std::uint64_t& h, std::uint64_t v) {
  for (int b = 0; b < 8; ++b) {
    h ^= (v >> (8 * b)) & 0xffu;
    h *= 0x100000001b3ULL;
  }
}

// The step schedule of one execution: every StepRecord field (times by bit
// pattern) plus the outcome and failover counters.
void mix_schedule(std::uint64_t& h, const ExecutionReport& r) {
  mix(h, static_cast<std::uint64_t>(r.outcome));
  mix(h, r.stages_committed);
  mix(h, r.failovers);
  mix(h, r.steps_reissued);
  mix(h, r.steps.size());
  for (const StepRecord& s : r.steps) {
    mix(h, static_cast<std::uint64_t>(s.kind));
    mix(h, (s.rollback ? 1u : 0u) | (s.replan ? 2u : 0u) |
               (s.standby ? 4u : 0u) | (s.ok ? 8u : 0u));
    mix(h, s.target.valid() ? s.target.value() : 0xffffffffULL);
    mix(h, s.partition);
    mix(h, s.rules_added);
    mix(h, s.rules_deleted);
    mix(h, std::bit_cast<std::uint64_t>(s.start_s));
    mix(h, std::bit_cast<std::uint64_t>(s.finish_s));
    mix(h, s.attempts);
  }
}

struct Placement {
  std::string label;
  ConversionFaults faults;
};

// Every depth-1 placement against the calm run's step schedule.
std::vector<Placement> placements(const Graph& graph,
                                  const ExecutionReport& calm,
                                  std::uint32_t pods) {
  std::vector<Placement> out;
  for (std::uint32_t n = 0; n < graph.node_count(); ++n) {
    if (!is_switch(graph.node(NodeId{n}).role)) continue;
    Placement p{"dead switch " + std::to_string(n), {}};
    p.faults.dead_switches = {NodeId{n}};
    out.push_back(std::move(p));
  }
  std::vector<std::uint32_t> ocs;
  for (const StepRecord& s : calm.steps) {
    if (s.kind == StepKind::kOcs) ocs.push_back(s.partition);
  }
  for (std::uint32_t part : ocs) {
    Placement p{"failed OCS partition " + std::to_string(part), {}};
    p.faults.fail_ocs_partitions = {part};
    out.push_back(std::move(p));
  }
  for (std::size_t i = 0; i < calm.steps.size(); ++i) {
    const StepRecord& s = calm.steps[i];
    for (bool mid : {false, true}) {
      Placement kill{"primary killed " + std::string(mid ? "during" : "at") +
                         " step " + std::to_string(i),
                     {}};
      kill.faults.kill_primary_at_s =
          mid ? 0.5 * (s.start_s + s.finish_s) : s.start_s;
      out.push_back(std::move(kill));
    }
    for (std::uint32_t pod = 0; pod < pods; ++pod) {
      for (bool heals : {false, true}) {
        Placement p{"pod " + std::to_string(pod) + " islanded at step " +
                        std::to_string(i) + (heals ? ", healing" : ""),
                    {}};
        p.faults.partitions.push_back(ControlPartition{
            PodId{pod}, s.start_s, heals ? s.finish_s : -1.0});
        out.push_back(std::move(p));
      }
    }
  }
  return out;
}

struct Matrix {
  std::size_t placements{0};  // pinned, so the matrix cannot silently shrink
  std::uint64_t schedule_digest{0xcbf29ce484222325ULL};
};

// Runs every placement for one direction and control-plane shape.
// Failures name the placement.
Matrix run_matrix(PodMode from_mode, PodMode to_mode, bool authority) {
  const Controller ctl = testbed_controller();
  const CompiledMode from = ctl.compile_uniform(from_mode);
  const CompiledMode to = ctl.compile_uniform(to_mode);
  const auto pairs = tracked_pairs(from.graph());
  ConversionExecOptions opts;
  opts.stage_checkpoints = true;
  opts.pod_local_authority = authority;
  const ConversionExecutor exec{ctl, opts};
  const ExecutionReport calm = exec.execute(from, to, pairs);
  EXPECT_EQ(calm.outcome, ConversionOutcome::kConverted);

  std::map<std::vector<ConverterConfig>,
           std::vector<std::pair<std::uint32_t, std::uint32_t>>>
      realized;
  const auto pods =
      static_cast<std::uint32_t>(from.assignment().pod_modes.size());
  const std::vector<Placement> all = placements(from.graph(), calm, pods);
  Matrix m;
  m.placements = all.size();
  std::size_t failures = 0;
  for (const Placement& p : all) {
    const ExecutionReport r = exec.execute(from, to, pairs, p.faults);
    mix_schedule(m.schedule_digest, r);
    std::ostringstream why;
    if (r.checkpoints.empty() || r.timeline.empty()) {
      why << " no checkpoint or timeline;";
    } else {
      const CheckpointRecord& terminal = r.checkpoints.back();
      const TimelinePoint& last = r.timeline.back();
      auto it = realized.find(terminal.configs);
      if (it == realized.end()) {
        it = realized
                 .emplace(terminal.configs,
                          link_multiset(ctl.tree().realize(terminal.configs)))
                 .first;
      }
      if (r.terminal_configs != terminal.configs) why << " configs;";
      if (r.terminal_assignment.pod_modes != terminal.assignment.pod_modes) {
        why << " assignment;";
      }
      if (link_multiset(*last.graph) != it->second) why << " graph;";
      if (last.routes != terminal.routes) why << " routes;";
      if (last.epoch != terminal.epoch) why << " epoch;";
    }
    if (!r.violations.empty()) {
      why << " " << r.violations.size() << " violations;";
    }
    if (r.total_blackhole_s != 0.0) {
      why << " blackhole " << r.total_blackhole_s << ";";
    }
    if (!why.str().empty() && ++failures <= 20) {
      ADD_FAILURE() << p.label << " (" << to_string(r.outcome) << "):"
                    << why.str();
    }
  }
  EXPECT_EQ(failures, 0u) << "of " << all.size() << " placements";
  return m;
}

TEST(ConversionExhaustive, ClosToGlobalFlatRoot) {
  const Matrix m = run_matrix(PodMode::kClos, PodMode::kGlobal, false);
  EXPECT_EQ(m.placements, 1596u);
  EXPECT_EQ(m.schedule_digest, 0xf5447dbe8b0d1624ULL)
      << std::hex << "0x" << m.schedule_digest;
}

TEST(ConversionExhaustive, ClosToGlobalPodLocalAuthority) {
  const Matrix m = run_matrix(PodMode::kClos, PodMode::kGlobal, true);
  EXPECT_EQ(m.placements, 1596u);
  EXPECT_EQ(m.schedule_digest, 0xd888e4c74835f740ULL)
      << std::hex << "0x" << m.schedule_digest;
}

TEST(ConversionExhaustive, GlobalToClosFlatRoot) {
  const Matrix m = run_matrix(PodMode::kGlobal, PodMode::kClos, false);
  EXPECT_EQ(m.placements, 1946u);
  EXPECT_EQ(m.schedule_digest, 0x751afbbcea2981a9ULL)
      << std::hex << "0x" << m.schedule_digest;
}

TEST(ConversionExhaustive, GlobalToClosPodLocalAuthority) {
  const Matrix m = run_matrix(PodMode::kGlobal, PodMode::kClos, true);
  EXPECT_EQ(m.placements, 1946u);
  EXPECT_EQ(m.schedule_digest, 0x91c523c73dee3824ULL)
      << std::hex << "0x" << m.schedule_digest;
}

}  // namespace
}  // namespace flattree
