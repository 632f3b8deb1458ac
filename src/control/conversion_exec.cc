#include "control/conversion_exec.h"

#include <algorithm>
#include <cmath>
#include <optional>
#include <stdexcept>
#include <unordered_map>
#include <utility>

#include "core/converter.h"
#include "net/rng.h"
#include "obs/metrics.h"
#include "routing/ksp.h"

namespace flattree {

void ControlChannelOptions::validate() const {
  // Negated conjunctions so NaN (which compares false against every bound)
  // is rejected too.
  if (!(drop_probability >= 0.0 && drop_probability < 1.0)) {
    throw std::invalid_argument(
        "ControlChannelOptions: drop_probability must be in [0, 1)");
  }
  if (!(delay_s >= 0.0)) {
    throw std::invalid_argument("ControlChannelOptions: delay_s must be >= 0");
  }
  if (!(timeout_s > 0.0)) {
    throw std::invalid_argument("ControlChannelOptions: timeout_s must be > 0");
  }
  if (!(backoff >= 1.0)) {
    throw std::invalid_argument("ControlChannelOptions: backoff must be >= 1");
  }
  if (!(jitter >= 0.0 && jitter <= 1.0)) {
    throw std::invalid_argument(
        "ControlChannelOptions: jitter must be in [0, 1]");
  }
  if (max_attempts == 0) {
    throw std::invalid_argument(
        "ControlChannelOptions: max_attempts must be >= 1");
  }
  for (double d : switch_delay_s) {
    if (!(d >= 0.0)) {
      throw std::invalid_argument(
          "ControlChannelOptions: switch_delay_s entries must be >= 0");
    }
  }
}

void ControlPartition::validate(std::uint32_t pod_count) const {
  if (!pod.valid() || pod.value() >= pod_count) {
    throw std::invalid_argument("ControlPartition: pod out of range");
  }
  if (!(start_s >= 0.0)) {
    throw std::invalid_argument("ControlPartition: start_s must be >= 0");
  }
  if (!(end_s < 0.0) && !(end_s > start_s)) {
    throw std::invalid_argument(
        "ControlPartition: window must end after it starts");
  }
}

const char* to_string(StepKind kind) {
  switch (kind) {
    case StepKind::kRulePatch: return "rule_patch";
    case StepKind::kOcs: return "ocs";
    case StepKind::kRuleAdd: return "rule_add";
    case StepKind::kEpochFlip: return "epoch_flip";
    case StepKind::kRuleDelete: return "rule_delete";
    case StepKind::kRuleRestore: return "rule_restore";
  }
  return "?";
}

const char* to_string(ConversionOutcome outcome) {
  switch (outcome) {
    case ConversionOutcome::kConverted: return "converted";
    case ConversionOutcome::kPartial: return "partial";
    case ConversionOutcome::kRolledBack: return "rolled_back";
  }
  return "?";
}

namespace {

std::uint64_t directed_pair_key(NodeId src, NodeId dst) {
  return (static_cast<std::uint64_t>(src.value()) << 32) | dst.value();
}

// The paths of `a` that `b` does not hold, in order.
std::vector<Path> paths_not_in(const std::vector<Path>& a,
                               const std::vector<Path>& b) {
  std::vector<Path> out;
  for (const Path& p : a) {
    if (std::find(b.begin(), b.end(), p) == b.end()) out.push_back(p);
  }
  return out;
}

bool has_repeated_node(const Path& path) {
  Path sorted = path;
  std::sort(sorted.begin(), sorted.end());
  return std::adjacent_find(sorted.begin(), sorted.end()) != sorted.end();
}

// Changed converters grouped into rewire units (a six-port converter and its
// side peer configure pairwise, so they always move in the same OCS pass —
// FlatTree::realize rejects half-configured side bundles) and chunked into
// at most `requested` contiguous partitions.
using Partitions = std::vector<std::vector<std::uint32_t>>;
Partitions make_partitions(
    const FlatTree& tree, std::span<const ConverterConfig> from,
    std::span<const ConverterConfig> to, std::uint32_t requested) {
  const std::span<const Converter> converters = tree.converters();
  std::vector<std::vector<std::uint32_t>> units;
  std::vector<bool> seen(from.size(), false);
  for (std::uint32_t i = 0; i < from.size(); ++i) {
    if (seen[i] || from[i] == to[i]) continue;
    std::vector<std::uint32_t> unit{i};
    seen[i] = true;
    const ConverterId peer = converters[i].side_peer;
    if (peer.valid() && peer.index() < from.size() && !seen[peer.index()]) {
      unit.push_back(peer.value());
      seen[peer.index()] = true;
    }
    units.push_back(std::move(unit));
  }
  if (units.empty()) return {};
  const std::size_t count = std::min<std::size_t>(
      std::max<std::uint32_t>(1, requested), units.size());
  Partitions partitions(count);
  for (std::size_t u = 0; u < units.size(); ++u) {
    std::vector<std::uint32_t>& part = partitions[u * count / units.size()];
    part.insert(part.end(), units[u].begin(), units[u].end());
  }
  return partitions;
}

struct ChannelOutcome {
  bool ok{false};
  double finish_s{0.0};
  std::uint32_t attempts{0};
  std::uint32_t dropped{0};
};

// Make-before-break patches (while a storm is wired in) and re-plans land
// as batches of at most this many rule operations, with storm detection and
// failover checks between batches — a failure landing mid-patch is observed
// within one chunk, not after the whole partition's worth of rules.
constexpr std::uint64_t kPatchChunkRules = 256;

// Rule operations of one batched step: installs and deletes on live
// switches, and operations skipped because the switch is control-plane dead.
struct RuleTally {
  std::uint64_t adds{0};
  std::uint64_t dels{0};
  std::uint64_t skipped{0};
};

// Grows one batch from item `begin` of `n` until the next item would push
// its adds + deletes past `budget` (0 = unbounded); the first item always
// goes in. `tally_item(j, t)` adds item j's operations to t. Returns the
// batch end; `tally` holds the batch's operations.
template <typename TallyItem>
std::size_t take_chunk(std::size_t begin, std::size_t n, std::uint64_t budget,
                       TallyItem&& tally_item, RuleTally& tally) {
  tally = RuleTally{};
  std::size_t end = begin;
  while (end < n) {
    RuleTally next = tally;
    tally_item(end, next);
    if (end > begin && budget != 0 && next.adds + next.dels > budget) break;
    tally = next;
    ++end;
  }
  return end;
}

// k-shortest server paths over one graph, with the PathCache built on first
// use. An endpoint without links on the graph gets no paths: a server whose
// access circuit moves with an in-flight rewire has degree 0 on the
// intersection graph, and no immediate patch exists for it. The graph is
// borrowed or, for a derived graph built on the spot, owned.
class LazyPaths {
 public:
  LazyPaths(const Graph& graph, std::uint32_t k) : graph_{&graph}, k_{k} {}
  LazyPaths(Graph&& owned, std::uint32_t k)
      : owned_{std::move(owned)}, graph_{&*owned_}, k_{k} {}
  LazyPaths(const LazyPaths&) = delete;
  LazyPaths& operator=(const LazyPaths&) = delete;

  const Graph& graph() const { return *graph_; }

  std::vector<Path> operator()(NodeId src, NodeId dst) {
    if (graph_->degree(src) == 0 || graph_->degree(dst) == 0) return {};
    if (!cache_.has_value()) cache_.emplace(*graph_, k_);
    return cache_->server_paths(src, dst);
  }

 private:
  std::optional<Graph> owned_;
  const Graph* graph_;
  std::uint32_t k_;
  std::optional<PathCache> cache_;
};

// The whole mutable execution state plus the step/timeline machinery. One
// instance per execute() call; everything it touches is local or owned by
// the caller, so executions are trivially parallel across threads.
struct Exec {
  const FlatTree& tree;
  const Controller& controller;
  const ConversionExecOptions& opt;
  const ConversionDelayModel& delay;
  const ConversionFaults& faults;
  ExecutionReport& report;
  Rng rng;
  Rng jitter_rng;  // decorrelated from the drop stream by construction
  double now;
  std::uint32_t epoch{0};
  std::uint32_t k;
  std::vector<ConverterConfig> configs;
  std::shared_ptr<const Graph> graph;  // current clean realization
  std::shared_ptr<const Graph> live;   // graph minus active storm failures
  std::vector<RouteSet> routes;     // installed, parallel to pairs
  std::vector<RouteSet> canonical;  // the plan absent any storm
  std::vector<bool> diverged;  // installed off-plan due to a storm re-plan
  // check_invariants' reuse: per pair, the routes last found clean on
  // clean_live (empty = none).
  std::vector<RouteSet> clean_routes;
  std::shared_ptr<const Graph> clean_live;
  std::vector<bool> dead;      // per node id, control-plane dead
  std::vector<NodeId> dead_list;  // the same, sorted

  // Storm state. Link ids of `storm` live in `reference`'s space (the
  // origin realization) and resolve to node pairs across realizations.
  const FailureSchedule* storm;
  const Graph* reference;
  std::size_t storm_next{0};
  // Intersection graph of an in-flight make-before-break rewire (set only
  // while rewire_partition's patch chunks are landing). A re-plan that
  // fires mid-rewire solves on this graph so its substitutes survive the
  // imminent OCS pass.
  const Graph* mbb_intersection{nullptr};
  FailureSet storm_active;  // sorted, reference space
  bool in_rollback{false};

  // Failover state.
  bool standby{false};  // the primary died; steps are issued by the standby

  // The current stage's goal mode, for repairing its plan routes through
  // Controller::plan_repair when the storm breaks them. stage_live is a
  // storm-degraded repaired copy, rebuilt whenever the active set changes.
  const CompiledMode* stage_target{nullptr};
  std::optional<CompiledMode> stage_live;
  FailureSet stage_live_fails;

  // Per switch, the in-flight stage's inert new-epoch rules: set as each
  // install lands, zeroed by the flip (they become the live epoch) and by
  // rollback as it collects them. Durable protocol state a standby rescans.
  std::vector<std::uint64_t> next_epoch_rules;

  obs::Counter* c_steps{nullptr};
  obs::Counter* c_step_failures{nullptr};
  obs::Counter* c_retries{nullptr};
  obs::Counter* c_dropped{nullptr};
  obs::Counter* c_patched{nullptr};
  obs::Counter* c_inv_checks{nullptr};
  obs::Counter* c_violations{nullptr};
  obs::Counter* c_replan_events{nullptr};
  obs::Counter* c_replan_pairs{nullptr};
  obs::Counter* c_replan_steps{nullptr};
  obs::Counter* c_ckpt_committed{nullptr};
  obs::Counter* c_ckpt_rollbacks{nullptr};
  obs::Counter* c_fo_takeovers{nullptr};
  obs::Counter* c_fo_reissued{nullptr};
  obs::Histogram* h_attempts{nullptr};
  obs::EventTracer* tracer;

  // The pre-conversion state at t0_s: `from`'s configs, realization and
  // plan routes for every tracked pair of `rep`, no storm event folded yet.
  Exec(const Controller& ctl, const ConversionExecOptions& options,
       const ConversionFaults& injected, ExecutionReport& rep,
       const CompiledMode& from, const FailureSchedule& schedule,
       double t0_s)
      : tree(ctl.tree()),
        controller(ctl),
        opt(options),
        delay(ctl.options().delay),
        faults(injected),
        report(rep),
        rng(options.seed),
        jitter_rng(options.seed ^ 0x9e3779b97f4a7c15ULL),
        now(t0_s),
        k(from.k()),
        configs(from.configs()),
        graph(from.graph_ptr()),
        live(graph),
        routes(routes_of(from)),
        canonical(routes),
        diverged(rep.pairs.size(), false),
        clean_routes(rep.pairs.size()),
        dead(from.graph().node_count(), false),
        dead_list(injected.dead_switches),
        storm(schedule.empty() ? nullptr : &schedule),
        reference(&from.graph()),
        next_epoch_rules(from.graph().node_count(), 0),
        tracer(options.sink.tracer()) {
    std::sort(dead_list.begin(), dead_list.end());
    dead_list.erase(std::unique(dead_list.begin(), dead_list.end()),
                    dead_list.end());
    for (NodeId sw : dead_list) dead[sw.index()] = true;
    if (obs::MetricsRegistry* reg = options.sink.metrics()) {
      c_steps = &reg->counter("conv_exec.steps");
      c_step_failures = &reg->counter("conv_exec.step_failures");
      c_retries = &reg->counter("conv_exec.retries");
      c_dropped = &reg->counter("conv_exec.messages_dropped");
      c_patched = &reg->counter("conv_exec.pairs_patched");
      c_inv_checks = &reg->counter("conv_exec.invariant_checks");
      c_violations = &reg->counter("conv_exec.violations");
      c_replan_events = &reg->counter("conv_exec.replan.events");
      c_replan_pairs = &reg->counter("conv_exec.replan.pairs");
      c_replan_steps = &reg->counter("conv_exec.replan.steps");
      c_ckpt_committed = &reg->counter("conv_exec.checkpoint.committed");
      c_ckpt_rollbacks = &reg->counter("conv_exec.checkpoint.rollbacks");
      c_fo_takeovers = &reg->counter("conv_exec.failover.takeovers");
      c_fo_reissued = &reg->counter("conv_exec.failover.steps_reissued");
      h_attempts =
          &reg->histogram("conv_exec.step_attempts", {1, 2, 4, 8, 16, 32, 64});
    }
  }

  // `mode`'s plan routes, per tracked pair. A pair whose plan equals its
  // entry in `prev` (a committed mode's plan) keeps that entry's storage.
  std::vector<RouteSet> routes_of(const CompiledMode& mode,
                                  std::span<const RouteSet> prev = {}) const {
    std::vector<RouteSet> rs;
    rs.reserve(report.pairs.size());
    for (std::size_t i = 0; i < report.pairs.size(); ++i) {
      const auto [src, dst] = report.pairs[i];
      std::vector<Path> paths = mode.paths().server_paths(src, dst);
      if (i < prev.size() && prev[i] == paths) {
        rs.push_back(prev[i]);
      } else {
        rs.push_back(std::move(paths));
      }
    }
    return rs;
  }

  // Installs `next` as pair i's routes. Equal contents keep the installed
  // storage, so a pair whose routes did not change shares it with every
  // earlier timeline point that holds it.
  void set_routes(std::size_t i, RouteSet next) {
    if (!(routes[i] == next)) routes[i] = std::move(next);
  }

  // The one-way delay toward a step's target: the topology-aware
  // per-switch figure when the channel carries one (net/control_rtt.h),
  // else the uniform delay_s. Untargeted steps (patches, OCS passes, the
  // flip barrier) always use delay_s — they fan out to many devices and
  // the uniform figure is their calibrated aggregate.
  double one_way_for(NodeId target) const {
    const std::vector<double>& d = opt.channel.switch_delay_s;
    if (!target.valid() || target.index() >= d.size()) {
      return opt.channel.delay_s;
    }
    return d[target.index()];
  }

  // True when n's Pod has an active control partition at `now`. Core
  // switches carry no Pod and are never partitioned. Windows are checked
  // at step start — per-call granularity, deterministic.
  bool partitioned(NodeId n) const {
    if (faults.partitions.empty()) return false;
    const PodId pod = graph->node(n).pod;
    if (!pod.valid()) return false;
    for (const ControlPartition& p : faults.partitions) {
      if (p.pod == pod && now >= p.start_s &&
          (p.end_s < 0.0 || now < p.end_s)) {
        return true;
      }
    }
    return false;
  }

  // A per-switch step the commanding controller cannot deliver: the flat
  // root cannot cross a partition; a Pod-local controller with authority
  // programs its own island.
  bool partition_blocks(NodeId n) const {
    return !opt.pod_local_authority && partitioned(n);
  }

  // One command round over the lossy channel: per attempt the command drop
  // and (if delivered and executable) the ack drop are drawn independently;
  // a forced failure (dead switch, injected OCS fault) is delivered but
  // never acks. Retries go out after a capped exponential backoff,
  // shortened by up to channel.jitter of itself from the dedicated jitter
  // stream — desynchronizing retry trains without touching the drop
  // stream, so delivery outcomes are invariant under jitter changes.
  // `unbounded` (rollback) retries until success, with a far-out safety
  // valve so an adversarial seed cannot hang the executor.
  ChannelOutcome channel_round(double start_s, double one_way_s,
                               double service_s, bool forced_fail,
                               bool unbounded) {
    const ControlChannelOptions& ch = opt.channel;
    const double rtt = 2.0 * one_way_s + service_s;
    const double base_timeout = std::max(ch.timeout_s, rtt);
    const double timeout_cap = base_timeout * 64.0;
    const std::uint32_t cap = unbounded ? 4096u : ch.max_attempts;
    ChannelOutcome out;
    double t = start_s;
    double timeout = base_timeout;
    for (std::uint32_t attempt = 1; attempt <= cap; ++attempt) {
      out.attempts = attempt;
      const bool delivered = !(rng.next_double() < ch.drop_probability);
      if (!delivered) {
        ++out.dropped;
      } else if (!forced_fail) {
        const bool acked = !(rng.next_double() < ch.drop_probability);
        if (acked) {
          out.ok = true;
          out.finish_s = t + rtt;
          return out;
        }
        ++out.dropped;
      }
      t += timeout * (1.0 - ch.jitter * jitter_rng.next_double());
      timeout = std::min(timeout * ch.backoff, timeout_cap);
    }
    out.finish_s = t;
    return out;
  }

  // Sends one step over the channel from `now`, appends its record to the
  // report and advances simulated time to the step's finish.
  ChannelOutcome send_step(StepRecord rec, double service_s, bool forced_fail,
                       bool unbounded) {
    const ChannelOutcome out = channel_round(
        now, one_way_for(rec.target), service_s, forced_fail, unbounded);
    rec.standby = standby;
    rec.start_s = now;
    rec.finish_s = out.finish_s;
    rec.attempts = out.attempts;
    rec.ok = out.ok;
    report.steps.push_back(rec);
    now = out.finish_s;
    report.retries += out.attempts - 1;
    report.messages_dropped += out.dropped;
    return out;
  }

  // Executes one schedule step over the channel, records it, and advances
  // simulated time. Returns whether the step was acked.
  bool run_step(StepKind kind, bool rollback, NodeId target,
                std::uint32_t partition, std::uint64_t adds,
                std::uint64_t dels, double extra_service_s, bool forced_fail,
                bool replan = false) {
    const double service =
        extra_service_s + (static_cast<double>(adds) * delay.rule_add_s +
                           static_cast<double>(dels) * delay.rule_delete_s) /
                              delay.effective_controllers();
    StepRecord rec;
    rec.kind = kind;
    rec.rollback = rollback;
    rec.replan = replan;
    rec.target = target;
    rec.partition = partition;
    rec.rules_added = adds;
    rec.rules_deleted = dels;
    const ChannelOutcome out = send_step(rec, service, forced_fail, rollback);
    if (out.ok) {
      report.rules_added += adds;
      report.rules_deleted += dels;
    } else {
      ++report.steps_failed;
    }
    obs::add(c_steps);
    obs::add(c_retries, out.attempts - 1);
    obs::add(c_dropped, out.dropped);
    obs::record(h_attempts, static_cast<double>(out.attempts));
    if (!out.ok) obs::add(c_step_failures);
    if (tracer != nullptr) {
      tracer->mark("conv_exec", to_string(kind), 0,
                   static_cast<std::int64_t>(out.attempts));
    }
    return out.ok;
  }

  // -- storm machinery --------------------------------------------------------

  void refresh_live() { live = live_graph(graph, *reference, storm_active); }

  // Folds the storm events due by `now` into the active set and refreshes
  // the live graph. Returns whether any event was due.
  bool fold_due() {
    if (storm == nullptr) return false;
    const std::vector<FailureEvent>& evs = storm->events();
    const std::size_t first = storm_next;
    while (storm_next < evs.size() && evs[storm_next].time_s <= now) {
      fold_failure_event(storm_active, evs[storm_next++]);
    }
    if (storm_next == first) return false;
    refresh_live();
    return true;
  }

  // A pair's paths in the stage target's plan, repaired around the active
  // storm through the controller (Controller::plan_repair on a fresh
  // compile of the stage assignment, cached until the storm changes) —
  // when all of them are valid on `on`. Empty when there is no stage
  // target, no storm, or a repaired path is invalid on `on`.
  std::vector<Path> stage_plan_paths(NodeId src, NodeId dst, const Graph& on) {
    if (stage_target == nullptr || storm_active.empty()) return {};
    if (!stage_live.has_value() || stage_live_fails != storm_active) {
      CompiledMode repaired =
          controller.compile(stage_target->assignment(), k);
      const FailureSet mapped =
          map_failures(repaired.graph(), *reference, storm_active);
      if (!mapped.empty()) {
        (void)controller.plan_repair(
            repaired, mapped, RepairOptions{.allow_converter_rewire = false});
      }
      stage_live.emplace(std::move(repaired));
      stage_live_fails = storm_active;
    }
    std::vector<Path> cand = stage_live->paths().server_paths(src, dst);
    if (!all_paths_valid(on, cand)) cand.clear();
    return cand;
  }

  // One batched re-plan / reconcile step: pairs whose installed routes the
  // storm broke get a *targeted* patch — surviving paths stay installed,
  // only the dead ones are swapped for live-valid substitutes (preferring
  // the controller-repaired stage plan when the circuits already match the
  // stage target) — and diverged pairs whose canonical plan routes became
  // valid again are reconciled back, so a drained storm leaves the
  // installed state bit-for-bit on plan. Rule counts are diff-based (only
  // paths actually added/removed cost rules), which keeps the re-plan step
  // fast enough to run inside an outage instead of after it. Returns false
  // when a forward re-plan step exhausted its retries (the rest of the pass
  // is dropped); rollback re-plan steps retry unbounded.
  bool replan_pass() {
    struct Update {
      std::size_t pair;
      RouteSet paths;
      bool to_canonical;
      double dark;  // fraction of the pair's installed paths dead on live
    };
    std::vector<Update> updates;
    // A re-plan that fires while a make-before-break rewire is in flight
    // must hand out paths that survive the imminent OCS pass: solve and
    // validate on the intersection graph minus the storm, not the full
    // live realization — a live-only substitute could ride a link the
    // rewire is about to delete, turning the fix into the next blackhole.
    std::optional<Graph> mbb_live;
    if (mbb_intersection != nullptr) {
      mbb_live.emplace(storm_active.empty()
                           ? *mbb_intersection
                           : degrade_mapped(*mbb_intersection, *reference,
                                            storm_active));
    }
    const Graph& eff = mbb_live.has_value() ? *mbb_live : *live;
    // Solves prefer to avoid dead switches as transit; built on first use.
    LazyPaths on_eff{eff, k};
    std::optional<LazyPaths> avoiding_dead;
    const auto solve_live = [&](NodeId src, NodeId dst) {
      if (!dead_list.empty()) {
        if (!avoiding_dead.has_value()) {
          avoiding_dead.emplace(degrade(eff, FailureSet{{}, dead_list}), k);
        }
        std::vector<Path> sol = (*avoiding_dead)(src, dst);
        if (!sol.empty()) return sol;
      }
      return on_eff(src, dst);
    };
    const bool on_target = stage_target != nullptr &&
                           configs == stage_target->configs();
    for (std::size_t i = 0; i < report.pairs.size(); ++i) {
      // Reconciliation back to plan waits for the storm to drain: a
      // diverged pair is live-valid, so swapping it mid-storm buys nothing
      // and its rules stretch the very step that fixes real blackholes.
      if (diverged[i] && storm_active.empty() &&
          all_paths_valid(eff, canonical[i])) {
        updates.push_back(Update{i, canonical[i], true, 0.0});
        continue;
      }
      const RouteSet& rs = routes[i];
      if (rs.empty()) continue;
      // The trigger is live-validity — is the pair dark *now*? Routes that
      // are live-valid but die at the in-flight OCS pass are the pending
      // patches' job, not this re-plan's; re-planning them here would only
      // stretch the step while real blackholes wait.
      const std::size_t dead_paths = count_invalid_paths(*live, rs);
      if (dead_paths == 0) continue;
      const double dark =
          static_cast<double>(dead_paths) / static_cast<double>(rs.size());
      const NodeId src = report.pairs[i].first;
      const NodeId dst = report.pairs[i].second;
      // Targeted patch: keep the surviving paths, top the set back up from
      // the solve. A pair whose solve comes up empty still sheds its dead
      // paths (the ECMP group shrinks to the live subset); a pair with no
      // live path at all is storm-disconnected and left alone — the
      // checker holds only reachable pairs to the no-blackhole invariant.
      std::vector<Path> next = patch_paths(eff, rs, rs.size(), [&] {
        // When the circuits match the stage target, serve the controller's
        // repaired stage plan directly.
        std::vector<Path> sol;
        if (on_target) sol = stage_plan_paths(src, dst, eff);
        return sol.empty() ? solve_live(src, dst) : sol;
      });
      if (next.empty()) continue;
      updates.push_back(Update{i, std::move(next), false, dark});
    }
    if (updates.empty()) return true;
    // Most-dark pairs first: a pair whose whole ECMP set is dead bleeds
    // every flow hashed onto it, a partially-dead pair only a fraction, and
    // a reconcile swap nothing at all. The re-plan then lands as bounded
    // rule batches, each committed and timestamped on its own — the first
    // pair fixed stops bleeding after one chunk's worth of rules, not after
    // the whole fleet's.
    std::stable_sort(updates.begin(), updates.end(),
                     [](const Update& a, const Update& b) {
                       return a.dark > b.dark;
                     });
    ++report.replans;
    const auto tally_update = [&](std::size_t j, RuleTally& t) {
      const Update& u = updates[j];
      count_rules(paths_not_in(routes[u.pair], u.paths), t.dels, t.skipped);
      count_rules(paths_not_in(u.paths, routes[u.pair]), t.adds, t.skipped);
    };
    std::size_t begin = 0;
    while (begin < updates.size()) {
      RuleTally tally;
      const std::size_t end = take_chunk(begin, updates.size(),
                                         kPatchChunkRules, tally_update, tally);
      const bool ok = run_step(StepKind::kRulePatch, in_rollback, NodeId{}, 0,
                               tally.adds, tally.dels, 0.0, false,
                               /*replan=*/true);
      obs::add(c_replan_steps);
      if (!ok && !in_rollback) return false;
      report.rules_skipped_dead += tally.skipped;
      for (std::size_t j = begin; j < end; ++j) {
        Update& u = updates[j];
        set_routes(u.pair, std::move(u.paths));
        diverged[u.pair] = !u.to_canonical;
        if (!u.to_canonical) {
          ++report.pairs_replanned;
          obs::add(c_replan_pairs);
        }
      }
      push_point(0.0, ConversionScope::kChangedOnly);
      begin = end;
    }
    return true;
  }

  // Installs a mode's canonical routes (stage commit or rollback restore).
  // Under an active storm, pairs whose plan routes are broken on the live
  // graph get the controller-repaired stage plan (or a live-graph solve)
  // instead and are marked diverged for later reconciliation.
  void install_canonical(const std::vector<RouteSet>& target) {
    canonical = target;
    if (storm_active.empty() || !opt.live_replanning) {
      for (std::size_t i = 0; i < routes.size(); ++i) set_routes(i, target[i]);
      std::fill(diverged.begin(), diverged.end(), false);
      return;
    }
    LazyPaths on_live{*live, k};
    for (std::size_t i = 0; i < report.pairs.size(); ++i) {
      std::vector<Path> sol;
      if (!all_paths_valid(*live, target[i])) {
        const auto [src, dst] = report.pairs[i];
        sol = stage_plan_paths(src, dst, *live);
        if (sol.empty()) sol = on_live(src, dst);
        if (!all_paths_valid(*live, sol)) sol.clear();
      }
      // Plan routes valid on live, or storm-disconnected (nothing solves):
      // install the plan and let reconciliation (or the reachability-gated
      // checker) account for it.
      diverged[i] = !sol.empty();
      if (!diverged[i]) {
        set_routes(i, target[i]);
        continue;
      }
      set_routes(i, std::move(sol));
      ++report.pairs_replanned;
      obs::add(c_replan_pairs);
    }
  }

  // -- step boundaries --------------------------------------------------------

  // What a step boundary does with a failed forward re-plan and a standby
  // takeover; DESIGN.md ("Staged conversion & rollback") maps phases to
  // policies.
  enum class Policy : std::uint8_t {
    kForward,     // a failed re-plan aborts; a takeover rescans
    kBestEffort,  // a failed re-plan is dropped
    kRollback,    // never aborts; a failed re-plan stays pending
    kSettle,      // a failed re-plan is dropped; no takeover check
  };
  enum class Boundary : std::uint8_t { kProceed, kRescan, kAbort };

  // The one step boundary, run before every step. Folds the storm events
  // due by `now` and, when anything changed, runs one re-plan / reconcile
  // pass — the executor's *detection* point, so the lag between a physical
  // event and the next boundary is real detection latency (the physical
  // times are bound into the timeline afterwards; see bind_storm_times).
  // Then applies `policy` and lets the standby take over if the primary
  // died during the last step.
  Boundary step_boundary(Policy policy) {
    if (fold_due()) {
      obs::add(c_replan_events);
      if (opt.live_replanning && !replan_pass()) replan_failed = true;
    }
    if (policy == Policy::kForward && std::exchange(replan_failed, false)) {
      return Boundary::kAbort;
    }
    if (policy == Policy::kBestEffort || policy == Policy::kSettle) {
      replan_failed = false;
    }
    if (policy == Policy::kSettle || !maybe_failover()) {
      return Boundary::kProceed;
    }
    return policy == Policy::kForward ? Boundary::kRescan : Boundary::kProceed;
  }

  // If the primary died during the last step, the standby takes over —
  // promotion costs failover_takeover_s, and the step whose ack went to the
  // dead primary is re-issued as an idempotent confirm. Returns true
  // exactly once, when the takeover happens; forward phases then restart
  // their durable-state scans so the standby's position is reconstructed
  // from the network, not from the dead primary's memory.
  bool maybe_failover() {
    if (standby || faults.kill_primary_at_s < 0.0 ||
        now < faults.kill_primary_at_s) {
      return false;
    }
    standby = true;
    now += opt.failover_takeover_s;
    ++report.failovers;
    obs::add(c_fo_takeovers);
    if (tracer != nullptr) tracer->mark("conv_exec", "failover", 0, 1);
    if (!report.steps.empty() &&
        report.steps.back().start_s < faults.kill_primary_at_s) {
      // The confirm carries no rule payload of its own.
      StepRecord rec = report.steps.back();
      rec.rules_added = 0;
      rec.rules_deleted = 0;
      (void)send_step(rec, 0.0, false, true);
      ++report.steps_reissued;
      obs::add(c_fo_reissued);
    }
    return true;
  }

  // -- timeline / invariants --------------------------------------------------

  // Snapshots the current state onto the timeline and runs the transient
  // invariant checker against it. The snapshot carries the *clean* current
  // realization: storm damage is applied to every point afterwards, at the
  // storm's physical event times, so a failure folded late still darkens
  // the interval it actually covered.
  void push_point(double blackout_s, ConversionScope scope) {
    TimelinePoint pt;
    pt.t = now;
    pt.graph = graph;
    pt.epoch = epoch;
    pt.blackout_s = blackout_s;
    pt.scope = scope;
    pt.routes = routes;
    report.timeline.push_back(std::move(pt));
    check_invariants();
  }

  void add_violation(ViolationKind kind, std::size_t pair) {
    const std::size_t step = report.steps.empty() ? 0 : report.steps.size() - 1;
    report.violations.push_back(TransientViolation{kind, step, pair});
    obs::add(c_violations);
  }

  void check_invariants() {
    obs::add(c_inv_checks);
    // Connectivity is judged on the clean realization: a storm partition is
    // the storm's doing, not the executor's. Route validity is judged on
    // the live graph, but only for pairs the storm left reachable.
    const bool connected = servers_connected(*graph);
    if (!connected) add_violation(ViolationKind::kDisconnected, 0);
    const bool storm_on = !storm_active.empty();
    std::unordered_map<std::uint32_t, std::vector<std::uint32_t>> dist_memo;
    const auto reachable = [&](std::size_t i) {
      if (!storm_on) return true;
      const auto [src, dst] = report.pairs[i];
      auto it = dist_memo.find(src.value());
      if (it == dist_memo.end()) {
        it = dist_memo.emplace(src.value(), live->bfs_distances(src)).first;
      }
      return it->second[dst.index()] != Graph::kUnreachable;
    };
    // A pair found clean (every path loop-free and valid) on this live
    // graph stays clean while its routes keep the same storage. The cache
    // holds both objects, so an address it compares is never reused.
    if (clean_live != live) {
      clean_live = live;
      std::fill(clean_routes.begin(), clean_routes.end(), RouteSet{});
    }
    for (std::size_t i = 0; i < report.pairs.size(); ++i) {
      const RouteSet& rs = routes[i];
      if (rs.empty()) {
        // No installed route while the physical pair is connected: the
        // atomic baseline's rule hole.
        if (connected && reachable(i)) add_violation(ViolationKind::kBlackhole, i);
        continue;
      }
      if (same_storage(clean_routes[i], rs)) continue;
      bool clean = true;
      for (const Path& path : rs) {
        if (has_repeated_node(path)) {
          add_violation(ViolationKind::kLoop, i);
          clean = false;
        } else if (!is_valid_path(*live, path)) {
          if (reachable(i)) add_violation(ViolationKind::kBlackhole, i);
          clean = false;
        }
      }
      clean_routes[i] = clean ? rs : RouteSet{};
    }
  }

  // Per-switch rule footprint of a route snapshot: one rule per switch hop.
  std::vector<std::uint64_t> footprint_of(
      const std::vector<RouteSet>& snapshot) const {
    std::vector<std::uint64_t> per(graph->node_count(), 0);
    for (const RouteSet& rs : snapshot) {
      for (const Path& path : rs) {
        for (NodeId n : path) {
          if (is_switch(graph->node(n).role)) ++per[n.index()];
        }
      }
    }
    return per;
  }

  // Splits one route set's rule count into operations on live switches and
  // operations skipped because the switch is control-plane dead.
  void count_rules(const std::vector<Path>& paths, std::uint64_t& live_rules,
                   std::uint64_t& skipped) const {
    for (const Path& path : paths) {
      for (NodeId n : path) {
        if (!is_switch(graph->node(n).role)) continue;
        if (dead[n.index()]) {
          ++skipped;
        } else {
          ++live_rules;
        }
      }
    }
  }

  // Atomic baseline: `sw` lost its rules, so every pair routed across it
  // goes dark.
  void clear_routes_through(NodeId sw) {
    bool any_cleared = false;
    for (std::size_t i = 0; i < routes.size(); ++i) {
      const bool crosses =
          std::any_of(routes[i].begin(), routes[i].end(), [&](const Path& p) {
            return std::find(p.begin(), p.end(), sw) != p.end();
          });
      if (!crosses) continue;
      routes[i] = RouteSet{};
      canonical[i] = RouteSet{};
      diverged[i] = false;
      any_cleared = true;
    }
    if (any_cleared) push_point(0.0, ConversionScope::kFullBlackout);
  }

  // Atomic baseline: a dark pair comes back on its `target` routes once no
  // node they cross is `missing` its rules.
  void restore_ready(const std::vector<RouteSet>& target,
                     const std::vector<bool>& missing, ConversionScope scope) {
    bool any_routed = false;
    for (std::size_t i = 0; i < routes.size(); ++i) {
      if (!routes[i].empty() || target[i].empty()) continue;
      const bool ready = std::none_of(
          target[i].begin(), target[i].end(), [&](const Path& path) {
            return std::any_of(path.begin(), path.end(),
                               [&](NodeId n) { return missing[n.index()]; });
          });
      if (!ready) continue;
      set_routes(i, target[i]);
      canonical[i] = target[i];
      any_routed = true;
    }
    if (any_routed) push_point(0.0, scope);
  }

  // Applies (forward) or reverts (rollback) one OCS partition with
  // make-before-break patching. Returns false when a forward step exhausted
  // its retries (an injected fault fails every forward attempt); rollback
  // steps retry unbounded and keep going regardless.
  bool rewire_partition(const std::vector<std::uint32_t>& members,
                        std::uint32_t pindex,
                        std::span<const ConverterConfig> goal, bool rollback) {
    std::vector<ConverterConfig> next = configs;
    for (std::uint32_t c : members) next[c] = goal[c];
    if (next == configs) return true;
    auto next_graph = std::make_shared<const Graph>(tree.realize(next));

    // The intersection graph: links of the current realization that survive
    // the rewire. Any path on it is valid both before and after the pass.
    const std::vector<LinkId> removed = links_not_in(*graph, *next_graph);
    const Graph safe = degrade(*graph, FailureSet{removed, {}});
    // Any re-plan that fires while this rewire is in flight (a storm fold
    // at a patch-chunk boundary) must solve against the intersection, not
    // the full realization — see replan_pass.
    struct MbbScope {
      const Graph*& slot;
      ~MbbScope() { slot = nullptr; }
    } mbb_scope{mbb_intersection};
    mbb_intersection = &safe;

    struct PairPatch {
      std::size_t pair;
      RouteSet paths;
      bool armed;  // solved on the next graph, activates when the pass lands
    };
    std::vector<PairPatch> patches;

    // Preferred solve graphs avoid dead switches as transit (their tables
    // cannot take the patch rules) and active storm failures (patching onto
    // a failed link trades one blackhole for another); the fallbacks only
    // keep a pair from being abandoned when those are its sole capacity.
    const FailureSet dead_set{{}, dead_list};
    const bool storm_on = !storm_active.empty();
    LazyPaths on_safe{safe, k};
    LazyPaths on_next{*next_graph, k};
    std::optional<LazyPaths> safe_live, next_live;
    if (!dead_list.empty() || storm_on) {
      const auto minus_storm = [&](const Graph& g) {
        return storm_on ? degrade_mapped(g, *reference, storm_active) : g;
      };
      safe_live.emplace(degrade(minus_storm(safe), dead_set), k);
      next_live.emplace(degrade(minus_storm(*next_graph), dead_set), k);
    }

    for (std::size_t i = 0; i < report.pairs.size(); ++i) {
      const RouteSet& rs = routes[i];
      if (rs.empty() || all_paths_valid(*next_graph, rs)) continue;
      const auto [src, dst] = report.pairs[i];
      std::vector<Path> sol;
      bool armed = false;
      if (safe_live.has_value()) {
        sol = (*safe_live)(src, dst);
        if (sol.empty()) {
          sol = (*next_live)(src, dst);
          armed = true;
        }
      }
      if (sol.empty()) {
        sol = on_safe(src, dst);
        armed = false;
      }
      if (sol.empty()) {
        sol = on_next(src, dst);
        armed = true;
      }
      // A pair with no route even on the full graphs is physically
      // disconnected; leave it and let the checker report it.
      if (sol.empty()) continue;
      patches.push_back(PairPatch{i, std::move(sol), armed});
    }

    // Commits one pair's patch. A storm fold that lands mid-patch (between
    // chunks) can kill candidate paths solved before the fold: with live
    // re-planning the survivors stay, the casualties are topped back up
    // from a fresh solve and the pair is marked diverged (reconciled once
    // the plan routes come back); the baseline installs the stale solve
    // as-is and dangles whatever the storm broke. Pre-OCS commits fit
    // against the intersection graph minus the storm — a top-up path drawn
    // from the full live realization could ride a link the OCS pass is
    // about to delete, turning the fix into the next blackhole. Post-OCS
    // (armed) commits fit against `live` itself, already refreshed to the
    // new realization.
    std::optional<LazyPaths> fit;  // pre-OCS: reset whenever a fold lands
    const auto commit_patch = [&](PairPatch& p) {
      canonical[p.pair] = p.paths;
      if (opt.live_replanning && !storm_active.empty() &&
          !all_paths_valid(*live, p.paths)) {
        if (!fit.has_value()) {  // pre-OCS: safe minus storm/dead
          fit.emplace(degrade(degrade_mapped(safe, *reference, storm_active),
                              dead_set),
                      k);
        }
        const NodeId src = report.pairs[p.pair].first;
        const NodeId dst = report.pairs[p.pair].second;
        std::vector<Path> fitted =
            patch_paths(fit->graph(), p.paths, p.paths.size(),
                        [&] { return (*fit)(src, dst); });
        if (!fitted.empty()) {
          diverged[p.pair] = fitted != p.paths;
          set_routes(p.pair, std::move(fitted));
          return;
        }
        // Nothing survives on live: the pair is storm-disconnected right
        // now. Install the plan anyway — the checker holds only reachable
        // pairs, and reconciliation restores the plan once the storm
        // drains.
      }
      set_routes(p.pair, p.paths);
      diverged[p.pair] = false;
    };

    if (!patches.empty()) {
      // The patch lands as a sequence of bounded rule batches with storm
      // detection and failover checks between them: a failure landing
      // mid-patch is observed within one chunk's worth of rules, not after
      // the whole partition's — the difference between re-planning inside
      // an outage and after it. With no failure schedule wired in there is
      // nothing to detect mid-step, so calm executions keep the monolithic
      // patch and skip the per-chunk channel round-trips.
      const std::uint64_t budget = storm != nullptr ? kPatchChunkRules : 0;
      const auto tally_patch = [&](std::size_t j, RuleTally& t) {
        count_rules(routes[patches[j].pair], t.dels, t.skipped);
        count_rules(patches[j].paths, t.adds, t.skipped);
      };
      std::size_t begin = 0;
      while (begin < patches.size()) {
        if (begin > 0) {
          // Never aborts mid-rewire: a failed forward re-plan here aborts
          // the stage at its next forward boundary.
          const std::size_t folded = storm_next;
          (void)step_boundary(Policy::kRollback);
          if (storm_next != folded) fit.reset();
        }
        RuleTally tally;
        const std::size_t end =
            take_chunk(begin, patches.size(), budget, tally_patch, tally);
        const bool ok = run_step(StepKind::kRulePatch, rollback, NodeId{},
                                 pindex, tally.adds, tally.dels, 0.0, false);
        if (!ok && !rollback) return false;
        report.rules_skipped_dead += tally.skipped;
        bool any_immediate = false;
        for (std::size_t j = begin; j < end; ++j) {
          PairPatch& p = patches[j];
          ++report.pairs_patched;
          obs::add(c_patched);
          if (!p.armed) {
            commit_patch(p);
            any_immediate = true;
          }
        }
        if (any_immediate) push_point(0.0, ConversionScope::kChangedOnly);
        begin = end;
      }
    }

    const bool ok = run_step(StepKind::kOcs, rollback, NodeId{}, pindex, 0, 0,
                             delay.ocs_reconfigure_s,
                             !rollback && ocs_forced(pindex));
    if (!ok && !rollback) return false;
    configs = std::move(next);
    graph = std::move(next_graph);
    refresh_live();
    fit.emplace(*live, k);  // the realization changed: fit against live now
    for (PairPatch& p : patches) {
      if (p.armed) commit_patch(p);
    }
    push_point(delay.ocs_reconfigure_s, ConversionScope::kChangedOnly);
    return true;
  }

  // -- the step state machine -------------------------------------------------
  //
  // The staged protocol drives each stage through three phases,
  //   rewire_stage -> install_epoch_rules -> flip_and_collect,
  // whose flip is the commit point; a forward failure before it runs
  // roll_back to the last checkpoint instead. Every phase scans durable
  // state — converter configs (read back from the OCS), next_epoch_rules
  // (the switch tables), the last checkpoint — with one step_boundary ahead
  // of each step under the phase's Policy. run_atomic is the baseline's own
  // protocol over the same boundaries.

  bool ocs_forced(std::uint32_t partition) const {
    return std::find(faults.fail_ocs_partitions.begin(),
                     faults.fail_ocs_partitions.end(),
                     partition) != faults.fail_ocs_partitions.end();
  }

  // Sets the mode storm re-plans repair towards until the next call.
  void enter_stage(const CompiledMode& target) {
    stage_target = &target;
    stage_live.reset();
  }

  // Runs step(i) for every i in [0, n) with pending(i), each behind a
  // forward boundary. A takeover (at most one per execution) restarts the
  // scan: the standby re-derives what is left from durable state, so items
  // already done report not pending (or no-op). Returns false on an abort
  // or a failed step.
  template <typename Pending, typename Step>
  bool forward_scan(std::size_t n, Pending&& pending, Step&& step) {
    for (std::size_t i = 0; i < n; ++i) {
      if (!pending(i)) continue;
      const Boundary b = step_boundary(Policy::kForward);
      if (b == Boundary::kRescan) return forward_scan(n, pending, step);
      if (b == Boundary::kAbort || !step(i)) return false;
    }
    return true;
  }

  // Per-partition OCS passes with make-before-break patches. Partitions
  // already applied no-op against the configs the OCS reports.
  bool rewire_stage(const Partitions& partitions, std::uint32_t ocs_base,
                    std::span<const ConverterConfig> goal) {
    return forward_scan(
        partitions.size(), [](std::size_t) { return true; },
        [&](std::size_t p) {
          return rewire_partition(
              partitions[p], ocs_base + static_cast<std::uint32_t>(p), goal,
              false);
        });
  }

  // Per switch, the stage's rules under the new epoch tag: inert until the
  // flip, so every table stays pure old-mode.
  bool install_epoch_rules(const std::vector<std::uint64_t>& to_fp) {
    return forward_scan(
        to_fp.size(),
        [&](std::size_t n) {
          return to_fp[n] != 0 && next_epoch_rules[n] == 0;
        },
        [&](std::size_t n) {
          const NodeId sw{static_cast<std::uint32_t>(n)};
          if (!run_step(StepKind::kRuleAdd, false, sw, 0, to_fp[n], 0, 0.0,
                        dead[n] || partition_blocks(sw))) {
            return false;
          }
          next_epoch_rules[n] = to_fp[n];
          return true;
        });
  }

  // The barrier + epoch flip (the commit point), then old-epoch garbage
  // collection, best effort. Returns false when the stage did not commit.
  bool flip_and_collect(const std::vector<RouteSet>& to_routes,
                        const std::vector<std::uint64_t>& to_fp,
                        std::uint32_t commit_epoch) {
    if (step_boundary(Policy::kForward) == Boundary::kAbort) return false;
    const std::vector<std::uint64_t> old_fp = footprint_of(routes);
    // The flip barrier is root-coordinated under both control-plane
    // shapes: while any Pod carrying new-epoch rules is islanded, the
    // commit cannot span it and the barrier fails — the stage rolls back to
    // the last checkpoint instead of installing a mixed-epoch rule set.
    bool flip_blocked = false;
    for (std::uint32_t n = 0; n < static_cast<std::uint32_t>(to_fp.size());
         ++n) {
      if (to_fp[n] != 0 && partitioned(NodeId{n})) {
        flip_blocked = true;
        break;
      }
    }
    if (!run_step(StepKind::kEpochFlip, false, NodeId{}, 0, 0, 0, 0.0,
                  flip_blocked)) {
      return false;
    }
    epoch = commit_epoch;
    std::fill(next_epoch_rules.begin(), next_epoch_rules.end(), 0);
    install_canonical(to_routes);
    push_point(0.0, ConversionScope::kChangedOnly);
    for (std::uint32_t n = 0; n < static_cast<std::uint32_t>(old_fp.size());
         ++n) {
      if (old_fp[n] == 0) continue;
      // A dead or (root-unreachable) partitioned switch keeps its stale
      // rules — inert under the new epoch.
      if (dead[n] || partition_blocks(NodeId{n})) {
        report.rules_skipped_dead += old_fp[n];
        continue;
      }
      (void)step_boundary(Policy::kBestEffort);
      run_step(StepKind::kRuleDelete, false, NodeId{n}, 0, 0, old_fp[n], 0.0,
               false);
    }
    (void)step_boundary(Policy::kSettle);
    return true;
  }

  // Rollback to the last checkpoint (`stage_from`, canonical routes
  // `from_canon`). Every rollback step retries unbounded: the channel is
  // lossy, not dead, and no rollback step addresses a dead switch — steps
  // touching one fail before mutating it, so only acked (live) switches
  // ever need undoing.
  void roll_back(const CompiledMode& stage_from,
                 const std::vector<RouteSet>& from_canon,
                 const Partitions& partitions, std::uint32_t ocs_base) {
    in_rollback = true;
    enter_stage(stage_from);
    // Collect the inert new-epoch rules already installed (durable scan, in
    // reverse install order).
    for (std::uint32_t n = static_cast<std::uint32_t>(next_epoch_rules.size());
         n-- > 0;) {
      if (next_epoch_rules[n] == 0) continue;
      // Unbounded rollback retries must not stall against a partition the
      // root cannot cross: the uncollected rules are inert under the
      // checkpoint's epoch, so skip and count them instead.
      if (partition_blocks(NodeId{n})) {
        report.rules_skipped_dead += next_epoch_rules[n];
      } else {
        (void)step_boundary(Policy::kRollback);
        run_step(StepKind::kRuleDelete, true, NodeId{n}, 0, 0,
                 next_epoch_rules[n], 0.0, false);
      }
      next_epoch_rules[n] = 0;
    }
    // Un-rewire the partitions in reverse order, with the same
    // make-before-break patching the forward passes used. Partitions that
    // never applied no-op against the durable configs.
    for (std::size_t p = partitions.size(); p-- > 0;) {
      (void)step_boundary(Policy::kRollback);
      rewire_partition(partitions[p], ocs_base + static_cast<std::uint32_t>(p),
                       stage_from.configs(), true);
    }
    // Reinstate the checkpoint's canonical routes.
    (void)step_boundary(Policy::kRollback);
    RuleTally restore;
    for (std::size_t i = 0; i < routes.size(); ++i) {
      if (routes[i] == from_canon[i]) continue;
      count_rules(routes[i], restore.dels, restore.skipped);
      count_rules(from_canon[i], restore.adds, restore.skipped);
    }
    run_step(StepKind::kRuleRestore, true, NodeId{}, 0, restore.adds,
             restore.dels, 0.0, false);
    report.rules_skipped_dead += restore.skipped;
    install_canonical(from_canon);
    push_point(0.0, ConversionScope::kChangedOnly);
    // A recovery landing here still reconciles to plan.
    (void)step_boundary(Policy::kSettle);
    in_rollback = false;
  }

  // One mini-conversion from the last checkpoint (`stage_from`) to
  // `stage_to` through the epoch protocol. Returns whether it committed;
  // otherwise the fabric is back on the last checkpoint.
  bool run_stage(const CompiledMode& stage_from, const CompiledMode& stage_to,
                 const Partitions& partitions, std::uint32_t ocs_base,
                 std::uint32_t commit_epoch) {
    enter_stage(stage_to);
    if (rewire_stage(partitions, ocs_base, stage_to.configs())) {
      const std::vector<RouteSet> to_routes =
          routes_of(stage_to, report.checkpoints.back().routes);
      const std::vector<std::uint64_t> to_fp = footprint_of(to_routes);
      if (install_epoch_rules(to_fp) &&
          flip_and_collect(to_routes, to_fp, commit_epoch)) {
        return true;
      }
    }
    roll_back(stage_from, report.checkpoints.back().routes, partitions,
              ocs_base);
    return false;
  }

  // The atomic baseline's single OCS pass: every circuit moves to `mode`'s
  // at once (or back, when rolling back). Returns false when a forward pass
  // failed.
  bool swap_circuits(const CompiledMode& mode, bool rollback) {
    (void)step_boundary(rollback ? Policy::kRollback : Policy::kBestEffort);
    if (!run_step(StepKind::kOcs, rollback, NodeId{}, 0, 0, 0,
                  delay.ocs_reconfigure_s, !rollback && ocs_forced(0)) &&
        !rollback) {
      return false;
    }
    configs = mode.configs();
    graph = mode.graph_ptr();
    refresh_live();
    push_point(delay.ocs_reconfigure_s, ConversionScope::kFullBlackout);
    return true;
  }

  // The atomic-swap baseline: delete everything, one OCS pass, add
  // everything. Routes die switch by switch; the rule hole between the
  // first delete and the last add is the blackhole window the staged
  // protocol exists to remove. A failed step undoes the swap in reverse.
  // Returns whether the swap committed.
  bool run_atomic(const CompiledMode& from, const CompiledMode& to) {
    std::vector<NodeId> deleted_switches;
    std::vector<NodeId> added_switches;
    bool ocs_applied = false;
    const std::vector<std::uint64_t> old_fp = footprint_of(routes);
    const std::vector<RouteSet> to_routes =
        routes_of(to, report.checkpoints.back().routes);
    const std::vector<std::uint64_t> to_fp = footprint_of(to_routes);
    const auto swap = [&] {
      for (std::uint32_t n = 0; n < static_cast<std::uint32_t>(old_fp.size());
           ++n) {
        if (old_fp[n] == 0) continue;
        (void)step_boundary(Policy::kBestEffort);
        if (!run_step(StepKind::kRuleDelete, false, NodeId{n}, 0, 0,
                      old_fp[n], 0.0, dead[n])) {
          return false;
        }
        deleted_switches.push_back(NodeId{n});
        clear_routes_through(NodeId{n});
      }
      if (from.configs() != to.configs()) {
        if (!swap_circuits(to, false)) return false;
        ocs_applied = true;
      }
      // A pair comes back once every switch on its new routes is programmed.
      std::vector<bool> unprogrammed(graph->node_count(), false);
      for (std::uint32_t n = 0; n < graph->node_count(); ++n) {
        unprogrammed[n] = is_switch(graph->node(NodeId{n}).role);
      }
      for (std::uint32_t n = 0; n < static_cast<std::uint32_t>(to_fp.size());
           ++n) {
        if (to_fp[n] == 0) continue;
        (void)step_boundary(Policy::kBestEffort);
        if (!run_step(StepKind::kRuleAdd, false, NodeId{n}, 0, to_fp[n], 0,
                      0.0, dead[n])) {
          return false;
        }
        added_switches.push_back(NodeId{n});
        unprogrammed[n] = false;
        restore_ready(to_routes, unprogrammed, ConversionScope::kChangedOnly);
      }
      return true;
    };
    if (swap()) {
      epoch = 1;
      push_point(0.0, ConversionScope::kChangedOnly);
      report.stages_committed = 1;
      obs::add(c_ckpt_committed);
      report.checkpoints.push_back(CheckpointRecord{
          1, now, 1, to.assignment(), to.configs(), to_routes});
      return true;
    }

    in_rollback = true;
    obs::add(c_ckpt_rollbacks);
    // Collect whatever new-mode rules landed (their pairs go dark again
    // before the circuits revert underneath them).
    for (auto it = added_switches.rbegin(); it != added_switches.rend(); ++it) {
      (void)step_boundary(Policy::kRollback);
      run_step(StepKind::kRuleDelete, true, *it, 0, 0, to_fp[it->index()], 0.0,
               false);
      clear_routes_through(*it);
    }
    if (ocs_applied) swap_circuits(from, true);
    // Reinstall the outgoing rules on every switch that deleted them; a pair
    // comes back once all its switches are whole again.
    const std::vector<RouteSet>& origin = report.checkpoints.front().routes;
    std::vector<bool> missing(graph->node_count(), false);
    for (NodeId sw : deleted_switches) missing[sw.index()] = true;
    for (NodeId sw : deleted_switches) {
      (void)step_boundary(Policy::kRollback);
      run_step(StepKind::kRuleRestore, true, sw, 0, old_fp[sw.index()], 0, 0.0,
               false);
      missing[sw.index()] = false;
      restore_ready(origin, missing, ConversionScope::kFullBlackout);
    }
    in_rollback = false;
    return false;
  }

  // Runs the conversion from -> to and returns whether every stage
  // committed. The stages are gradual_plan's per-Pod assignments when
  // checkpoints are on (each intermediate compiled here), else the target
  // alone; each committed stage appends a checkpoint after the origin's.
  bool run(const CompiledMode& from, const CompiledMode& to) {
    std::vector<CompiledMode> interim;
    if (opt.stage_checkpoints) {
      const std::vector<ModeAssignment> plan =
          Controller::gradual_plan(from.assignment(), to.assignment());
      for (std::size_t s = 0; s + 1 < plan.size(); ++s) {
        interim.push_back(controller.compile(plan[s], to.k()));
      }
    }
    report.stages_total = static_cast<std::uint32_t>(interim.size()) + 1;
    report.checkpoints.push_back(CheckpointRecord{
        0, report.start_s, 0, from.assignment(), from.configs(), canonical});
    if (!opt.staged) return run_atomic(from, to);

    const CompiledMode* cur = &from;
    std::uint32_t ocs_base = 0;
    for (std::uint32_t stage = 1; stage <= report.stages_total; ++stage) {
      const CompiledMode& next =
          stage < report.stages_total ? interim[stage - 1] : to;
      const Partitions partitions = make_partitions(
          tree, cur->configs(), next.configs(), opt.ocs_partitions);
      if (!run_stage(*cur, next, partitions, ocs_base, stage)) {
        obs::add(c_ckpt_rollbacks);
        return false;
      }
      ++report.stages_committed;
      obs::add(c_ckpt_committed);
      report.checkpoints.push_back(CheckpointRecord{
          stage, now, epoch, next.assignment(), next.configs(), canonical});
      cur = &next;
      ocs_base += static_cast<std::uint32_t>(partitions.size());
    }
    return true;
  }

 private:
  // A forward re-plan step exhausted its retries: the stage aborts at its
  // next forward boundary. Read and cleared by step_boundary alone.
  bool replan_failed{false};
};

// Binds the storm to the timeline at its *physical* times. The executor
// only observes damage at step boundaries (detection latency), but the
// data plane experiences a dead link the instant it dies: each event time
// becomes a timeline point carrying the then-prevailing routes, and every
// point's graph is degraded by the storm state active at its time. The
// blackhole integral therefore charges a broken route from the moment of
// failure until the executor re-planned it or the link physically
// recovered — whichever came first.
void bind_storm_times(ExecutionReport& report, const FailureSchedule& storm,
                      const Graph& reference, double t0_s) {
  const std::vector<FailureEvent>& evs = storm.events();
  for (std::size_t e = 0; e < evs.size();) {
    const double t = evs[e].time_s;
    while (e < evs.size() && evs[e].time_s == t) ++e;
    if (t <= t0_s || t >= report.finish_s) continue;
    const auto pos = std::upper_bound(
        report.timeline.begin(), report.timeline.end(), t,
        [](double tt, const TimelinePoint& p) { return tt < p.t; });
    TimelinePoint pt = *(pos - 1);  // timeline[0] sits at t0 < t
    pt.t = t;
    pt.blackout_s = 0.0;
    pt.scope = ConversionScope::kChangedOnly;
    report.timeline.insert(pos, std::move(pt));
  }
  // A point whose clean graph and active failures match the previous
  // point's shares that point's live graph. The clean graph is held, not
  // just its address, so the comparison cannot match a reused address.
  std::shared_ptr<const Graph> prev_clean;
  std::shared_ptr<const Graph> prev_live;
  FailureSet prev_active;
  for (TimelinePoint& pt : report.timeline) {
    FailureSet active = storm.active_at(pt.t);
    if (prev_live != nullptr && pt.graph == prev_clean &&
        active == prev_active) {
      pt.graph = prev_live;
      continue;
    }
    prev_clean = pt.graph;
    prev_active = std::move(active);
    pt.graph = live_graph(pt.graph, reference, prev_active);
    prev_live = pt.graph;
  }
}

// True when some pair has no installed route at `pt`.
bool has_unrouted_pair(const TimelinePoint& pt) {
  return std::any_of(pt.routes.begin(), pt.routes.end(),
                     [](const RouteSet& rs) { return rs.empty(); });
}

// The atomic baseline's rule hole, made explicit for the packet simulator:
// every boundary at which some pair has no installed route stalls until the
// first later boundary where every pair is routed again.
void finalize_blackout_windows(ExecutionReport& report) {
  for (std::size_t k = 0; k < report.timeline.size(); ++k) {
    TimelinePoint& pt = report.timeline[k];
    if (!has_unrouted_pair(pt)) continue;
    double restored = report.finish_s;
    for (std::size_t j = k + 1; j < report.timeline.size(); ++j) {
      if (!has_unrouted_pair(report.timeline[j])) {
        restored = report.timeline[j].t;
        break;
      }
    }
    pt.blackout_s = std::max(pt.blackout_s, restored - pt.t);
    pt.scope = ConversionScope::kFullBlackout;
  }
}

// Route-availability integral: over each timeline interval a pair is
// charged the fraction of its installed paths that are invalid on that
// interval's graph. A pair with no routes at all (the atomic baseline's
// rule hole) or none valid charges the whole interval; a pair with one of
// four ECMP paths dead charges a quarter — the flows hashed onto the dead
// path black-hole until the executor re-plans it or the link recovers.
// A pair whose graph and route set are the same objects as at the last
// charged point reuses that point's count; both points live in the report.
void compute_blackhole_integral(ExecutionReport& report) {
  std::vector<double> dark(report.pairs.size(), 0.0);
  std::vector<std::size_t> invalid(report.pairs.size(), 0);
  const TimelinePoint* counted = nullptr;  // the point `invalid` describes
  for (std::size_t k = 0; k < report.timeline.size(); ++k) {
    const TimelinePoint& pt = report.timeline[k];
    const double t_end = k + 1 < report.timeline.size()
                             ? report.timeline[k + 1].t
                             : report.finish_s;
    const double dt = std::max(0.0, t_end - pt.t);
    if (dt == 0.0) continue;
    const bool same_graph = counted != nullptr && counted->graph == pt.graph;
    for (std::size_t i = 0; i < report.pairs.size(); ++i) {
      const RouteSet& rs = pt.routes[i];
      if (rs.empty()) {
        dark[i] += dt;
        continue;
      }
      if (!same_graph || !same_storage(counted->routes[i], rs)) {
        invalid[i] = count_invalid_paths(*pt.graph, rs);
      }
      if (invalid[i] != 0) {
        dark[i] += dt * static_cast<double>(invalid[i]) /
                   static_cast<double>(rs.size());
      }
    }
    counted = &pt;
  }
  report.total_blackhole_s = 0.0;
  report.max_pair_blackhole_s = 0.0;
  for (double d : dark) {
    report.total_blackhole_s += d;
    report.max_pair_blackhole_s = std::max(report.max_pair_blackhole_s, d);
  }
}

}  // namespace

ConversionExecutor::ConversionExecutor(const Controller& controller,
                                       ConversionExecOptions options)
    : controller_{&controller}, options_{std::move(options)} {}

ExecutionReport ConversionExecutor::execute(
    const CompiledMode& from, const CompiledMode& to,
    std::span<const std::pair<NodeId, NodeId>> pairs,
    const ConversionFaults& faults, double t0_s) const {
  return execute_under_storm(from, to, pairs, FailureSchedule{}, faults, t0_s);
}

ExecutionReport ConversionExecutor::execute_under_storm(
    const CompiledMode& from, const CompiledMode& to,
    std::span<const std::pair<NodeId, NodeId>> pairs,
    const FailureSchedule& storm, const ConversionFaults& faults,
    double t0_s) const {
  options_.channel.validate();
  controller_->options().delay.validate();
  const FlatTree& tree = controller_->tree();
  if (from.configs().size() != tree.converters().size() ||
      to.configs().size() != tree.converters().size()) {
    throw std::invalid_argument(
        "ConversionExecutor: modes not compiled from this controller's tree");
  }
  if (!(t0_s >= 0.0)) {
    throw std::invalid_argument("ConversionExecutor: t0_s must be >= 0");
  }
  const Graph& from_graph = from.graph();
  for (NodeId sw : faults.dead_switches) {
    if (sw.index() >= from_graph.node_count() ||
        !is_switch(from_graph.node(sw).role)) {
      throw std::invalid_argument(
          "ConversionExecutor: dead_switches must name switches");
    }
  }
  if (options_.ocs_partitions == 0) {
    throw std::invalid_argument(
        "ConversionExecutor: ocs_partitions must be >= 1");
  }
  if (options_.stage_checkpoints && !options_.staged) {
    throw std::invalid_argument(
        "ConversionExecutor: stage_checkpoints requires the staged protocol");
  }
  if (!faults.partitions.empty() && !options_.staged) {
    throw std::invalid_argument(
        "ConversionExecutor: control partitions require the staged protocol");
  }
  for (const ControlPartition& p : faults.partitions) {
    p.validate(tree.clos().pods);
  }
  storm.validate();
  for (const FailureEvent& e : storm.events()) {
    for (LinkId id : e.elements.links) {
      if (id.index() >= from_graph.link_count()) {
        throw std::invalid_argument(
            "ConversionExecutor: storm link ids must name links of the "
            "origin realization");
      }
    }
    for (NodeId sw : e.elements.switches) {
      if (sw.index() >= from_graph.node_count() ||
          !is_switch(from_graph.node(sw).role)) {
        throw std::invalid_argument(
            "ConversionExecutor: storm switches must name switches");
      }
    }
  }

  ExecutionReport report;
  report.staged = options_.staged;
  report.start_s = t0_s;
  report.pairs.assign(pairs.begin(), pairs.end());
  Exec ex{*controller_, options_, faults, report, from, storm, t0_s};

  // Pre-history: storm events already due at t0 fold silently into the
  // starting state (they are inherited conditions, not execution events;
  // a failed re-plan here has nothing in flight to abort).
  const bool inherited_storm = ex.fold_due();
  ex.push_point(0.0, ConversionScope::kChangedOnly);  // the pre-conversion state
  if (inherited_storm && options_.live_replanning) (void)ex.replan_pass();

  const bool committed = ex.run(from, to);
  if (committed) {
    report.outcome = ConversionOutcome::kConverted;
  } else if (report.stages_committed > 0) {
    report.outcome = ConversionOutcome::kPartial;
  } else {
    report.outcome = ConversionOutcome::kRolledBack;
  }
  report.terminal_assignment = report.checkpoints.back().assignment;
  report.terminal_configs = ex.configs;
  report.finish_s = ex.now;
  if (!storm.empty()) bind_storm_times(report, storm, from.graph(), t0_s);
  finalize_blackout_windows(report);
  compute_blackhole_integral(report);
  if (obs::MetricsRegistry* reg = options_.sink.metrics()) {
    reg->counter("conv_exec.executions").add();
    reg->counter(committed ? "conv_exec.converted" : "conv_exec.rolled_back")
        .add();
    reg->counter("conv_exec.rules_added").add(report.rules_added);
    reg->counter("conv_exec.rules_deleted").add(report.rules_deleted);
    reg->counter("conv_exec.rules_skipped_dead").add(report.rules_skipped_dead);
    reg->gauge("conv_exec.max_duration_s")
        .set_max(report.finish_s - report.start_s);
    reg->gauge("conv_exec.max_blackhole_s").set_max(report.total_blackhole_s);
  }
  return report;
}

// -- simulator drivers --------------------------------------------------------

ConversionDrive make_conversion_drive(const ExecutionReport& report) {
  if (report.timeline.empty()) {
    throw std::invalid_argument("make_conversion_drive: empty timeline");
  }
  Graph merged = *report.timeline.front().graph;
  for (std::size_t k = 1; k < report.timeline.size(); ++k) {
    merged = graph_union(merged, *report.timeline[k].graph);
  }
  ConversionDrive drive;
  drive.base = std::make_shared<const Graph>(std::move(merged));

  // Per point: the union links absent from that point's operating topology
  // (ascending ids — links_not_in iterates in id order).
  std::vector<std::vector<LinkId>> absent(report.timeline.size());
  for (std::size_t k = 0; k < report.timeline.size(); ++k) {
    absent[k] = links_not_in(*drive.base, *report.timeline[k].graph);
  }

  // Event times are nudged strictly increasing across points so the k-th
  // refresh the simulator performs always corresponds to the k-th emitted
  // event (equal-time refreshes of one point are interchangeable — they
  // serve the same snapshot).
  double last_t = -1.0;
  constexpr double kNudge = 1e-9;
  for (std::size_t k = 0; k < report.timeline.size(); ++k) {
    const double t = std::max(report.timeline[k].t, last_t + kNudge);
    if (k == 0) {
      // Union links outside the initial state are dark from the start.
      if (!absent[0].empty()) {
        drive.schedule.fail_at(t, FailureSet{absent[0], {}});
        drive.refresh_point.push_back(0);
        last_t = t;
      }
      continue;
    }
    std::vector<LinkId> now_failed;
    std::vector<LinkId> now_recovered;
    std::set_difference(absent[k].begin(), absent[k].end(),
                        absent[k - 1].begin(), absent[k - 1].end(),
                        std::back_inserter(now_failed));
    std::set_difference(absent[k - 1].begin(), absent[k - 1].end(),
                        absent[k].begin(), absent[k].end(),
                        std::back_inserter(now_recovered));
    std::size_t emitted = 0;
    if (!now_failed.empty()) {
      drive.schedule.fail_at(t, FailureSet{now_failed, {}});
      drive.refresh_point.push_back(k);
      ++emitted;
    }
    if (!now_recovered.empty()) {
      drive.schedule.recover_at(t, FailureSet{now_recovered, {}});
      drive.refresh_point.push_back(k);
      ++emitted;
    }
    if (emitted == 0 &&
        report.timeline[k].routes != report.timeline[k - 1].routes) {
      // Route-only boundary: an empty recover event still triggers the
      // refresh that installs this point's snapshot.
      drive.schedule.recover_at(t, FailureSet{});
      drive.refresh_point.push_back(k);
      ++emitted;
    }
    if (emitted > 0) last_t = t;
  }
  return drive;
}

namespace {

std::shared_ptr<const std::unordered_map<std::uint64_t, std::size_t>>
pair_index_of(const ExecutionReport& report) {
  auto index =
      std::make_shared<std::unordered_map<std::uint64_t, std::size_t>>();
  for (std::size_t i = 0; i < report.pairs.size(); ++i) {
    (*index)[directed_pair_key(report.pairs[i].first,
                               report.pairs[i].second)] = i;
  }
  return index;
}

}  // namespace

std::vector<FluidFlowResult> run_fluid_with_conversion(
    const ExecutionReport& report, const Workload& flows,
    const FluidOptions& options, ScheduleRunStats* stats) {
  const ConversionDrive drive = make_conversion_drive(report);
  const auto index = pair_index_of(report);
  const auto provider_for = [&report, index](std::size_t point)
      -> PathProvider {
    return [&report, index, point](NodeId src, NodeId dst,
                                   std::uint32_t) -> std::vector<Path> {
      const auto it = index->find(directed_pair_key(src, dst));
      if (it == index->end()) return {};
      return report.timeline[point].routes[it->second];
    };
  };
  FluidSimulator sim{*drive.base, provider_for(0), options};
  std::size_t next = 0;
  const RoutingRefresh refresh = [&](const Graph&) -> PathProvider {
    const std::size_t point = next < drive.refresh_point.size()
                                  ? drive.refresh_point[next]
                                  : report.timeline.size() - 1;
    ++next;
    return provider_for(point);
  };
  return sim.run_with_schedule(flows, drive.schedule, 0.0, refresh, stats);
}

void drive_packet_sim(PacketSim& sim, const ExecutionReport& report,
                      const Workload& flows, double horizon_s) {
  if (report.timeline.empty()) {
    throw std::invalid_argument("drive_packet_sim: empty timeline");
  }
  const auto index = pair_index_of(report);
  for (std::size_t k = 1; k < report.timeline.size(); ++k) {
    const TimelinePoint& pt = report.timeline[k];
    if (pt.t >= horizon_s) break;
    sim.run_until(pt.t);
    sim.begin_segment();
    const auto paths_for = [&](std::uint32_t fi) -> std::vector<Path> {
      if (fi < flows.size()) {
        const Flow& f = flows[fi];
        const auto it = index->find(
            directed_pair_key(NodeId{f.src}, NodeId{f.dst}));
        if (it != index->end() && !pt.routes[it->second].empty()) {
          return pt.routes[it->second];
        }
      }
      // Black-holed (or untracked) pair: the flow keeps its current paths —
      // the blackout window models the hole; apply_conversion rejects empty
      // path sets by contract.
      return sim.flow_paths(fi);
    };
    sim.apply_conversion(*pt.graph, paths_for, pt.blackout_s, pt.scope);
  }
  sim.run_until(horizon_s);
}

std::vector<Path> conversion_paths_for(const ExecutionReport& report,
                                       const Flow& flow, std::size_t point) {
  if (point >= report.timeline.size()) {
    throw std::out_of_range("conversion_paths_for: point out of range");
  }
  for (std::size_t i = 0; i < report.pairs.size(); ++i) {
    if (report.pairs[i].first.value() == flow.src &&
        report.pairs[i].second.value() == flow.dst) {
      return report.timeline[point].routes[i];
    }
  }
  return {};
}

}  // namespace flattree
