#include "control/hierarchy.h"

#include <algorithm>
#include <cmath>
#include <queue>
#include <stdexcept>

#include "obs/metrics.h"
#include "routing/ksp.h"
#include "routing/path.h"

namespace flattree {

const char* to_string(ControlPlaneKind kind) {
  switch (kind) {
    case ControlPlaneKind::kFlat: return "flat";
    case ControlPlaneKind::kHierarchical: return "hierarchical";
  }
  return "?";
}

void ControlHierarchyOptions::validate() const {
  channel.validate();
  // Negated conjunctions so NaN is rejected too.
  if (!(per_hop_s >= 0.0)) {
    throw std::invalid_argument(
        "ControlHierarchyOptions: per_hop_s must be >= 0");
  }
  if (!(heartbeat_period_s > 0.0)) {
    throw std::invalid_argument(
        "ControlHierarchyOptions: heartbeat_period_s must be > 0");
  }
  if (heartbeat_miss_limit == 0) {
    throw std::invalid_argument(
        "ControlHierarchyOptions: heartbeat_miss_limit must be >= 1");
  }
  if (!(failover_takeover_s >= 0.0)) {
    throw std::invalid_argument(
        "ControlHierarchyOptions: failover_takeover_s must be >= 0");
  }
}

double HierarchyRunResult::mean_repair_lag_s() const {
  if (repairs.empty()) return 0.0;
  double sum = 0.0;
  for (const HierarchyRepair& r : repairs) {
    sum += r.installed_at_s - r.failed_at_s;
  }
  return sum / static_cast<double>(repairs.size());
}

ControlHierarchy::ControlHierarchy(const Controller& controller,
                                   ControlPlaneKind kind,
                                   ControlHierarchyOptions options)
    : controller_{&controller}, kind_{kind}, options_{std::move(options)} {
  options_.validate();
}

namespace {

NodeId nth_with_role(const Graph& g, NodeRole role, std::size_t index) {
  const std::vector<NodeId> nodes = g.nodes_with_role(role);
  return nodes.size() > index ? nodes[index] : NodeId{};
}

}  // namespace

NodeId ControlHierarchy::root_site(const Graph& graph) const {
  NodeId site = nth_with_role(graph, NodeRole::kCore, 0);
  if (!site.valid()) site = nth_with_role(graph, NodeRole::kAgg, 0);
  if (!site.valid()) site = nth_with_role(graph, NodeRole::kEdge, 0);
  return site;
}

NodeId ControlHierarchy::standby_site(const Graph& graph) const {
  const NodeId site = nth_with_role(graph, NodeRole::kCore, 1);
  return site.valid() ? site : root_site(graph);
}

NodeId ControlHierarchy::pod_site(const Graph& graph, PodId pod) const {
  for (NodeRole role : {NodeRole::kAgg, NodeRole::kEdge}) {
    for (NodeId n : graph.nodes_with_role(role)) {
      if (graph.node(n).pod == pod) return n;
    }
  }
  return root_site(graph);
}

ControlChannelOptions ControlHierarchy::channel_for(const Graph& graph) const {
  ControlChannelOptions ch = options_.channel;
  const ControlRttModel root =
      control_rtts(graph, root_site(graph), options_.per_hop_s, ch.delay_s);
  ch.switch_delay_s = root.one_way_s;
  if (kind_ != ControlPlaneKind::kHierarchical) return ch;
  // Pod switches are programmed by their local controller, one hop or two
  // away instead of across the core.
  std::uint32_t pods = 0;
  for (std::uint32_t i = 0; i < graph.node_count(); ++i) {
    const PodId p = graph.node(NodeId{i}).pod;
    if (p.valid()) pods = std::max(pods, p.value() + 1);
  }
  for (std::uint32_t p = 0; p < pods; ++p) {
    const ControlRttModel local = control_rtts(
        graph, pod_site(graph, PodId{p}), options_.per_hop_s, ch.delay_s);
    for (std::uint32_t i = 0; i < graph.node_count(); ++i) {
      const Node& n = graph.node(NodeId{i});
      if (n.pod == PodId{p} && is_switch(n.role)) {
        ch.switch_delay_s[i] = local.one_way_s[i];
      }
    }
  }
  return ch;
}

HierarchyRunResult ControlHierarchy::run(
    const CompiledMode& mode, std::span<const std::pair<NodeId, NodeId>> pairs,
    const FailureSchedule& storm, const HierarchyFaults& faults,
    double duration_s, const CompiledMode* convert_to, double convert_at_s,
    const ConversionExecOptions& exec_base) const {
  if (!(duration_s > 0.0)) {
    throw std::invalid_argument(
        "ControlHierarchy::run: duration_s must be > 0");
  }
  storm.validate();
  const std::uint32_t pod_count = controller_->tree().clos().pods;
  for (const ControlPartition& p : faults.partitions) p.validate(pod_count);

  const Graph& reference = mode.graph();
  const std::uint32_t k = mode.k();
  const ConversionDelayModel& delay = controller_->options().delay;
  const bool hier = kind_ == ControlPlaneKind::kHierarchical;

  HierarchyRunResult result;
  result.duration_s = duration_s;

  // Controller homes and their RTT models on the starting realization.
  const ControlRttModel root_rtts = control_rtts(
      reference, root_site(reference), options_.per_hop_s,
      options_.channel.delay_s);
  std::vector<ControlRttModel> pod_rtts;
  if (hier) {
    pod_rtts.reserve(pod_count);
    for (std::uint32_t p = 0; p < pod_count; ++p) {
      pod_rtts.push_back(control_rtts(reference,
                                      pod_site(reference, PodId{p}),
                                      options_.per_hop_s,
                                      options_.channel.delay_s));
    }
  }

  // -- serving state ----------------------------------------------------------
  std::shared_ptr<const Graph> cur = mode.graph_ptr();  // clean realization
  std::vector<RouteSet> canonical;
  canonical.reserve(pairs.size());
  for (const auto& [src, dst] : pairs) {
    canonical.push_back(mode.paths().server_paths(src, dst));
  }
  std::vector<RouteSet> routes = canonical;
  std::vector<bool> diverged(pairs.size(), false);
  FailureSet active;  // reference space, kept sorted
  std::shared_ptr<const Graph> live = cur;
  std::optional<PathCache> live_cache;

  const auto refresh_live = [&] {
    live_cache.reset();
    live = live_graph(cur, reference, active);
  };

  // Fraction-weighted darkness, the executor's integral discipline: a pair
  // is charged the fraction of its installed paths invalid on the live
  // graph; no routes at all charges the whole interval.
  std::vector<double> dark(pairs.size(), 0.0);
  std::vector<double> dark_total(pairs.size(), 0.0);
  const auto dark_frac_of = [&](std::size_t i) -> double {
    const RouteSet& rs = routes[i];
    if (rs.empty()) return 1.0;
    return static_cast<double>(count_invalid_paths(*live, rs)) /
           static_cast<double>(rs.size());
  };
  const auto recompute_dark = [&] {
    for (std::size_t i = 0; i < dark.size(); ++i) dark[i] = dark_frac_of(i);
  };

  // Diverged pairs whose canonical plan routes are whole again on the live
  // graph go back on plan — restricted to pairs with an endpoint in `pod`
  // when it is valid — and the darkness is recomputed.
  const auto reconcile = [&](PodId pod) {
    for (std::size_t i = 0; i < pairs.size(); ++i) {
      if (!diverged[i]) continue;
      if (pod.valid() && reference.node(pairs[i].first).pod != pod &&
          reference.node(pairs[i].second).pod != pod) {
        continue;
      }
      if (all_paths_valid(*live, canonical[i])) {
        routes[i] = canonical[i];
        diverged[i] = false;
        ++result.pairs_reconciled;
      }
    }
    recompute_dark();
  };

  double now = 0.0;
  const auto advance = [&](double t) {
    t = std::min(t, duration_s);
    if (t <= now) return;
    const double dt = t - now;
    for (std::size_t i = 0; i < dark.size(); ++i) {
      if (dark[i] > 0.0) dark_total[i] += dark[i] * dt;
    }
    now = t;
  };

  // -- control-plane fault geometry -------------------------------------------
  const double promote_t = faults.root_crash_at_s >= 0.0
                               ? faults.root_crash_at_s +
                                     options_.failover_takeover_s
                               : -1.0;
  if (faults.root_crash_at_s >= 0.0 && faults.root_crash_at_s < duration_s) {
    result.failovers = 1;
  }
  // The window covering time t for `pod`, as its effective end.
  const auto partition_end_at = [&](PodId pod,
                                    double t) -> std::optional<double> {
    for (const ControlPartition& p : faults.partitions) {
      if (p.pod == pod && t >= p.start_s &&
          (p.end_s < 0.0 || t < p.end_s)) {
        return p.end_s < 0.0 ? duration_s : p.end_s;
      }
    }
    return std::nullopt;
  };

  // -- event queue ------------------------------------------------------------
  // Processing order at equal times: storm folds first, then partition
  // bookkeeping, then the conversion hand-off, then repair installs.
  enum class EvKind : std::uint8_t {
    kStorm = 0,
    kDetect = 1,
    kRejoin = 2,
    kConvert = 3,
    kRepair = 4,
  };
  struct Ev {
    double t;
    EvKind kind;
    std::uint64_t seq;
    std::size_t idx;
  };
  struct EvCmp {
    bool operator()(const Ev& a, const Ev& b) const {
      if (a.t != b.t) return a.t > b.t;
      if (a.kind != b.kind) {
        return static_cast<int>(a.kind) > static_cast<int>(b.kind);
      }
      return a.seq > b.seq;
    }
  };
  std::priority_queue<Ev, std::vector<Ev>, EvCmp> queue;
  std::uint64_t seq = 0;

  // Storm batches: all events sharing one physical time fold together.
  struct Batch {
    double t;
    std::size_t first;
    std::size_t count;
  };
  std::vector<Batch> batches;
  {
    const std::vector<FailureEvent>& evs = storm.events();
    for (std::size_t e = 0; e < evs.size();) {
      std::size_t j = e;
      while (j < evs.size() && evs[j].time_s == evs[e].time_s) ++j;
      batches.push_back(Batch{evs[e].time_s, e, j - e});
      e = j;
    }
    for (std::size_t b = 0; b < batches.size(); ++b) {
      if (batches[b].t < duration_s) {
        queue.push(Ev{batches[b].t, EvKind::kStorm, seq++, b});
      }
    }
  }

  // Heartbeat state machine (hierarchical only): a partition is detected
  // after heartbeat_miss_limit consecutive misses, rejoined one heartbeat
  // period after it heals. Windows shorter than the detection latency pass
  // unnoticed; the missed-heartbeat count still accrues.
  std::vector<std::uint32_t> journal(pod_count, 0);
  if (hier) {
    for (std::size_t w = 0; w < faults.partitions.size(); ++w) {
      const ControlPartition& p = faults.partitions[w];
      const double end_eff =
          p.end_s < 0.0 ? duration_s : std::min(p.end_s, duration_s);
      if (p.start_s >= duration_s) continue;
      result.heartbeats_missed += static_cast<std::uint64_t>(
          std::floor((end_eff - p.start_s) / options_.heartbeat_period_s));
      const double detect_t =
          p.start_s + options_.heartbeat_period_s *
                          static_cast<double>(options_.heartbeat_miss_limit);
      if (detect_t < end_eff) {
        queue.push(Ev{detect_t, EvKind::kDetect, seq++, w});
        if (p.end_s >= 0.0 && p.end_s < duration_s) {
          queue.push(Ev{p.end_s + options_.heartbeat_period_s,
                        EvKind::kRejoin, seq++, w});
        }
      }
    }
  }

  const bool converting =
      convert_to != nullptr && convert_at_s >= 0.0 &&
      convert_at_s < duration_s;
  if (converting) {
    queue.push(Ev{convert_at_s, EvKind::kConvert, seq++, 0});
  }
  double conv_end_s = -1.0;  // conversion span already accounted up to here

  // -- repairs ----------------------------------------------------------------
  struct Pending {
    std::size_t pair;
    double failed_at;
    bool local;
    bool deferred;
    bool canceled;
  };
  std::vector<Pending> pending;
  std::vector<bool> repair_pending(pairs.size(), false);

  const auto schedule_repair = [&](std::size_t i, double t) {
    if (repair_pending[i]) return;
    const auto [src, dst] = pairs[i];
    const NodeId sa = reference.attachment_switch(src);
    const NodeId sb = reference.attachment_switch(dst);
    const PodId pa = reference.node(src).pod;
    const PodId pb = reference.node(dst).pod;
    // Pod-local repair: both endpoints live in one Pod, so its controller
    // can re-solve and install without the root — even while islanded.
    const bool local = hier && pa.valid() && pa == pb;
    double avail = t;
    bool deferred = false;
    if (!local) {
      if (promote_t >= 0.0 && t >= faults.root_crash_at_s &&
          t < promote_t) {
        avail = promote_t;  // the root seat is empty until promotion
        deferred = true;
      }
      // The root cannot install rules inside an island: wait for every
      // partition covering an endpoint Pod to heal (plus one heartbeat to
      // notice), chasing windows that begin during the wait.
      for (std::size_t guard = 0; guard <= faults.partitions.size();
           ++guard) {
        bool moved = false;
        for (const PodId p : {pa, pb}) {
          if (!p.valid()) continue;
          if (const auto end = partition_end_at(p, avail)) {
            avail = std::max(avail, *end + options_.heartbeat_period_s);
            deferred = true;
            moved = true;
          }
        }
        if (!moved) break;
      }
    }
    const ControlRttModel& m = local ? pod_rtts[pa.value()] : root_rtts;
    const double one_way = std::max(m.one_way(sa, options_.channel.delay_s),
                                    m.one_way(sb, options_.channel.delay_s));
    std::uint64_t rules = 0;
    for (const Path& path : canonical[i]) {
      if (!path.empty()) rules += path.size() - 1;
    }
    // Detection + two command rounds (state query, rule install) + the
    // Table-3 priced rule writes.
    const double install_t =
        avail + options_.heartbeat_period_s + 4.0 * one_way +
        static_cast<double>(rules) * delay.rule_add_s /
            delay.effective_controllers();
    pending.push_back(Pending{i, t, local, deferred, false});
    repair_pending[i] = true;
    if (deferred) ++result.repairs_deferred;
    queue.push(Ev{install_t, EvKind::kRepair, seq++, pending.size() - 1});
  };

  // A path the Pod controller may install on its own: every hop stays in
  // its Pod (core switches carry no Pod and disqualify).
  const auto intra_pod = [&](const Path& path, PodId pod) {
    return std::all_of(path.begin(), path.end(), [&](NodeId n) {
      return reference.node(n).pod == pod;
    });
  };

  // -- main loop --------------------------------------------------------------
  while (!queue.empty()) {
    const Ev ev = queue.top();
    queue.pop();
    if (ev.t >= duration_s && ev.kind != EvKind::kRepair) break;
    const bool stale = ev.t <= conv_end_s;  // span covered by the executor
    if (!stale) advance(ev.t);
    switch (ev.kind) {
      case EvKind::kStorm: {
        if (stale) break;  // active was reset to active_at(conv_end_s)
        const std::vector<FailureEvent>& evs = storm.events();
        const Batch& b = batches[ev.idx];
        for (std::size_t e = b.first; e < b.first + b.count; ++e) {
          fold_failure_event(active, evs[e]);
        }
        refresh_live();
        // Recoveries reconcile diverged pairs whose canonical plan routes
        // are whole again — the root (or the rejoined Pod controller)
        // reasserts the plan through the epoch protocol, so no off-plan
        // rule set outlives the failure that forced it.
        reconcile(PodId{});
        for (std::size_t i = 0; i < pairs.size(); ++i) {
          if (dark[i] > 0.0) schedule_repair(i, ev.t);
        }
        break;
      }
      case EvKind::kDetect:
        ++result.partitions_detected;
        break;
      case EvKind::kRejoin: {
        ++result.partitions_rejoined;
        const PodId pod = faults.partitions[ev.idx].pod;
        result.journal_replayed += journal[pod.index()];
        journal[pod.index()] = 0;
        // Rejoin reconciliation: diverged pairs in the rejoined Pod whose
        // plan routes are valid go back on plan.
        if (!stale) reconcile(pod);
        break;
      }
      case EvKind::kConvert: {
        ConversionExecOptions eo = exec_base;
        eo.channel = channel_for(*cur);
        eo.pod_local_authority = hier;
        eo.failover_takeover_s = options_.failover_takeover_s;
        ConversionFaults cf;
        cf.partitions = faults.partitions;
        cf.kill_primary_at_s = faults.root_crash_at_s >= convert_at_s
                                   ? faults.root_crash_at_s
                                   : -1.0;
        const ConversionExecutor executor{*controller_, eo};
        ExecutionReport rep = executor.execute_under_storm(
            mode, *convert_to, pairs, storm, cf, convert_at_s);
        conv_end_s = rep.finish_s;
        // The executor's integral covers [convert_at_s, finish_s]; adopt
        // its terminal checkpoint as the serving state and resume.
        result.blackhole_pair_s += rep.total_blackhole_s;
        result.max_pair_blackhole_s =
            std::max(result.max_pair_blackhole_s, rep.max_pair_blackhole_s);
        cur = std::make_shared<const Graph>(
            controller_->tree().realize(rep.terminal_configs));
        canonical = rep.checkpoints.back().routes;
        routes = canonical;
        std::fill(diverged.begin(), diverged.end(), false);
        active = storm.active_at(rep.finish_s);
        refresh_live();
        now = std::min(rep.finish_s, duration_s);
        // Repairs planned against the pre-conversion state are void.
        for (std::size_t pi = 0; pi < pending.size(); ++pi) {
          if (!pending[pi].canceled && repair_pending[pending[pi].pair]) {
            pending[pi].canceled = true;
            repair_pending[pending[pi].pair] = false;
          }
        }
        recompute_dark();
        for (std::size_t i = 0; i < pairs.size(); ++i) {
          if (dark[i] > 0.0) schedule_repair(i, now);
        }
        result.conversion = std::move(rep);
        break;
      }
      case EvKind::kRepair: {
        Pending& pr = pending[ev.idx];
        if (pr.canceled) break;
        repair_pending[pr.pair] = false;
        if (stale || now >= duration_s) break;
        if (dark[pr.pair] <= 0.0) break;  // recovered before the fix landed
        const NodeId src = pairs[pr.pair].first;
        const NodeId dst = pairs[pr.pair].second;
        if (live->degree(src) == 0 || live->degree(dst) == 0) break;
        const PodId pod = reference.node(src).pod;
        // Targeted patch: survivors stay installed, the solve tops the ECMP
        // set back up.
        std::vector<Path> next = patch_paths(
            *live, routes[pr.pair],
            std::max<std::size_t>(routes[pr.pair].size(), 1), [&] {
              if (!live_cache.has_value()) live_cache.emplace(*live, k);
              std::vector<Path> sol = live_cache->server_paths(src, dst);
              if (pr.local) {
                // The islanded Pod controller can only program its own
                // switches.
                std::erase_if(sol, [&](const Path& p) {
                  return !intra_pod(p, pod);
                });
              }
              return sol;
            });
        if (next.empty() || next == routes[pr.pair]) break;
        routes[pr.pair] = std::move(next);
        diverged[pr.pair] = routes[pr.pair] != canonical[pr.pair];
        dark[pr.pair] = dark_frac_of(pr.pair);
        if (pr.local) {
          ++result.repairs_local;
          if (partition_end_at(pod, ev.t).has_value()) {
            // Installed while islanded: journal for rejoin replay.
            ++result.journal_appended;
            ++journal[pod.index()];
          }
        } else {
          ++result.repairs_root;
        }
        result.repairs.push_back(HierarchyRepair{
            pr.pair, pr.failed_at, ev.t, pr.local, pr.deferred});
        break;
      }
    }
    if (now >= duration_s) break;
  }
  advance(duration_s);

  for (double d : dark_total) {
    result.blackhole_pair_s += d;
    result.max_pair_blackhole_s = std::max(result.max_pair_blackhole_s, d);
  }

  if (obs::MetricsRegistry* reg = options_.sink.metrics()) {
    reg->counter("ctrl.hier.runs").add();
    reg->counter("ctrl.hier.repairs.local").add(result.repairs_local);
    reg->counter("ctrl.hier.repairs.root").add(result.repairs_root);
    reg->counter("ctrl.hier.repairs.deferred").add(result.repairs_deferred);
    reg->counter("ctrl.hier.partitions.detected")
        .add(result.partitions_detected);
    reg->counter("ctrl.hier.partitions.rejoined")
        .add(result.partitions_rejoined);
    reg->counter("ctrl.hier.heartbeats.missed").add(result.heartbeats_missed);
    reg->counter("ctrl.hier.journal.appended").add(result.journal_appended);
    reg->counter("ctrl.hier.journal.replayed").add(result.journal_replayed);
    reg->counter("ctrl.hier.reconcile.pairs").add(result.pairs_reconciled);
    reg->counter("ctrl.hier.failovers").add(result.failovers);
    reg->gauge("ctrl.hier.max_blackhole_s").set_max(result.blackhole_pair_s);
  }
  if (obs::EventTracer* tracer = options_.sink.tracer()) {
    tracer->mark("ctrl_hier", to_string(kind_), 0,
                 static_cast<std::int64_t>(result.repairs.size()));
  }
  return result;
}

}  // namespace flattree
