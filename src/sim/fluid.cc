#include "sim/fluid.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <queue>
#include <stdexcept>

#include "lp/mcf.h"
#include "sim/fluid_incremental.h"

namespace flattree {
namespace {

// Resolves a flow's subflow paths into directed-edge index lists.
std::vector<std::vector<std::uint32_t>> resolve_paths(
    const LogicalTopology& topo, const PathProvider& provider, const Flow& f,
    std::uint32_t index) {
  const auto paths = provider(NodeId{f.src}, NodeId{f.dst}, index);
  if (paths.empty()) {
    throw std::logic_error("fluid: path provider returned no paths");
  }
  std::vector<std::vector<std::uint32_t>> edges;
  edges.reserve(paths.size());
  for (const Path& p : paths) edges.push_back(topo.path_edges(p));
  return edges;
}

// Per-direction base capacity of every edge of `topo`.
std::vector<double> directed_capacities(const LogicalTopology& topo) {
  std::vector<double> capacity(topo.directed_count());
  for (std::size_t e = 0; e < capacity.size(); ++e) {
    capacity[e] = topo.capacity(static_cast<std::uint32_t>(e));
  }
  return capacity;
}

}  // namespace

FluidSimulator::FluidSimulator(const Graph& graph, PathProvider provider,
                               FluidOptions options)
    : graph_{&graph},
      topology_{graph},
      provider_{std::move(provider)},
      options_{options} {}

std::vector<double> FluidSimulator::measure_rates(const Workload& flows) {
  McfInstance instance;
  instance.capacity = directed_capacities(topology_);
  for (std::size_t i = 0; i < flows.size(); ++i) {
    McfCommodity commodity;
    commodity.paths = resolve_paths(topology_, provider_, flows[i],
                                    static_cast<std::uint32_t>(i));
    instance.commodities.push_back(std::move(commodity));
  }
  return solve_max_min_fill(instance).flow_rate;
}

std::vector<FluidFlowResult> FluidSimulator::run(const Workload& flows) {
  return run_with_schedule(flows, FailureSchedule{}, 0.0, nullptr, nullptr);
}

std::vector<FluidFlowResult> FluidSimulator::run_with_schedule(
    const Workload& flows, const FailureSchedule& schedule,
    double repair_lag_s, const RoutingRefresh& refresh,
    ScheduleRunStats* stats_out) {
  struct FlowState {
    double remaining{0.0};
    std::uint32_t deps_remaining{0};
    double ready_time{0.0};  // latest dependency finish + dep delay
    bool released{false};
    bool active{false};
    std::vector<std::vector<std::uint32_t>> path_edges;
    std::vector<std::uint32_t> dependents;
  };

  // Cached observability handles (null when the sink is detached).
  obs::EventTracer* tracer = options_.sink.tracer();
  obs::Counter* c_realloc = nullptr;
  obs::Counter* c_arrivals = nullptr;
  obs::Counter* c_completions = nullptr;
  obs::Counter* c_fail = nullptr;
  obs::Counter* c_recover = nullptr;
  obs::Counter* c_refresh = nullptr;
  obs::Counter* c_reroutes = nullptr;
  obs::Counter* c_black_holed = nullptr;
  obs::Counter* c_links_touched = nullptr;
  obs::Counter* c_flows_touched = nullptr;
  obs::Counter* c_full_resolves = nullptr;
  obs::Counter* c_fallbacks = nullptr;
  obs::Histogram* h_fallback_level = nullptr;
  obs::Histogram* h_fct = nullptr;
  obs::Histogram* h_active = nullptr;
  obs::Histogram* h_rate_delta = nullptr;
  if (obs::MetricsRegistry* reg = options_.sink.metrics()) {
    c_realloc = &reg->counter("fluid.reallocations");
    c_arrivals = &reg->counter("fluid.arrivals");
    c_completions = &reg->counter("fluid.completions");
    c_fail = &reg->counter("fluid.fail_events");
    c_recover = &reg->counter("fluid.recover_events");
    c_refresh = &reg->counter("fluid.refreshes");
    c_reroutes = &reg->counter("fluid.reroutes");
    c_black_holed = &reg->counter("fluid.black_holed");
    // Incremental-reallocation touch accounting: how much of the network
    // each rate update actually re-derived (links_touched ≪ directed edge
    // count on sparse events is the O(affected) contract).
    c_links_touched = &reg->counter("fluid.realloc.links_touched");
    c_flows_touched = &reg->counter("fluid.realloc.flows_touched");
    c_full_resolves = &reg->counter("fluid.realloc.full_resolves");
    // Every re-solve from a divergence level (full_resolves are the level-0
    // ones); the histogram says how much of the cached trace survived.
    c_fallbacks = &reg->counter("fluid.realloc.fallbacks");
    h_fallback_level = &reg->histogram("fluid.realloc.fallback_level",
                                       {0, 1, 2, 4, 8, 16, 32, 64, 128});
    h_fct = &reg->histogram(
        "fluid.fct_s", {0.001, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0, 60.0});
    h_active = &reg->histogram("fluid.active_flows",
                               {1, 2, 4, 8, 16, 32, 64, 128, 256, 1024});
    // Max relative per-flow rate change per rate update: the fluid model's
    // convergence residual (progressive filling is exact per event, so this
    // measures how hard each arrival/departure/failure perturbs the
    // allocation).
    h_rate_delta = &reg->histogram(
        "fluid.rate_update.max_rel_delta",
        {0.001, 0.01, 0.05, 0.1, 0.25, 0.5, 1.0, 2.0, 10.0});
  }

  std::vector<FlowState> state(flows.size());
  std::vector<FluidFlowResult> results(flows.size());
  for (std::size_t i = 0; i < flows.size(); ++i) {
    if (flows[i].bytes <= 0) {
      throw std::invalid_argument("fluid run: flows must have bytes > 0");
    }
    state[i].remaining = flows[i].bytes;
    state[i].deps_remaining =
        static_cast<std::uint32_t>(flows[i].depends_on.size());
    state[i].ready_time = flows[i].start_s;
    for (std::uint32_t dep : flows[i].depends_on) {
      if (dep >= flows.size()) {
        throw std::invalid_argument("fluid run: dependency index out of range");
      }
      state[dep].dependents.push_back(static_cast<std::uint32_t>(i));
    }
  }

  // Arrival queue: (time, flow).
  using Arrival = std::pair<double, std::uint32_t>;
  std::priority_queue<Arrival, std::vector<Arrival>, std::greater<>> arrivals;
  for (std::size_t i = 0; i < flows.size(); ++i) {
    if (state[i].deps_remaining == 0) {
      arrivals.emplace(flows[i].start_s, static_cast<std::uint32_t>(i));
    }
  }

  std::vector<std::uint32_t> active;
  std::vector<double> rates;  // parallel to `active`
  double now = 0.0;

  // ---- live failure state --------------------------------------------------
  ScheduleRunStats stats;
  const std::vector<FailureEvent>& events = schedule.events();
  std::size_t next_event = 0;
  // Pending routing-state refreshes, one per consumed event, each firing
  // one repair lag after its event.
  std::priority_queue<double, std::vector<double>, std::greater<>> refreshes;
  std::vector<bool> failed_link(graph_->link_count(), false);
  std::vector<bool> failed_switch(graph_->node_count(), false);
  // Keeps the degraded graph alive while `current_provider` routes on it.
  std::shared_ptr<const Graph> degraded_graph;
  PathProvider current_provider = provider_;

  // Max-min allocator, kept in lockstep with the live per-direction
  // capacities (failures subtract from the base value, recovery restores
  // it), the active flow set, and each flow's path set. solve() replays the
  // previous event's water-filling trace and re-derives only the perturbed
  // bottleneck levels — bit-for-bit equal to solve_max_min_fill over the
  // active flows (tests/test_fluid_incremental_diff.cc holds the equality
  // after every fuzzed event). Black-holed flows are never registered: they
  // stay at rate zero.
  IncrementalMaxMinSolver inc;
  inc.reset(directed_capacities(topology_), flows.size());

  // Each link's undirected topology edge, resolved once per run.
  // Capacities still accumulate in link order.
  const std::vector<std::uint32_t> link_edge = [&] {
    std::vector<std::uint32_t> edges;
    edges.reserve(graph_->link_count());
    for (std::uint32_t i = 0; i < graph_->link_count(); ++i) {
      const Link& l = graph_->link(LinkId{i});
      edges.push_back(*topology_.edge_between(l.a, l.b));
    }
    return edges;
  }();
  const auto recompute_effective = [&]() {
    std::vector<double> undirected(topology_.edge_count(), 0.0);
    for (std::uint32_t i = 0; i < graph_->link_count(); ++i) {
      if (failed_link[i]) continue;
      const Link& l = graph_->link(LinkId{i});
      const bool fabric = is_switch(graph_->node(l.a).role) &&
                          is_switch(graph_->node(l.b).role);
      if (fabric && (failed_switch[l.a.index()] || failed_switch[l.b.index()])) {
        continue;
      }
      undirected[link_edge[i]] += l.capacity_bps;
    }
    for (std::size_t e = 0; e < topology_.directed_count(); ++e) {
      inc.set_capacity(static_cast<std::uint32_t>(e), undirected[e / 2]);
    }
  };

  const auto apply_event = [&](const FailureEvent& event) {
    for (LinkId id : event.elements.links) {
      if (id.index() >= failed_link.size()) {
        throw std::invalid_argument("run_with_schedule: link id out of range");
      }
      failed_link[id.index()] = !event.recover;
    }
    for (NodeId id : event.elements.switches) {
      if (id.index() >= failed_switch.size()) {
        throw std::invalid_argument("run_with_schedule: node id out of range");
      }
      failed_switch[id.index()] = !event.recover;
    }
    recompute_effective();
    if (event.recover) {
      ++stats.recover_events;
      obs::add(c_recover);
    } else {
      ++stats.fail_events;
      obs::add(c_fail);
    }
    if (tracer != nullptr) {
      tracer->instant("fluid", event.recover ? "recover" : "fail",
                      event.time_s);
    }
    refreshes.push(event.time_s + repair_lag_s);
  };

  const auto reallocate = [&]() {
    obs::add(c_realloc);
    obs::record(h_active, static_cast<double>(active.size()));
    const std::vector<double> prev = rates;
    rates.assign(active.size(), 0.0);
    inc.solve();
    for (std::size_t i = 0; i < active.size(); ++i) {
      rates[i] = inc.flow_rate(active[i]);
    }
    const IncrementalSolveStats& st = inc.last_stats();
    obs::add(c_links_touched, st.links_touched);
    obs::add(c_flows_touched, st.flows_touched);
    if (st.full_resolve) obs::add(c_full_resolves);
    if (st.fallback) {
      obs::add(c_fallbacks);
      obs::record(h_fallback_level, static_cast<double>(st.fallback_level));
    }
    // Convergence residual: how hard this update perturbed the allocation.
    // Comparable only when the active set is unchanged (prev is parallel).
    if (h_rate_delta != nullptr && prev.size() == rates.size() &&
        !rates.empty()) {
      double max_rel = 0.0;
      for (std::size_t i = 0; i < rates.size(); ++i) {
        if (prev[i] > 0) {
          max_rel = std::max(max_rel,
                             std::fabs(rates[i] - prev[i]) / prev[i]);
        }
      }
      h_rate_delta->record(max_rel);
    }
  };

  // Routing state catches up with the live topology: rebuild the provider
  // over the degraded graph and re-path every unfinished flow through it.
  const auto do_refresh = [&]() {
    ++stats.refreshes;
    obs::add(c_refresh);
    if (tracer != nullptr) tracer->instant("fluid", "refresh", now);
    if (!refresh) return;
    FailureSet active_set;
    for (std::uint32_t i = 0; i < failed_link.size(); ++i) {
      if (failed_link[i]) active_set.links.push_back(LinkId{i});
    }
    for (std::uint32_t i = 0; i < failed_switch.size(); ++i) {
      if (failed_switch[i]) active_set.switches.push_back(NodeId{i});
    }
    degraded_graph =
        std::make_shared<const Graph>(degrade(*graph_, active_set));
    current_provider = refresh(*degraded_graph);
    for (std::size_t f = 0; f < flows.size(); ++f) {
      if (!state[f].active) continue;
      const auto paths = current_provider(
          NodeId{flows[f].src}, NodeId{flows[f].dst},
          static_cast<std::uint32_t>(f));
      if (paths.empty()) {
        ++stats.black_holed;  // disconnected pair: stays stalled
        obs::add(c_black_holed);
        continue;
      }
      std::vector<std::vector<std::uint32_t>> edges;
      edges.reserve(paths.size());
      for (const Path& p : paths) edges.push_back(topology_.path_edges(p));
      if (edges != state[f].path_edges) {
        // update_flow handles the flow being absent (black-holed on
        // arrival, re-pathed now) as a plain add.
        inc.update_flow(static_cast<std::uint32_t>(f), edges);
        state[f].path_edges = std::move(edges);
        ++stats.reroutes;
        obs::add(c_reroutes);
      }
    }
  };

  const auto complete_flow = [&](std::uint32_t f) {
    results[f].completed = true;
    results[f].finish_s = now;
    state[f].active = false;
    inc.remove_flow(f);  // no-op for black-holed flows
    obs::add(c_completions);
    obs::record(h_fct, now - results[f].start_s);
    if (tracer != nullptr) {
      tracer->span("fluid", "flow", results[f].start_s,
                   now - results[f].start_s, f);
    }
    for (std::uint32_t dep : state[f].dependents) {
      FlowState& ds = state[dep];
      if (ds.deps_remaining == 0) continue;  // defensive
      --ds.deps_remaining;
      ds.ready_time =
          std::max(ds.ready_time, now + flows[dep].dep_delay_s);
      if (ds.deps_remaining == 0) {
        arrivals.emplace(std::max(ds.ready_time, flows[dep].start_s), dep);
      }
    }
  };

  // Non-scheduled runs keep the historical contract that a provider
  // returning no paths is a logic error; under a schedule an empty path set
  // is a legitimate black-holed flow.
  const bool scheduled = !events.empty();

  // Next point at which anything other than a flow completion happens.
  const auto next_change = [&]() {
    double t = std::numeric_limits<double>::infinity();
    if (!arrivals.empty()) t = std::min(t, arrivals.top().first);
    if (next_event < events.size()) {
      t = std::min(t, events[next_event].time_s);
    }
    if (!refreshes.empty()) t = std::min(t, refreshes.top());
    return t;
  };

  while (!active.empty() || !arrivals.empty() || next_event < events.size() ||
         !refreshes.empty()) {
    if (now > options_.max_time_s) break;

    // If nothing is flowing, jump to the next change (arrival, failure
    // event, or routing refresh).
    if (active.empty() && std::isfinite(next_change())) {
      now = std::max(now, next_change());
    }

    // Consume every failure event and routing refresh due now.
    bool changed = false;
    while (next_event < events.size() &&
           events[next_event].time_s <= now + 1e-12) {
      apply_event(events[next_event]);
      ++next_event;
      changed = true;
    }
    while (!refreshes.empty() && refreshes.top() <= now + 1e-12) {
      refreshes.pop();
      do_refresh();
      changed = true;
    }

    // Admit every arrival due now.
    bool admitted = false;
    while (!arrivals.empty() && arrivals.top().first <= now + 1e-12) {
      const std::uint32_t f = arrivals.top().second;
      arrivals.pop();
      if (state[f].released) continue;
      state[f].released = true;
      state[f].active = true;
      if (scheduled) {
        const auto paths = current_provider(NodeId{flows[f].src},
                                            NodeId{flows[f].dst}, f);
        state[f].path_edges.clear();
        if (paths.empty()) {
          ++stats.black_holed;  // no route yet; re-pathed at a refresh
          obs::add(c_black_holed);
        } else {
          for (const Path& p : paths) {
            state[f].path_edges.push_back(topology_.path_edges(p));
          }
        }
      } else {
        state[f].path_edges =
            resolve_paths(topology_, current_provider, flows[f], f);
      }
      if (!state[f].path_edges.empty()) inc.add_flow(f, state[f].path_edges);
      results[f].started = true;
      results[f].start_s = now;
      active.push_back(f);
      admitted = true;
      obs::add(c_arrivals);
    }
    if (admitted || changed || rates.size() != active.size()) reallocate();

    // Time to next completion among active flows.
    double dt_complete = std::numeric_limits<double>::infinity();
    for (std::size_t i = 0; i < active.size(); ++i) {
      if (rates[i] > 0) {
        dt_complete =
            std::min(dt_complete, state[active[i]].remaining * 8.0 / rates[i]);
      }
    }
    const double change_t = next_change();

    if (!std::isfinite(dt_complete) && !std::isfinite(change_t)) {
      break;  // starved flows with nothing left to change that: give up
    }

    double next_time = std::min(now + dt_complete, change_t);
    // Zeno stall guard: a flow tail can sit just above the retirement
    // threshold with a completion increment smaller than one ulp of `now`,
    // so `now + dt_complete` rounds back to `now` and the loop spins with
    // dt == 0 forever. Force the minimal representable step; it drains at
    // least rate * ulp / 8 bytes, which exceeds any remainder whose drain
    // time rounds to zero, so the stuck flow retires.
    if (std::isfinite(dt_complete) && next_time <= now) {
      next_time =
          std::nextafter(now, std::numeric_limits<double>::infinity());
    }
    bool horizon_hit = false;
    if (next_time > options_.max_time_s) {
      next_time = options_.max_time_s;
      horizon_hit = true;
    }
    const double dt = next_time - now;
    // Drain bytes over [now, next_time].
    for (std::size_t i = 0; i < active.size(); ++i) {
      state[active[i]].remaining -= rates[i] * dt / 8.0;
    }
    now = next_time;
    if (horizon_hit) break;  // unfinished flows are reported as such

    // Retire completed flows.
    bool any_completed = false;
    std::vector<std::uint32_t> still_active;
    std::vector<double> still_rates;
    for (std::size_t i = 0; i < active.size(); ++i) {
      const std::uint32_t f = active[i];
      if (state[f].remaining <= 1e-6) {
        complete_flow(f);
        any_completed = true;
      } else {
        still_active.push_back(f);
        still_rates.push_back(rates[i]);
      }
    }
    if (any_completed) {
      active = std::move(still_active);
      rates = std::move(still_rates);
      reallocate();
    }
  }

  if (stats_out != nullptr) *stats_out = stats;
  return results;
}

std::vector<CoflowStats> coflow_completion_times(
    const Workload& flows, const std::vector<FluidFlowResult>& results) {
  if (flows.size() != results.size()) {
    throw std::invalid_argument("coflow stats: result size mismatch");
  }
  std::map<std::uint32_t, CoflowStats> groups;
  std::map<std::uint32_t, std::pair<double, double>> spans;  // start, finish
  for (std::size_t i = 0; i < flows.size(); ++i) {
    if (flows[i].group == Flow::kNoGroup) continue;
    auto [it, inserted] = groups.try_emplace(flows[i].group);
    CoflowStats& g = it->second;
    auto [sit, sinserted] = spans.try_emplace(
        flows[i].group, std::pair{1e300, 0.0});
    if (inserted) {
      g.group = flows[i].group;
      g.completed = true;
    }
    ++g.flows;
    g.completed = g.completed && results[i].completed;
    sit->second.first = std::min(sit->second.first, results[i].start_s);
    sit->second.second = std::max(sit->second.second, results[i].finish_s);
  }
  std::vector<CoflowStats> out;
  out.reserve(groups.size());
  for (auto& [group, stats] : groups) {
    const auto& span = spans.at(group);
    stats.cct_s = stats.completed ? span.second - span.first : 0.0;
    out.push_back(stats);
  }
  return out;
}

std::vector<obs::FlowRecord> collect_flow_records(
    const Workload& flows, const std::vector<FluidFlowResult>& results) {
  if (flows.size() != results.size()) {
    throw std::invalid_argument("collect_flow_records: result size mismatch");
  }
  std::vector<obs::FlowRecord> records;
  records.reserve(flows.size());
  for (std::size_t i = 0; i < flows.size(); ++i) {
    obs::FlowRecord r;
    r.src = flows[i].src;
    r.dst = flows[i].dst;
    r.completed = results[i].completed;
    r.bytes = results[i].completed ? flows[i].bytes : 0.0;
    r.start_s = results[i].start_s;
    r.fct_s = results[i].completed ? results[i].fct_s() : 0.0;
    records.push_back(r);
  }
  return records;
}

}  // namespace flattree
