// Differential oracle for the incremental max-min allocator
// (lp/fluid_incremental.h): its whole value proposition is *bit-for-bit*
// equality with the naive progressive-filling loop (max_min_fill_oracle,
// tests/max_min_oracle.h) while touching O(affected) state, so every
// assertion here is exact — EXPECT_EQ on the raw double bits, never a
// tolerance. Three layers:
//
//   1. Solver-level fuzz: random event streams (flow arrivals/departures,
//      link fail/recover, conversion-style capacity rescales) against the
//      oracle's solve of the same instance after EVERY event — every flow
//      rate and every path rate — on k=4 /
//      k=8 fat-trees and a two-stage (multi-stage) random graph, >= 5 seeds
//      each; plus arrival/departure-only streams shaped like the Figure-8
//      trace replay (flat-tree global mode, 8 paths per flow, 128 slots),
//      whose fallbacks mostly start above level 0.
//   2. Simulator-level: run_with_schedule under a fail/recover schedule
//      (arrivals, completions, reroutes and black-holes interleaved) must
//      reproduce pinned FNV-1a digests of every flow's started/completed
//      flags, start/finish bit patterns and the schedule stats. The pins
//      were recorded when the simulator could still re-solve every event
//      from scratch with the naive loop, and both allocators matched them.
//   3. Metric determinism: the fluid.realloc.* counters the incremental
//      path emits are byte-identical across exec-pool thread counts.
#include "lp/fluid_incremental.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/flat_tree.h"
#include "exec/parallel.h"
#include "exec/pool.h"
#include "lp/mcf.h"
#include "max_min_oracle.h"
#include "net/capacity.h"
#include "net/failures.h"
#include "net/rng.h"
#include "obs/metrics.h"
#include "obs/sink.h"
#include "routing/ksp.h"
#include "sim/fluid.h"
#include "topo/clos.h"
#include "topo/random_graph.h"
#include "traffic/patterns.h"

namespace flattree {
namespace {

using PathEdges = std::vector<std::vector<std::uint32_t>>;

std::uint64_t bits(double v) {
  std::uint64_t u = 0;
  std::memcpy(&u, &v, sizeof(u));
  return u;
}

// ---- solver-level fuzz ------------------------------------------------------

// Shadow state the oracle solves from. Flows keyed by slot; the
// map's ascending iteration order matches the solver's documented
// equivalence (commodities in ascending slot order).
struct ShadowWorld {
  std::vector<double> capacity;  // directed, effective (0 when failed)
  std::map<std::uint32_t, PathEdges> flows;
};

// The oracle's rates per present slot: (flow rate, per-path rates).
using SlotRates = std::map<std::uint32_t, std::pair<double, std::vector<double>>>;

SlotRates oracle_rates(const ShadowWorld& w) {
  McfInstance instance;
  instance.capacity = w.capacity;
  std::vector<std::uint32_t> order;
  for (const auto& [slot, paths] : w.flows) {
    McfCommodity commodity;
    commodity.paths = paths;
    instance.commodities.push_back(std::move(commodity));
    order.push_back(slot);
  }
  const McfResult solved = max_min_fill_oracle(instance);
  SlotRates out;
  for (std::size_t i = 0; i < order.size(); ++i) {
    out[order[i]] = {solved.flow_rate[i], solved.path_rates[i]};
  }
  return out;
}

std::vector<NodeId> server_nodes(const Graph& g) {
  std::vector<NodeId> servers;
  for (std::uint32_t i = 0; i < g.node_count(); ++i) {
    if (!is_switch(g.node(NodeId{i}).role)) servers.push_back(NodeId{i});
  }
  return servers;
}

// The shape of a fuzzed stream. The default mixes every event kind over 48
// slots with 4 paths per flow; `churn_only` streams draw arrivals and
// departures only (an arrival whenever fewer than `warm_live` flows are
// live, then one in two while a slot is free), as a trace replay does.
struct StreamShape {
  std::uint32_t paths{4};
  std::uint32_t slots{48};
  bool churn_only{false};
  std::size_t warm_live{0};
};

// One fuzzed event stream: mutates the incremental solver and the shadow
// world in lockstep and asserts exact rate equality after every event.
// Adds the solves that fell back from a level above 0 to `*partial`.
void fuzz_stream(const Graph& g, std::uint64_t seed, int num_events,
                 const char* label, const StreamShape& shape = {},
                 std::size_t* partial = nullptr) {
  SCOPED_TRACE(std::string(label) + " seed=" + std::to_string(seed));
  const LogicalTopology topo{g};
  PathCache cache{g, shape.paths};
  const std::vector<NodeId> servers = server_nodes(g);
  ASSERT_GE(servers.size(), 2u);

  // Per-directed-edge base capacity (mutated by conversion rescales) and
  // undirected failure flags; effective = failed ? 0 : base.
  std::vector<double> base(topo.directed_count());
  for (std::size_t e = 0; e < base.size(); ++e) {
    base[e] = topo.capacity(static_cast<std::uint32_t>(e));
  }
  std::vector<bool> edge_failed(topo.edge_count(), false);

  const std::uint32_t kSlots = shape.slots;
  IncrementalMaxMinSolver inc;
  inc.reset(base, kSlots);
  ShadowWorld w{base, {}};

  std::vector<std::uint32_t> free_slots;
  for (std::uint32_t s = kSlots; s-- > 0;) free_slots.push_back(s);
  std::vector<std::uint32_t> used;

  const auto set_effective = [&](std::uint32_t directed, double v) {
    if (w.capacity[directed] == v) return;
    w.capacity[directed] = v;
    inc.set_capacity(directed, v);
  };

  Rng rng{seed};
  for (int ev = 0; ev < num_events; ++ev) {
    const double roll = rng.next_double();
    const bool arrival =
        shape.churn_only
            ? !free_slots.empty() &&
                  (used.size() < shape.warm_live || roll < 0.5)
            : (roll < 0.40 && !free_slots.empty()) || used.empty();
    if (arrival) {
      // Arrival on a random distinct server pair.
      const NodeId src = servers[rng.next_below(servers.size())];
      NodeId dst = src;
      while (dst == src) dst = servers[rng.next_below(servers.size())];
      const std::vector<Path> paths = cache.server_paths(src, dst);
      ASSERT_FALSE(paths.empty());
      PathEdges pe;
      pe.reserve(paths.size());
      for (const Path& p : paths) pe.push_back(topo.path_edges(p));
      const std::uint32_t slot = free_slots.back();
      free_slots.pop_back();
      used.push_back(slot);
      inc.add_flow(slot, pe);
      w.flows[slot] = std::move(pe);
    } else if (shape.churn_only || roll < 0.60) {
      // Departure of a random live flow.
      const std::size_t i = rng.next_below(used.size());
      const std::uint32_t slot = used[i];
      used[i] = used.back();
      used.pop_back();
      free_slots.push_back(slot);
      inc.remove_flow(slot);
      w.flows.erase(slot);
    } else if (roll < 0.80) {
      // Link fail/recover toggle on a random undirected edge.
      const std::uint32_t e =
          static_cast<std::uint32_t>(rng.next_below(topo.edge_count()));
      edge_failed[e] = !edge_failed[e];
      for (const std::uint32_t d : {2 * e, 2 * e + 1}) {
        set_effective(d, edge_failed[e] ? 0.0 : base[d]);
      }
    } else {
      // Conversion-style delta: rescale a few undirected edges' base
      // capacity (half / double / restore), as a mode change would.
      const int n = 1 + static_cast<int>(rng.next_below(4));
      for (int j = 0; j < n; ++j) {
        const std::uint32_t e =
            static_cast<std::uint32_t>(rng.next_below(topo.edge_count()));
        const double factor =
            (rng.next_below(3) == 0) ? 0.5 : (rng.next_below(2) ? 2.0 : 1.0);
        for (const std::uint32_t d : {2 * e, 2 * e + 1}) {
          base[d] = topo.capacity(d) * factor;
          if (!edge_failed[e]) set_effective(d, base[d]);
        }
      }
    }

    inc.solve();
    const SlotRates expect = oracle_rates(w);
    for (std::uint32_t s = 0; s < kSlots; ++s) {
      const auto it = expect.find(s);
      const double want = it == expect.end() ? 0.0 : it->second.first;
      const double got = inc.flow_rate(s);
      ASSERT_EQ(bits(got), bits(want))
          << "event " << ev << " slot " << s << ": incremental " << got
          << " vs oracle " << want;
      const std::vector<double> got_paths = inc.path_rates(s);
      const std::vector<double> want_paths =
          it == expect.end() ? std::vector<double>{} : it->second.second;
      ASSERT_EQ(got_paths.size(), want_paths.size())
          << "event " << ev << " slot " << s;
      for (std::size_t p = 0; p < got_paths.size(); ++p) {
        ASSERT_EQ(bits(got_paths[p]), bits(want_paths[p]))
            << "event " << ev << " slot " << s << " path " << p
            << ": incremental " << got_paths[p] << " vs oracle "
            << want_paths[p];
      }
    }
    // The per-solve touch accounting must never exceed the network: the
    // O(affected) contract's upper bound.
    const IncrementalSolveStats& st = inc.last_stats();
    EXPECT_LE(st.links_touched, topo.directed_count());
    EXPECT_EQ(st.full_resolve, st.fallback && st.fallback_level == 0);
    if (partial != nullptr && st.fallback && st.fallback_level > 0) {
      ++*partial;
    }
  }
}

Graph fat_tree(std::uint32_t k) { return build_clos(ClosParams::fat_tree(k)); }

Graph two_stage_fabric(std::uint64_t seed) {
  TwoStageParams ts = TwoStageParams::from_clos(ClosParams::fat_tree(4));
  ts.seed = seed;
  return build_two_stage_random_graph(ts);
}

TEST(FluidIncrementalDiff, FuzzFatTreeK4) {
  const Graph g = fat_tree(4);
  for (const std::uint64_t seed : {11u, 22u, 33u, 44u, 55u}) {
    fuzz_stream(g, seed, 160, "fat_tree_k4");
  }
}

TEST(FluidIncrementalDiff, FuzzFatTreeK8) {
  const Graph g = fat_tree(8);
  for (const std::uint64_t seed : {101u, 202u, 303u, 404u, 505u}) {
    fuzz_stream(g, seed, 80, "fat_tree_k8");
  }
}

TEST(FluidIncrementalDiff, FuzzTwoStageMultiStage) {
  const Graph g = two_stage_fabric(20170821);
  for (const std::uint64_t seed : {7u, 17u, 27u, 37u, 47u}) {
    fuzz_stream(g, seed, 160, "two_stage");
  }
}

// Arrivals and departures only, as in the Figure-8 trace replay: the
// quarter-scale topo-1 fabric in flat-tree global mode, 8 paths per flow,
// 96-128 live flows. Most fallbacks here diverge above level 0, so the
// re-solve starts from materialized mid-trace edge state; the stream must
// reach that path often, and stay bit-exact after every event.
TEST(FluidIncrementalDiff, FuzzTraceShapedChurn) {
  const ClosParams clos{8, 4, 4, 4, 16, 4, 16, 8};
  const Graph g =
      FlatTree{FlatTreeParams::defaults_for(clos)}.realize_uniform(
          PodMode::kGlobal);
  StreamShape shape;
  shape.paths = 8;
  shape.slots = 128;
  shape.churn_only = true;
  shape.warm_live = 96;
  std::size_t partial = 0;
  for (const std::uint64_t seed : {61u, 62u}) {
    fuzz_stream(g, seed, 250, "trace_shaped", shape, &partial);
  }
  EXPECT_GE(partial, 100u);
}

// ---- simulator-level: pinned digests -----------------------------------------

struct SimOutcome {
  std::vector<FluidFlowResult> results;
  ScheduleRunStats stats;
};

SimOutcome run_sim(const Graph& g, const Workload& flows,
                   const FailureSchedule& sched, double lag,
                   obs::MetricsRegistry* reg = nullptr) {
  auto cache = std::make_shared<PathCache>(g, 4);
  const PathProvider provider = [cache](NodeId src, NodeId dst,
                                        std::uint32_t) {
    return cache->server_paths(src, dst);
  };
  FluidOptions opt;
  if (reg != nullptr) opt.sink = obs::ObsSink{reg, nullptr};
  FluidSimulator sim{g, provider, opt};
  const RoutingRefresh refresh = [](const Graph& degraded) {
    auto c = std::make_shared<PathCache>(degraded, 4);
    return PathProvider{[c](NodeId src, NodeId dst, std::uint32_t) {
      return c->server_paths(src, dst);
    }};
  };
  SimOutcome out;
  out.results = sim.run_with_schedule(flows, sched, lag, refresh, &out.stats);
  return out;
}

// FNV-1a over 64-bit words.
void mix(std::uint64_t& h, std::uint64_t v) {
  for (int b = 0; b < 8; ++b) {
    h ^= (v >> (8 * b)) & 0xffu;
    h *= 0x100000001b3ULL;
  }
}

// Every observable of a scheduled run folded into one digest: each flow's
// started/completed flags and start/finish bit patterns, then the five
// ScheduleRunStats counters.
std::uint64_t digest(const SimOutcome& out) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  mix(h, out.results.size());
  for (const FluidFlowResult& r : out.results) {
    mix(h, r.started ? 1u : 0u);
    mix(h, r.completed ? 1u : 0u);
    mix(h, bits(r.start_s));
    mix(h, bits(r.finish_s));
  }
  mix(h, out.stats.fail_events);
  mix(h, out.stats.recover_events);
  mix(h, out.stats.refreshes);
  mix(h, out.stats.reroutes);
  mix(h, out.stats.black_holed);
  return h;
}

std::string hex(std::uint64_t v) {
  char buf[19];
  std::snprintf(buf, sizeof buf, "0x%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

// A workload with staggered arrivals + a fail/recover schedule, so the run
// exercises arrivals, completions, reroutes and black-holes interleaved.
SimOutcome scheduled_run(const Graph& g, std::uint64_t seed) {
  Rng rng{seed};
  const std::uint32_t servers =
      static_cast<std::uint32_t>(server_nodes(g).size());
  Workload flows = permutation_traffic(servers, rng);
  for (std::size_t i = 0; i < flows.size(); ++i) {
    flows[i].bytes = 20e6 + 5e6 * static_cast<double>(i % 7);
    flows[i].start_s = 0.01 * static_cast<double>(i % 11);
  }
  // Fail two random fabric links mid-run, recover one of them later.
  std::vector<LinkId> fabric;
  for (std::uint32_t i = 0; i < g.link_count(); ++i) {
    const Link& l = g.link(LinkId{i});
    if (is_switch(g.node(l.a).role) && is_switch(g.node(l.b).role)) {
      fabric.push_back(LinkId{i});
    }
  }
  const LinkId a = fabric[rng.next_below(fabric.size())];
  LinkId b = a;
  while (b == a) b = fabric[rng.next_below(fabric.size())];
  FailureSchedule sched;
  sched.fail_at(0.05, FailureSet{{a}, {}});
  sched.fail_at(0.09, FailureSet{{b}, {}});
  sched.recover_at(0.16, FailureSet{{a}, {}});
  return run_sim(g, flows, sched, 0.02);
}

void check_pinned(const Graph& g, std::uint64_t seed, std::uint64_t pinned,
                  const char* label) {
  SCOPED_TRACE(label);
  const SimOutcome out = scheduled_run(g, seed);
  // Printed in hex on mismatch, so a deliberate change to the simulated
  // results shows the value to re-pin.
  EXPECT_EQ(hex(digest(out)), hex(pinned)) << "simulated results moved";
  // The run must reach the paths the pin is meant to cover.
  std::size_t completed = 0;
  for (const FluidFlowResult& r : out.results) completed += r.completed;
  EXPECT_GT(completed, out.results.size() / 2);
  EXPECT_EQ(out.stats.fail_events, 2u);
  EXPECT_EQ(out.stats.recover_events, 1u);
  EXPECT_GT(out.stats.reroutes, 0u);
}

TEST(FluidIncrementalDiff, PinnedSimulatorDigests) {
  check_pinned(fat_tree(4), 91, 0xa61255a157dc8e35ULL, "fat_tree_k4");
  check_pinned(fat_tree(8), 92, 0x4ba99e586dd65bdaULL, "fat_tree_k8");
  check_pinned(two_stage_fabric(20170821), 93, 0xeed3b5e68ea0470dULL,
               "two_stage");
}

// ---- thread-count invariance of the emitted metrics -------------------------

// The same batch of failure-injected fluid runs fanned over 1 / 2 / 8
// worker threads must export byte-identical metrics JSON — the
// fluid.realloc.* counters are commutative aggregations like every other
// deterministic metric.
TEST(FluidIncrementalDiff, MetricsThreadInvariance) {
  const Graph g = fat_tree(4);
  const auto run_cells = [&](std::size_t threads) {
    obs::MetricsRegistry reg;
    exec::ThreadPool pool{threads};
    exec::parallel_for(&pool, 6, [&](std::size_t cell) {
      Rng rng{mix64(4242, cell)};
      const std::uint32_t servers =
          static_cast<std::uint32_t>(server_nodes(g).size());
      Workload flows = permutation_traffic(servers, rng);
      for (std::size_t i = 0; i < flows.size(); ++i) {
        flows[i].bytes = 10e6 + 1e6 * static_cast<double>(i % 5);
        flows[i].start_s = 0.005 * static_cast<double>(i % 9);
      }
      std::vector<LinkId> fabric;
      for (std::uint32_t i = 0; i < g.link_count(); ++i) {
        const Link& l = g.link(LinkId{i});
        if (is_switch(g.node(l.a).role) && is_switch(g.node(l.b).role)) {
          fabric.push_back(LinkId{i});
        }
      }
      const LinkId a = fabric[rng.next_below(fabric.size())];
      FailureSchedule sched;
      sched.fail_at(0.03, FailureSet{{a}, {}});
      sched.recover_at(0.11, FailureSet{{a}, {}});
      run_sim(g, flows, sched, 0.02, &reg);
    });
    return reg.to_json();
  };
  const std::string one = run_cells(1);
  EXPECT_EQ(one, run_cells(2));
  EXPECT_EQ(one, run_cells(8));
  // The incremental path actually engaged: its counters are present.
  EXPECT_NE(one.find("fluid.realloc.links_touched"), std::string::npos);
  EXPECT_NE(one.find("fluid.realloc.flows_touched"), std::string::npos);
}

}  // namespace
}  // namespace flattree
