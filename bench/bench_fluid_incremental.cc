// Incremental max-min allocator vs from-scratch solve_max_min_fill, plus
// warm PathCache rebinds vs cold recompute — the two delta disciplines of
// the fluid hot path (src/sim/fluid_incremental.h, PathCache::rebind_warm).
//
// Each fluid cell drives one deterministic event stream (k x event mix)
// through both allocators in lockstep, asserting bit-for-bit rate equality
// after every event (the bench aborts on divergence — it is its own
// differential oracle), and reports the incremental path's touch counts:
// links_touched / directed edges is the O(affected) contract, pinned by the
// --baseline gate so a regression to O(network) re-solves fails CI even
// when wall-clock noise hides it.
//
// Event mixes:
//   churn    sparse flow arrival/departure on reserved quiet pairs over a
//            steady permutation background — the incremental sweet spot
//            (events join existing bottleneck levels; no fallback).
//   failure  fabric link fail/recover flaps — adversarial: a zeroed
//            capacity undercuts every cached level, so most events fall
//            back to a (trace-recording) full re-solve; the win here is
//            only the avoided per-event instance rebuild.
//   mixed    3:1 interleave of the two.
//
// Output discipline: stdout and BENCH_fluid_incremental.json are a pure
// function of --seed; perf (wall, events/sec, speedup) goes to stderr.
//
// Columns: full_resolves counts the events re-solved from level 0,
// fallbacks every event re-solved from some divergence level (0 included).
//
// Flags beyond the shared runner set:
//   --quick           k = 4 cells plus the k = 8 churn gate cell (CI
//                     determinism + perf-smoke gates)
//   --baseline PATH   assert k8/churn incremental events/sec >= baseline/2
//                     (best of 3), k8/churn links_touched fraction <= the
//                     pinned max, and k8/churn fallbacks == the pinned
//                     count (both exact — they are deterministic).
//                     tests/golden/fluid_incremental_baseline.json
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "bench/util.h"
#include "lp/mcf.h"
#include "net/capacity.h"
#include "net/failures.h"
#include "net/rng.h"
#include "routing/ksp.h"
#include "sim/fluid_incremental.h"
#include "topo/clos.h"

namespace flattree {
namespace {

struct BenchOptions {
  bool quick{false};
  std::string baseline_path;
};

using PathEdges = std::vector<std::vector<std::uint32_t>>;

enum class Op : std::uint8_t { kAdd, kRemove, kFail, kRecover };

struct Event {
  Op op{Op::kAdd};
  std::uint32_t slot{0};       // kAdd/kRemove
  std::uint32_t edge{0};       // kFail/kRecover (undirected)
  const PathEdges* paths{nullptr};
};

struct CellSpec {
  std::uint32_t k{4};
  const char* mix{"churn"};
};

struct CellResult {
  std::uint32_t k{0};
  std::string mix;
  std::size_t events{0};
  std::size_t directed_edges{0};
  std::uint64_t links_touched{0};
  std::uint64_t flows_touched{0};
  std::uint64_t full_resolves{0};
  std::uint64_t fallbacks{0};
  double inc_wall_s{0.0};
  double scratch_wall_s{0.0};
  bool exact{true};
  [[nodiscard]] double links_frac() const {
    return static_cast<double>(links_touched) /
           (static_cast<double>(events) *
            static_cast<double>(directed_edges));
  }
};

// The deterministic world a cell drives: a warm background allocation plus
// a pre-generated event stream with resolved path sets.
struct CellWorld {
  std::vector<double> base_capacity;       // directed
  std::size_t slots{0};
  std::vector<std::pair<std::uint32_t, const PathEdges*>> background;
  std::vector<Event> events;
  std::vector<std::unique_ptr<PathEdges>> owned;
};

const PathEdges* resolve(CellWorld& w, const LogicalTopology& topo,
                         PathCache& cache, NodeId src, NodeId dst) {
  auto pe = std::make_unique<PathEdges>();
  for (const Path& p : cache.server_paths(src, dst)) {
    pe->push_back(topo.path_edges(p));
  }
  w.owned.push_back(std::move(pe));
  return w.owned.back().get();
}

CellWorld build_world(const Graph& g, const CellSpec& spec,
                      std::uint64_t seed, std::size_t num_events) {
  const LogicalTopology topo{g};
  PathCache cache{g, 4};
  CellWorld w;
  w.base_capacity.resize(topo.directed_count());
  for (std::size_t e = 0; e < w.base_capacity.size(); ++e) {
    w.base_capacity[e] = topo.capacity(static_cast<std::uint32_t>(e));
  }

  std::vector<NodeId> servers;
  for (std::uint32_t i = 0; i < g.node_count(); ++i) {
    if (!is_switch(g.node(NodeId{i}).role)) servers.push_back(NodeId{i});
  }
  // Last 8 servers are reserved churn endpoints (quiet access edges);
  // the rest carry a steady random permutation background.
  constexpr std::size_t kChurnServers = 8;
  const std::size_t bg_n = servers.size() - kChurnServers;
  Rng rng{seed};
  std::vector<std::uint32_t> perm(bg_n);
  for (std::size_t i = 0; i < bg_n; ++i) {
    perm[i] = static_cast<std::uint32_t>(i);
  }
  shuffle(perm, rng);
  std::uint32_t slot = 0;
  for (std::size_t i = 0; i < bg_n; ++i) {
    if (perm[i] == i) continue;
    w.background.emplace_back(
        slot++, resolve(w, topo, cache, servers[i], servers[perm[i]]));
  }
  // Churn flows: disjoint pairs of the reserved servers. They are part of
  // the initial allocation (the event stream starts by removing one), so
  // they also join the background list.
  std::vector<std::pair<std::uint32_t, const PathEdges*>> churn;
  for (std::size_t i = 0; i < kChurnServers / 2; ++i) {
    // Pair i with i + 4: the reserved block spans several edge switches, so
    // these are multi-hop, multi-path flows, not same-switch shortcuts.
    churn.emplace_back(
        slot++, resolve(w, topo, cache, servers[bg_n + i],
                        servers[bg_n + i + kChurnServers / 2]));
    w.background.push_back(churn.back());
  }
  w.slots = slot;

  // Flappable fabric edges: undirected logical edges between switches.
  std::vector<std::uint32_t> fabric;
  for (std::uint32_t i = 0; i < g.link_count(); ++i) {
    const Link& l = g.link(LinkId{i});
    if (is_switch(g.node(l.a).role) && is_switch(g.node(l.b).role)) {
      fabric.push_back(*topo.edge_between(l.a, l.b));
    }
  }

  const bool churn_mix = std::strcmp(spec.mix, "churn") == 0;
  const bool failure_mix = std::strcmp(spec.mix, "failure") == 0;
  std::size_t ci = 0;   // churn cursor (even = remove, odd = re-add)
  std::size_t fi = 0;   // fabric cursor (even = fail, odd = recover)
  for (std::size_t ev = 0; ev < num_events; ++ev) {
    const bool do_churn = churn_mix || (!failure_mix && ev % 4 != 3);
    Event e;
    if (do_churn) {
      const auto& [cslot, paths] = churn[(ci / 2) % churn.size()];
      e.op = (ci % 2 == 0) ? Op::kRemove : Op::kAdd;
      e.slot = cslot;
      e.paths = paths;
      ++ci;
    } else {
      e.op = (fi % 2 == 0) ? Op::kFail : Op::kRecover;
      e.edge = fabric[(fi / 2 * 7) % fabric.size()];
      ++fi;
    }
    w.events.push_back(e);
  }
  return w;
}

// From-scratch oracle state: capacities + present flows, solved by
// rebuilding an McfInstance per event exactly as the legacy fluid
// reallocate() does.
struct ScratchState {
  std::vector<double> capacity;
  std::vector<const PathEdges*> flows;  // slot -> paths (null = absent)

  std::vector<std::pair<std::uint32_t, double>> solve() const {
    McfInstance instance;
    instance.capacity = capacity;
    std::vector<std::uint32_t> order;
    for (std::uint32_t s = 0; s < flows.size(); ++s) {
      if (flows[s] == nullptr) continue;
      McfCommodity commodity;
      commodity.paths = *flows[s];
      instance.commodities.push_back(std::move(commodity));
      order.push_back(s);
    }
    std::vector<std::pair<std::uint32_t, double>> out;
    if (order.empty()) return out;
    const std::vector<double> solved = solve_max_min_fill(instance).flow_rate;
    out.reserve(order.size());
    for (std::size_t i = 0; i < order.size(); ++i) {
      out.emplace_back(order[i], solved[i]);
    }
    return out;
  }
};

bool bits_equal(double a, double b) {
  std::uint64_t x = 0;
  std::uint64_t y = 0;
  std::memcpy(&x, &a, sizeof(x));
  std::memcpy(&y, &b, sizeof(y));
  return x == y;
}

CellResult run_cell(const Graph& g, const CellSpec& spec,
                    std::uint64_t seed, std::size_t num_events) {
  CellWorld w = build_world(g, spec, seed, num_events);
  CellResult r;
  r.k = spec.k;
  r.mix = spec.mix;
  r.events = w.events.size();
  r.directed_edges = w.base_capacity.size();

  IncrementalMaxMinSolver inc;
  inc.reset(w.base_capacity, w.slots);
  ScratchState scratch;
  scratch.capacity = w.base_capacity;
  scratch.flows.assign(w.slots, nullptr);
  for (const auto& [slot, paths] : w.background) {
    inc.add_flow(slot, *paths);
    scratch.flows[slot] = paths;
  }
  inc.solve();  // warm allocation; not timed, not an event

  using Clock = std::chrono::steady_clock;
  for (const Event& e : w.events) {
    switch (e.op) {
      case Op::kAdd:
        inc.add_flow(e.slot, *e.paths);
        scratch.flows[e.slot] = e.paths;
        break;
      case Op::kRemove:
        inc.remove_flow(e.slot);
        scratch.flows[e.slot] = nullptr;
        break;
      case Op::kFail:
      case Op::kRecover: {
        const bool fail = e.op == Op::kFail;
        for (const std::uint32_t d : {2 * e.edge, 2 * e.edge + 1}) {
          const double v = fail ? 0.0 : w.base_capacity[d];
          inc.set_capacity(d, v);
          scratch.capacity[d] = v;
        }
        break;
      }
    }
    const auto t0 = Clock::now();
    inc.solve();
    const auto t1 = Clock::now();
    const auto expect = scratch.solve();
    const auto t2 = Clock::now();
    r.inc_wall_s += std::chrono::duration<double>(t1 - t0).count();
    r.scratch_wall_s += std::chrono::duration<double>(t2 - t1).count();
    const IncrementalSolveStats& st = inc.last_stats();
    r.links_touched += st.links_touched;
    r.flows_touched += st.flows_touched;
    if (st.full_resolve) ++r.full_resolves;
    if (st.fallback) ++r.fallbacks;
    for (const auto& [slot, rate] : expect) {
      if (!bits_equal(inc.flow_rate(slot), rate)) r.exact = false;
    }
  }
  return r;
}

// Warm PathCache rebinds vs cold all-pair recompute under fabric flaps —
// the routing half of the delta discipline. Exactness is asserted inline
// (warm path sets must equal cold per pair); wall times go to stderr.
struct KspCellResult {
  std::size_t pairs{0};
  std::size_t flaps{0};
  std::uint64_t evicted{0};
  double warm_wall_s{0.0};
  double cold_wall_s{0.0};
  bool exact{true};
};

KspCellResult run_ksp_cell(const Graph& base, std::uint64_t seed) {
  std::vector<NodeId> switches;
  for (std::uint32_t i = 0; i < base.node_count(); ++i) {
    if (is_switch(base.node(NodeId{i}).role)) switches.push_back(NodeId{i});
  }
  std::vector<std::pair<NodeId, NodeId>> pairs;
  for (const NodeId a : switches) {
    for (const NodeId b : switches) {
      if (a != b) pairs.emplace_back(a, b);
    }
  }
  std::vector<LinkId> fabric;
  for (std::uint32_t i = 0; i < base.link_count(); ++i) {
    const Link& l = base.link(LinkId{i});
    if (is_switch(base.node(l.a).role) && is_switch(base.node(l.b).role)) {
      fabric.push_back(LinkId{i});
    }
  }

  KspCellResult r;
  r.pairs = pairs.size();
  r.flaps = 12;
  PathCache warm{base, 4};
  for (const auto& [a, b] : pairs) (void)warm.switch_paths(a, b);

  Rng rng{seed};
  std::vector<bool> down(base.link_count(), false);
  std::vector<std::unique_ptr<Graph>> alive;
  using Clock = std::chrono::steady_clock;
  for (std::size_t step = 0; step < r.flaps; ++step) {
    const LinkId flip = fabric[rng.next_below(fabric.size())];
    down[flip.index()] = !down[flip.index()];
    std::vector<LinkId> removed;
    for (std::uint32_t i = 0; i < base.link_count(); ++i) {
      if (down[i]) removed.push_back(LinkId{i});
    }
    alive.push_back(std::make_unique<Graph>(remove_links(base, removed)));
    const Graph& g = *alive.back();

    const auto t0 = Clock::now();
    r.evicted += warm.rebind_warm(g);
    for (const auto& [a, b] : pairs) (void)warm.switch_paths(a, b);
    const auto t1 = Clock::now();
    PathCache cold{g, 4};
    for (const auto& [a, b] : pairs) (void)cold.switch_paths(a, b);
    const auto t2 = Clock::now();
    r.warm_wall_s += std::chrono::duration<double>(t1 - t0).count();
    r.cold_wall_s += std::chrono::duration<double>(t2 - t1).count();
    for (const auto& [a, b] : pairs) {
      if (warm.switch_paths(a, b) != cold.switch_paths(a, b)) {
        r.exact = false;
      }
    }
  }
  return r;
}

// Flat baseline JSON: {"k8_churn_events_per_sec": N,
//                      "k8_churn_links_frac_max": F,
//                      "k8_churn_fallbacks": C}
double read_baseline_field(const std::string& text, const char* name) {
  const std::string key = std::string{"\""} + name + "\"";
  const std::size_t at = text.find(key);
  if (at == std::string::npos) {
    std::fprintf(stderr, "fluid_incremental: baseline lacks %s\n", name);
    std::exit(2);
  }
  const std::size_t colon = text.find(':', at);
  return std::strtod(text.c_str() + colon + 1, nullptr);
}

int run(const BenchOptions& bench, exec::RunnerOptions options) {
  exec::ExperimentRunner runner{std::move(options)};

  // k=8 churn is always present: it is the gate cell (--baseline), large
  // enough for the links_frac << 1 contract to have teeth.
  std::vector<CellSpec> specs = {
      {4, "churn"}, {4, "failure"}, {4, "mixed"}, {8, "churn"}};
  if (!bench.quick) {
    specs.push_back({8, "failure"});
    specs.push_back({8, "mixed"});
  }

  bench::print_header(
      "Incremental max-min reallocation vs from-scratch progressive filling",
      "Event streams (sparse churn / fabric flaps / mixed) solved by both\n"
      "allocators in lockstep; rates asserted bit-identical per event.\n"
      "links_frac = links touched per event / directed edges (O(affected)\n"
      "contract). Wall-clock and speedup on stderr; stdout is\n"
      "seed-deterministic.");
  bench::print_row({"k", "mix", "events", "full_resolves", "fallbacks",
                    "links/event", "links_frac", "exact"},
                   14);

  const auto cell_events = [&](const CellSpec& s) {
    return static_cast<std::size_t>(s.k == 4 ? 1200 : 400);
  };
  const std::vector<CellResult> results = runner.timed_stage(
      "fluid_incremental cells", [&] {
        return exec::parallel_map(
            runner.pool(), specs.size(), [&](std::size_t i) {
              const CellSpec& spec = specs[i];
              const Graph g = build_clos(ClosParams::fat_tree(spec.k));
              return run_cell(g, spec, mix64(runner.seed(), i),
                              cell_events(spec));
            });
      });

  bool all_exact = true;
  double gate_events_per_sec = 0.0;
  double gate_links_frac = 0.0;
  std::uint64_t gate_fallbacks = 0;
  if (obs::MetricsRegistry* reg = runner.obs().metrics()) {
    // Mirror the fluid simulator's touch counters so the obs-determinism
    // gate pins them across thread counts.
    std::uint64_t links = 0;
    std::uint64_t flows = 0;
    std::uint64_t full = 0;
    std::uint64_t fallbacks = 0;
    std::uint64_t events = 0;
    for (const CellResult& r : results) {
      links += r.links_touched;
      flows += r.flows_touched;
      full += r.full_resolves;
      fallbacks += r.fallbacks;
      events += r.events;
    }
    reg->counter("fluid.realloc.links_touched").add(links);
    reg->counter("fluid.realloc.flows_touched").add(flows);
    reg->counter("fluid.realloc.full_resolves").add(full);
    reg->counter("fluid.realloc.fallbacks").add(fallbacks);
    reg->counter("bench.fluid_inc.events").add(events);
  }
  for (const CellResult& r : results) {
    const double links_per_event =
        static_cast<double>(r.links_touched) /
        static_cast<double>(r.events);
    bench::print_row(
        {std::to_string(r.k), r.mix, std::to_string(r.events),
         std::to_string(r.full_resolves), std::to_string(r.fallbacks),
         bench::fmt(links_per_event, 1),
         bench::fmt(r.links_frac(), 4), r.exact ? "yes" : "NO"},
        14);
    std::fprintf(stderr,
                 "[perf] k=%u %s inc=%.3fs (%.3e ev/s) scratch=%.3fs "
                 "(%.3e ev/s) speedup=%.2fx\n",
                 r.k, r.mix.c_str(), r.inc_wall_s,
                 static_cast<double>(r.events) / r.inc_wall_s,
                 r.scratch_wall_s,
                 static_cast<double>(r.events) / r.scratch_wall_s,
                 r.scratch_wall_s / r.inc_wall_s);
    all_exact = all_exact && r.exact;
    if (r.k == 8 && r.mix == "churn") {
      gate_events_per_sec =
          static_cast<double>(r.events) / r.inc_wall_s;
      gate_links_frac = r.links_frac();
      gate_fallbacks = r.fallbacks;
    }
    exec::ResultRow row;
    row.set("k", r.k)
        .set("mix", r.mix)
        .set("events", r.events)
        .set("directed_edges", r.directed_edges)
        .set("full_resolves", r.full_resolves)
        .set("fallbacks", r.fallbacks)
        .set("links_touched", r.links_touched)
        .set("flows_touched", r.flows_touched)
        .set("links_frac", r.links_frac())
        .set("exact", r.exact ? 1 : 0);
    runner.add_row(std::move(row));
  }

  // Routing half: warm rebinds against cold recompute.
  const KspCellResult ksp = runner.timed_stage(
      "ksp warm rebinds",
      [&] {
        return run_ksp_cell(build_clos(ClosParams::fat_tree(4)),
                            mix64(runner.seed(), 97));
      });
  bench::print_row({"4", "ksp_flaps", std::to_string(ksp.flaps),
                    std::to_string(ksp.evicted), "-",
                    std::to_string(ksp.pairs) + " pairs",
                    bench::fmt(static_cast<double>(ksp.evicted) /
                                   (static_cast<double>(ksp.flaps) *
                                    static_cast<double>(ksp.pairs)),
                               4),
                    ksp.exact ? "yes" : "NO"},
                   14);
  std::fprintf(stderr,
               "[perf] ksp warm=%.3fs cold=%.3fs speedup=%.2fx "
               "(evicted %llu of %zu pair-steps)\n",
               ksp.warm_wall_s, ksp.cold_wall_s,
               ksp.cold_wall_s / ksp.warm_wall_s,
               static_cast<unsigned long long>(ksp.evicted),
               ksp.flaps * ksp.pairs);
  all_exact = all_exact && ksp.exact;
  if (obs::MetricsRegistry* reg = runner.obs().metrics()) {
    reg->counter("bench.fluid_inc.ksp_evicted").add(ksp.evicted);
  }
  {
    exec::ResultRow row;
    row.set("k", 4)
        .set("mix", "ksp_flaps")
        .set("events", ksp.flaps)
        .set("pairs", ksp.pairs)
        .set("evicted", ksp.evicted)
        .set("exact", ksp.exact ? 1 : 0);
    runner.add_row(std::move(row));
  }

  if (!all_exact) {
    std::fprintf(stderr,
                 "fluid_incremental: EXACTNESS FAILURE — incremental "
                 "diverged from scratch\n");
    return 1;
  }

  if (!bench.baseline_path.empty()) {
    std::ifstream in{bench.baseline_path};
    if (!in) {
      std::fprintf(stderr, "fluid_incremental: cannot open baseline %s\n",
                   bench.baseline_path.c_str());
      return 2;
    }
    std::stringstream buffer;
    buffer << in.rdbuf();
    const std::string text = buffer.str();
    const double base_eps =
        read_baseline_field(text, "k8_churn_events_per_sec");
    const double frac_max =
        read_baseline_field(text, "k8_churn_links_frac_max");
    const auto fallbacks_pinned = static_cast<std::uint64_t>(
        read_baseline_field(text, "k8_churn_fallbacks"));
    // Wall-clock half: best of three re-runs, 2x slack (catches
    // order-of-magnitude regressions, not machine noise). The gate cell's
    // spec index is 3 in both quick and full mode, so the re-run replays
    // the identical stream.
    double best = gate_events_per_sec;
    for (int rep = 0; rep < 3; ++rep) {
      const Graph g = build_clos(ClosParams::fat_tree(8));
      const CellResult again =
          run_cell(g, CellSpec{8, "churn"}, mix64(runner.seed(), 3), 400);
      const double eps =
          static_cast<double>(again.events) / again.inc_wall_s;
      if (eps > best) best = eps;
    }
    if (best < base_eps / 2) {
      std::fprintf(stderr,
                   "fluid_incremental: PERF REGRESSION churn k=8 %.3e "
                   "events/sec < baseline %.3e / 2\n",
                   best, base_eps);
      return 1;
    }
    // Touch half: exact (the fraction is a pure function of the seed). A
    // regression to O(network) re-solves trips this even if the machine
    // is fast enough to hide it.
    if (gate_links_frac > frac_max) {
      std::fprintf(stderr,
                   "fluid_incremental: TOUCH REGRESSION churn k=8 "
                   "links_frac %.4f > pinned max %.4f\n",
                   gate_links_frac, frac_max);
      return 1;
    }
    // Fallback half: exact. The count is a property of the event stream
    // and the divergence rules, not of how a fallback is carried out, so
    // a change here means the replay lost (or gained) reuse.
    if (gate_fallbacks != fallbacks_pinned) {
      std::fprintf(stderr,
                   "fluid_incremental: FALLBACK COUNT churn k=8 %llu != "
                   "pinned %llu\n",
                   static_cast<unsigned long long>(gate_fallbacks),
                   static_cast<unsigned long long>(fallbacks_pinned));
      return 1;
    }
    std::fprintf(stderr,
                 "[perf] churn k=8 %.3e events/sec >= baseline %.3e / 2, "
                 "links_frac %.4f <= %.4f, fallbacks %llu: ok\n",
                 best, base_eps, gate_links_frac, frac_max,
                 static_cast<unsigned long long>(gate_fallbacks));
  }
  return runner.write() ? 0 : 1;
}

}  // namespace
}  // namespace flattree

int main(int argc, char** argv) {
  flattree::BenchOptions bench;
  std::vector<char*> rest;
  rest.push_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      bench.quick = true;
    } else if (std::strcmp(argv[i], "--baseline") == 0 && i + 1 < argc) {
      bench.baseline_path = argv[++i];
    } else {
      rest.push_back(argv[i]);
    }
  }
  const auto options = flattree::bench::parse_runner_options(
      "fluid_incremental", static_cast<int>(rest.size()), rest.data(),
      20170821);
  return flattree::run(bench, options);
}
