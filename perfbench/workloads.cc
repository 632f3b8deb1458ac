#include "workloads.h"

#include <algorithm>
#include <cstring>
#include <map>
#include <memory>
#include <utility>

#include "control/controller.h"
#include "control/conversion_exec.h"
#include "core/flat_tree.h"
#include "net/failures.h"
#include "net/rng.h"
#include "sim/fluid.h"
#include "sim/packet.h"
#include "topo/params.h"
#include "traffic/patterns.h"
#include "traffic/traces.h"

namespace perfbench {

using namespace flattree;

Probe::Probe(bool traced)
    : spans_{traced},
      ksp_computed_{&metrics_.counter("routing.ksp.pairs_computed")} {}

namespace {

// FNV-1a over the bit patterns of the simulated results.
class Digest {
 public:
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      hash_ = (hash_ ^ ((v >> (8 * i)) & 0xffu)) * 0x100000001b3ULL;
    }
  }
  void add(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    add(bits);
  }
  void add(const std::vector<FluidFlowResult>& results) {
    for (const FluidFlowResult& r : results) {
      add(static_cast<std::uint64_t>(r.started) << 1 |
          static_cast<std::uint64_t>(r.completed));
      add(r.start_s);
      add(r.finish_s);
    }
  }
  [[nodiscard]] std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_{0xcbf29ce484222325ULL};
};

// One layer call, recorded as a span named "<layer>.<call>".
template <typename Fn>
decltype(auto) timed(Probe& probe, const char* name, Fn&& fn) {
  const Scope scope{probe.spans(), name};
  return fn();
}

// A path lookup, recorded as a routing span that also counts the Yen's runs
// it triggered.
template <typename Fn>
std::vector<Path> routed(Probe& probe, const char* name, Fn&& fn) {
  if (!probe.traced()) return fn();
  const std::uint64_t before = probe.ksp_pairs_computed();
  const Scope scope{probe.spans(), name};
  std::vector<Path> paths = fn();
  probe.routed_pairs += probe.ksp_pairs_computed() - before;
  return paths;
}

// The provider a simulator calls per flow: a lazily filled path cache.
PathProvider cache_provider(Probe& probe, PathCache& cache) {
  return [&probe, &cache](NodeId src, NodeId dst, std::uint32_t) {
    return routed(probe, "routing.path_provider",
                  [&] { return cache.server_paths(src, dst); });
  };
}

// How the benchmark seed varies a workload's inputs: a seeded relabeling of
// servers that keeps rack and Pod membership (Pods permute, racks permute
// within their Pod, servers within their rack). Traffic placed through it
// keeps its locality mix and its load, so the work per repetition stays
// close across seeds while routes and contention change.
std::vector<std::uint32_t> locality_preserving_shuffle(const ClosParams& clos,
                                                       std::uint64_t seed) {
  const auto order = [](std::uint32_t n, Rng& rng) {
    std::vector<std::uint32_t> v(n);
    for (std::uint32_t i = 0; i < n; ++i) v[i] = i;
    shuffle(v, rng);
    return v;
  };
  Rng rng{seed};
  const std::uint32_t racks = clos.edge_per_pod;
  const std::uint32_t per_rack = clos.servers_per_edge;
  const std::vector<std::uint32_t> pods = order(clos.pods, rng);
  std::vector<std::uint32_t> out(clos.total_servers());
  for (std::uint32_t pod = 0; pod < clos.pods; ++pod) {
    const std::vector<std::uint32_t> rack_order = order(racks, rng);
    for (std::uint32_t rack = 0; rack < racks; ++rack) {
      const std::vector<std::uint32_t> slots = order(per_rack, rng);
      for (std::uint32_t slot = 0; slot < per_rack; ++slot) {
        out[(pod * racks + rack) * per_rack + slot] =
            (pods[pod] * racks + rack_order[rack]) * per_rack + slots[slot];
      }
    }
  }
  return out;
}

Workload relabel(Workload flows, const std::vector<std::uint32_t>& servers) {
  for (Flow& f : flows) {
    f.src = servers[f.src];
    f.dst = servers[f.dst];
  }
  return flows;
}

// Completed flows and their delivered packets, plus the invariant that every
// finite flow completes by the horizon.
void account_fluid(const char* run, const Workload& flows,
                   const std::vector<FluidFlowResult>& results,
                   RepOutcome& out) {
  std::size_t incomplete = 0;
  for (std::size_t i = 0; i < results.size(); ++i) {
    if (!results[i].completed) {
      ++incomplete;
      continue;
    }
    out.sim_flows += 1;
    out.sim_pkts += flows[i].bytes / kMtuBytes;
  }
  if (incomplete > 0 || results.size() != flows.size()) {
    out.violations.push_back(std::string{run} + ": " +
                             std::to_string(incomplete) + " of " +
                             std::to_string(flows.size()) +
                             " flows incomplete at the horizon");
  }
}

// Set-up is timed over several constructions per repetition; the last one
// runs. A workload's constructor builds its topology, traffic and
// simulators; run() makes every layer call and checks the results.
constexpr int kSetupPasses = 5;

template <typename W>
RepOutcome run_rep(std::uint64_t seed, Probe& probe) {
  std::vector<double> setup_s;
  for (int pass = 1; pass < kSetupPasses; ++pass) {
    const Clock::time_point start = Clock::now();
    const W discarded{seed, probe};
    setup_s.push_back(seconds_between(start, Clock::now()));
  }
  const Clock::time_point start = Clock::now();
  W workload{seed, probe};
  setup_s.push_back(seconds_between(start, Clock::now()));
  RepOutcome out = workload.run(probe);
  out.setup_s = std::move(setup_s);
  return out;
}

// ---------------------------------------------------------------------------
// packet_convert: the Figure-10 pipeline on the packet simulator.

// Timeline (simulated seconds): Clos until the first conversion, global
// until the second, local until the end; goodput is sampled per bin. Each
// conversion stalls the fabric for its ~0.8 s Table-3 blackout, so the
// global and local segments carry traffic for their last ~0.45 s.
constexpr double kPacketBinS = 0.25;
constexpr int kPacketToGlobalBin = 2;  // convert at 0.25 s
constexpr int kPacketToLocalBin = 7;   // convert at 1.5 s
constexpr int kPacketBins = 12;        // run to 3.0 s

// The 20-switch / 24-server testbed on 1 Gb/s links, k = 4 in every mode.
Controller testbed_controller(Probe& probe) {
  FlatTreeParams params;
  params.clos = ClosParams::testbed();
  params.clos.link_bps = 1e9;
  params.six_port_per_column = 1;
  params.four_port_per_column = 1;
  ControllerOptions options;
  options.k_global = options.k_local = options.k_clos = 4;
  options.sink = probe.sink();
  return Controller{FlatTree{params}, options};
}

class PacketConvert {
 public:
  PacketConvert(std::uint64_t seed, Probe& probe)
      : ctl_{testbed_controller(probe)} {
    // Figure 10's iPerf pattern, placed by the seed: every server runs one
    // persistent flow to its same-index counterpart in each other Pod.
    const ClosParams& clos = ctl_.tree().clos();
    const std::uint32_t servers = clos.total_servers();
    const std::uint32_t per_pod = servers / clos.pods;
    const std::vector<std::uint32_t> placement =
        locality_preserving_shuffle(clos, seed);
    for (std::uint32_t src = 0; src < servers; ++src) {
      for (std::uint32_t stride = 1; stride < clos.pods; ++stride) {
        pairs_.emplace_back(placement[src],
                            placement[(src + stride * per_pod) % servers]);
      }
    }
    sim_.attach_obs(probe.sink());
  }

  RepOutcome run(Probe& probe) {
    RepOutcome out;
    const Clock::time_point run_start = Clock::now();
    const auto compile = [&](PodMode mode) {
      return timed(probe, "control.compile",
                   [&] { return ctl_.compile_uniform(mode); });
    };
    const CompiledMode clos_mode = compile(PodMode::kClos);
    const CompiledMode global_mode = compile(PodMode::kGlobal);
    const CompiledMode local_mode = compile(PodMode::kLocal);

    timed(probe, "packet.set_network",
          [&] { sim_.set_network(clos_mode.graph()); });
    for (const auto& [src, dst] : pairs_) {
      std::vector<Path> paths = routed(probe, "routing.server_paths", [&] {
        return clos_mode.paths().server_paths(NodeId{src}, NodeId{dst});
      });
      timed(probe, "packet.add_flow",
            [&] { sim_.add_flow(src, dst, 0, 0.0, std::move(paths)); });
    }
    const auto convert = [&](const CompiledMode& from,
                             const CompiledMode& to) {
      const ConversionReport report =
          timed(probe, "control.plan_conversion",
                [&] { return ctl_.plan_conversion(from, to); });
      timed(probe, "packet.apply_conversion", [&] {
        sim_.apply_conversion(
            to.graph(),
            [&](std::uint32_t flow) {
              return routed(probe, "routing.paths_for_flow", [&] {
                return to.paths().server_paths(NodeId{pairs_[flow].first},
                                               NodeId{pairs_[flow].second});
              });
            },
            report.total_s());
      });
    };

    std::vector<std::uint64_t> goodput_bytes;
    std::uint64_t last_bytes = 0;
    for (int bin = 1; bin <= kPacketBins; ++bin) {
      if (bin == kPacketToGlobalBin) convert(clos_mode, global_mode);
      if (bin == kPacketToLocalBin) convert(global_mode, local_mode);
      timed(probe, "packet.run_until",
            [&] { sim_.run_until(bin * kPacketBinS); });
      const std::uint64_t bytes = sim_.total_bytes_acked();
      goodput_bytes.push_back(bytes - last_bytes);
      last_bytes = bytes;
    }
    out.run_s = seconds_between(run_start, Clock::now());

    Digest digest;
    for (const std::uint64_t bytes : goodput_bytes) digest.add(bytes);
    digest.add(sim_.packets_dropped());
    out.digest = digest.value();
    out.sim_pkts = static_cast<double>(last_bytes) / kMtuBytes;
    out.sim_flows = static_cast<double>(pairs_.size());
    // Each mode carries traffic again by the end of its segment.
    for (const int end_bin : {kPacketToGlobalBin - 1, kPacketToLocalBin - 1,
                              kPacketBins}) {
      if (goodput_bytes[static_cast<std::size_t>(end_bin - 1)] == 0) {
        out.violations.push_back("packet_convert: no goodput in bin " +
                                 std::to_string(end_bin));
      }
    }
    for (std::uint32_t flow = 0; flow < sim_.flow_count(); ++flow) {
      if (sim_.flow_bytes_acked(flow) == 0) {
        out.violations.push_back("packet_convert: flow " +
                                 std::to_string(flow) + " delivered nothing");
      }
    }
    return out;
  }

 private:
  const Controller ctl_;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> pairs_;
  PacketSim sim_;
};

// ---------------------------------------------------------------------------
// fluid_trace: the Figure-8 pipeline on the fluid simulator.

class FluidTrace {
 public:
  // Quarter-scale topo-1: 8 Pods x (4 + 4) switches, 512 servers, 4:1 edge
  // oversubscription, in global mode, k = 8.
  FluidTrace(std::uint64_t seed, Probe& probe)
      : clos_{8, 4, 4, 4, 16, 4, 16, 8},
        graph_{FlatTree{FlatTreeParams::defaults_for(clos_)}.realize_uniform(
            PodMode::kGlobal)} {
    // Figure 8's traces (the library's default trace seed), placed by the
    // benchmark seed. Re-drawing arrivals and Pareto sizes per seed would
    // move the work by about 20% between seeds.
    const std::vector<std::uint32_t> placement =
        locality_preserving_shuffle(clos_, seed);
    for (TraceParams params :
         {TraceParams::hadoop1(), TraceParams::hadoop2(), TraceParams::web(),
          TraceParams::cache()}) {
      params.duration_s = 0.3;
      params.flows_per_s = 6000;
      params.mean_flow_bytes = 10e6;
      traces_.push_back(relabel(generate_trace(clos_, params), placement));
    }
    // One cold, lazily filled path cache and simulator per trace.
    FluidOptions options;
    options.max_time_s = 100.0;
    options.sink = probe.sink();
    sims_.reserve(traces_.size());
    for (std::size_t i = 0; i < traces_.size(); ++i) {
      caches_.push_back(std::make_unique<PathCache>(graph_, 8));
      caches_.back()->attach_obs(probe.sink());
      sims_.emplace_back(graph_, cache_provider(probe, *caches_.back()),
                         options);
    }
  }
  FluidTrace(const FluidTrace&) = delete;
  FluidTrace& operator=(const FluidTrace&) = delete;

  RepOutcome run(Probe& probe) {
    RepOutcome out;
    const Clock::time_point run_start = Clock::now();
    std::vector<std::vector<FluidFlowResult>> results;
    for (std::size_t i = 0; i < traces_.size(); ++i) {
      results.push_back(timed(probe, "fluid.run",
                              [&] { return sims_[i].run(traces_[i]); }));
    }
    out.run_s = seconds_between(run_start, Clock::now());

    Digest digest;
    for (std::size_t i = 0; i < traces_.size(); ++i) {
      digest.add(results[i]);
      account_fluid("fluid_trace", traces_[i], results[i], out);
    }
    out.digest = digest.value();
    return out;
  }

 private:
  const ClosParams clos_;
  const Graph graph_;
  std::vector<Workload> traces_;
  std::vector<std::unique_ptr<PathCache>> caches_;
  std::vector<FluidSimulator> sims_;
};

// ---------------------------------------------------------------------------
// repair_storm: failure repair, a staged conversion under a link-flap storm,
// and the conversion's fluid replay, on the 256-server fabric in global mode.

// Up to `want` distinct fabric links that the installed routes of `pairs`
// cross, in route order: flapping one hits live traffic.
std::vector<LinkId> route_fabric_links(
    Probe& probe, const CompiledMode& mode,
    const std::vector<std::pair<NodeId, NodeId>>& pairs, std::size_t want) {
  const Graph& g = mode.graph();
  std::map<std::pair<std::uint32_t, std::uint32_t>, std::vector<LinkId>>
      links_between;
  for (std::uint32_t i = 0; i < g.link_count(); ++i) {
    const Link& l = g.link(LinkId{i});
    links_between[std::minmax(l.a.value(), l.b.value())].push_back(LinkId{i});
  }
  std::vector<bool> taken(g.link_count(), false);
  std::vector<LinkId> picked;
  for (const auto& [src, dst] : pairs) {
    const std::vector<Path> paths = routed(probe, "routing.server_paths", [&] {
      return mode.paths().server_paths(src, dst);
    });
    for (const Path& path : paths) {
      // The first and last hops are server access links.
      for (std::size_t h = 1; h + 2 < path.size(); ++h) {
        if (picked.size() >= want) return picked;
        for (const LinkId id : links_between[std::minmax(
                 path[h].value(), path[h + 1].value())]) {
          if (taken[id.index()]) continue;
          taken[id.index()] = true;
          picked.push_back(id);
          break;
        }
      }
    }
  }
  return picked;
}

// One flap per link, failures staggered over the first 55% of `window`,
// each outage six gaps long, so every recovery lands by t0 + 0.77 window.
FailureSchedule flap_storm(const std::vector<LinkId>& links, double t0,
                           double window) {
  FailureSchedule storm;
  const double gap = 0.55 * window / static_cast<double>(links.size() + 1);
  for (std::size_t i = 0; i < links.size(); ++i) {
    const double t = t0 + gap * static_cast<double>(i + 1);
    storm.fail_at(t, FailureSet{{links[i]}, {}});
    storm.recover_at(t + 6.0 * gap, FailureSet{{links[i]}, {}});
  }
  return storm;
}

// The executor's terminal contract: once the storm has drained the fabric
// runs bit-for-bit its last checkpoint (configs, links and routes).
bool ends_on_checkpoint(const Controller& ctl, const ExecutionReport& report) {
  if (report.checkpoints.empty() || report.timeline.empty()) return false;
  const CheckpointRecord& terminal = report.checkpoints.back();
  if (report.terminal_configs != terminal.configs) return false;
  const auto link_multiset = [](const Graph& g) {
    std::vector<std::pair<std::uint32_t, std::uint32_t>> out;
    for (std::uint32_t i = 0; i < g.link_count(); ++i) {
      const Link& l = g.link(LinkId{i});
      out.push_back(std::minmax(l.a.value(), l.b.value()));
    }
    std::sort(out.begin(), out.end());
    return out;
  };
  const TimelinePoint& last = report.timeline.back();
  return link_multiset(*last.graph) ==
             link_multiset(ctl.tree().realize(terminal.configs)) &&
         last.routes == terminal.routes;
}

// Storm timing (simulated seconds): the conversion starts at kStormT0S and
// the flaps span kStormWindowS, short enough that every recovery folds
// before the conversion finishes.
constexpr double kStormT0S = 0.1;
constexpr double kStormWindowS = 0.5;
constexpr std::size_t kStormLinks = 12;

// The 256-server failure-recovery fabric: 8 Pods, 2:1 edge
// oversubscription, two 6-port and two 4-port converters per column.
FlatTree storm_fabric() {
  FlatTreeParams params;
  params.clos = ClosParams{8, 4, 4, 4, 8, 4, 16, 8};
  params.six_port_per_column = 2;
  params.four_port_per_column = 2;
  return FlatTree{params};
}

// Rule updates fan out over 64 distributed controllers, so the repair lag
// lands on the FCT time scale. `count_rules` prices full compiles.
ControllerOptions storm_controller_options(Probe& probe, bool count_rules) {
  ControllerOptions options;
  options.count_rules = count_rules;
  options.delay.controllers = 64;
  options.sink = probe.sink();
  return options;
}

class RepairStorm {
 public:
  RepairStorm(std::uint64_t seed, Probe& probe)
      : pricing_{storm_fabric(), storm_controller_options(probe, true)},
        ctl_{storm_fabric(), storm_controller_options(probe, false)},
        executor_{ctl_, exec_options(seed, probe)} {
    const ClosParams& clos = ctl_.tree().clos();
    Rng rng{seed};
    flows_ = permutation_traffic(clos.total_servers(), rng);
    long_flows_ = flows_;
    for (Flow& f : flows_) f.bytes = 200e6;
    for (Flow& f : long_flows_) f.bytes = 2e9;
    for (const Flow& f : flows_) {
      pairs_.emplace_back(NodeId{f.src}, NodeId{f.dst});
    }
    // A seeded whole core column dies at 50 ms and stays down past the run.
    const std::uint32_t width = clos.core_connectors_per_edge();
    const auto column =
        static_cast<std::uint32_t>(rng.next_below(clos.cores / width));
    dead_column_ = core_column_failure(
        ctl_.tree().realize_uniform(PodMode::kGlobal), column * width, width);
    failure_.fail_at(0.05, dead_column_);
    failure_.recover_at(60.0, dead_column_);
    fluid_options_.max_time_s = 100.0;
    fluid_options_.sink = probe.sink();
  }
  RepairStorm(const RepairStorm&) = delete;
  RepairStorm& operator=(const RepairStorm&) = delete;

  RepOutcome run(Probe& probe) {
    RepOutcome out;
    const Clock::time_point run_start = Clock::now();
    // Part 1: compile with rule counting, failure-free warm-up, incremental
    // repair, and the scheduled run that installs the repair one lag late.
    CompiledMode live = timed(probe, "control.compile", [&] {
      return pricing_.compile_uniform(PodMode::kGlobal);
    });
    const std::vector<FluidFlowResult> warm = timed(probe, "fluid.run", [&] {
      FluidSimulator sim{live.graph(), cache_provider(probe, live.paths()),
                         fluid_options_};
      return sim.run(flows_);
    });
    const RepairPlan plan = timed(probe, "control.plan_repair", [&] {
      return ctl_.plan_repair(live, dead_column_);
    });
    const CompiledMode pre = timed(probe, "control.compile", [&] {
      return ctl_.compile_uniform(PodMode::kGlobal);
    });
    // The union graph carries the repair's rescue circuits, inert until the
    // repaired routes use them.
    const Graph sim_graph = graph_union(pre.graph(), *plan.graph);
    const RoutingRefresh refresh = [&](const Graph&) {
      const Scope scope{probe.spans(), "routing.refresh"};
      return cache_provider(probe, live.paths());
    };
    const std::vector<FluidFlowResult> repaired =
        timed(probe, "fluid.run_with_schedule", [&] {
          FluidSimulator sim{sim_graph, cache_provider(probe, pre.paths()),
                             fluid_options_};
          return sim.run_with_schedule(flows_, failure_, plan.total_s(),
                                       refresh);
        });

    // Part 2: a staged global -> local conversion, one checkpoint per Pod,
    // under a flap storm on route-carrying links and a lossy control
    // channel.
    const CompiledMode from = timed(probe, "control.compile", [&] {
      return ctl_.compile_uniform(PodMode::kGlobal);
    });
    const CompiledMode to = timed(probe, "control.compile", [&] {
      return ctl_.compile_uniform(PodMode::kLocal);
    });
    const FailureSchedule storm = flap_storm(
        route_fabric_links(probe, from, pairs_, kStormLinks), kStormT0S,
        kStormWindowS);
    const ExecutionReport report =
        timed(probe, "conv_exec.execute_under_storm", [&] {
          return executor_.execute_under_storm(from, to, pairs_, storm,
                                               ConversionFaults{}, kStormT0S);
        });

    // Part 3: the conversion's timeline replayed through the fluid
    // simulator.
    const std::vector<FluidFlowResult> converted =
        timed(probe, "fluid.run_fluid_with_conversion", [&] {
          return run_fluid_with_conversion(report, long_flows_,
                                           fluid_options_);
        });
    out.run_s = seconds_between(run_start, Clock::now());

    Digest digest;
    digest.add(warm);
    digest.add(repaired);
    digest.add(converted);
    digest.add(static_cast<std::uint64_t>(report.outcome));
    digest.add(static_cast<std::uint64_t>(report.stages_committed));
    digest.add(report.total_blackhole_s);
    out.digest = digest.value();
    account_fluid("repair_storm warm-up", flows_, warm, out);
    account_fluid("repair_storm repair", flows_, repaired, out);
    account_fluid("repair_storm conversion", long_flows_, converted, out);
    if (!ends_on_checkpoint(ctl_, report)) {
      out.violations.push_back(
          "repair_storm: conversion did not end on a checkpointed mode");
    }
    if (report.finish_s <= kStormT0S + 0.77 * kStormWindowS) {
      out.violations.push_back(
          "repair_storm: conversion finished before the storm drained");
    }
    return out;
  }

 private:
  static ConversionExecOptions exec_options(std::uint64_t seed, Probe& probe) {
    ConversionExecOptions options;
    options.stage_checkpoints = true;
    options.live_replanning = true;
    options.channel.drop_probability = 0.02;
    options.seed = seed;
    options.sink = probe.sink();
    return options;
  }

  const Controller pricing_;  // compiles with rule counting
  const Controller ctl_;      // lazy path caches; drives repair and executor
  const ConversionExecutor executor_;
  Workload flows_;       // 200 MB permutation, all at t = 0
  Workload long_flows_;  // the same pairs at 2 GB, spanning the conversion
  std::vector<std::pair<NodeId, NodeId>> pairs_;
  FailureSet dead_column_;
  FailureSchedule failure_;
  FluidOptions fluid_options_;
};

}  // namespace

WorkloadFn find_workload(const std::string& name) {
  if (name == "packet_convert") return run_rep<PacketConvert>;
  if (name == "fluid_trace") return run_rep<FluidTrace>;
  if (name == "repair_storm") return run_rep<RepairStorm>;
  return nullptr;
}

}  // namespace perfbench
