#include "control/controller.h"

#include <algorithm>
#include <stdexcept>

namespace flattree {

void ConversionDelayModel::validate() const {
  // Negated conjunction so NaN (which compares false against every bound)
  // is rejected too.
  if (!(ocs_reconfigure_s >= 0.0 && rule_delete_s >= 0.0 &&
        rule_add_s >= 0.0)) {
    throw std::invalid_argument(
        "ConversionDelayModel: per-operation delays must be >= 0");
  }
}

CompiledMode::CompiledMode(const FlatTree& tree, ModeAssignment assignment,
                           std::uint32_t k, bool count_rules,
                           const obs::ObsSink& sink)
    : assignment_{std::move(assignment)}, k_{k} {
  configs_ = tree.configs_for(assignment_);
  graph_ = std::make_shared<const Graph>(tree.realize(configs_));
  paths_ = std::make_unique<PathCache>(*graph_, k_);
  paths_->attach_obs(sink);
  if (count_rules) {
    const StateCounts states =
        analyze_states(*graph_, *paths_, all_ingress_pairs(*graph_));
    has_rule_counts_ = true;
    max_rules_per_switch_ = states.aggregated_max;
    // Total aggregated rules across all switches = avg * switch count.
    total_rules_ = static_cast<std::uint64_t>(
        states.aggregated_avg * static_cast<double>(graph_->switches().size()) +
        0.5);
  }
}

RepairApplication CompiledMode::apply_repair(
    std::shared_ptr<const Graph> graph, std::vector<ConverterConfig> configs,
    std::span<const NodeId> failed_switches, bool warm) {
  RepairApplication application;
  // The outgoing realization must outlive the rebind: the cache still points
  // at it and checks node-id compatibility against it.
  const std::shared_ptr<const Graph> outgoing = std::move(graph_);
  graph_ = std::move(graph);
  configs_ = std::move(configs);
  application.pairs_invalidated =
      warm ? paths_->rebind_warm(*graph_, &application.evicted)
           : paths_->rebind_and_invalidate(*graph_, failed_switches,
                                           &application.evicted);
  application.pairs_retained = paths_->cached_pairs();
  return application;
}

PathProvider mode_provider(const CompiledMode& mode) {
  return [&mode](NodeId src, NodeId dst, std::uint32_t) {
    return mode.paths().server_paths(src, dst);
  };
}

Controller::Controller(FlatTree tree, ControllerOptions options)
    : tree_{std::move(tree)}, options_{options} {}

std::uint32_t Controller::k_for(PodMode mode) const {
  switch (mode) {
    case PodMode::kGlobal: return options_.k_global;
    case PodMode::kLocal: return options_.k_local;
    case PodMode::kClos: return options_.k_clos;
  }
  return options_.k_global;
}

CompiledMode Controller::compile(const ModeAssignment& assignment,
                                 std::uint32_t k) const {
  return CompiledMode{tree_, assignment, k, options_.count_rules,
                      options_.sink};
}

CompiledMode Controller::compile(const ModeAssignment& assignment) const {
  std::uint32_t k = 0;
  for (const PodMode mode : assignment.pod_modes) k = std::max(k, k_for(mode));
  return compile(assignment, k);
}

CompiledMode Controller::compile_uniform(PodMode mode) const {
  return compile(ModeAssignment::uniform(tree_.clos().pods, mode));
}

ConversionReport Controller::plan_conversion(const CompiledMode& from,
                                             const CompiledMode& to) const {
  if (from.configs().size() != to.configs().size()) {
    throw std::invalid_argument("plan_conversion: different flat-trees");
  }
  options_.delay.validate();
  ConversionReport report;
  for (std::size_t i = 0; i < from.configs().size(); ++i) {
    if (from.configs()[i] != to.configs()[i]) ++report.converters_changed;
  }
  // The OCS (or the distributed converter population) reconfigures in one
  // pass: all circuit changes are programmed together (Table 3 shows a
  // single 160 ms term regardless of mode).
  report.ocs_s =
      report.converters_changed > 0 ? options_.delay.ocs_reconfigure_s : 0.0;

  // Rule updates are bottlenecked by the busiest switch table (switches are
  // reprogrammed one table at a time in the testbed, and every switch's
  // delete of the outgoing mode precedes the add of the incoming mode).
  if (from.has_rule_counts() && to.has_rule_counts()) {
    report.rules_deleted = from.max_rules_per_switch();
    report.rules_added = to.max_rules_per_switch();
  }
  const double controllers = options_.delay.effective_controllers();
  report.delete_s = static_cast<double>(report.rules_deleted) *
                    options_.delay.rule_delete_s / controllers;
  report.add_s = static_cast<double>(report.rules_added) *
                 options_.delay.rule_add_s / controllers;
  if (obs::MetricsRegistry* reg = options_.sink.metrics()) {
    reg->counter("control.conversions").add();
    reg->counter("control.conversion.converters_changed")
        .add(report.converters_changed);
    reg->counter("control.conversion.rules_deleted").add(report.rules_deleted);
    reg->counter("control.conversion.rules_added").add(report.rules_added);
    reg->gauge("control.conversion.max_total_s").set_max(report.total_s());
  }
  if (obs::EventTracer* tracer = options_.sink.tracer()) {
    tracer->mark("control", "plan_conversion", 0,
                 static_cast<std::int64_t>(report.rules_deleted +
                                           report.rules_added));
  }
  return report;
}

RepairPlan Controller::plan_repair(CompiledMode& mode,
                                   const FailureSet& failures,
                                   const RepairOptions& repair_options) const {
  options_.delay.validate();
  const Graph& old_graph = mode.graph();
  obs::MetricsRegistry* reg = options_.sink.metrics();
  obs::EventTracer* tracer = options_.sink.tracer();
  RepairPlan plan;
  plan.configs = mode.configs();

  // Repair-by-reconfiguration: a side/cross 6-port converter breaks its
  // server out onto a core switch; if that core died, the server is
  // stranded behind a dead box. Flipping the converter — and its side peer,
  // since bundles configure pairwise — to local re-homes both servers onto
  // their aggregation switches through circuits that avoid the failure.
  const auto cores = old_graph.nodes_with_role(NodeRole::kCore);
  std::vector<bool> core_dead(cores.size(), false);
  for (NodeId id : failures.switches) {
    if (id.index() < old_graph.node_count() &&
        old_graph.node(id).role == NodeRole::kCore) {
      core_dead[id.value() - cores.front().value()] = true;
    }
  }
  if (repair_options.allow_converter_rewire) {
    const auto converters = tree_.converters();
    for (std::size_t i = 0; i < converters.size(); ++i) {
      const bool on_core = plan.configs[i] == ConverterConfig::kSide ||
                           plan.configs[i] == ConverterConfig::kCross;
      if (!on_core || !core_dead[converters[i].core]) continue;
      plan.configs[i] = ConverterConfig::kLocal;
      plan.configs[converters[i].side_peer.index()] = ConverterConfig::kLocal;
      plan.used_converter_rewire = true;
    }
  }
  for (std::size_t i = 0; i < plan.configs.size(); ++i) {
    if (plan.configs[i] != mode.configs()[i]) ++plan.converters_changed;
  }
  if (tracer != nullptr) {
    tracer->mark("control", "repair.rewire", 0,
                 static_cast<std::int64_t>(plan.converters_changed));
  }

  // The post-repair operating topology: re-realize if circuits moved (the
  // failure set's link ids then need node-pair resolution against the old
  // realization), otherwise degrade in place.
  if (plan.used_converter_rewire) {
    plan.graph = std::make_shared<const Graph>(
        degrade_mapped(tree_.realize(plan.configs), old_graph, failures));
  } else {
    plan.graph = std::make_shared<const Graph>(degrade(old_graph, failures));
  }

  // Incremental routing update: evict exactly the broken pairs, re-solve
  // them on the repaired topology, and price the rule delta per evicted
  // pair — recovery latency scales with the blast radius, not the network.
  // Pure degrades evict warm (PathCache::rebind_warm: the minimal exact
  // set, pinned equal to the legacy scan by tests/test_warm_repair_diff.cc).
  // A converter rewire adds adjacencies, where warm's exact eviction and
  // the legacy survivors-stay-valid policy genuinely diverge, so rewires
  // keep the legacy scan.
  const bool warm = !plan.used_converter_rewire;
  RepairApplication application =
      mode.apply_repair(plan.graph, plan.configs, failures.switches, warm);
  plan.pairs_invalidated = application.pairs_invalidated;
  plan.pairs_retained = application.pairs_retained;
  if (tracer != nullptr) {
    tracer->mark("control", "repair.invalidate", 0,
                 static_cast<std::int64_t>(plan.pairs_invalidated));
  }
  obs::Histogram* h_evicted_rules =
      reg != nullptr ? &reg->histogram("control.repair.evicted_pair_rules",
                                       {1, 2, 4, 8, 16, 32, 64, 128})
                     : nullptr;
  for (const EvictedPair& pair : application.evicted) {
    plan.rules_deleted += pair.rules;
    obs::record(h_evicted_rules, static_cast<double>(pair.rules));
    for (const Path& path : mode.paths().switch_paths(pair.src, pair.dst)) {
      if (!path.empty()) plan.rules_added += path.size() - 1;
    }
  }
  if (tracer != nullptr) {
    tracer->mark("control", "repair.repath", 0,
                 static_cast<std::int64_t>(plan.rules_added));
  }

  plan.ocs_s = plan.converters_changed > 0 ? options_.delay.ocs_reconfigure_s
                                           : 0.0;
  const double controllers = options_.delay.effective_controllers();
  plan.delete_s = static_cast<double>(plan.rules_deleted) *
                  options_.delay.rule_delete_s / controllers;
  plan.add_s = static_cast<double>(plan.rules_added) *
               options_.delay.rule_add_s / controllers;
  if (reg != nullptr) {
    reg->counter("control.repairs").add();
    reg->counter("control.repair.converters_changed")
        .add(plan.converters_changed);
    reg->counter("control.repair.rules_deleted").add(plan.rules_deleted);
    reg->counter("control.repair.rules_added").add(plan.rules_added);
    reg->counter("control.repair.pairs_evicted").add(plan.pairs_invalidated);
    reg->counter("control.repair.pairs_retained").add(plan.pairs_retained);
    reg->gauge("control.repair.max_total_s").set_max(plan.total_s());
  }
  return plan;
}

std::vector<ModeAssignment> Controller::gradual_plan(
    const ModeAssignment& from, const ModeAssignment& to) {
  if (from.pod_modes.size() != to.pod_modes.size()) {
    throw std::invalid_argument("gradual_plan: pod counts differ");
  }
  std::vector<ModeAssignment> stages;
  ModeAssignment current = from;
  for (std::size_t pod = 0; pod < from.pod_modes.size(); ++pod) {
    if (current.pod_modes[pod] == to.pod_modes[pod]) continue;
    current.pod_modes[pod] = to.pod_modes[pod];
    stages.push_back(current);
  }
  return stages;
}

}  // namespace flattree
