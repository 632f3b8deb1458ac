// Differential pin for plan_repair's warm eviction: on pure-removal
// failure streams the warm policy (PathCache::rebind_warm, the provably
// minimal exact set under the adjacency delta) must produce a post-repair
// route state byte-identical to the legacy survivors-stay-valid scan —
// same RepairPlan accounting, same per-pair server paths, across every
// mode and across *sequences* of repairs where the second failure strikes
// an already-repaired cache. The legacy policy lives here as the oracle:
// CompiledMode::apply_repair(..., /*warm=*/false) on a second compiled
// mode, plus plan_repair's rule accounting. Converter-rewire repairs keep
// the legacy scan in plan_repair, so the oracle agrees there too.
#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "control/controller.h"
#include "core/flat_tree.h"
#include "net/failures.h"
#include "net/graph.h"
#include "net/rng.h"

namespace flattree {
namespace {

Controller make_controller(std::uint32_t k = 4) {
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

std::vector<LinkId> fabric_links(const Graph& g) {
  std::vector<LinkId> out;
  for (std::uint32_t i = 0; i < g.link_count(); ++i) {
    const Link& l = g.link(LinkId{i});
    if (is_switch(g.node(l.a).role) && is_switch(g.node(l.b).role)) {
      out.push_back(LinkId{i});
    }
  }
  return out;
}

// The legacy oracle: applies `plan`'s post-repair topology and configs to
// `legacy` with the survivors-stay-valid scan, and checks the plan's
// eviction counts and rule delta against it, priced as plan_repair does.
void expect_plan_matches_legacy(const Controller& ctl, const RepairPlan& plan,
                                CompiledMode& legacy,
                                const FailureSet& failures) {
  const RepairApplication application = legacy.apply_repair(
      plan.graph, plan.configs, failures.switches, /*warm=*/false);
  std::uint64_t rules_deleted = 0;
  std::uint64_t rules_added = 0;
  for (const EvictedPair& pair : application.evicted) {
    rules_deleted += pair.rules;
    for (const Path& path : legacy.paths().switch_paths(pair.src, pair.dst)) {
      if (!path.empty()) rules_added += path.size() - 1;
    }
  }
  const ConversionDelayModel& delay = ctl.options().delay;
  const double controllers = delay.effective_controllers();
  EXPECT_EQ(plan.rules_deleted, rules_deleted);
  EXPECT_EQ(plan.rules_added, rules_added);
  EXPECT_EQ(plan.delete_s, static_cast<double>(rules_deleted) *
                               delay.rule_delete_s / controllers);
  EXPECT_EQ(plan.add_s,
            static_cast<double>(rules_added) * delay.rule_add_s / controllers);
  EXPECT_EQ(plan.pairs_invalidated, application.pairs_invalidated);
  EXPECT_EQ(plan.pairs_retained, application.pairs_retained);
}

// Byte-identical route state: every server pair serves the exact same
// path list under both eviction policies.
void expect_routes_equal(const CompiledMode& w, const CompiledMode& c) {
  const std::vector<NodeId> servers = w.graph().servers();
  for (std::size_t a = 0; a < servers.size(); ++a) {
    for (std::size_t b = a + 1; b < servers.size(); ++b) {
      const std::vector<Path> pw = w.paths().server_paths(servers[a],
                                                          servers[b]);
      const std::vector<Path> pc = c.paths().server_paths(servers[a],
                                                          servers[b]);
      ASSERT_EQ(pw, pc) << "pair " << servers[a].value() << "->"
                        << servers[b].value();
    }
  }
}

TEST(WarmRepairDiff, PureRemovalStreamsMatchLegacyExactly) {
  const Controller ctl = make_controller();
  const PodMode modes[] = {PodMode::kClos, PodMode::kLocal, PodMode::kGlobal};

  Rng rng{0xD1FF};
  for (std::uint32_t round = 0; round < 9; ++round) {
    const PodMode pm = modes[round % 3];
    CompiledMode warm_mode = ctl.compile_uniform(pm);
    CompiledMode cold_mode = ctl.compile_uniform(pm);

    RepairOptions ropts;
    ropts.allow_converter_rewire = false;  // pure removals only

    // A stream of two failure sets: the second strikes the repaired cache,
    // so warm eviction must stay exact on an already-incremental state.
    // Pure removal = fabric links only: a dead switch can strand a
    // converter-attached server, which needs the rewire action to rescue.
    for (std::uint32_t burst = 0; burst < 2; ++burst) {
      // Link ids are renumbered by the repaired realization, so re-derive
      // the candidate set from the live graph each burst.
      const std::vector<LinkId> links = fabric_links(warm_mode.graph());
      FailureSet failures;
      const std::size_t count = 1 + rng.next_below(3);
      for (std::size_t j = 0; j < count; ++j) {
        failures.links.push_back(links[rng.next_below(links.size())]);
      }
      const std::vector<ConverterConfig> configs = cold_mode.configs();
      const RepairPlan wp = ctl.plan_repair(warm_mode, failures, ropts);
      EXPECT_FALSE(wp.used_converter_rewire);
      EXPECT_EQ(wp.converters_changed, 0u);
      EXPECT_EQ(wp.ocs_s, 0.0);
      EXPECT_EQ(wp.configs, configs);
      expect_plan_matches_legacy(ctl, wp, cold_mode, failures);
      expect_routes_equal(warm_mode, cold_mode);
    }
  }
}

TEST(WarmRepairDiff, ConverterRewireFallsBackToLegacy) {
  const Controller ctl = make_controller();

  // Kill a core switch under kGlobal with rewire allowed: stranded servers
  // are rescued by flipping their converter pair, which adds adjacencies —
  // warm eviction is unsound there, so plan_repair must take the legacy
  // path and agree with the oracle bit for bit.
  CompiledMode warm_mode = ctl.compile_uniform(PodMode::kGlobal);
  CompiledMode cold_mode = ctl.compile_uniform(PodMode::kGlobal);
  const std::vector<NodeId> cores =
      warm_mode.graph().nodes_with_role(NodeRole::kCore);
  ASSERT_FALSE(cores.empty());
  FailureSet failures;
  failures.switches.push_back(cores.front());

  const RepairPlan wp = ctl.plan_repair(warm_mode, failures, {});
  EXPECT_TRUE(wp.used_converter_rewire);
  expect_plan_matches_legacy(ctl, wp, cold_mode, failures);
  expect_routes_equal(warm_mode, cold_mode);
}

}  // namespace
}  // namespace flattree
