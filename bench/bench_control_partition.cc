// Partition tolerance: what the two-level control plane (root coordinator
// + per-Pod local controllers, control/hierarchy.h) buys over the flat
// primary/standby controller when the control network islands Pods while
// failures land and a conversion is in flight.
//
// Scenario: the testbed flat-tree serves 11 tracked server pairs (two
// intra-Pod pairs per Pod plus three cross-Pod pairs) for 12 simulated
// seconds; every cell also drives a staged Clos -> global conversion
// through its control plane. Control-plane chaos per scenario:
//
//   calm           no partitions — the two planes must price out identically
//                  (topology-aware RTTs reshape timing only).
//   part+storm     Pods 0 and 1 islanded for 3 s while intra-Pod fabric
//                  links under installed routes fail inside the islands;
//                  the conversion starts after the islands heal.
//   part+loss      Pods 2 and 3 islanded mid-conversion (from 4.2 s, never
//                  healing) under 8% control-message loss. The kEpochFlip
//                  barrier refuses to commit a stage spanning an island, so
//                  the stage in flight when the island opens rolls back one
//                  checkpoint and the execution lands kPartial on the last
//                  committed stage — never a whole-conversion rollback.
//   part+linkfail  compound: islands + intra-island link failures + 5%
//                  loss + the root controller dying mid-conversion. The
//                  hierarchy's Pod controllers pre-stage rules inside the
//                  islands, so the conversion commits once they heal; the
//                  flat root cannot reach the islanded tables and rolls
//                  the whole conversion back.
//
// Both planes dispatch repairs through ControlHierarchy::run: the
// hierarchical plane repairs intra-Pod damage with the islanded Pod's own
// controller (journaled, replayed on rejoin), while the flat plane must
// defer every repair that needs a rule installed inside an island until
// the partition heals. The claim to check: hierarchical blackhole
// pair-seconds <= flat in every partition cell, strictly below in
// part+storm and part+linkfail (the deferral window is the gap).
#include <algorithm>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "bench/util.h"
#include "control/conversion_exec.h"
#include "control/controller.h"
#include "control/hierarchy.h"
#include "core/flat_tree.h"
#include "net/failures.h"

namespace flattree {
namespace {

// Tracked pairs: two intra-Pod pairs per Pod (different racks, so their
// paths cross the Pod fabric) plus three cross-Pod pairs.
std::vector<std::pair<NodeId, NodeId>> make_pairs(const Graph& g) {
  std::vector<std::vector<NodeId>> by_pod;
  for (NodeId s : g.servers()) {
    const std::size_t p = g.node(s).pod.index();
    if (by_pod.size() <= p) by_pod.resize(p + 1);
    by_pod[p].push_back(s);
  }
  std::vector<std::pair<NodeId, NodeId>> pairs;
  for (const std::vector<NodeId>& pod : by_pod) {
    const std::size_t n = pod.size();
    if (n >= 2) pairs.emplace_back(pod[0], pod[n - 1]);
    if (n >= 4) pairs.emplace_back(pod[1], pod[n - 2]);
  }
  const std::size_t pods = by_pod.size();
  for (std::size_t p = 0; p + 2 < pods + 1 && pods >= 3; ++p) {
    const std::size_t q = (p + 2) % pods;
    if (by_pod[p].size() > 2 && by_pod[q].size() > 2) {
      pairs.emplace_back(by_pod[p][2], by_pod[q][2]);
    }
  }
  return pairs;
}

// Up to `want` fabric links inside `pod` that installed routes of the
// tracked pairs cross — failing one is guaranteed to hit live intra-island
// traffic that the Pod's own controller can repair around.
std::vector<LinkId> pod_route_links(
    const CompiledMode& mode,
    const std::vector<std::pair<NodeId, NodeId>>& pairs, PodId pod,
    std::size_t want) {
  const Graph& g = mode.graph();
  std::vector<bool> taken(g.link_count(), false);
  std::vector<LinkId> picked;
  for (const auto& [src, dst] : pairs) {
    if (picked.size() >= want) break;
    if (g.node(src).pod != pod || g.node(dst).pod != pod) continue;
    for (const Path& path : mode.paths().server_paths(src, dst)) {
      if (picked.size() >= want) break;
      for (std::size_t h = 1; h + 2 < path.size(); ++h) {
        const NodeId a = path[h];
        const NodeId b = path[h + 1];
        if (g.node(a).pod != pod || g.node(b).pod != pod) continue;
        for (std::uint32_t i = 0; i < g.link_count(); ++i) {
          if (taken[i]) continue;
          const Link& l = g.link(LinkId{i});
          if ((l.a == a && l.b == b) || (l.a == b && l.b == a)) {
            taken[i] = true;
            picked.push_back(LinkId{i});
            break;
          }
        }
        if (picked.size() >= want) break;
      }
    }
  }
  return picked;
}

struct Cell {
  const char* name;
  bool partitions{false};
  std::uint32_t partition_first{0};  // islands Pods [first, first + 2)
  double partition_start_s{1.0};
  double partition_end_s{4.0};       // < 0 = never heals within the run
  bool storm{false};
  double loss{0.0};
  double convert_at_s{1.0};
  double root_crash_at_s{-1.0};
};

void run(int argc, char** argv) {
  exec::ExperimentRunner runner{
      bench::parse_runner_options("control_partition", argc, argv, 47)};

  FlatTreeParams params;
  params.clos = ClosParams::testbed();
  params.six_port_per_column = 1;
  params.four_port_per_column = 1;
  ControllerOptions ctl_opts;
  ctl_opts.count_rules = false;
  // §4.3's parallel state distribution: a set of controllers each managing
  // a share of the switches divides the rule-update time. Both planes get
  // the same divisor, so the comparison isolates partition handling.
  ctl_opts.delay.controllers = 8;
  ctl_opts.sink = runner.obs();
  const Controller controller{FlatTree{params}, ctl_opts};

  const double duration = 12.0;
  const Cell cells[] = {
      {"calm", false, 0, 0.0, 0.0, false, 0.0, 1.0, -1.0},
      {"part+storm", true, 0, 1.0, 4.0, true, 0.0, 6.5, -1.0},
      {"part+loss", true, 2, 4.2, -1.0, false, 0.08, 2.0, -1.0},
      {"part+linkfail", true, 0, 1.0, 4.6, true, 0.05, 3.0, 3.5},
  };
  constexpr std::size_t kScenarios = 4;
  const ControlPlaneKind planes[] = {ControlPlaneKind::kHierarchical,
                                     ControlPlaneKind::kFlat};
  constexpr std::size_t kCells = 2 * kScenarios;

  // The shared physical storm: intra-island fabric links under installed
  // routes of Pods 0 and 1, failing inside the partition window and
  // recovering after every cell's island has healed.
  const CompiledMode cal = controller.compile_uniform(PodMode::kClos);
  const std::vector<std::pair<NodeId, NodeId>> cal_pairs =
      make_pairs(cal.graph());
  FailureSchedule storm;
  for (std::uint32_t pod : {0u, 1u}) {
    for (LinkId l : pod_route_links(cal, cal_pairs, PodId{pod}, 2)) {
      storm.fail_at(1.5, FailureSet{{l}, {}});
      storm.recover_at(5.5, FailureSet{{l}, {}});
    }
  }

  bench::print_header(
      "Partition tolerance: hierarchical vs flat control plane",
      "testbed flat-tree (24 servers, 4 Pods), 11 tracked pairs served for\n"
      "12 s; every cell drives a staged Clos -> global conversion through\n"
      "its control plane (per-Pod stage checkpoints, topology-aware RTTs).\n"
      "Scenarios: calm; part+storm (Pods 0-1 islanded 1.0-4.0s, route-\n"
      "carrying intra-island links fail 1.5-5.5s, conversion after heal);\n"
      "part+loss (Pods 2-3 islanded from 4.2s, mid-conversion, never\n"
      "healing, 8% control loss: the stage in flight rolls back one\n"
      "checkpoint and the conversion lands kPartial, never a full rollback);\n"
      "part+linkfail (compound: islands 1.0-4.6s + link failures + 5% loss\n"
      "+ root controller dies at 3.5s, mid-conversion).\n"
      "hier = root + per-Pod controllers (islanded Pods repair locally,\n"
      "journal, replay on rejoin); flat = primary/standby root only\n"
      "(repairs into an island defer until it heals).\n"
      "blackhole in pair-seconds; lag = mean failure->repair.");
  bench::print_row({"plane", "scenario", "blackhole", "maxpair", "lag",
                    "rep l/r/d", "part d/r", "jrnl a/r", "conv", "failover"},
                   14);

  struct Outcome {
    HierarchyRunResult res;
  };
  const std::vector<Outcome> outcomes = runner.timed_stage(
      "control_partition cells", [&] {
        return exec::parallel_map(
            runner.pool(), kCells, [&](std::size_t cell) {
              const ControlPlaneKind kind = planes[cell / kScenarios];
              const Cell& sc = cells[cell % kScenarios];
              const CompiledMode from =
                  controller.compile_uniform(PodMode::kClos);
              const CompiledMode to =
                  controller.compile_uniform(PodMode::kGlobal);
              const std::vector<std::pair<NodeId, NodeId>> pairs =
                  make_pairs(from.graph());

              ControlHierarchyOptions hopts;
              hopts.channel.drop_probability = sc.loss;
              hopts.sink = runner.obs();
              const ControlHierarchy hier{controller, kind, hopts};

              HierarchyFaults faults;
              if (sc.partitions) {
                faults.partitions.push_back(
                    ControlPartition{PodId{sc.partition_first},
                                     sc.partition_start_s,
                                     sc.partition_end_s});
                faults.partitions.push_back(
                    ControlPartition{PodId{sc.partition_first + 1},
                                     sc.partition_start_s,
                                     sc.partition_end_s});
              }
              faults.root_crash_at_s = sc.root_crash_at_s;

              ConversionExecOptions exec_base;
              exec_base.stage_checkpoints = true;
              exec_base.seed = runner.seed();
              exec_base.sink = runner.obs();

              Outcome out;
              out.res = hier.run(from, pairs,
                                 sc.storm ? storm : FailureSchedule{}, faults,
                                 duration, &to, sc.convert_at_s, exec_base);
              return out;
            });
      });

  double blackhole[2][kScenarios] = {};
  for (std::size_t cell = 0; cell < kCells; ++cell) {
    const std::size_t pi = cell / kScenarios;
    const std::size_t si = cell % kScenarios;
    const Cell& sc = cells[si];
    const HierarchyRunResult& r = outcomes[cell].res;
    blackhole[pi][si] = r.blackhole_pair_s;
    const char* conv = r.conversion.has_value()
                           ? to_string(r.conversion->outcome)
                           : "none";
    bench::print_row(
        {to_string(planes[pi]), sc.name, bench::fmt(r.blackhole_pair_s, 3),
         bench::fmt(r.max_pair_blackhole_s, 3),
         bench::fmt(r.mean_repair_lag_s(), 3),
         std::to_string(r.repairs_local) + "/" +
             std::to_string(r.repairs_root) + "/" +
             std::to_string(r.repairs_deferred),
         std::to_string(r.partitions_detected) + "/" +
             std::to_string(r.partitions_rejoined),
         std::to_string(r.journal_appended) + "/" +
             std::to_string(r.journal_replayed),
         conv, std::to_string(r.failovers)},
        14);
    exec::ResultRow row;
    row.set("plane", to_string(planes[pi]))
        .set("scenario", sc.name)
        .set("loss", sc.loss)
        .set("blackhole_pair_s", r.blackhole_pair_s)
        .set("max_pair_blackhole_s", r.max_pair_blackhole_s)
        .set("mean_repair_lag_s", r.mean_repair_lag_s())
        .set("repairs_local", r.repairs_local)
        .set("repairs_root", r.repairs_root)
        .set("repairs_deferred", r.repairs_deferred)
        .set("partitions_detected", r.partitions_detected)
        .set("partitions_rejoined", r.partitions_rejoined)
        .set("heartbeats_missed", r.heartbeats_missed)
        .set("journal_appended", r.journal_appended)
        .set("journal_replayed", r.journal_replayed)
        .set("pairs_reconciled", r.pairs_reconciled)
        .set("failovers", r.failovers)
        .set("conversion_outcome", conv)
        .set("conversion_stages_committed",
             r.conversion.has_value() ? r.conversion->stages_committed : 0)
        .set("conversion_stages_total",
             r.conversion.has_value() ? r.conversion->stages_total : 0)
        .set("conversion_rules_skipped",
             r.conversion.has_value() ? r.conversion->rules_skipped_dead : 0);
    runner.add_row(std::move(row));
  }

  std::printf(
      "\nexpected shape: calm prices both planes identically (RTT shape\n"
      "only). In every partition cell the hierarchy's blackhole time is at\n"
      "most the flat plane's, and strictly below it in part+storm and\n"
      "part+linkfail: the islanded Pods repair their own damage within a\n"
      "heartbeat + local RTT, where the flat root must sit out the island\n"
      "(deferred repairs). A conversion hit by an island mid-flight rolls\n"
      "the in-flight stage back one checkpoint (part+loss lands kPartial on\n"
      "the last committed stage, both planes), and the hierarchy's Pod\n"
      "controllers keep pre-staging rules inside islands, so part+linkfail\n"
      "converts under the hierarchy while the flat root — locked out of the\n"
      "islanded tables — rolls the whole conversion back. No mixed-epoch\n"
      "rule set ever serves traffic under either plane.\n");
  bool dominated = true;
  bool strict = true;
  for (std::size_t si = 0; si < kScenarios; ++si) {
    if (!cells[si].partitions) continue;
    if (blackhole[0][si] > blackhole[1][si]) dominated = false;
    if ((cells[si].storm) && !(blackhole[0][si] < blackhole[1][si])) {
      strict = false;
    }
  }
  if (!dominated) {
    std::printf("WARNING: hierarchical blackhole above flat in a partition "
                "cell\n");
  }
  if (!strict) {
    std::printf("WARNING: hierarchical blackhole not strictly below flat in "
                "a storm cell\n");
  }
}

}  // namespace
}  // namespace flattree

int main(int argc, char** argv) {
  flattree::run(argc, argv);
  return 0;
}
