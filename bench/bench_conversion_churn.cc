// Extension bench (§4.3 made operational): what a live Clos -> global
// conversion costs the traffic riding through it, and what the staged
// epoch protocol buys over an atomic swap when the control channel lossy.
//
// Scenario: the testbed-size flat-tree carries a permutation workload when
// the controller converts every pod from Clos to global mode. The
// ConversionExecutor decomposes the diff into make-before-break patches,
// per-partition OCS rewires and two-phase epoch rule updates, executed
// over a lossy control channel (per-message drop probability swept over
// {0%, 1%, 10%}) with timeout/backoff/retries. The atomic-swap baseline
// (staged off: delete all old rules, one OCS pass, add all new rules)
// runs the identical conversion under the identical channel.
//
// Each cell replays the execution timeline through the fluid simulator
// (FCT inflation against an undisturbed baseline) and through a small
// packet-level drive (goodput during the churn window). The claim to
// check: the staged protocol holds route-availability blackhole time at
// zero at every loss rate — transient violations live entirely in the
// atomic baseline, and its blackhole integral grows with loss because
// retries stretch the rule hole — while the staged FCTs stay at baseline
// (the make-before-break detours ride the intersection graph's spare
// capacity).
#include <cstdio>
#include <utility>
#include <vector>

#include "bench/util.h"
#include "control/conversion_exec.h"
#include "control/controller.h"
#include "core/flat_tree.h"
#include "traffic/patterns.h"

namespace flattree {
namespace {

// Everything one (staged, loss) cell produces.
struct CellOutcome {
  ExecutionReport report;
  bench::ConversionReplay replay;
};

void run(int argc, char** argv) {
  exec::ExperimentRunner runner{
      bench::parse_runner_options("conversion_churn", argc, argv, 23)};

  // The paper's 4-pod testbed layout: 24 servers, every pod convertible.
  FlatTreeParams params;
  params.clos = ClosParams::testbed();
  params.six_port_per_column = 1;
  params.four_port_per_column = 1;
  ControllerOptions opts;
  opts.count_rules = false;  // the executor prices rules from route footprints
  opts.sink = runner.obs();
  const Controller controller{FlatTree{params}, opts};

  Rng traffic_rng{runner.seed()};
  Workload flows =
      permutation_traffic(params.clos.total_servers(), traffic_rng);
  // Sized to span the whole conversion window (a few seconds at testbed
  // line rate), so the churn lands on in-flight traffic.
  for (Flow& f : flows) f.bytes = 2e9;

  const double losses[] = {0.0, 0.01, 0.10};
  const bool stagings[] = {true, false};
  constexpr std::size_t kCells = 6;  // stagings x losses
  const double t0 = 0.1;  // conversion starts with the workload in flight

  bench::print_header(
      "Extension: staged vs atomic live conversion under control-plane loss",
      "testbed flat-tree (24 servers), permutation traffic, 2 GB flows;\n"
      "every pod converts Clos -> global at t=0.1s while the flows run.\n"
      "staged = make-before-break patches + per-partition OCS + two-phase\n"
      "epoch rules; atomic = delete all / one OCS pass / add all. The same\n"
      "lossy control channel (drop prob per message, timeout + backoff +\n"
      "retries) drives both. blackhole = route-availability integral summed\n"
      "over pairs; FCTs in seconds.");
  bench::print_row({"protocol", "loss", "outcome", "base-fct", "churn-fct",
                    "inflation", "blackhole", "steps", "retries", "dropped",
                    "violations"},
                   11);

  // Cells share only the read-only controller: each compiles its own
  // modes and runs its own executor and simulators, so they fan across
  // the pool as independent replicates.
  const std::vector<CellOutcome> outcomes = runner.timed_stage(
      "conversion_churn cells", [&] {
        return exec::parallel_map(
            runner.pool(), kCells, [&](std::size_t cell) {
              const bool staged = stagings[cell / 3];
              const double loss = losses[cell % 3];
              const CompiledMode from =
                  controller.compile_uniform(PodMode::kClos);
              const CompiledMode to =
                  controller.compile_uniform(PodMode::kGlobal);

              // Track exactly the pairs the workload uses.
              const auto pairs = tracked_pairs(from.graph(), flows);

              ConversionExecOptions exec_opts;
              exec_opts.staged = staged;
              exec_opts.channel.drop_probability = loss;
              exec_opts.seed = runner.seed();
              exec_opts.sink = runner.obs();
              const ConversionExecutor executor{controller, exec_opts};

              CellOutcome out;
              out.report = executor.execute(from, to, pairs,
                                            ConversionFaults{}, t0);

              // Undisturbed baseline on the outgoing mode vs the same
              // workload replayed through every transient topology, plus a
              // packet-level spot check: goodput shows whether the churn
              // window ever swallowed packets.
              out.replay = bench::replay_conversion(from, out.report, flows,
                                                    runner.obs());
              return out;
            });
      });

  for (std::size_t cell = 0; cell < kCells; ++cell) {
    const CellOutcome& out = outcomes[cell];
    const bool staged = stagings[cell / 3];
    const double loss = losses[cell % 3];
    const ExecutionReport& rep = out.report;
    const bench::ConversionReplay& replay = out.replay;
    bench::print_row(
        {staged ? "staged" : "atomic", bench::fmt(100.0 * loss, 0) + "%",
         to_string(rep.outcome), bench::fmt(replay.base.worst_fct, 3),
         bench::fmt(replay.churn.worst_fct, 3),
         bench::fmt(replay.churn.worst_fct / replay.base.worst_fct, 2) + "x",
         bench::fmt(rep.total_blackhole_s, 3),
         std::to_string(rep.steps.size()), std::to_string(rep.retries),
         std::to_string(rep.messages_dropped),
         std::to_string(rep.violations.size())},
        11);
    if (replay.churn.completed != replay.churn.total) {
      std::printf("  (%s @ %.0f%%: %zu/%zu flows completed)\n",
                  staged ? "staged" : "atomic", 100.0 * loss,
                  replay.churn.completed, replay.churn.total);
    }
    exec::ResultRow row;
    row.set("protocol", staged ? "staged" : "atomic")
        .set("loss", loss)
        .set("outcome", to_string(rep.outcome))
        .set("base_worst_fct_s", replay.base.worst_fct)
        .set("base_p99_fct_s", replay.base.p99_fct)
        .set("churn_worst_fct_s", replay.churn.worst_fct)
        .set("churn_p99_fct_s", replay.churn.p99_fct)
        .set("inflation", replay.churn.worst_fct / replay.base.worst_fct)
        .set("total_blackhole_s", rep.total_blackhole_s)
        .set("max_pair_blackhole_s", rep.max_pair_blackhole_s)
        .set("duration_s", rep.finish_s - rep.start_s)
        .set("steps", rep.steps.size())
        .set("retries", rep.retries)
        .set("messages_dropped", rep.messages_dropped)
        .set("violations", rep.violations.size())
        .set("pairs_patched", rep.pairs_patched)
        .set("rules_added", rep.rules_added)
        .set("rules_deleted", rep.rules_deleted)
        .set("completed", replay.churn.completed)
        .set("total_flows", replay.churn.total)
        .set("black_holed_lookups", replay.sched.black_holed)
        .set("packet_bytes_acked", replay.packet_bytes_acked)
        .set("packet_completed", replay.packet_completed)
        .set("packet_flows", replay.packet_flows);
    runner.add_row(std::move(row));
  }

  std::printf(
      "\nexpected shape: the staged protocol's blackhole time is zero at\n"
      "every loss rate (every pair keeps a valid route through every step;\n"
      "violations = 0) and its FCTs stay at baseline — the make-before-break\n"
      "detours ride the intersection graph's spare capacity. The atomic swap\n"
      "black-holes every pair for its whole rule window, and loss stretches\n"
      "that window: retries multiply under backoff, so its blackhole integral\n"
      "and FCT inflation grow with the drop rate while staged stays flat.\n");
}

}  // namespace
}  // namespace flattree

int main(int argc, char** argv) {
  flattree::run(argc, argv);
  return 0;
}
