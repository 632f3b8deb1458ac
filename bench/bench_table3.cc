// Table 3: conversion delay breakdown on the testbed — OCS reconfiguration,
// OpenFlow rule deletion (rules of the outgoing mode) and rule addition
// (rules of the incoming mode). The experiment in Figure 10 cycles
// ... -> Local -> Global -> Clos -> Local -> ..., so each row's delete term
// is priced by the previous mode in that cycle.
//
// Rule counts come from compiling each mode's k-shortest-path routing
// (k = 4) with ingress/egress prefix aggregation on the actual testbed
// graphs; per-rule latencies are the Table 3 calibration constants
// (DESIGN.md).
//
// BENCH_table3.json holds one row per printed conversion row plus the
// 4-controller row, with the raw seconds. The table draws no randomness;
// --seed is accepted and unused.
#include <cstdio>

#include "bench/util.h"
#include "control/controller.h"
#include "topo/params.h"

namespace flattree {
namespace {

void run(int argc, char** argv) {
  exec::ExperimentRunner runner{
      bench::parse_runner_options("table3", argc, argv, 20170821)};
  FlatTreeParams params;
  params.clos = ClosParams::testbed();
  params.six_port_per_column = 1;
  params.four_port_per_column = 1;
  ControllerOptions options;
  options.k_global = options.k_local = options.k_clos = 4;
  options.sink = runner.obs();
  const Controller ctl{FlatTree{params}, options};

  const CompiledMode global = ctl.compile_uniform(PodMode::kGlobal);
  const CompiledMode local = ctl.compile_uniform(PodMode::kLocal);
  const CompiledMode clos = ctl.compile_uniform(PodMode::kClos);

  bench::print_header(
      "Table 3: conversion delay breakdown (ms)",
      "rows: conversion *to* a mode, from its predecessor in the Figure 10\n"
      "cycle (Local->Global, Clos->Local, Global->Clos).");

  std::printf("\nper-mode rule tables (max rules per switch, k=4):\n");
  std::printf("  global %llu   local %llu   clos %llu    (paper: 242 / 180 / 76)\n",
              static_cast<unsigned long long>(global.max_rules_per_switch()),
              static_cast<unsigned long long>(local.max_rules_per_switch()),
              static_cast<unsigned long long>(clos.max_rules_per_switch()));

  bench::print_row({"To-topology", "ConfigOCS", "DeleteRule", "AddRule",
                    "Total", "(paper)"},
                   13);
  struct Row {
    const char* name;
    const CompiledMode* from;
    const CompiledMode* to;
    const char* paper;
  };
  const Row rows[] = {
      {"Global", &local, &global, "160/477/644/1281"},
      {"Local", &clos, &local, "160/202/482/844"},
      {"Clos", &global, &clos, "160/635/209/1004"},
  };
  const auto add_row = [&](const char* to, std::uint32_t controllers,
                           const ConversionReport& r) {
    exec::ResultRow row;
    row.set("to_topology", to)
        .set("controllers", controllers)
        .set("rules_deleted", r.rules_deleted)
        .set("rules_added", r.rules_added)
        .set("ocs_s", r.ocs_s)
        .set("delete_s", r.delete_s)
        .set("add_s", r.add_s)
        .set("total_s", r.total_s());
    runner.add_row(std::move(row));
  };
  for (const Row& row : rows) {
    const ConversionReport r = ctl.plan_conversion(*row.from, *row.to);
    bench::print_row({row.name, bench::fmt(r.ocs_s * 1e3, 0),
                      bench::fmt(r.delete_s * 1e3, 0),
                      bench::fmt(r.add_s * 1e3, 0),
                      bench::fmt(r.total_s() * 1e3, 0), row.paper},
                     13);
    add_row(row.name, options.delay.controllers, r);
  }

  // §4.3 extension: distributed controllers shard the rule distribution.
  ControllerOptions sharded = options;
  sharded.delay.controllers = 4;
  const Controller fast_ctl{FlatTree{params}, sharded};
  const ConversionReport fast = fast_ctl.plan_conversion(local, global);
  std::printf("\nwith 4 distributed controllers (§4.3): Local->Global total "
              "%.0f ms (vs %.0f ms sequential)\n",
              fast.total_s() * 1e3,
              ctl.plan_conversion(local, global).total_s() * 1e3);
  add_row("Global", sharded.delay.controllers, fast);
}

}  // namespace
}  // namespace flattree

int main(int argc, char** argv) {
  flattree::run(argc, argv);
  return 0;
}
