// The scenario battery: runs every scenario file it is pointed at through
// scenario::run_scenario and reports one row per scenario — aggregate and
// per-class FCT statistics, engine counters, and the SLO verdicts against
// the spec's "expect" self-check.
//
//   bench_scenarios <dir-or-file>... [--seed N] [--threads N] ...
//
// Directories expand to their *.json files in name order. Every file is
// parsed AND compiled before anything runs, so a malformed spec fails the
// whole battery up front with its "<file>:<line>:<col>: ..." diagnostic
// (exit 2) rather than after minutes of simulation. Scenarios fan across
// the pool; each cell's randomness comes from the seeds recorded in its
// file (never from --seed or scheduling), and rows print in file order —
// stdout and BENCH_scenarios.json are byte-identical for --threads 1/2/8
// (the golden_scenarios / obs_determinism_scenarios gates).
//
// Exit status: 0 = every scenario matched its "expect" verdict, 1 = at
// least one mismatch, 2 = bad usage or a rejected scenario file.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "bench/util.h"
#include "scenario/runner.h"

namespace flattree {
namespace {

namespace fs = std::filesystem;

std::vector<std::string> expand_paths(const std::vector<std::string>& args) {
  std::vector<std::string> files;
  for (const std::string& arg : args) {
    if (fs::is_directory(arg)) {
      std::vector<std::string> dir_files;
      for (const fs::directory_entry& entry : fs::directory_iterator(arg)) {
        if (entry.path().extension() == ".json") {
          dir_files.push_back(entry.path().string());
        }
      }
      std::sort(dir_files.begin(), dir_files.end());
      if (dir_files.empty()) {
        std::fprintf(stderr, "bench_scenarios: no *.json files in %s\n",
                     arg.c_str());
        std::exit(2);
      }
      files.insert(files.end(), dir_files.begin(), dir_files.end());
    } else {
      files.push_back(arg);
    }
  }
  return files;
}

int run(int argc, char** argv) {
  std::vector<std::string> paths;
  std::vector<char*> flags{argv[0]};
  for (int i = 1; i < argc; ++i) {
    if (argv[i][0] == '-') {
      flags.push_back(argv[i]);
      // Every flag of parse_runner_options takes a value except --help.
      if (std::string_view{argv[i]} != "--help" &&
          std::string_view{argv[i]} != "-h" && i + 1 < argc) {
        flags.push_back(argv[++i]);
      }
    } else {
      paths.emplace_back(argv[i]);
    }
  }
  if (paths.empty()) {
    std::fprintf(stderr,
                 "usage: bench_scenarios <scenario.json | dir>... "
                 "[--threads N] [--json-out PATH|none]\n"
                 "       [--metrics-out PATH] [--trace-out PATH]\n");
    return 2;
  }
  exec::ExperimentRunner runner{
      bench::parse_runner_options("scenarios", static_cast<int>(flags.size()),
                                  flags.data(), 1)};

  const std::vector<std::string> files = expand_paths(paths);
  std::vector<scenario::CompiledScenario> compiled;
  compiled.reserve(files.size());
  for (const std::string& file : files) {
    try {
      compiled.push_back(scenario::compile_scenario_file(file));
    } catch (const scenario::ScenarioError& e) {
      std::fprintf(stderr, "%s\n", e.what());
      return 2;
    }
  }

  std::vector<scenario::ScenarioResult> results;
  runner.timed_stage("scenario battery", [&] {
    results = exec::parallel_map(
        runner.pool(), compiled.size(), [&](std::size_t i) {
          // pool = null: the battery is already parallel across scenarios;
          // the sharded engine runs its shards serially inside the cell.
          return scenario::run_scenario(
              compiled[i], scenario::RunOptions{nullptr, runner.obs()});
        });
  });

  bench::print_header(
      "Scenario battery (" + std::to_string(results.size()) + " scenarios)",
      "SLO verdicts per scenario; ok = verdict matches the spec's expect.");
  const auto print_cells = [](const std::vector<std::string>& cells) {
    std::printf("%-24s", cells[0].c_str());
    for (std::size_t i = 1; i < cells.size(); ++i) {
      std::printf("%-14s", cells[i].c_str());
    }
    std::printf("\n");
  };
  print_cells({"scenario", "engine", "flows", "done", "p99_fct_s",
               "worst_fct_s", "slos", "expect", "ok"});
  bool all_match = true;
  for (std::size_t i = 0; i < results.size(); ++i) {
    const scenario::ScenarioResult& r = results[i];
    std::size_t slos_held = 0;
    for (const scenario::SloVerdict& v : r.slos) slos_held += v.pass;
    print_cells(
        {r.name, scenario::to_string(compiled[i].spec.sim.engine),
         std::to_string(r.aggregate.flows),
         std::to_string(r.aggregate.completed),
         bench::fmt(r.aggregate.p99_fct_s, 4),
         bench::fmt(r.aggregate.worst_fct_s, 4),
         std::to_string(slos_held) + "/" + std::to_string(r.slos.size()),
         compiled[i].spec.expect_pass ? "pass" : "fail",
         r.matches_expect ? "yes" : "NO"});
    runner.add_row(r.row);
    all_match = all_match && r.matches_expect;
  }
  if (!all_match) {
    std::fprintf(stderr,
                 "bench_scenarios: scenario verdict mismatch (see table)\n");
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace flattree

int main(int argc, char** argv) { return flattree::run(argc, argv); }
