// The flat-tree benchmark harness.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--reference FILE] [--spans-out FILE]
//
// Repeats one workload (a closed loop, one job in flight) until S seconds
// have passed, and prints as its last stdout line one JSON object:
//   {"correct":..., "attempted":..., "failed":..., "metrics":{...}}
// With --trace 0 every repetition runs untraced and the metrics are the
// end-to-end ones (medians over repetitions). With --trace 1 repetitions
// alternate untraced and traced; the metrics are the per-layer ones, from
// the traced repetitions, plus the tracing overhead between the two.
//
// Each repetition is one operation. It fails when an invariant of its
// results breaks, when its result digest differs from the first
// repetition's, when the seed has a reference digest in FILE and the digest
// differs from it, when (traced) its work counters differ from the first
// traced repetition's, or when a library call throws.
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "spans.h"
#include "workloads.h"

namespace perfbench {
namespace {

struct Args {
  std::string workload;
  std::uint64_t seed{1};
  double seconds{10.0};
  bool trace{false};
  std::string reference;
  std::string spans_out;
};

[[noreturn]] void usage(const char* message) {
  std::fprintf(stderr,
               "perfbench: %s\n"
               "usage: perfbench --workload packet_convert|fluid_trace|"
               "repair_storm --seed N --seconds S --trace 0|1\n"
               "                 [--reference FILE] [--spans-out FILE]\n",
               message);
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args args;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    if (i + 1 >= argc) usage("missing value");
    const std::string flag = argv[i];
    const char* value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, &end, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value, &end);
    } else if (flag == "--trace") {
      args.trace = std::strcmp(value, "1") == 0;
      if (!args.trace && std::strcmp(value, "0") != 0) usage("bad --trace");
    } else if (flag == "--reference") {
      args.reference = value;
    } else if (flag == "--spans-out") {
      args.spans_out = value;
    } else {
      usage("unknown argument");
    }
    if (end != nullptr && (*end != '\0' || end == value)) usage("bad number");
  }
  if (!have_workload) usage("--workload is required");
  if (!(args.seconds > 0.0)) usage("--seconds must be positive");
  return args;
}

// Reference digests, one "<workload> <seed> <hex digest>" line each.
bool reference_digest(const std::string& path, const std::string& workload,
                      std::uint64_t seed, std::uint64_t* digest) {
  std::ifstream in{path};
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream fields{line};
    std::string name;
    std::uint64_t line_seed = 0;
    std::string hex;
    if (fields >> name >> line_seed >> hex && name == workload &&
        line_seed == seed) {
      *digest = std::strtoull(hex.c_str(), nullptr, 16);
      return true;
    }
  }
  return false;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : 0.5 * (v[mid - 1] + v[mid]);
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

struct Metric {
  std::string name;
  double value{0.0};
  const char* unit{""};
};

// The per-layer view of one traced repetition.
struct LayerSample {
  std::vector<Metric> times;   // host times; reported as medians
  std::vector<Metric> counts;  // deterministic; equal in every traced rep
};

std::vector<double> values(const std::vector<Metric>& metrics) {
  std::vector<double> out;
  for (const Metric& m : metrics) out.push_back(m.value);
  return out;
}

LayerSample layer_sample(Probe& probe, std::size_t first_span,
                         const RepOutcome& rep) {
  const auto by_name =
      totals_by_name(probe.spans().spans(), first_span,
                     probe.spans().spans().size());
  const auto by_layer = self_by_layer(by_name);
  const auto self = [&](const char* layer) {
    const auto it = by_layer.find(layer);
    return it == by_layer.end() ? 0.0 : it->second;
  };
  const auto calls = [&](const char* name) {
    const auto it = by_name.find(name);
    return it == by_name.end() ? SpanTotals{} : it->second;
  };
  flattree::obs::MetricsRegistry& reg = probe.metrics();
  const auto counter = [&](const char* name) {
    return static_cast<double>(reg.counter(name).value());
  };
  const double events = counter("sim.events_processed");
  const double reallocs = counter("fluid.reallocations");
  const double steps = counter("conv_exec.steps");
  const double hits = counter("routing.ksp.cache_hits");
  const double misses = counter("routing.ksp.cache_misses");
  const double evicted = counter("control.repair.pairs_evicted");
  const double retained = counter("control.repair.pairs_retained");

  LayerSample s;
  s.times = {
      {"routing.busy_s", self("routing"), "s"},
      {"routing.us_per_pair",
       ratio(self("routing") * 1e6, static_cast<double>(probe.routed_pairs)),
       "us"},
      {"fluid.self_s", self("fluid"), "s"},
      {"fluid.us_per_realloc", ratio(self("fluid") * 1e6, reallocs), "us"},
      {"packet.self_s", self("packet"), "s"},
      {"packet.ns_per_event", ratio(self("packet") * 1e9, events), "ns"},
      {"control.compile_s", calls("control.compile").total_s, "s"},
      {"control.repair_s", calls("control.plan_repair").total_s, "s"},
      {"control.plan_conversion_s", calls("control.plan_conversion").total_s,
       "s"},
      {"conv_exec.self_s", self("conv_exec"), "s"},
      {"conv_exec.us_per_step", ratio(self("conv_exec") * 1e6, steps), "us"},
  };
  s.counts = {
      {"routing.pairs_computed", counter("routing.ksp.pairs_computed"),
       "count"},
      {"routing.hit_ratio", ratio(hits, hits + misses), "ratio"},
      {"routing.pairs_evicted", counter("routing.ksp.pairs_evicted"), "count"},
      {"fluid.reallocs", reallocs, "count"},
      {"fluid.full_resolve_ratio",
       ratio(counter("fluid.realloc.full_resolves"), reallocs), "ratio"},
      {"fluid.links_per_realloc",
       ratio(counter("fluid.realloc.links_touched"), reallocs), "count/op"},
      {"packet.events", events, "count"},
      // Every packet the run delivers comes from the packet simulator when
      // it runs at all.
      {"packet.events_per_pkt", events > 0 ? ratio(events, rep.sim_pkts) : 0.0,
       "count/op"},
      {"packet.heap_max", reg.gauge("sim.heap_max").value(), "count"},
      {"packet.drops", counter("packet.drops"), "count"},
      {"control.compiles",
       static_cast<double>(calls("control.compile").count), "count"},
      {"control.repairs", counter("control.repairs"), "count"},
      {"control.repair.evict_ratio", ratio(evicted, evicted + retained),
       "ratio"},
      {"conv_exec.steps", steps, "count"},
      {"conv_exec.step_attempts", steps + counter("conv_exec.retries"),
       "count"},
      {"conv_exec.replan_pairs", counter("conv_exec.replan.pairs"), "count"},
  };
  return s;
}

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("# %-28s %.9g %s\n", m.name.c_str(), m.value, m.unit);
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit);
  }
  std::printf("}}\n");
}

int run(const Args& args) {
  const WorkloadFn workload = find_workload(args.workload);
  if (workload == nullptr) usage("unknown workload");
  std::uint64_t expected = 0;
  const bool have_reference =
      !args.reference.empty() &&
      reference_digest(args.reference, args.workload, args.seed, &expected);

  Probe plain{false};
  Probe traced{true};
  std::vector<RepOutcome> plain_reps;
  std::vector<RepOutcome> traced_reps;
  std::vector<LayerSample> layers;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::optional<std::uint64_t> first_digest;

  // Traced runs alternate untraced and traced repetitions so that the
  // overhead compares neighbours; they need at least two of each.
  const std::size_t min_reps = args.trace ? 4 : 3;
  const Clock::time_point deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(args.seconds));
  for (std::size_t rep = 0; rep < min_reps || Clock::now() < deadline;
       ++rep) {
    const bool trace_rep = args.trace && rep % 2 == 1;
    Probe& probe = trace_rep ? traced : plain;
    const std::size_t first_span = probe.spans().spans().size();
    probe.metrics().reset();
    probe.routed_pairs = 0;
    ++attempted;
    RepOutcome out;
    try {
      out = workload(args.seed, probe);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "perfbench: repetition %zu: library call threw: "
                   "%s\n", rep, e.what());
      ++failed;
      continue;
    }
    std::vector<std::string> problems = out.violations;
    if (!first_digest) first_digest = out.digest;
    if (out.digest != *first_digest) {
      problems.push_back("result digest differs from the first repetition's");
    }
    if (have_reference && out.digest != expected) {
      problems.push_back("result digest differs from the reference");
    }
    if (trace_rep) {
      layers.push_back(layer_sample(probe, first_span, out));
      if (values(layers.back().counts) != values(layers.front().counts)) {
        problems.push_back("work counters differ from the first traced "
                           "repetition's");
      }
      traced_reps.push_back(out);
    } else {
      plain_reps.push_back(out);
    }
    for (const std::string& p : problems) {
      std::fprintf(stderr, "perfbench: repetition %zu: %s\n", rep, p.c_str());
    }
    if (!problems.empty()) ++failed;
    std::fprintf(stderr, "perfbench: repetition %zu %s run_s %.6f\n", rep,
                 trace_rep ? "traced" : "untraced", out.run_s);
  }
  if (plain_reps.empty() || (args.trace && layers.empty())) {
    std::fprintf(stderr, "perfbench: no repetition completed\n");
    return 1;
  }
  std::printf("# workload %s seed %llu digest %016llx\n", args.workload.c_str(),
              static_cast<unsigned long long>(args.seed),
              static_cast<unsigned long long>(*first_digest));

  std::vector<Metric> metrics;
  bool spans_written = true;
  if (!args.trace) {
    std::vector<double> setup, run_s, pkts, flows;
    for (const RepOutcome& r : plain_reps) {
      setup.insert(setup.end(), r.setup_s.begin(), r.setup_s.end());
      run_s.push_back(r.run_s);
      pkts.push_back(r.sim_pkts / r.run_s);
      flows.push_back(r.sim_flows / r.run_s);
    }
    rusage usage_now{};
    getrusage(RUSAGE_SELF, &usage_now);
    metrics = {{"setup_s", median(setup), "s"},
               {"run_s", median(run_s), "s"},
               {"peak_rss_mb", static_cast<double>(usage_now.ru_maxrss) / 1024.0,
                "MB"},
               {"sim_pkts_per_s", median(pkts), "1/s"},
               {"sim_flows_per_s", median(flows), "1/s"}};
  } else {
    metrics = layers.front().counts;
    for (std::size_t i = 0; i < layers.front().times.size(); ++i) {
      std::vector<double> samples;
      for (const LayerSample& s : layers) samples.push_back(s.times[i].value);
      Metric m = layers.front().times[i];
      m.value = median(samples);
      metrics.push_back(m);
    }
    std::vector<double> plain_run, traced_run;
    for (const RepOutcome& r : plain_reps) plain_run.push_back(r.run_s);
    for (const RepOutcome& r : traced_reps) traced_run.push_back(r.run_s);
    metrics.push_back({"trace.overhead_frac",
                       median(traced_run) / median(plain_run) - 1.0, "ratio"});
    std::sort(metrics.begin(), metrics.end(),
              [](const Metric& a, const Metric& b) { return a.name < b.name; });
    if (!args.spans_out.empty() &&
        !write_spans(args.spans_out, traced.spans().spans())) {
      std::fprintf(stderr, "perfbench: cannot write %s\n",
                   args.spans_out.c_str());
      spans_written = false;
    }
  }
  print_result(failed == 0 && spans_written, attempted, failed, metrics);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  return perfbench::run(perfbench::parse_args(argc, argv));
}
