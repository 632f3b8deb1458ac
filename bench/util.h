// Shared helpers for the benchmark binaries: routing providers, workload ->
// LP-instance plumbing, statistics, and fixed-width table printing. Each
// bench binary reproduces one table or figure of the paper and prints the
// same rows/series the paper reports, plus the scaling notes from
// EXPERIMENTS.md.
#pragma once

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <memory>
#include <numeric>
#include <sstream>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "exec/parallel.h"
#include "exec/pool.h"
#include "exec/results.h"
#include "exec/runner.h"
#include "lp/mcf.h"
#include "lp/throughput.h"
#include "net/capacity.h"
#include "net/graph.h"
#include "net/rng.h"
#include "net/stats.h"
#include "routing/ecmp.h"
#include "routing/ksp.h"
#include "sim/fluid.h"
#include "traffic/flow.h"

namespace flattree::bench {

// Minimal shared CLI for bench binaries: --seed N, --threads N (0 = one
// per core), --json-out PATH|none, --metrics-out PATH, --trace-out PATH.
// `default_seed` preserves each bench's historical constant so a bare run
// reproduces the numbers recorded in EXPERIMENTS.md byte-for-byte.
inline exec::RunnerOptions parse_runner_options(const char* bench_name,
                                                int argc, char** argv,
                                                std::uint64_t default_seed) {
  exec::RunnerOptions options;
  options.name = bench_name;
  options.seed = default_seed;
  const auto usage = [&](int exit_code) {
    std::fprintf(stderr,
                 "usage: %s [--seed N] [--threads N] [--json-out PATH|none]\n"
                 "          [--metrics-out PATH] [--trace-out PATH]\n"
                 "  --seed N         workload/topology sampling seed "
                 "(default %llu)\n"
                 "  --threads N      worker threads; 0 = one per core "
                 "(default 0)\n"
                 "  --json-out P     BENCH_%s.json destination: a file, a "
                 "directory ending in '/', or 'none' (default: ./)\n"
                 "  --metrics-out P  deterministic metrics JSON (also folded "
                 "into the BENCH json); off by default\n"
                 "  --trace-out P    Chrome trace_event JSON for "
                 "chrome://tracing / ui.perfetto.dev; off by default\n",
                 bench_name,
                 static_cast<unsigned long long>(default_seed), bench_name);
    std::exit(exit_code);
  };
  for (int i = 1; i < argc; ++i) {
    const auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s: missing value for %s\n", bench_name,
                     argv[i]);
        usage(2);
      }
      return argv[++i];
    };
    // An unsigned integer in any strtoull base (so 0x10 works); a sign,
    // trailing characters or a value past `max` exits 2.
    const auto number = [&](unsigned long long max) {
      const char* flag = argv[i];
      const char* text = value();
      char* end = nullptr;
      errno = 0;
      const unsigned long long n = std::strtoull(text, &end, 0);
      if (std::isdigit(static_cast<unsigned char>(text[0])) == 0 ||
          *end != '\0' || errno == ERANGE || n > max) {
        std::fprintf(stderr, "%s: invalid value for %s: '%s'\n", bench_name,
                     flag, text);
        std::exit(2);
      }
      return n;
    };
    if (std::strcmp(argv[i], "--seed") == 0) {
      options.seed = number(std::numeric_limits<std::uint64_t>::max());
    } else if (std::strcmp(argv[i], "--threads") == 0) {
      options.threads = static_cast<std::uint32_t>(
          number(std::numeric_limits<std::uint32_t>::max()));
      try {  // the pool's own bound, checked before any thread starts
        (void)exec::ThreadPool::resolve_threads(options.threads);
      } catch (const std::invalid_argument& e) {
        std::fprintf(stderr, "%s: invalid value for --threads: '%s': %s\n",
                     bench_name, argv[i], e.what());
        std::exit(2);
      }
    } else if (std::strcmp(argv[i], "--json-out") == 0) {
      options.json_out = value();
    } else if (std::strcmp(argv[i], "--metrics-out") == 0) {
      options.metrics_out = value();
    } else if (std::strcmp(argv[i], "--trace-out") == 0) {
      options.trace_out = value();
    } else if (std::strcmp(argv[i], "--help") == 0 ||
               std::strcmp(argv[i], "-h") == 0) {
      usage(0);
    } else {
      std::fprintf(stderr, "%s: unknown argument %s\n", bench_name, argv[i]);
      usage(2);
    }
  }
  return options;
}

// A perf gate's pinned numbers: a flat JSON object read whole from `path`.
// `bench` prefixes every diagnostic. Exits 2 when the file cannot be read.
struct BaselineFile {
  const char* bench;
  std::string path;
  std::string text;
};

inline BaselineFile read_baseline_file(const char* bench,
                                       const std::string& path) {
  std::ifstream in{path};
  if (!in) {
    std::fprintf(stderr, "%s: cannot open baseline %s\n", bench, path.c_str());
    std::exit(2);
  }
  std::stringstream buffer;
  buffer << in.rdbuf();
  return BaselineFile{bench, path, buffer.str()};
}

// The number after `"key":` in `file`. Exits 2 when the key is missing or
// its value is not a finite number above zero (at least zero when
// `zero_ok`): a gate that reads 0 for "at least half the baseline" passes
// at any speed.
inline double baseline_value(const BaselineFile& file, const char* key,
                             bool zero_ok = false) {
  const std::string quoted = std::string{"\""} + key + "\"";
  const std::size_t at = file.text.find(quoted);
  if (at == std::string::npos) {
    std::fprintf(stderr, "%s: baseline %s lacks %s\n", file.bench,
                 file.path.c_str(), quoted.c_str());
    std::exit(2);
  }
  std::size_t pos = file.text.find_first_not_of(" \t\n", at + quoted.size());
  if (pos != std::string::npos && file.text[pos] == ':') ++pos;
  pos = file.text.find_first_not_of(" \t\n", pos);
  const std::size_t stop = file.text.find_first_of(",}\n", pos);
  const std::string token =
      pos == std::string::npos ? "" : file.text.substr(pos, stop - pos);
  char* end = nullptr;
  const double value = std::strtod(token.c_str(), &end);
  const bool number = !token.empty() && end == token.c_str() + token.size() &&
                      std::isfinite(value);
  if (!number || value < 0 || (value == 0 && !zero_ok)) {
    std::fprintf(stderr, "%s: baseline %s: %s must be a %s number, got '%s'\n",
                 file.bench, file.path.c_str(), quoted.c_str(),
                 zero_ok ? "non-negative" : "positive", token.c_str());
    std::exit(2);
  }
  return value;
}

inline PathProvider ksp_provider(const Graph& g, std::uint32_t k,
                                 const obs::ObsSink& sink = {}) {
  auto cache = std::make_shared<PathCache>(g, k);
  cache->attach_obs(sink);
  return [cache](NodeId src, NodeId dst, std::uint32_t) {
    return cache->server_paths(src, dst);
  };
}

inline PathProvider ecmp_provider(const Graph& g, std::uint64_t seed = 0) {
  auto router = std::make_shared<EcmpRouter>(g, seed);
  return [router](NodeId src, NodeId dst, std::uint32_t flow) {
    return std::vector<Path>{router->flow_path(src, dst, flow)};
  };
}

// Warms `cache` with every switch pair `flows` touches, fanning the Yen's
// runs across `pool` (serial when null).
inline void warm_cache(PathCache& cache, const Workload& flows,
                       exec::ThreadPool* pool) {
  std::vector<std::pair<NodeId, NodeId>> pairs;
  pairs.reserve(flows.size());
  for (const Flow& f : flows) {
    pairs.emplace_back(NodeId{f.src}, NodeId{f.dst});
  }
  cache.precompute(pairs, pool);
}

// Builds the path-based MCF instance for a workload under k-shortest-path
// routing on `g`. The KSP precompute — the hot stage — fans across `pool`.
inline McfInstance mcf_for(const Graph& g, const Workload& flows,
                           std::uint32_t k,
                           exec::ThreadPool* pool = nullptr,
                           const obs::ObsSink& sink = {}) {
  const LogicalTopology topo{g};
  PathCache cache{g, k};
  cache.attach_obs(sink);
  warm_cache(cache, flows, pool);
  std::vector<FlowPaths> flow_paths;
  flow_paths.reserve(flows.size());
  for (const Flow& f : flows) {
    flow_paths.push_back(FlowPaths{NodeId{f.src}, NodeId{f.dst},
                                   cache.server_paths(NodeId{f.src},
                                                      NodeId{f.dst})});
  }
  return build_mcf_instance(topo, flow_paths);
}

// Fabric-throughput MCF (the Jellyfish methodology the paper follows, used
// by the Table-1-style throughput comparisons): switch-switch edges are
// capacity constraints; server access links are not shared resources —
// instead every flow is individually capped at the line rate by a private
// per-commodity edge. This measures what the *fabric* can sustain, which
// is what distinguishes the architectures.
inline McfInstance fabric_mcf(const Graph& g, const Workload& flows,
                              std::uint32_t k,
                              exec::ThreadPool* pool = nullptr,
                              const obs::ObsSink& sink = {}) {
  const LogicalTopology topo{g};
  PathCache cache{g, k};
  cache.attach_obs(sink);
  warm_cache(cache, flows, pool);
  McfInstance instance;
  std::unordered_map<std::uint32_t, std::uint32_t> edge_row;
  const auto row_for = [&](std::uint32_t directed) {
    const auto [it, inserted] = edge_row.try_emplace(
        directed, static_cast<std::uint32_t>(instance.capacity.size()));
    if (inserted) instance.capacity.push_back(topo.capacity(directed));
    return it->second;
  };
  for (const Flow& f : flows) {
    McfCommodity commodity;
    // Private line-rate cap shared by all of this flow's paths.
    const std::uint32_t cap_row =
        static_cast<std::uint32_t>(instance.capacity.size());
    instance.capacity.push_back(10e9);
    for (const Path& path :
         cache.server_paths(NodeId{f.src}, NodeId{f.dst})) {
      std::vector<std::uint32_t> rows{cap_row};
      for (std::size_t i = 0; i + 1 < path.size(); ++i) {
        // Skip server access hops: only the switch fabric is shared.
        if (!is_switch(g.node(path[i]).role) ||
            !is_switch(g.node(path[i + 1]).role)) {
          continue;
        }
        rows.push_back(row_for(topo.directed_index(path[i], path[i + 1])));
      }
      commodity.paths.push_back(std::move(rows));
    }
    instance.commodities.push_back(std::move(commodity));
  }
  return instance;
}

// Deterministically subsample a workload down to `count` flows.
inline Workload subsample(const Workload& flows, std::size_t count,
                          std::uint64_t seed) {
  if (flows.size() <= count) return flows;
  std::vector<std::uint32_t> index(flows.size());
  std::iota(index.begin(), index.end(), 0u);
  Rng rng{seed};
  shuffle(index, rng);
  Workload out;
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i) out.push_back(flows[index[i]]);
  return out;
}

inline double mean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  return std::accumulate(v.begin(), v.end(), 0.0) / static_cast<double>(v.size());
}

using flattree::percentile;

// Completion summary of one fluid run: worst and p99 FCT over the flows
// that completed.
struct RunStats {
  double worst_fct{0.0};
  double p99_fct{0.0};
  std::size_t completed{0};
  std::size_t total{0};
};

inline RunStats summarize(const std::vector<FluidFlowResult>& results) {
  RunStats stats;
  std::vector<double> fcts;
  for (const FluidFlowResult& r : results) {
    ++stats.total;
    if (!r.completed) continue;
    ++stats.completed;
    fcts.push_back(r.fct_s());
  }
  for (double f : fcts) stats.worst_fct = std::max(stats.worst_fct, f);
  stats.p99_fct = percentile(fcts, 99.0);
  return stats;
}

inline void print_header(const std::string& title, const std::string& note) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", title.c_str());
  if (!note.empty()) std::printf("%s\n", note.c_str());
  std::printf("================================================================\n");
}

inline void print_row(const std::vector<std::string>& cells, int width = 14) {
  for (const std::string& cell : cells) {
    std::printf("%-*s", width, cell.c_str());
  }
  std::printf("\n");
}

inline std::string fmt(double value, int precision = 2) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.*f", precision, value);
  return buffer;
}

inline std::string fmt_gbps(double bps) { return fmt(bps / 1e9, 2); }

}  // namespace flattree::bench
