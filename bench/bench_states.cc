// §4.2 network-state accounting: per-switch OpenFlow rule counts under
// naive per-server-pair routing, ingress/egress prefix aggregation, and
// MAC-encoded source routing — on the testbed (exact, all pairs) and on
// topo-1 (sampled pairs, with the closed-form estimates the paper quotes:
// n^2 k L / N naive, S^2 k L / N aggregated, S x k + D x C source-routed).
//
// Execution: the five printed blocks are independent cells fanned across
// the exec pool; BENCH_states.json holds one row per block with the raw
// counts. The accounting draws no randomness; --seed is accepted and
// unused.
#include <algorithm>
#include <cstdio>

#include "bench/util.h"
#include "core/flat_tree.h"
#include "net/stats.h"
#include "routing/rules.h"
#include "topo/params.h"

namespace flattree {
namespace {

struct Block {
  const char* label;
  const FlatTree* tree;
  PodMode mode;
  std::uint32_t k;
  std::size_t pair_stride;
};

struct Cell {
  std::size_t pairs{0};
  StateCounts counts;
  std::uint32_t diameter{0};
  std::size_t max_ports{0};
  std::uint64_t transit_dxc{0};
};

// The C of the D x C transit bound: the most ports on any node, one port per
// distinct neighbour (parallel links to one neighbour are one logical pipe).
std::size_t max_port_count(const Graph& g) {
  std::size_t best = 0;
  std::vector<NodeId> peers;
  for (std::uint32_t i = 0; i < g.node_count(); ++i) {
    peers.clear();
    for (const Adjacency& adj : g.neighbors(NodeId{i})) {
      peers.push_back(adj.peer);
    }
    std::sort(peers.begin(), peers.end());
    best = std::max<std::size_t>(
        best, std::unique(peers.begin(), peers.end()) - peers.begin());
  }
  return best;
}

Cell analyze(const Block& block) {
  const Graph g = block.tree->realize_uniform(block.mode);
  PathCache cache{g, block.k};
  auto pairs = all_ingress_pairs(g);
  if (block.pair_stride > 1) {
    std::vector<SwitchPair> sampled;
    for (std::size_t i = 0; i < pairs.size(); i += block.pair_stride) {
      sampled.push_back(pairs[i]);
    }
    pairs = std::move(sampled);
  }
  Cell cell;
  cell.pairs = pairs.size();
  cell.counts = analyze_states(g, cache, pairs);
  cell.diameter = compute_path_length_stats(g).diameter;
  cell.max_ports = max_port_count(g);
  // Source-routed transit state: one rule per (TTL value, output port).
  cell.transit_dxc = std::uint64_t{cell.diameter} * cell.max_ports;
  return cell;
}

void report(const Block& block, const Cell& cell) {
  const StateCounts& counts = cell.counts;
  std::printf("\n--- %s (k=%u, %zu ingress pairs%s) ---\n", block.label,
              block.k, cell.pairs, block.pair_stride > 1 ? ", sampled" : "");
  std::printf("  avg path length L = %.2f, diameter %u, max ports %zu\n",
              counts.avg_path_length, cell.diameter, cell.max_ports);
  std::printf("  naive      : avg %12.0f  max %12llu   (formula n^2kL/N = %.0f)\n",
              counts.naive_avg,
              static_cast<unsigned long long>(counts.naive_max),
              counts.formula_naive_avg);
  std::printf("  aggregated : avg %12.0f  max %12llu   (formula S^2kL/N = %.0f)\n",
              counts.aggregated_avg,
              static_cast<unsigned long long>(counts.aggregated_max),
              counts.formula_aggregated_avg);
  std::printf("  src-routed : ingress max %llu, transit DxC = %llu\n",
              static_cast<unsigned long long>(counts.ingress_max),
              static_cast<unsigned long long>(cell.transit_dxc));
  std::printf("  naive -> aggregated reduction: %.0fx (paper: 400-1600x for "
              "20-40 servers/ToR)\n",
              counts.naive_avg / counts.aggregated_avg);
}

exec::ResultRow to_row(const Block& block, const Cell& cell) {
  const StateCounts& counts = cell.counts;
  exec::ResultRow row;
  row.set("network", block.label)
      .set("k", block.k)
      .set("ingress_pairs", cell.pairs)
      .set("sampled", block.pair_stride > 1)
      .set("naive_max", counts.naive_max)
      .set("naive_avg", counts.naive_avg)
      .set("aggregated_max", counts.aggregated_max)
      .set("aggregated_avg", counts.aggregated_avg)
      .set("ingress_max", counts.ingress_max)
      .set("ingress_avg", counts.ingress_avg)
      .set("formula_naive_avg", counts.formula_naive_avg)
      .set("formula_aggregated_avg", counts.formula_aggregated_avg)
      .set("avg_path_length", counts.avg_path_length)
      .set("diameter", cell.diameter)
      .set("max_ports", cell.max_ports)
      .set("transit_dxc", cell.transit_dxc);
  return row;
}

void run(int argc, char** argv) {
  exec::ExperimentRunner runner{
      bench::parse_runner_options("states", argc, argv, 20170821)};
  bench::print_header("Network state accounting (§4.2, §5.3)",
                      "per-switch OpenFlow rule counts by aggregation level");

  // Testbed, all three modes (paper §5.3: max 242 / 180 / 76 with k=4).
  FlatTreeParams params;
  params.clos = ClosParams::testbed();
  params.six_port_per_column = 1;
  params.four_port_per_column = 1;
  const FlatTree tree{params};
  // topo-1, sampled pairs (the full global pair set is 320x319). The Clos
  // mode carries 32 servers per ToR, which is where the paper's 400-1600x
  // naive -> aggregated reduction claim lives (here 32^2 = 1024x).
  const FlatTree big{FlatTreeParams::defaults_for(ClosParams::topo1())};
  const Block blocks[] = {
      {"testbed global mode", &tree, PodMode::kGlobal, 4, 1},
      {"testbed local mode", &tree, PodMode::kLocal, 4, 1},
      {"testbed clos mode", &tree, PodMode::kClos, 4, 1},
      {"topo-1 global mode", &big, PodMode::kGlobal, 8, 64},
      {"topo-1 clos mode", &big, PodMode::kClos, 8, 64},
  };
  constexpr std::size_t kBlocks = std::size(blocks);

  const std::vector<Cell> cells = runner.timed_stage("state accounting", [&] {
    return exec::parallel_map(runner.pool(), kBlocks, [&](std::size_t i) {
      return analyze(blocks[i]);
    });
  });
  for (std::size_t i = 0; i < kBlocks; ++i) {
    report(blocks[i], cells[i]);
    runner.add_row(to_row(blocks[i], cells[i]));
  }
}

}  // namespace
}  // namespace flattree

int main(int argc, char** argv) {
  flattree::run(argc, argv);
  return 0;
}
