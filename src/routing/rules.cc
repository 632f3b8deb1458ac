#include "routing/rules.h"

#include <algorithm>

namespace flattree {

std::vector<SwitchPair> all_ingress_pairs(const Graph& graph) {
  std::vector<NodeId> ingress;
  for (NodeId sw : graph.switches()) {
    if (!graph.attached_servers(sw).empty()) ingress.push_back(sw);
  }
  std::vector<SwitchPair> pairs;
  pairs.reserve(ingress.size() * (ingress.size() - 1));
  for (NodeId a : ingress) {
    for (NodeId b : ingress) {
      if (a != b) pairs.push_back(SwitchPair{a, b});
    }
  }
  return pairs;
}

StateCounts analyze_states(const Graph& graph, PathCache& paths,
                           const std::vector<SwitchPair>& pairs) {
  StateCounts out;
  const std::size_t nodes = graph.node_count();
  std::vector<std::uint64_t> naive(nodes, 0);
  std::vector<std::uint64_t> aggregated(nodes, 0);
  std::vector<std::uint64_t> ingress(nodes, 0);

  std::vector<std::uint64_t> servers_at(nodes, 0);
  for (NodeId server : graph.servers()) {
    ++servers_at[graph.attachment_switch(server).index()];
  }

  std::uint64_t total_hops = 0;
  for (const SwitchPair& pair : pairs) {
    const auto& path_set = paths.switch_paths(pair.src, pair.dst);
    const std::uint64_t server_fan =
        servers_at[pair.src.index()] * servers_at[pair.dst.index()];
    for (const Path& path : path_set) {
      ++out.path_count;
      total_hops += path_length(path);
      ingress[pair.src.index()] += 1;
      for (NodeId hop : path) {
        // Each switch a path traverses must hold a matching rule.
        aggregated[hop.index()] += 1;
        naive[hop.index()] += server_fan;
      }
    }
  }

  const auto summarize = [&](const std::vector<std::uint64_t>& counts,
                             std::uint64_t& max_out, double& avg_out) {
    std::uint64_t total = 0;
    std::uint64_t switches = 0;
    for (NodeId sw : graph.switches()) {
      const std::uint64_t c = counts[sw.index()];
      max_out = std::max(max_out, c);
      total += c;
      ++switches;
    }
    avg_out = switches == 0 ? 0.0
                            : static_cast<double>(total) /
                                  static_cast<double>(switches);
  };
  summarize(naive, out.naive_max, out.naive_avg);
  summarize(aggregated, out.aggregated_max, out.aggregated_avg);
  summarize(ingress, out.ingress_max, out.ingress_avg);

  if (out.path_count > 0) {
    out.avg_path_length =
        static_cast<double>(total_hops) / static_cast<double>(out.path_count);
  }

  // Closed-form §4.2 estimates: n^2 k L / N and S^2 k L / N, with n the
  // server count, S the ingress-switch count, N the switch count, L the
  // average path length, k the path fan-out.
  const double n = static_cast<double>(graph.count_role(NodeRole::kServer));
  double s = 0;
  for (NodeId sw : graph.switches()) {
    if (!graph.attached_servers(sw).empty()) s += 1;
  }
  const double big_n = static_cast<double>(graph.switches().size());
  const double k = static_cast<double>(paths.k());
  out.formula_naive_avg = n * n * k * out.avg_path_length / big_n;
  out.formula_aggregated_avg = s * s * k * out.avg_path_length / big_n;
  return out;
}

}  // namespace flattree
