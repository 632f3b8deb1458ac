// Graph-level statistics used throughout the evaluation: average path
// lengths (the (m, n) profiling metric of §3.4 and the wiring-pattern
// ablation of §3.2), diameter, and structural audits — plus the sample
// percentile every bench table and scenario summary reports.
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <vector>

#include "net/graph.h"

namespace flattree {

struct PathLengthStats {
  double avg_switch_pair_hops{0.0};   // mean over ordered switch pairs
  double avg_server_pair_hops{0.0};   // mean over ordered server pairs
  std::uint32_t diameter{0};          // max finite switch-pair distance
  // Histogram of switch-pair hop distances (distance -> ordered-pair count).
  std::map<std::uint32_t, std::uint64_t> switch_hop_histogram;
};

// All-pairs BFS over the switch subgraph. Server-pair distance is the
// attachment-switch distance plus the two server-edge hops.
[[nodiscard]] PathLengthStats compute_path_length_stats(const Graph& graph);

// Number of servers attached to each switch of the given role, in
// index_in_role order. Used to verify wiring Property 1 (§3.2): servers are
// distributed uniformly across the core switches.
[[nodiscard]] std::vector<std::size_t> servers_per_switch(const Graph& graph,
                                                          NodeRole role);

// Per-switch count of links toward nodes of `peer_role`, in index_in_role
// order over switches of `role`. Used to verify wiring Property 2 (§3.2):
// core switches carry an equal number of links of each type.
[[nodiscard]] std::vector<std::size_t> links_by_peer_role(const Graph& graph,
                                                          NodeRole role,
                                                          NodeRole peer_role);

// The p-th percentile (p in [0, 100]) of `v`, interpolating linearly
// between the two nearest order statistics; 0 for an empty sample.
[[nodiscard]] inline double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double rank = p / 100.0 * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return v[lo] * (1 - frac) + v[hi] * frac;
}

}  // namespace flattree
