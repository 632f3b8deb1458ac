// Network-state accounting (§4.2).
//
// k-shortest-path routing needs per-path forwarding state; the paper's core
// control-plane contribution is cutting that state down in two steps:
//   naive        one rule per (server pair, path, transit switch)
//   aggregated   prefix matching at the ingress/egress switch level --
//                one rule per (switch pair, path, transit switch)
//   source-routed  ingress keeps S*k rules; transit keeps D*C static rules
// analyze_states computes the per-switch counts from the *actual* path sets
// in use, plus the closed-form averages the paper quotes (n^2 k L / N and
// S^2 k L / N). The transit D*C term is topology-only (diameter times the
// largest port count), so bench_states derives it beside these counts.
#pragma once

#include <cstdint>
#include <vector>

#include "net/graph.h"
#include "routing/ksp.h"
#include "routing/path.h"

namespace flattree {

struct StateCounts {
  // Exact per-switch rule counts derived from the path sets.
  std::uint64_t naive_max{0};
  double naive_avg{0.0};
  std::uint64_t aggregated_max{0};
  double aggregated_avg{0.0};
  std::uint64_t ingress_max{0};   // source routing: per-ingress route stack rules
  double ingress_avg{0.0};

  // Closed-form estimates from §4.2 for cross-checking.
  double formula_naive_avg{0.0};       // n^2 * k * L / N
  double formula_aggregated_avg{0.0};  // S^2 * k * L / N

  double avg_path_length{0.0};  // L over the analyzed path sets
  std::uint64_t path_count{0};
};

// A traffic-independent analysis assumes all-to-all switch pairs; callers
// with a concrete workload can pass just the pairs in use.
struct SwitchPair {
  NodeId src{};
  NodeId dst{};
};

// Computes rule counts for the k-shortest-path routing of the given switch
// pairs. The naive count scales each path by the real server attachment
// counts of its ingress and egress switches.
[[nodiscard]] StateCounts analyze_states(const Graph& graph, PathCache& paths,
                                         const std::vector<SwitchPair>& pairs);

// All ordered pairs of switches that have at least one attached server
// (every switch can be an ingress/egress in flat-tree).
[[nodiscard]] std::vector<SwitchPair> all_ingress_pairs(const Graph& graph);

}  // namespace flattree
