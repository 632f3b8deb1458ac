// ECMP routing (flat-tree Clos mode baseline, §5.2).
//
// Real ECMP picks the next hop at every switch pseudo-randomly by hashing
// header fields, so each TCP flow rides exactly one of the equal-cost
// shortest paths. We reproduce that: the per-switch choice is a hash of
// (flow id, switch id, seed) over the dist-decreasing neighbors, giving a
// deterministic single path per flow and the same no-multipath handicap the
// paper observes for Clos+ECMP+TCP.
#pragma once

#include <cstdint>
#include <vector>

#include "net/graph.h"
#include "routing/path.h"

namespace flattree {

class EcmpRouter {
 public:
  explicit EcmpRouter(const Graph& graph, std::uint64_t seed = 0)
      : graph_{&graph}, seed_{seed} {}

  // The single ECMP path a given flow takes between two servers.
  [[nodiscard]] Path flow_path(NodeId src_server, NodeId dst_server,
                               std::uint64_t flow_key);

 private:
  // BFS distances to `dst` over switches; cached per destination switch.
  const std::vector<std::uint32_t>& distances_to(NodeId dst_switch);

  const Graph* graph_;
  std::uint64_t seed_;
  std::vector<std::vector<std::uint32_t>> dist_cache_;
  std::vector<bool> dist_cached_;
};

}  // namespace flattree
