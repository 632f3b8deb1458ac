// Path representation and validation.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "net/graph.h"

namespace flattree {

// A path is a node sequence; consecutive nodes must be adjacent in the graph
// being routed on. Paths may be switch-to-switch (routing core) or
// server-to-server (allocation).
using Path = std::vector<NodeId>;

// Checks adjacency of consecutive hops, loop-freedom, and that interior
// nodes are switches. Returns false (never throws) so it can gate-keep
// untrusted path inputs.
[[nodiscard]] bool is_valid_path(const Graph& graph, std::span<const NodeId> path);

// How many of `paths` are not valid on `graph` — the dead share of a pair's
// installed ECMP set.
[[nodiscard]] std::size_t count_invalid_paths(const Graph& graph,
                                              const std::vector<Path>& paths);

// True when `paths` is non-empty and every path is valid on `graph`.
[[nodiscard]] bool all_paths_valid(const Graph& graph,
                                   const std::vector<Path>& paths);

// Targeted patch of one pair's path set: the paths of `installed` still
// valid on `graph` stay (in order), and the set is topped back up to `want`
// paths from `solve()`, skipping paths already kept. `solve` runs only when
// the survivors fall short.
template <typename Solve>
[[nodiscard]] std::vector<Path> patch_paths(const Graph& graph,
                                            const std::vector<Path>& installed,
                                            std::size_t want, Solve&& solve) {
  std::vector<Path> next;
  for (const Path& p : installed) {
    if (is_valid_path(graph, p)) next.push_back(p);
  }
  if (next.size() >= want) return next;
  for (const Path& p : solve()) {
    if (next.size() >= want) break;
    if (std::find(next.begin(), next.end(), p) == next.end()) next.push_back(p);
  }
  return next;
}

// Hop count (links traversed); 0 for trivial paths.
[[nodiscard]] inline std::size_t path_length(std::span<const NodeId> path) {
  return path.empty() ? 0 : path.size() - 1;
}

// Extends a switch-level path with the server endpoints:
// src_server -> [switch path] -> dst_server.
[[nodiscard]] Path with_server_endpoints(NodeId src_server,
                                         std::span<const NodeId> switch_path,
                                         NodeId dst_server);

}  // namespace flattree
