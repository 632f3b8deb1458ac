#include "routing/path.h"

namespace flattree {

bool is_valid_path(const Graph& graph, std::span<const NodeId> path) {
  if (path.empty()) return false;
  for (std::size_t i = 0; i < path.size(); ++i) {
    const NodeId n = path[i];
    if (n.index() >= graph.node_count()) return false;
    // Loop check: scan the earlier hops. Paths are about ten nodes long, so
    // this beats building a set on every call.
    const std::span<const NodeId> earlier = path.first(i);
    if (std::find(earlier.begin(), earlier.end(), n) != earlier.end()) {
      return false;
    }
    const bool interior = i > 0 && i + 1 < path.size();
    if (interior && !is_switch(graph.node(n).role)) return false;
  }
  for (std::size_t i = 0; i + 1 < path.size(); ++i) {
    bool adjacent = false;
    for (const Adjacency& adj : graph.neighbors(path[i])) {
      if (adj.peer == path[i + 1]) {
        adjacent = true;
        break;
      }
    }
    if (!adjacent) return false;
  }
  return true;
}

std::size_t count_invalid_paths(const Graph& graph,
                                const std::vector<Path>& paths) {
  return static_cast<std::size_t>(
      std::count_if(paths.begin(), paths.end(), [&](const Path& p) {
        return !is_valid_path(graph, p);
      }));
}

bool all_paths_valid(const Graph& graph, const std::vector<Path>& paths) {
  return !paths.empty() &&
         std::all_of(paths.begin(), paths.end(), [&](const Path& p) {
           return is_valid_path(graph, p);
         });
}

Path with_server_endpoints(NodeId src_server,
                           std::span<const NodeId> switch_path,
                           NodeId dst_server) {
  Path full;
  full.reserve(switch_path.size() + 2);
  full.push_back(src_server);
  full.insert(full.end(), switch_path.begin(), switch_path.end());
  full.push_back(dst_server);
  return full;
}

}  // namespace flattree
