#include "routing/ecmp.h"

#include <algorithm>
#include <stdexcept>

#include "net/rng.h"

namespace flattree {

const std::vector<std::uint32_t>& EcmpRouter::distances_to(NodeId dst_switch) {
  if (dist_cache_.empty()) {
    dist_cache_.resize(graph_->node_count());
    dist_cached_.resize(graph_->node_count(), false);
  }
  if (!dist_cached_[dst_switch.index()]) {
    dist_cache_[dst_switch.index()] = graph_->bfs_distances(dst_switch);
    dist_cached_[dst_switch.index()] = true;
  }
  return dist_cache_[dst_switch.index()];
}

Path EcmpRouter::flow_path(NodeId src_server, NodeId dst_server,
                           std::uint64_t flow_key) {
  const Graph& g = *graph_;
  const NodeId src_sw = g.attachment_switch(src_server);
  const NodeId dst_sw = g.attachment_switch(dst_server);
  Path path{src_server, src_sw};
  if (src_sw == dst_sw) {
    path.push_back(dst_server);
    return path;
  }
  const auto& dist = distances_to(dst_sw);
  if (dist[src_sw.index()] == Graph::kUnreachable) {
    throw std::logic_error("ecmp: destination unreachable");
  }
  NodeId here = src_sw;
  while (here != dst_sw) {
    // Equal-cost next hops: neighbors strictly closer to the destination.
    std::vector<NodeId> next;
    for (const Adjacency& adj : g.neighbors(here)) {
      if (!is_switch(g.node(adj.peer).role)) continue;
      if (dist[adj.peer.index()] + 1 == dist[here.index()]) {
        next.push_back(adj.peer);
      }
    }
    if (next.empty()) {
      if (dist[here.index()] == 1 && here != dst_sw) {
        throw std::logic_error("ecmp: no switch next hop");
      }
      throw std::logic_error("ecmp: dead end");
    }
    std::sort(next.begin(), next.end());
    next.erase(std::unique(next.begin(), next.end()), next.end());
    const std::uint64_t h = mix64(flow_key, here.value(), seed_);
    path.push_back(next[h % next.size()]);
    here = path.back();
  }
  path.push_back(dst_server);
  return path;
}

}  // namespace flattree
