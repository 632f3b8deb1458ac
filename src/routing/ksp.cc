#include "routing/ksp.h"

#include <algorithm>
#include <cstddef>
#include <set>
#include <stdexcept>
#include <unordered_set>

#include "exec/parallel.h"

namespace flattree {
namespace {

// Total order on paths: length first, then node values lexicographically.
// Used both for candidate selection in Yen's algorithm and for result
// determinism.
bool path_less(const Path& a, const Path& b) {
  if (a.size() != b.size()) return a.size() < b.size();
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i] != b[i]) return a[i] < b[i];
  }
  return false;
}

// Existence-level switch-switch adjacency keys of g (smaller id first).
std::set<std::uint64_t> switch_adjacencies(const Graph& g) {
  std::set<std::uint64_t> keys;
  for (std::uint32_t i = 0; i < g.link_count(); ++i) {
    const Link& l = g.link(LinkId{i});
    if (!is_switch(g.node(l.a).role) || !is_switch(g.node(l.b).role)) continue;
    const std::uint32_t lo = std::min(l.a.value(), l.b.value());
    const std::uint32_t hi = std::max(l.a.value(), l.b.value());
    keys.insert((static_cast<std::uint64_t>(lo) << 32) | hi);
  }
  return keys;
}

}  // namespace

AdjacencyDelta adjacency_delta(const Graph& from, const Graph& to) {
  if (from.node_count() != to.node_count()) {
    throw std::invalid_argument("adjacency_delta: node ids must be shared");
  }
  const std::set<std::uint64_t> before = switch_adjacencies(from);
  const std::set<std::uint64_t> after = switch_adjacencies(to);
  AdjacencyDelta delta;
  const auto unpack = [](std::uint64_t key) {
    return std::pair{NodeId{static_cast<std::uint32_t>(key >> 32)},
                     NodeId{static_cast<std::uint32_t>(key & 0xffffffffu)}};
  };
  for (const std::uint64_t key : before) {
    if (!after.contains(key)) delta.removed.push_back(unpack(key));
  }
  for (const std::uint64_t key : after) {
    if (!before.contains(key)) delta.added.push_back(unpack(key));
  }
  return delta;
}

// Per-call search state, sized once per k_shortest_paths call and reused by
// every spur search in it. Stamps equal to `epoch` belong to the current
// search; bumping the epoch clears all of them at once.
struct KspSolver::Workspace {
  explicit Workspace(std::size_t nodes)
      : seen(nodes, 0), first_hop_banned(nodes, 0), parent(nodes) {
    queue.reserve(nodes);
  }

  // Starts a new search: every stamp from earlier searches goes stale.
  void next_search() {
    if (++epoch == 0) {  // wrapped: old stamps could alias, so clear them
      std::fill(seen.begin(), seen.end(), 0);
      std::fill(first_hop_banned.begin(), first_hop_banned.end(), 0);
      epoch = 1;
    }
  }

  std::uint32_t epoch{0};
  // Discovered (or banned: Yen's root nodes are stamped in up front, so the
  // search treats them as already visited).
  std::vector<std::uint32_t> seen;
  // Peers of the source that may not be the first hop.
  std::vector<std::uint32_t> first_hop_banned;
  std::vector<NodeId> parent;
  std::vector<NodeId> queue;  // FIFO: a node is pushed at most once
};

KspSolver::KspSolver(const Graph& graph)
    : offsets_(graph.node_count() + 1, 0),
      transit_(graph.node_count(), false) {
  peers_.reserve(2 * graph.link_count());
  for (std::uint32_t i = 0; i < graph.node_count(); ++i) {
    const NodeId u{i};
    transit_[i] = is_switch(graph.node(u).role);
    const auto first = static_cast<std::ptrdiff_t>(peers_.size());
    for (const Adjacency& adj : graph.neighbors(u)) peers_.push_back(adj.peer);
    std::sort(peers_.begin() + first, peers_.end());
    peers_.erase(std::unique(peers_.begin() + first, peers_.end()),
                 peers_.end());
    offsets_[i + 1] = static_cast<std::uint32_t>(peers_.size());
  }
}

std::optional<Path> KspSolver::shortest_path(NodeId src, NodeId dst) const {
  std::vector<Path> paths = k_shortest_paths(src, dst, 1);
  if (paths.empty()) return std::nullopt;
  return std::move(paths.front());
}

bool KspSolver::constrained_shortest(Workspace& ws, NodeId src,
                                     NodeId dst) const {
  if (src == dst) return true;
  const std::uint32_t epoch = ws.epoch;
  if (ws.seen[dst.index()] == epoch) return false;  // dst is banned
  ws.seen[src.index()] = epoch;
  ws.queue.clear();
  ws.queue.push_back(src);
  for (std::size_t head = 0; head < ws.queue.size(); ++head) {
    const NodeId u = ws.queue[head];
    // Traffic transits switches only.
    if (u != src && !transit_[u.index()]) continue;
    const bool at_src = u == src;
    for (std::uint32_t e = offsets_[u.index()]; e < offsets_[u.index() + 1];
         ++e) {
      const NodeId v = peers_[e];
      if (ws.seen[v.index()] == epoch) continue;
      if (at_src && ws.first_hop_banned[v.index()] == epoch) continue;
      ws.seen[v.index()] = epoch;
      ws.parent[v.index()] = u;
      if (v == dst) return true;
      ws.queue.push_back(v);
    }
  }
  return false;
}

void KspSolver::append_found(const Workspace& ws, NodeId src, NodeId dst,
                             Path& out) const {
  const std::size_t first = out.size();
  for (NodeId n = dst; n != src; n = ws.parent[n.index()]) out.push_back(n);
  std::reverse(out.begin() + static_cast<std::ptrdiff_t>(first), out.end());
}

std::vector<Path> KspSolver::k_shortest_paths(NodeId src, NodeId dst,
                                              std::uint32_t k) const {
  std::vector<Path> result;
  if (k == 0) return result;
  if (src.index() >= node_count() || dst.index() >= node_count()) {
    throw std::invalid_argument("shortest_path: bad node id");
  }
  Workspace ws{node_count()};
  ws.next_search();
  if (!constrained_shortest(ws, src, dst)) return result;
  result.push_back(Path{src});
  append_found(ws, src, dst, result.back());

  // Candidates ordered by (length, lexicographic), deduplicated.
  auto cmp = [](const Path& a, const Path& b) { return path_less(a, b); };
  std::set<Path, decltype(cmp)> candidates(cmp);

  while (result.size() < k) {
    const Path& prev = result.back();
    for (std::size_t i = 0; i + 1 < prev.size(); ++i) {
      const NodeId spur = prev[i];
      const std::span<const NodeId> root{prev.data(), i + 1};

      // Yen's bans: the root's nodes before the spur, and every edge
      // (p[i], p[i+1]) of an accepted path p sharing the root. p[i] is the
      // spur, the search's source, so each banned edge is a first hop.
      ws.next_search();
      for (const Path& p : result) {
        if (p.size() > i + 1 &&
            std::equal(root.begin(), root.end(), p.begin())) {
          ws.first_hop_banned[p[i + 1].index()] = ws.epoch;
        }
      }
      for (std::size_t j = 0; j < i; ++j) ws.seen[prev[j].index()] = ws.epoch;

      if (!constrained_shortest(ws, spur, dst)) continue;

      Path total(root.begin(), root.end());
      append_found(ws, spur, dst, total);
      if (std::none_of(result.begin(), result.end(),
                       [&](const Path& p) { return p == total; })) {
        candidates.insert(std::move(total));
      }
    }
    if (candidates.empty()) break;
    result.push_back(*candidates.begin());
    candidates.erase(candidates.begin());
  }
  return result;
}

void PathCache::attach_obs(const obs::ObsSink& sink) {
  obs::MetricsRegistry* reg = sink.metrics();
  if (reg == nullptr) {
    c_hits_ = c_misses_ = c_computed_ = c_evicted_ = nullptr;
    return;
  }
  c_hits_ = &reg->counter("routing.ksp.cache_hits");
  c_misses_ = &reg->counter("routing.ksp.cache_misses");
  c_computed_ = &reg->counter("routing.ksp.pairs_computed");
  c_evicted_ = &reg->counter("routing.ksp.pairs_evicted");
}

const KspSolver& PathCache::solver() {
  if (!solver_) solver_.emplace(*graph_);
  return *solver_;
}

const std::vector<Path>& PathCache::switch_paths(NodeId src_switch,
                                                 NodeId dst_switch) {
  const std::uint64_t key =
      (static_cast<std::uint64_t>(src_switch.value()) << 32) |
      dst_switch.value();
  const auto it = cache_.find(key);
  if (it != cache_.end()) {
    obs::add(c_hits_);
    return it->second;
  }
  obs::add(c_misses_);
  obs::add(c_computed_);
  auto paths = solver().k_shortest_paths(src_switch, dst_switch, k_);
  return cache_.emplace(key, std::move(paths)).first->second;
}

std::size_t PathCache::precompute(
    std::span<const std::pair<NodeId, NodeId>> pairs,
    exec::ThreadPool* pool) {
  // Resolve endpoints to switch pairs, drop same-switch pairs (server_paths
  // synthesizes those without touching the cache), and dedup against both
  // the cache and earlier entries, preserving first-seen order.
  std::vector<std::pair<NodeId, NodeId>> todo;
  std::unordered_set<std::uint64_t> seen;
  todo.reserve(pairs.size());
  for (const auto& [a, b] : pairs) {
    const NodeId src =
        is_switch(graph_->node(a).role) ? a : graph_->attachment_switch(a);
    const NodeId dst =
        is_switch(graph_->node(b).role) ? b : graph_->attachment_switch(b);
    if (src == dst) continue;
    const std::uint64_t key =
        (static_cast<std::uint64_t>(src.value()) << 32) | dst.value();
    if (cache_.contains(key) || !seen.insert(key).second) continue;
    todo.emplace_back(src, dst);
  }

  // The solver is built here, before the fan-out. The per-pair Yen's runs
  // only read it (each call owns its workspace), so they fan out safely;
  // insertion stays serial because the map is not.
  if (todo.empty()) return 0;
  const KspSolver& solver = this->solver();
  std::vector<std::vector<Path>> computed = exec::parallel_map(
      pool, todo.size(), [this, &solver, &todo](std::size_t i) {
        return solver.k_shortest_paths(todo[i].first, todo[i].second, k_);
      });
  for (std::size_t i = 0; i < todo.size(); ++i) {
    const std::uint64_t key =
        (static_cast<std::uint64_t>(todo[i].first.value()) << 32) |
        todo[i].second.value();
    cache_.emplace(key, std::move(computed[i]));
  }
  obs::add(c_computed_, todo.size());
  return todo.size();
}

std::size_t PathCache::rebind_and_invalidate(
    const Graph& graph, std::span<const NodeId> failed_switches,
    std::vector<EvictedPair>* evicted_out) {
  if (graph.node_count() != graph_->node_count()) {
    throw std::invalid_argument(
        "PathCache::rebind_and_invalidate: node ids must be shared");
  }
  graph_ = &graph;
  solver_.reset();
  std::vector<bool> failed(graph.node_count(), false);
  for (NodeId id : failed_switches) failed[id.index()] = true;
  const auto broken = [&](const Path& path) {
    for (std::size_t i = 0; i < path.size(); ++i) {
      if (failed[path[i].index()]) return true;
      if (i + 1 < path.size() && !graph.adjacent(path[i], path[i + 1])) {
        return true;
      }
    }
    return false;
  };
  std::size_t evicted = 0;
  for (auto it = cache_.begin(); it != cache_.end();) {
    const bool evict = it->second.empty() ||
                       std::any_of(it->second.begin(), it->second.end(), broken);
    if (evict) {
      if (evicted_out != nullptr) {
        EvictedPair pair;
        pair.src = NodeId{static_cast<std::uint32_t>(it->first >> 32)};
        pair.dst = NodeId{static_cast<std::uint32_t>(it->first & 0xffffffffu)};
        for (const Path& path : it->second) {
          if (!path.empty()) pair.rules += path.size() - 1;
        }
        evicted_out->push_back(pair);
      }
      it = cache_.erase(it);
      ++evicted;
    } else {
      ++it;
    }
  }
  obs::add(c_evicted_, evicted);
  return evicted;
}

std::size_t PathCache::rebind_warm(const Graph& graph,
                                   std::vector<EvictedPair>* evicted_out) {
  if (graph.node_count() != graph_->node_count()) {
    throw std::invalid_argument(
        "PathCache::rebind_warm: node ids must be shared");
  }
  const AdjacencyDelta delta = adjacency_delta(*graph_, graph);
  graph_ = &graph;
  solver_.reset();
  if (delta.empty()) return 0;

  // Directed lookup set for removed adjacencies (cached paths hop either
  // direction).
  std::unordered_set<std::uint64_t> removed;
  for (const auto& [a, b] : delta.removed) {
    removed.insert((static_cast<std::uint64_t>(a.value()) << 32) | b.value());
    removed.insert((static_cast<std::uint64_t>(b.value()) << 32) | a.value());
  }
  const auto hops_removed = [&](const Path& path) {
    for (std::size_t i = 0; i + 1 < path.size(); ++i) {
      const std::uint64_t key =
          (static_cast<std::uint64_t>(path[i].value()) << 32) |
          path[i + 1].value();
      if (removed.contains(key)) return true;
    }
    return false;
  };

  // Switch-transit hop distances on the new graph from every endpoint of an
  // added adjacency — one BFS per distinct endpoint, O(1) per cached pair
  // afterwards. Only switch entries are read (cache keys are switch pairs).
  constexpr std::uint32_t kInf = Graph::kUnreachable;
  std::unordered_map<std::uint32_t, std::vector<std::uint32_t>> dist;
  const auto bfs_from = [&](NodeId start) -> const std::vector<std::uint32_t>& {
    auto it = dist.find(start.value());
    if (it == dist.end()) {
      it = dist.emplace(start.value(), graph.bfs_distances(start)).first;
    }
    return it->second;
  };

  std::size_t evicted = 0;
  for (auto it = cache_.begin(); it != cache_.end();) {
    const NodeId src{static_cast<std::uint32_t>(it->first >> 32)};
    const NodeId dst{static_cast<std::uint32_t>(it->first & 0xffffffffu)};
    const std::vector<Path>& paths = it->second;
    bool evict =
        std::any_of(paths.begin(), paths.end(), hops_removed);
    if (!evict && !delta.added.empty()) {
      if (paths.size() < k_) {
        // A new edge can only add paths; a short set may grow.
        evict = true;
      } else {
        // Paths are (length, lex)-sorted, so the last one is the k-th
        // best. A candidate through a new edge displaces a cached path
        // only if it is no longer than that (ties displace via lex order).
        const std::uint64_t kth = path_length(paths.back());
        for (const auto& [u, v] : delta.added) {
          const std::vector<std::uint32_t>& du = bfs_from(u);
          const std::vector<std::uint32_t>& dv = bfs_from(v);
          const auto through = [&](const std::vector<std::uint32_t>& a,
                                   const std::vector<std::uint32_t>& b) {
            if (a[src.index()] == kInf || b[dst.index()] == kInf) {
              return std::uint64_t{kInf} + kInf;
            }
            return static_cast<std::uint64_t>(a[src.index()]) + 1 +
                   b[dst.index()];
          };
          if (std::min(through(du, dv), through(dv, du)) <= kth) {
            evict = true;
            break;
          }
        }
      }
    }
    if (evict) {
      if (evicted_out != nullptr) {
        EvictedPair pair;
        pair.src = src;
        pair.dst = dst;
        for (const Path& path : paths) {
          if (!path.empty()) pair.rules += path.size() - 1;
        }
        evicted_out->push_back(pair);
      }
      it = cache_.erase(it);
      ++evicted;
    } else {
      ++it;
    }
  }
  obs::add(c_evicted_, evicted);
  return evicted;
}

std::vector<Path> PathCache::server_paths(NodeId src_server,
                                          NodeId dst_server) {
  const NodeId src_sw = graph_->attachment_switch(src_server);
  const NodeId dst_sw = graph_->attachment_switch(dst_server);
  std::vector<Path> result;
  if (src_sw == dst_sw) {
    // Same-rack pair: the single two-hop path through the shared switch.
    result.push_back(Path{src_server, src_sw, dst_server});
    return result;
  }
  for (const Path& sw_path : switch_paths(src_sw, dst_sw)) {
    result.push_back(with_server_endpoints(src_server, sw_path, dst_server));
  }
  return result;
}

}  // namespace flattree
