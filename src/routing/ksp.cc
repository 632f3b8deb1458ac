#include "routing/ksp.h"

#include <algorithm>
#include <cstddef>
#include <set>
#include <stdexcept>
#include <unordered_set>

#include "exec/parallel.h"

namespace flattree {
namespace {

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

namespace {

// A distance-table entry for a switch with no path to the destination.
constexpr std::uint16_t kUnreached = 0xffff;

}  // namespace

// Search state, one per thread, reused by every search of every call on
// that thread. Stamps equal to `epoch` belong to the current search;
// bumping the epoch clears all of them at once.
struct KspSolver::Workspace {
  // A candidate path: a root — the first spur + 1 nodes of accepted path
  // `parent` — and the nodes after the spur. A resolved candidate keeps
  // those in `tails`; a deferred one's spur search has not run yet, so its
  // size is a lower bound, and the search will avoid the first hops of
  // the first `bans` accepted paths, exactly as when it was deferred.
  struct Candidate {
    std::uint32_t size;  // nodes; a lower bound while deferred
    std::uint32_t parent;
    std::uint32_t spur;
    std::uint32_t bans;
    std::uint32_t tail;  // resolved: offset of its tail in `tails`
    bool deferred;
  };

  // Readies the workspace for a call on a graph of `nodes` nodes. Stamps
  // left by earlier calls are all older than the next epoch.
  void start_call(std::size_t nodes) {
    if (visited.size() < nodes) {
      for (std::vector<std::uint32_t>* stamps :
           {&visited, &first_hop_banned, &reached, &closed}) {
        stamps->resize(nodes, 0);
      }
      g.resize(nodes, 0);
    }
    heap.clear();
    tails.clear();
    stats = KspStats{};
  }

  // Starts a new search: every stamp from earlier searches goes stale.
  void next_search() {
    if (++epoch == 0) {  // wrapped: old stamps could alias, so clear them
      for (std::vector<std::uint32_t>* stamps :
           {&visited, &first_hop_banned, &reached, &closed}) {
        std::fill(stamps->begin(), stamps->end(), 0);
      }
      epoch = 1;
    }
  }

  std::uint32_t epoch{0};
  // Entered by a walk, or banned: Yen's root nodes are stamped in up front,
  // so every search treats them as dead ends.
  std::vector<std::uint32_t> visited;
  // Peers of the spur that may not be the first hop.
  std::vector<std::uint32_t> first_hop_banned;
  // Bounded search: g is the best distance from the spur found so far where
  // `reached`, and exact where `closed`.
  std::vector<std::uint32_t> reached;
  std::vector<std::uint32_t> closed;
  std::vector<std::uint16_t> g;
  // Bounded search: bucket b holds nodes with g + h = h[spur] + b.
  std::vector<std::vector<NodeId>> buckets;
  // A walk's current path (spur first) and each node's next CSR edge.
  std::vector<NodeId> walk;
  std::vector<std::uint32_t> cursor;
  // Yen's candidates, a binary heap, and the resolved ones' tails.
  std::vector<Candidate> heap;
  std::vector<NodeId> tails;
  KspStats stats;
};

// A call's destination and its distances, in solver ids. The table covers
// the switches; of the servers, only the call's own endpoints are ever
// asked for.
struct KspSolver::Goal {
  NodeId dst;
  const std::uint16_t* h;
  std::uint32_t switches;
  std::uint16_t h_src{kUnreached};  // the source's, when it is a server

  // Distance from a switch, from dst, or from a server source.
  [[nodiscard]] std::uint32_t dist(NodeId v) const {
    if (v.value() < switches) return h[v.index()];
    return v == dst ? 0 : h_src;
  }
};

KspSolver::KspSolver(const Graph& graph)
    : solver_id_(graph.node_count()),
      graph_id_(graph.node_count()),
      offsets_(graph.node_count() + 1, 0),
      transit_end_(graph.node_count(), 0) {
  const auto n = static_cast<std::uint32_t>(graph.node_count());
  for (std::uint32_t i = 0; i < n; ++i) {
    if (is_switch(graph.node(NodeId{i}).role)) ++switches_;
  }
  // A path holds each switch at most once, so no distance is above
  // switches_ + 1, and kUnreached stays free.
  if (switches_ + 1 >= kUnreached) {
    throw std::length_error("KspSolver: more than 65,533 switches");
  }
  std::uint32_t next_switch = 0;
  std::uint32_t next_server = switches_;
  for (std::uint32_t i = 0; i < n; ++i) {
    const std::uint32_t s =
        is_switch(graph.node(NodeId{i}).role) ? next_switch++ : next_server++;
    solver_id_[i] = NodeId{s};
    graph_id_[s] = NodeId{i};
  }
  peers_.reserve(2 * graph.link_count());
  for (std::uint32_t s = 0; s < n; ++s) {
    for (const Adjacency& adj : graph.neighbors(graph_id_[s])) {
      peers_.push_back(solver_id_[adj.peer.index()]);
    }
    const auto first = peers_.begin() + offsets_[s];
    std::sort(first, peers_.end());
    peers_.erase(std::unique(first, peers_.end()), peers_.end());
    const auto servers = std::lower_bound(peers_.begin() + offsets_[s],
                                          peers_.end(), NodeId{switches_});
    transit_end_[s] = static_cast<std::uint32_t>(servers - peers_.begin());
    offsets_[s + 1] = static_cast<std::uint32_t>(peers_.size());
  }
  distances_ = std::make_unique<DistanceSlot[]>(n);
}

std::optional<Path> KspSolver::shortest_path(NodeId src, NodeId dst) const {
  std::vector<Path> paths = k_shortest_paths(src, dst, 1);
  if (paths.empty()) return std::nullopt;
  return std::move(paths.front());
}

const std::uint16_t* KspSolver::distances_to(NodeId dst,
                                             KspStats& stats) const {
  DistanceSlot& slot = distances_[dst.index()];
  std::call_once(slot.filled, [&] {
    auto h = std::make_unique<std::uint16_t[]>(switches_);
    std::fill_n(h.get(), switches_, kUnreached);
    if (dst.value() < switches_) h[dst.index()] = 0;
    // Only switches are queued: a server may start a path but never
    // carries one on.
    std::vector<NodeId> queue;
    queue.reserve(switches_ + 1);
    queue.push_back(dst);
    for (std::size_t head = 0; head < queue.size(); ++head) {
      const NodeId u = queue[head];
      ++stats.nodes_expanded;
      const auto next =
          static_cast<std::uint16_t>(head == 0 ? 1 : h[u.index()] + 1);
      for (std::uint32_t e = offsets_[u.index()]; e < transit_end_[u.index()];
           ++e) {
        const NodeId v = peers_[e];
        if (h[v.index()] != kUnreached) continue;
        h[v.index()] = next;
        queue.push_back(v);
      }
    }
    slot.h = std::move(h);
  });
  return slot.h.get();
}

bool KspSolver::least_walk(Workspace& ws, NodeId spur, const Goal& goal,
                           std::uint32_t d) const {
  const std::uint32_t epoch = ws.epoch;
  const NodeId dst = goal.dst;
  const std::uint16_t* h = goal.h;
  // Whether v, at distance hv from dst, may sit at depth t: only at its
  // distance from the spur.
  const auto fits = [&](NodeId v, std::uint32_t hv, std::uint32_t t) {
    return ws.closed[v.index()] == epoch ? ws.g[v.index()] == t
                                         : hv + t == d;
  };
  ws.walk.assign(1, spur);
  ws.cursor.assign(1, offsets_[spur.index()]);
  ws.visited[spur.index()] = epoch;
  ++ws.stats.nodes_expanded;
  while (!ws.walk.empty()) {
    const NodeId u = ws.walk.back();
    const bool at_spur = ws.walk.size() == 1;
    const auto t = static_cast<std::uint32_t>(ws.walk.size());  // next depth
    // dst is a peer exactly where h is 1. No other node fits the depth dst
    // fits, so when dst is a way on it is the only one; only a first-hop
    // ban at the spur sends the walk elsewhere.
    if (goal.dist(u) == 1 && fits(dst, 0, t) &&
        !(at_spur && ws.first_hop_banned[dst.index()] == epoch)) {
      ws.walk.push_back(dst);
      return true;
    }
    NodeId next = NodeId::invalid();
    for (std::uint32_t e = ws.cursor.back(); e < transit_end_[u.index()];
         ++e) {
      const NodeId v = peers_[e];
      if (v == dst || ws.visited[v.index()] == epoch ||
          h[v.index()] == kUnreached || !fits(v, h[v.index()], t)) {
        continue;
      }
      if (at_spur && ws.first_hop_banned[v.index()] == epoch) continue;
      ws.cursor.back() = e + 1;
      next = v;
      break;
    }
    if (!next.valid()) {  // every way on from u is dead
      ws.walk.pop_back();
      ws.cursor.pop_back();
      continue;
    }
    ws.visited[next.index()] = epoch;
    ++ws.stats.nodes_expanded;
    ws.walk.push_back(next);
    ws.cursor.push_back(offsets_[next.index()]);
  }
  return false;
}

bool KspSolver::bounded_search(Workspace& ws, NodeId spur,
                               const Goal& goal) const {
  ++ws.stats.spur_searches;
  const std::uint32_t epoch = ws.epoch;
  const NodeId dst = goal.dst;
  const std::uint32_t base = goal.dist(spur);
  auto& buckets = ws.buckets;
  std::size_t used = 0;  // buckets [0, used) may hold entries
  const auto push = [&](NodeId v, std::uint32_t hv, std::uint32_t g) {
    ws.reached[v.index()] = epoch;
    ws.g[v.index()] = static_cast<std::uint16_t>(g);
    const std::size_t b = g + hv - base;  // h is consistent: >= 0
    if (b >= buckets.size()) buckets.resize(b + 1);
    used = std::max(used, b + 1);
    buckets[b].push_back(v);
  };
  push(spur, base, 0);
  // Bucket by bucket, so a node is closed with its exact distance (h is a
  // consistent bound on every edge the search takes), and every node whose
  // bound is below the shortest distance d is closed by the time dst is.
  std::optional<std::uint32_t> d;
  for (std::size_t b = 0; b < used && !d; ++b) {
    while (!buckets[b].empty()) {
      const NodeId u = buckets[b].back();
      buckets[b].pop_back();
      if (ws.closed[u.index()] == epoch ||
          ws.g[u.index()] + goal.dist(u) != base + b) {
        continue;  // closed already, or pushed again with a smaller g
      }
      ws.closed[u.index()] = epoch;
      ++ws.stats.nodes_expanded;
      if (u == dst) {
        d = ws.g[u.index()];
        break;
      }
      const bool at_spur = u == spur;
      const std::uint32_t g = ws.g[u.index()] + 1u;
      const auto relax = [&](NodeId v, std::uint32_t hv) {
        if (hv == kUnreached || ws.visited[v.index()] == epoch ||
            ws.closed[v.index()] == epoch) {
          return;
        }
        if (at_spur && ws.first_hop_banned[v.index()] == epoch) return;
        if (ws.reached[v.index()] == epoch && ws.g[v.index()] <= g) return;
        push(v, hv, g);
      };
      // dst is a peer exactly where h is 1; the other peers worth a look
      // are the switches.
      if (goal.dist(u) == 1) relax(dst, 0);
      for (std::uint32_t e = offsets_[u.index()]; e < transit_end_[u.index()];
           ++e) {
        const NodeId v = peers_[e];
        if (v != dst) relax(v, goal.h[v.index()]);
      }
    }
  }
  for (std::size_t b = 0; b < used; ++b) buckets[b].clear();
  return d && least_walk(ws, spur, goal, *d);
}

std::vector<Path> KspSolver::k_shortest_paths(NodeId src, NodeId dst,
                                              std::uint32_t k,
                                              KspStats* stats) const {
  std::vector<Path> result;
  if (k == 0) return result;
  if (src.index() >= node_count() || dst.index() >= node_count()) {
    throw std::invalid_argument("shortest_path: bad node id");
  }
  if (src == dst) {
    result.push_back(Path{src});
    return result;
  }
  thread_local Workspace ws;
  ws.start_call(node_count());
  // Every return passes the call's work on to `stats`.
  struct AddStats {
    const KspStats& from;
    KspStats* to;
    ~AddStats() {
      if (to != nullptr) *to += from;
    }
  } add_stats{ws.stats, stats};
  // From here on, nodes are solver ids until the paths are handed back.
  const NodeId from = solver_id_[src.index()];
  Goal goal{solver_id_[dst.index()], nullptr, switches_};
  goal.h = distances_to(goal.dst, ws.stats);
  if (from.value() >= switches_) {
    // A server source is one hop more than its nearest peer. Of its server
    // peers only dst counts: dist() gives the others kUnreached for now.
    std::uint32_t best = kUnreached;
    for (std::uint32_t e = offsets_[from.index()];
         e < offsets_[from.index() + 1]; ++e) {
      best = std::min(best, goal.dist(peers_[e]) + 1);
    }
    goal.h_src = static_cast<std::uint16_t>(best);
  }
  if (goal.dist(from) == kUnreached) return result;
  ws.next_search();
  (void)least_walk(ws, from, goal, goal.dist(from));  // cannot fail
  result.emplace_back(ws.walk.begin(), ws.walk.end());

  using Candidate = Workspace::Candidate;
  std::vector<Candidate>& heap = ws.heap;
  std::vector<NodeId>& tails = ws.tails;
  const auto node_at = [&](const Candidate& c, std::uint32_t t) {
    return t <= c.spur ? result[c.parent][t] : tails[c.tail + t - c.spur - 1];
  };
  // Candidates leave in (size, lexicographic) order, and a deferred one
  // leaves before every resolved one of its size: its size is only a lower
  // bound, so it must resolve before a path of that size can be accepted.
  // Solver ids order the switches as graph ids do, and candidates differ
  // only at switches, so the order is the graph's.
  const auto before = [&](const Candidate& a, const Candidate& b) {
    if (a.size != b.size) return a.size < b.size;
    if (a.deferred || b.deferred) return a.deferred && !b.deferred;
    for (std::uint32_t t = 0; t < a.size; ++t) {
      const NodeId x = node_at(a, t);
      const NodeId y = node_at(b, t);
      if (x != y) return x < y;
    }
    return false;
  };
  const auto after = [&](const Candidate& a, const Candidate& b) {
    return before(b, a);
  };
  const auto push = [&](const Candidate& c) {
    heap.push_back(c);
    std::push_heap(heap.begin(), heap.end(), after);
  };
  // Queues the path in ws.walk as the tail of the root (parent, spur).
  const auto push_found = [&](std::uint32_t parent, std::uint32_t spur) {
    const auto tail = static_cast<std::uint32_t>(tails.size());
    tails.insert(tails.end(), ws.walk.begin() + 1, ws.walk.end());
    push({static_cast<std::uint32_t>(spur + ws.walk.size()), parent, spur, 0,
          tail, false});
  };
  // Yen's bans for the root (parent, spur) as of `bans` accepted paths: the
  // root's own nodes, and the edge leaving the spur on every one of those
  // paths that shares the root.
  const auto stamp_bans = [&](std::uint32_t bans, std::uint32_t parent,
                              std::uint32_t spur) {
    ws.next_search();
    const Path& root = result[parent];
    for (std::uint32_t j = 0; j <= spur; ++j) {
      ws.visited[root[j].index()] = ws.epoch;
    }
    for (std::uint32_t p = 0; p < bans; ++p) {
      const Path& other = result[p];
      if (other.size() > spur + 1 &&
          std::equal(root.begin(), root.begin() + spur + 1, other.begin())) {
        ws.first_hop_banned[other[spur + 1].index()] = ws.epoch;
      }
    }
  };

  // Lawler: spurs before the last path's deviation node repeat searches
  // made for its parent, so they are skipped.
  std::uint32_t deviation = 0;
  while (result.size() < k) {
    const auto last = static_cast<std::uint32_t>(result.size() - 1);
    const auto spurs = static_cast<std::uint32_t>(result[last].size() - 1);
    for (std::uint32_t i = deviation; i < spurs; ++i) {
      stamp_bans(last + 1, last, i);
      const NodeId spur = result[last][i];
      if (least_walk(ws, spur, goal, goal.dist(spur))) {
        push_found(last, i);
      } else {
        // No path of length h[spur] is left: at least one more hop.
        push({i + goal.dist(spur) + 2u, last, i, last + 1, 0, true});
      }
    }

    // The least candidate is the next path once every deferred spur that
    // might undercut it has been resolved.
    std::optional<Candidate> next;
    while (!heap.empty() && !next) {
      std::pop_heap(heap.begin(), heap.end(), after);
      const Candidate c = heap.back();
      heap.pop_back();
      if (!c.deferred) {
        next = c;
      } else {
        stamp_bans(c.bans, c.parent, c.spur);
        if (bounded_search(ws, result[c.parent][c.spur], goal)) {
          push_found(c.parent, c.spur);
        }
      }
    }
    if (!next) break;
    Path path;
    path.reserve(next->size);
    for (std::uint32_t t = 0; t < next->size; ++t) {
      path.push_back(node_at(*next, t));
    }
    result.push_back(std::move(path));
    deviation = next->spur;
  }
  for (Path& path : result) {
    for (NodeId& v : path) v = graph_id_[v.index()];
  }
  return result;
}

void PathCache::attach_obs(const obs::ObsSink& sink) {
  obs::MetricsRegistry* reg = sink.metrics();
  if (reg == nullptr) {
    c_hits_ = c_misses_ = c_computed_ = c_evicted_ = nullptr;
    c_spur_searches_ = c_nodes_expanded_ = nullptr;
    return;
  }
  c_hits_ = &reg->counter("routing.ksp.cache_hits");
  c_misses_ = &reg->counter("routing.ksp.cache_misses");
  c_computed_ = &reg->counter("routing.ksp.pairs_computed");
  c_evicted_ = &reg->counter("routing.ksp.pairs_evicted");
  c_spur_searches_ = &reg->counter("routing.ksp.spur_searches");
  c_nodes_expanded_ = &reg->counter("routing.ksp.nodes_expanded");
}

void PathCache::count_work(const KspStats& stats) {
  obs::add(c_spur_searches_, stats.spur_searches);
  obs::add(c_nodes_expanded_, stats.nodes_expanded);
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
  KspStats stats;
  auto paths = solver().k_shortest_paths(src_switch, dst_switch, k_, &stats);
  count_work(stats);
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
  // share it safely: each thread has its own workspace, and a
  // destination's distance table is filled once, under call_once.
  // Insertion stays serial because the map is not.
  if (todo.empty()) return 0;
  const KspSolver& solver = this->solver();
  std::vector<KspStats> stats(todo.size());
  std::vector<std::vector<Path>> computed = exec::parallel_map(
      pool, todo.size(), [this, &solver, &todo, &stats](std::size_t i) {
        return solver.k_shortest_paths(todo[i].first, todo[i].second, k_,
                                       &stats[i]);
      });
  for (std::size_t i = 0; i < todo.size(); ++i) {
    const std::uint64_t key =
        (static_cast<std::uint64_t>(todo[i].first.value()) << 32) |
        todo[i].second.value();
    cache_.emplace(key, std::move(computed[i]));
    count_work(stats[i]);
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
