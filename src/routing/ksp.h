// Yen's k-shortest loopless paths (§4.2, [50]) over the switch fabric.
//
// All routing in flat-tree's global and local modes is k-shortest-path based.
// Distances are hop counts. Paths transit switches only; endpoints may be
// servers. Results are deterministic: ties are broken by path length first,
// then lexicographic node order, so the same topology always yields the same
// path set (Observation 2 in §4.2.1 — "the k-shortest paths between server
// pairs are nearly deterministic").
//
// The output is the k least loopless paths in that order. The solver finds
// them with Yen's algorithm under Lawler's deviation rule, and spends its
// searches lazily: a spur first tries the tight walk along a shared hop-
// distance table, and a spur whose walk fails waits in the candidate heap
// under a length lower bound until it could be the next path (DESIGN.md,
// "Yen's KSP solver").
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "net/graph.h"
#include "obs/sink.h"
#include "routing/path.h"

namespace flattree {

namespace exec {
class ThreadPool;
}  // namespace exec

// Work k_shortest_paths calls did, for the routing.ksp.* work counters.
// A call that is the first for its destination also counts the build of
// that destination's distance table, and under a parallel precompute any
// of the calls sharing the destination may be that first one. So one
// call's stats depend on what ran before it; only their sum over a
// solver's lifetime is a pure function of the graph and the calls made.
struct KspStats {
  // Breadth-first spur searches run; a spur its tight walk settles runs
  // none.
  std::uint64_t spur_searches{0};
  std::uint64_t nodes_expanded{0};  // nodes taken off a search frontier

  KspStats& operator+=(const KspStats& o) {
    spur_searches += o.spur_searches;
    nodes_expanded += o.nodes_expanded;
    return *this;
  }
};

class KspSolver {
 public:
  // Copies `graph` into a sorted CSR adjacency; the solver keeps no
  // reference to `graph`. Throws std::length_error past 65,533 switches
  // (hop distances are stored in 16 bits); servers are not bounded.
  explicit KspSolver(const Graph& graph);

  // Lexicographically-smallest shortest path from src to dst, or nullopt if
  // disconnected. Only switches are transited; either endpoint may be a
  // server. Throws std::invalid_argument on an out-of-range id.
  [[nodiscard]] std::optional<Path> shortest_path(NodeId src, NodeId dst) const;

  // Yen's algorithm: up to k loopless paths in nondecreasing length order.
  // Fewer than k are returned if the graph does not contain them. When
  // `stats` is non-null, the call's work is added to it. Safe to call from
  // several threads at once.
  [[nodiscard]] std::vector<Path> k_shortest_paths(
      NodeId src, NodeId dst, std::uint32_t k,
      KspStats* stats = nullptr) const;

 private:
  struct Workspace;
  struct Goal;

  // Below, nodes are solver ids: the switches are 0 .. switches_ - 1 and
  // the servers follow, each in graph id order. Ascending solver ids order
  // the switches as their graph ids do, and paths differ only at switches,
  // so every order the solver takes is the graph's.

  // Hop distance from every switch to `dst`, servers transiting nothing;
  // kUnreached where there is no path. Built by one reverse BFS over the
  // switches on the first call for `dst` and shared by every later one,
  // on any thread. A table holds switches_ entries whatever the server
  // count.
  [[nodiscard]] const std::uint16_t* distances_to(NodeId dst,
                                                  KspStats& stats) const;

  // The lexicographically least path of length `d` from `spur` to dst
  // that the bans stamped in `ws` leave, into `ws.walk` (spur first), when
  // no allowed path is shorter than d. A depth-first search in ascending
  // peer order that lets a node sit only at its distance from the spur:
  // g where the bounded search closed it, d - h elsewhere. Every walk is
  // then a shortest path, so the first to reach dst is the least one, and
  // a node that once failed to reach dst fails from every walk: it stays
  // marked, and the search is linear in the edges it scans.
  //
  // With d = h[spur] this is the tight walk: the path of length h[spur],
  // found without a breadth-first search, if the bans left one.
  [[nodiscard]] bool least_walk(Workspace& ws, NodeId spur, const Goal& goal,
                                std::uint32_t d) const;

  // The spur search for a spur whose tight walk failed: a breadth-first
  // search in buckets of g + h (A* with the consistent bound h) that
  // enqueues no server but dst. When dst leaves its bucket, its g is the
  // shortest distance d and every node whose bound is below d is closed
  // with its exact g, so least_walk picks the least path of length d.
  [[nodiscard]] bool bounded_search(Workspace& ws, NodeId spur,
                                    const Goal& goal) const;

  [[nodiscard]] std::size_t node_count() const { return graph_id_.size(); }

  // Graph id -> solver id, and back.
  std::vector<NodeId> solver_id_;
  std::vector<NodeId> graph_id_;
  std::uint32_t switches_{0};

  // CSR adjacency: node i's distinct peers are
  // peers_[offsets_[i] .. offsets_[i + 1]), ascending, so the switches
  // come first (ending at transit_end_[i]). Searches past the spur scan
  // only the switches: a server can end a path but never carry one on.
  std::vector<std::uint32_t> offsets_;
  std::vector<std::uint32_t> transit_end_;
  std::vector<NodeId> peers_;

  // One lazily filled distance table per destination. Filling is the only
  // write a const call makes; call_once makes it safe under
  // PathCache::precompute's fan-out.
  struct DistanceSlot {
    std::once_flag filled;
    std::unique_ptr<std::uint16_t[]> h;
  };
  std::unique_ptr<DistanceSlot[]> distances_;
};

// One cache entry evicted by PathCache::rebind_and_invalidate, with the
// forwarding-rule footprint its old paths occupied (one rule per switch
// hop). This is what lets the controller price an incremental repair
// without replaying the full rule compilation.
struct EvictedPair {
  NodeId src{};
  NodeId dst{};
  std::uint64_t rules{0};
};

// Symmetric switch-switch adjacency changes between two graphs sharing node
// ids. Adjacency is existence-level: parallel links between the same switch
// pair collapse to one adjacency, so dropping one of two parallel links is
// no delta (path sets are hop-count based and cannot change). Pairs are
// reported with the smaller node id first.
struct AdjacencyDelta {
  std::vector<std::pair<NodeId, NodeId>> removed;  // in `from`, not in `to`
  std::vector<std::pair<NodeId, NodeId>> added;    // in `to`, not in `from`

  [[nodiscard]] bool empty() const { return removed.empty() && added.empty(); }
};
[[nodiscard]] AdjacencyDelta adjacency_delta(const Graph& from,
                                             const Graph& to);

// Memoizing façade: computes and caches the k-shortest switch-to-switch
// paths on demand. Experiments touch only the switch pairs their traffic
// uses, so lazy computation keeps large topologies tractable.
class PathCache {
 public:
  // The solver (and its adjacency) is built on the first computation, not
  // here: a cache that only ever hits costs no CSR build.
  PathCache(const Graph& graph, std::uint32_t k) : graph_{&graph}, k_{k} {}

  // k-shortest paths between the attachment switches of two servers (or
  // between two switches if switch ids are passed). Cached.
  [[nodiscard]] const std::vector<Path>& switch_paths(NodeId src_switch,
                                                      NodeId dst_switch);

  // Full server-to-server paths (server endpoints attached to the cached
  // switch paths). Not cached; cheap to build.
  [[nodiscard]] std::vector<Path> server_paths(NodeId src_server,
                                               NodeId dst_server);

  [[nodiscard]] std::uint32_t k() const { return k_; }
  [[nodiscard]] std::size_t cached_pairs() const { return cache_.size(); }

  // Warms the cache for every pair in `pairs` (server or switch endpoints;
  // servers resolve to their attachment switches), fanning the per-pair
  // Yen's runs across `pool` (serial when null). Bit-identical to looking
  // the pairs up on demand: each pair's path set is a pure function of the
  // graph, and entries are inserted from a deterministic pair order.
  // Returns the number of newly computed pairs. Not thread-safe with
  // concurrent cache access; call it from one thread like every other
  // member.
  std::size_t precompute(std::span<const std::pair<NodeId, NodeId>> pairs,
                         exec::ThreadPool* pool = nullptr);

  // Incremental invalidation for failure repair: rebinds the cache (and
  // future computations) to `graph` — which must share node ids with the
  // current graph — and evicts exactly the entries broken by the change: a
  // pair is evicted if an endpoint is in `failed_switches` or any cached
  // path transits a failed switch or hops across a node pair that is no
  // longer adjacent. Surviving entries keep their paths, which stay valid
  // (though possibly no longer globally shortest — a full recompile
  // restores optimality). Returns the number of evicted pairs; if
  // `evicted_out` is non-null it receives each evicted pair with its old
  // rule footprint. The caller owns `graph` and must keep it alive while
  // the cache is in use.
  std::size_t rebind_and_invalidate(
      const Graph& graph, std::span<const NodeId> failed_switches,
      std::vector<EvictedPair>* evicted_out = nullptr);

  // Warm rebind under an edge-level delta (single- or few-edge fail /
  // recover / conversion rewire): computes the switch-adjacency delta
  // against the current graph and evicts the *provably minimal* exact set —
  //   * a pair whose cached path hops a removed adjacency (survivors of a
  //     pure removal are exact: the cached set was the (length, lex)-least
  //     k of a path universe the removal only shrank);
  //   * when adjacencies were added, a pair that could admit a better-or-
  //     tied path through a new edge: cached fewer than k paths, or
  //     min(d(s,u)+1+d(v,t), d(s,v)+1+d(u,t)) <= length of its k-th cached
  //     path (d = switch-transit hop distance on the new graph, one BFS per
  //     new-edge endpoint). Strictly longer candidates cannot displace any
  //     cached path, ties might via lexicographic order, so <= evicts.
  // Surviving entries are byte-identical to a cold recompute on `graph`
  // (pinned by tests/test_ksp_properties.cc WarmDeltaMatchesCold*); evicted
  // pairs recompute lazily on next lookup. Returns the eviction count.
  std::size_t rebind_warm(const Graph& graph,
                          std::vector<EvictedPair>* evicted_out = nullptr);

  void clear() { cache_.clear(); }

  // Caches routing.ksp.* metric handles (cache hits/misses, pairs computed,
  // pairs evicted by repairs, and the solver's spur searches and nodes
  // expanded). Counting does not change lookup results; detached (the
  // default) the cache touches no metrics.
  void attach_obs(const obs::ObsSink& sink);

 private:
  // The solver for graph_, built on first use; the rebinds reset it.
  const KspSolver& solver();
  void count_work(const KspStats& stats);

  const Graph* graph_;
  std::optional<KspSolver> solver_;
  std::uint32_t k_;
  std::unordered_map<std::uint64_t, std::vector<Path>> cache_;
  obs::Counter* c_hits_{nullptr};
  obs::Counter* c_misses_{nullptr};
  obs::Counter* c_computed_{nullptr};
  obs::Counter* c_evicted_{nullptr};
  obs::Counter* c_spur_searches_{nullptr};
  obs::Counter* c_nodes_expanded_{nullptr};
};

// k-shortest server paths over one graph, with the PathCache built on first
// use. An endpoint without links on the graph gets no paths: a server cut
// off by failures, or one whose access circuit moves with an in-flight
// rewire (degree 0 on the intersection graph), has no path to patch with.
// The graph is borrowed or, for a derived graph built on the spot, owned.
class LazyPaths {
 public:
  LazyPaths(const Graph& graph, std::uint32_t k) : graph_{&graph}, k_{k} {}
  LazyPaths(Graph&& owned, std::uint32_t k)
      : owned_{std::move(owned)}, graph_{&*owned_}, k_{k} {}
  LazyPaths(const LazyPaths&) = delete;
  LazyPaths& operator=(const LazyPaths&) = delete;

  const Graph& graph() const { return *graph_; }

  std::vector<Path> operator()(NodeId src, NodeId dst) {
    if (graph_->degree(src) == 0 || graph_->degree(dst) == 0) return {};
    if (!cache_.has_value()) cache_.emplace(*graph_, k_);
    return cache_->server_paths(src, dst);
  }

 private:
  std::optional<Graph> owned_;
  const Graph* graph_;
  std::uint32_t k_;
  std::optional<PathCache> cache_;
};

}  // namespace flattree
