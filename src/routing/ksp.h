// Yen's k-shortest loopless paths (§4.2, [50]) over the switch fabric.
//
// All routing in flat-tree's global and local modes is k-shortest-path based.
// Distances are hop counts. Paths transit switches only; endpoints may be
// servers. Results are deterministic: ties are broken by path length first,
// then lexicographic node order, so the same topology always yields the same
// path set (Observation 2 in §4.2.1 — "the k-shortest paths between server
// pairs are nearly deterministic").
#pragma once

#include <cstdint>
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

class KspSolver {
 public:
  // Copies `graph` into a sorted CSR adjacency; the solver keeps no
  // reference to `graph`.
  explicit KspSolver(const Graph& graph);

  // Lexicographically-smallest shortest path from src to dst, or nullopt if
  // disconnected. Only switches are transited; either endpoint may be a
  // server. Throws std::invalid_argument on an out-of-range id.
  [[nodiscard]] std::optional<Path> shortest_path(NodeId src, NodeId dst) const;

  // Yen's algorithm: up to k loopless paths in nondecreasing length order.
  // Fewer than k are returned if the graph does not contain them.
  [[nodiscard]] std::vector<Path> k_shortest_paths(NodeId src, NodeId dst,
                                                   std::uint32_t k) const;

 private:
  struct Workspace;

  // One BFS from src toward dst over the CSR, honouring the bans stamped in
  // `ws` for the current epoch; on success `ws.parent` holds the path.
  //
  // Exactness: peers are visited in ascending id order, the queue is FIFO
  // and a node's parent is fixed when it is first discovered. Each BFS
  // level is therefore discovered in lexicographic order of the paths that
  // reach it, so the parent chain of dst is the lexicographically smallest
  // shortest path — and it is complete the moment dst is discovered, which
  // is where the search stops.
  [[nodiscard]] bool constrained_shortest(Workspace& ws, NodeId src,
                                          NodeId dst) const;

  // Appends the found path's nodes after src (src excluded, dst included).
  void append_found(const Workspace& ws, NodeId src, NodeId dst,
                    Path& out) const;

  [[nodiscard]] std::size_t node_count() const { return transit_.size(); }

  // CSR adjacency: node i's distinct peers, ascending by id, are
  // peers_[offsets_[i] .. offsets_[i + 1]).
  std::vector<std::uint32_t> offsets_;
  std::vector<NodeId> peers_;
  std::vector<bool> transit_;  // is_switch(role) per node
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
  // pairs evicted by repairs). Counting does not change lookup results;
  // detached (the default) the cache touches no metrics.
  void attach_obs(const obs::ObsSink& sink);

 private:
  // The solver for graph_, built on first use; the rebinds reset it.
  const KspSolver& solver();

  const Graph* graph_;
  std::optional<KspSolver> solver_;
  std::uint32_t k_;
  std::unordered_map<std::uint64_t, std::vector<Path>> cache_;
  obs::Counter* c_hits_{nullptr};
  obs::Counter* c_misses_{nullptr};
  obs::Counter* c_computed_{nullptr};
  obs::Counter* c_evicted_{nullptr};
};

}  // namespace flattree
