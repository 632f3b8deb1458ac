// Path representation and validation.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "net/graph.h"

namespace flattree {

// A path is a node sequence; consecutive nodes must be adjacent in the graph
// being routed on. Paths may be switch-to-switch (routing core) or
// server-to-server (allocation).
using Path = std::vector<NodeId>;

// One pair's installed paths as an immutable, shared value. Copies share
// storage, so a snapshot of many pairs costs one handle per pair and only a
// pair whose routes actually change allocates. It reads like a
// `const std::vector<Path>&` and converts to one implicitly; equality
// compares contents (shortcut: shared storage is equal). Every empty set
// shares the null storage.
class RouteSet {
 public:
  using value_type = Path;
  using const_iterator = std::vector<Path>::const_iterator;
  using iterator = const_iterator;

  RouteSet() = default;
  // Implicit, like the vector it wraps: `routes[i] = std::move(paths)`.
  RouteSet(std::vector<Path> paths)
      : paths_{paths.empty() ? nullptr
                             : std::make_shared<const std::vector<Path>>(
                                   std::move(paths))} {}

  [[nodiscard]] const std::vector<Path>& paths() const {
    return paths_ ? *paths_ : empty_paths();
  }
  operator const std::vector<Path>&() const {
    return paths();
  }

  [[nodiscard]] const_iterator begin() const { return paths().begin(); }
  [[nodiscard]] const_iterator end() const { return paths().end(); }
  [[nodiscard]] std::size_t size() const { return paths().size(); }
  [[nodiscard]] bool empty() const { return paths_ == nullptr; }
  [[nodiscard]] const Path& operator[](std::size_t i) const {
    return paths()[i];
  }

  // Identity, not equality: the key of every reuse of a per-pair result.
  friend bool same_storage(const RouteSet& a, const RouteSet& b) {
    return a.paths_ == b.paths_;
  }
  friend bool operator==(const RouteSet& a, const RouteSet& b) {
    return same_storage(a, b) || a.paths() == b.paths();
  }
  friend bool operator==(const RouteSet& a, const std::vector<Path>& b) {
    return a.paths() == b;
  }

 private:
  static const std::vector<Path>& empty_paths() {
    static const std::vector<Path> none;
    return none;
  }

  std::shared_ptr<const std::vector<Path>> paths_;
};

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
