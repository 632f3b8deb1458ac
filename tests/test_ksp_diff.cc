// Differential oracle for KspSolver and is_valid_path. The oracle is the
// straightforward form of the same algorithms: Yen's k-shortest paths whose
// spur searches keep their bans in hash sets and run a deque BFS that sorts
// each node's admissible neighbours, and a path validator that detects
// loops with a set. The production solver (sorted CSR adjacency, stamped
// bans, one workspace per call, stop at discovery) must return exactly the
// same paths, path for path, on every input here.
#include "routing/ksp.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <deque>
#include <optional>
#include <set>
#include <span>
#include <unordered_set>
#include <utility>
#include <vector>

#include "core/flat_tree.h"
#include "exec/pool.h"
#include "net/rng.h"
#include "routing/path.h"
#include "topo/params.h"
#include "topo/random_graph.h"

namespace flattree {
namespace {

namespace oracle {

using EdgeKey = std::uint64_t;
EdgeKey edge_key(NodeId from, NodeId to) {
  return (static_cast<EdgeKey>(from.value()) << 32) | to.value();
}

bool path_less(const Path& a, const Path& b) {
  if (a.size() != b.size()) return a.size() < b.size();
  return std::lexicographical_compare(a.begin(), a.end(), b.begin(), b.end());
}

std::optional<Path> constrained_shortest(
    const Graph& g, NodeId src, NodeId dst,
    const std::unordered_set<NodeId>& banned_nodes,
    const std::unordered_set<EdgeKey>& banned_edges) {
  if (src == dst) return Path{src};
  if (banned_nodes.contains(dst)) return std::nullopt;
  std::vector<NodeId> parent(g.node_count(), NodeId::invalid());
  std::vector<bool> visited(g.node_count(), false);
  std::deque<NodeId> queue;
  queue.push_back(src);
  visited[src.index()] = true;
  while (!queue.empty()) {
    const NodeId u = queue.front();
    queue.pop_front();
    if (u == dst) break;
    if (u != src && !is_switch(g.node(u).role)) continue;
    std::vector<NodeId> next;
    for (const Adjacency& adj : g.neighbors(u)) {
      if (visited[adj.peer.index()]) continue;
      if (banned_nodes.contains(adj.peer)) continue;
      if (banned_edges.contains(edge_key(u, adj.peer))) continue;
      next.push_back(adj.peer);
    }
    std::sort(next.begin(), next.end());
    next.erase(std::unique(next.begin(), next.end()), next.end());
    for (NodeId v : next) {
      visited[v.index()] = true;
      parent[v.index()] = u;
      queue.push_back(v);
    }
  }
  if (!visited[dst.index()]) return std::nullopt;
  Path path;
  for (NodeId n = dst; n.valid(); n = parent[n.index()]) path.push_back(n);
  std::reverse(path.begin(), path.end());
  return path;
}

std::vector<Path> k_shortest_paths(const Graph& g, NodeId src, NodeId dst,
                                   std::uint32_t k) {
  std::vector<Path> result;
  if (k == 0) return result;
  auto first = constrained_shortest(g, src, dst, {}, {});
  if (!first) return result;
  result.push_back(std::move(*first));
  auto cmp = [](const Path& a, const Path& b) { return path_less(a, b); };
  std::set<Path, decltype(cmp)> candidates(cmp);
  while (result.size() < k) {
    const Path& prev = result.back();
    for (std::size_t i = 0; i + 1 < prev.size(); ++i) {
      const NodeId spur = prev[i];
      const std::span<const NodeId> root{prev.data(), i + 1};
      std::unordered_set<EdgeKey> banned_edges;
      for (const Path& p : result) {
        if (p.size() > i + 1 &&
            std::equal(root.begin(), root.end(), p.begin())) {
          banned_edges.insert(edge_key(p[i], p[i + 1]));
        }
      }
      std::unordered_set<NodeId> banned_nodes;
      for (std::size_t j = 0; j < i; ++j) banned_nodes.insert(prev[j]);
      const auto spur_path =
          constrained_shortest(g, spur, dst, banned_nodes, banned_edges);
      if (!spur_path) continue;
      Path total(root.begin(), root.end());
      total.insert(total.end(), spur_path->begin() + 1, spur_path->end());
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

bool is_valid_path(const Graph& graph, std::span<const NodeId> path) {
  if (path.empty()) return false;
  std::unordered_set<NodeId> seen;
  for (std::size_t i = 0; i < path.size(); ++i) {
    const NodeId n = path[i];
    if (n.index() >= graph.node_count()) return false;
    if (!seen.insert(n).second) return false;
    const bool interior = i > 0 && i + 1 < path.size();
    if (interior && !is_switch(graph.node(n).role)) return false;
  }
  for (std::size_t i = 0; i + 1 < path.size(); ++i) {
    if (!graph.adjacent(path[i], path[i + 1])) return false;
  }
  return true;
}

}  // namespace oracle

constexpr std::uint32_t kKs[] = {1, 4, 8, 16};
constexpr PodMode kModes[] = {PodMode::kClos, PodMode::kGlobal,
                              PodMode::kLocal};

// Compares shortest_path and k_shortest_paths for every k in kKs against
// the oracle on each (src, dst) of `pairs`.
void expect_matches_oracle(const Graph& g,
                           const std::vector<std::pair<NodeId, NodeId>>& pairs,
                           const char* what) {
  const KspSolver solver{g};
  for (const auto& [src, dst] : pairs) {
    SCOPED_TRACE(::testing::Message() << what << " " << src.value() << "->"
                                      << dst.value());
    const auto want_first = oracle::constrained_shortest(g, src, dst, {}, {});
    ASSERT_EQ(solver.shortest_path(src, dst), want_first);
    for (const std::uint32_t k : kKs) {
      ASSERT_EQ(solver.k_shortest_paths(src, dst, k),
                oracle::k_shortest_paths(g, src, dst, k))
          << "k=" << k;
    }
  }
}

std::vector<NodeId> nodes_where(const Graph& g, bool switches) {
  std::vector<NodeId> out;
  for (std::uint32_t i = 0; i < g.node_count(); ++i) {
    if (is_switch(g.node(NodeId{i}).role) == switches) out.push_back(NodeId{i});
  }
  return out;
}

std::vector<std::pair<NodeId, NodeId>> all_switch_pairs(const Graph& g) {
  const std::vector<NodeId> switches = nodes_where(g, true);
  std::vector<std::pair<NodeId, NodeId>> pairs;
  for (const NodeId a : switches) {
    for (const NodeId b : switches) {
      if (a != b) pairs.emplace_back(a, b);
    }
  }
  return pairs;
}

// `count` seeded (src, dst) pairs over all nodes, servers included, plus
// the same-node pair (0, 0).
std::vector<std::pair<NodeId, NodeId>> sampled_pairs(const Graph& g,
                                                     std::size_t count,
                                                     std::uint64_t seed) {
  Rng rng{seed};
  std::vector<std::pair<NodeId, NodeId>> pairs{{NodeId{0}, NodeId{0}}};
  while (pairs.size() < count) {
    const NodeId a{static_cast<std::uint32_t>(rng.next_below(g.node_count()))};
    const NodeId b{static_cast<std::uint32_t>(rng.next_below(g.node_count()))};
    pairs.emplace_back(a, b);
  }
  return pairs;
}

// A seeded multigraph fuzz fabric: random switch links with parallel links
// allowed, servers hanging off one switch each, and some servers wired to
// two switches so a server offers a (forbidden) transit shortcut. Sparse
// seeds leave the switch fabric disconnected.
Graph fuzz_fabric(std::uint64_t seed) {
  Rng rng{seed};
  Graph g;
  const auto switches = static_cast<std::uint32_t>(6 + rng.next_below(10));
  const auto servers = static_cast<std::uint32_t>(rng.next_below(8));
  const auto links = static_cast<std::uint32_t>(
      switches / 2 + rng.next_below(3 * switches));
  // Roles are shuffled over the id range so servers sit between switches
  // in the sorted peer order.
  std::vector<NodeRole> roles(switches, NodeRole::kEdge);
  roles.resize(switches + servers, NodeRole::kServer);
  for (std::size_t i = roles.size(); i > 1; --i) {
    std::swap(roles[i - 1], roles[rng.next_below(i)]);
  }
  std::vector<NodeId> sw;
  std::vector<NodeId> sv;
  for (const NodeRole role : roles) {
    (role == NodeRole::kServer ? sv : sw).push_back(g.add_node(role));
  }
  const auto pick = [&] { return sw[rng.next_below(sw.size())]; };
  for (std::uint32_t l = 0; l < links; ++l) {
    const NodeId a = pick();
    const NodeId b = pick();
    if (a == b) continue;
    g.add_link(a, b, 1e9);
    if (rng.next_below(4) == 0) g.add_link(b, a, 1e9);  // parallel
  }
  for (const NodeId s : sv) {
    const NodeId a = pick();
    g.add_link(s, a, 1e9);
    if (rng.next_below(3) == 0) {
      const NodeId b = pick();
      if (b != a) g.add_link(s, b, 1e9);  // transit shortcut
    }
  }
  return g;
}

std::vector<std::pair<NodeId, NodeId>> all_pairs(const Graph& g) {
  std::vector<std::pair<NodeId, NodeId>> pairs;
  for (std::uint32_t a = 0; a < g.node_count(); ++a) {
    for (std::uint32_t b = 0; b < g.node_count(); ++b) {
      pairs.emplace_back(NodeId{a}, NodeId{b});
    }
  }
  return pairs;
}

TEST(KspDiff, FuzzedMultigraphsAllPairs) {
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    const Graph g = fuzz_fabric(seed);
    expect_matches_oracle(g, all_pairs(g), "fuzz");
  }
}

TEST(KspDiff, SeededRandomFabrics) {
  for (const std::uint64_t seed : {1u, 7u, 42u, 2017u}) {
    RandomGraphParams params;
    params.switches = 14;
    params.ports_per_switch = 6;
    params.servers = 28;
    params.seed = seed;
    const Graph g = build_random_graph(params);
    expect_matches_oracle(g, all_switch_pairs(g), "random");
    expect_matches_oracle(g, sampled_pairs(g, 40, seed), "random servers");
  }
}

FlatTree testbed_tree() {
  FlatTreeParams p;
  p.clos = ClosParams::testbed();
  p.six_port_per_column = 1;
  p.four_port_per_column = 1;
  return FlatTree{p};
}

TEST(KspDiff, TestbedInEveryMode) {
  const FlatTree tree = testbed_tree();
  for (const PodMode mode : kModes) {
    const Graph g = tree.realize_uniform(mode);
    expect_matches_oracle(g, all_switch_pairs(g), to_string(mode));
    expect_matches_oracle(g, sampled_pairs(g, 30, 5), to_string(mode));
  }
}

TEST(KspDiff, QuarterScaleTopo1InEveryMode) {
  // The Figure-8 fabric: 8 Pods x (4 + 4) switches, 512 servers.
  const ClosParams clos{8, 4, 4, 4, 16, 4, 16, 8};
  const FlatTree tree{FlatTreeParams::defaults_for(clos)};
  for (const PodMode mode : kModes) {
    const Graph g = tree.realize_uniform(mode);
    Rng rng{static_cast<std::uint64_t>(mode) + 11};
    const std::vector<NodeId> switches = nodes_where(g, true);
    std::vector<std::pair<NodeId, NodeId>> pairs;
    while (pairs.size() < 40) {
      const NodeId a = switches[rng.next_below(switches.size())];
      const NodeId b = switches[rng.next_below(switches.size())];
      if (a != b) pairs.emplace_back(a, b);
    }
    expect_matches_oracle(g, pairs, to_string(mode));
    expect_matches_oracle(g, sampled_pairs(g, 8, 3), to_string(mode));
  }
}

// PathCache builds its solver lazily and fans precompute's per-pair Yen's
// runs across a pool, each run with its own workspace. The cached sets must
// equal the oracle's, whatever the pool size (and race-free under TSan).
TEST(KspDiff, PrecomputeAcrossPoolMatchesOracle) {
  const ClosParams clos{8, 4, 4, 4, 16, 4, 16, 8};
  const FlatTree tree{FlatTreeParams::defaults_for(clos)};
  const Graph g = tree.realize_uniform(PodMode::kGlobal);
  const std::vector<NodeId> edges = g.nodes_with_role(NodeRole::kEdge);
  std::vector<std::pair<NodeId, NodeId>> pairs;
  for (std::size_t i = 0; i < 48; ++i) {
    pairs.emplace_back(edges[i % edges.size()],
                       edges[(i * 7 + 5) % edges.size()]);
  }
  for (const std::uint32_t threads : {1u, 4u}) {
    exec::ThreadPool pool{threads};
    PathCache cache{g, 8};
    (void)cache.precompute(pairs, &pool);
    for (const auto& [src, dst] : pairs) {
      if (src == dst) continue;
      ASSERT_EQ(cache.switch_paths(src, dst),
                oracle::k_shortest_paths(g, src, dst, 8))
          << threads << " threads, " << src.value() << "->" << dst.value();
    }
  }
}

// Switches 0..3 in a chain; server 4 wired to both ends. The two-hop route
// through the server is shorter but must not be taken; a path that starts
// or ends at the server may still use either of its links.
TEST(KspDiff, ServerTransitShortcutAndServerEndpoints) {
  Graph g;
  for (int i = 0; i < 4; ++i) g.add_node(NodeRole::kAgg);
  const NodeId server = g.add_node(NodeRole::kServer);
  g.add_link(NodeId{0}, NodeId{1}, 1e9);
  g.add_link(NodeId{1}, NodeId{2}, 1e9);
  g.add_link(NodeId{2}, NodeId{3}, 1e9);
  g.add_link(server, NodeId{0}, 1e9);
  g.add_link(server, NodeId{3}, 1e9);
  const KspSolver solver{g};
  EXPECT_EQ(solver.shortest_path(NodeId{0}, NodeId{3}),
            (Path{NodeId{0}, NodeId{1}, NodeId{2}, NodeId{3}}));
  EXPECT_EQ(solver.k_shortest_paths(server, NodeId{2}, 4),
            (std::vector<Path>{{server, NodeId{3}, NodeId{2}},
                               {server, NodeId{0}, NodeId{1}, NodeId{2}}}));
  expect_matches_oracle(g, all_pairs(g), "shortcut");
}

// Two switch pairs joined by parallel links, and a second component.
TEST(KspDiff, ParallelLinksAndDisconnectedPairs) {
  Graph g;
  for (int i = 0; i < 5; ++i) g.add_node(NodeRole::kCore);
  g.add_link(NodeId{0}, NodeId{1}, 1e9);
  g.add_link(NodeId{1}, NodeId{0}, 1e9);
  g.add_link(NodeId{1}, NodeId{2}, 1e9);
  g.add_link(NodeId{1}, NodeId{2}, 1e9);
  g.add_link(NodeId{0}, NodeId{2}, 1e9);
  g.add_link(NodeId{3}, NodeId{4}, 1e9);
  const KspSolver solver{g};
  // Parallel links collapse: one path per distinct node sequence.
  EXPECT_EQ(solver.k_shortest_paths(NodeId{0}, NodeId{2}, 8).size(), 2u);
  EXPECT_FALSE(solver.shortest_path(NodeId{0}, NodeId{4}).has_value());
  EXPECT_TRUE(solver.k_shortest_paths(NodeId{2}, NodeId{3}, 4).empty());
  expect_matches_oracle(g, all_pairs(g), "parallel");
}

TEST(KspDiff, OutOfRangeIdsThrow) {
  const Graph g = fuzz_fabric(3);
  const KspSolver solver{g};
  const NodeId bad{static_cast<std::uint32_t>(g.node_count())};
  EXPECT_THROW((void)solver.shortest_path(NodeId{0}, bad),
               std::invalid_argument);
  EXPECT_THROW((void)solver.k_shortest_paths(bad, NodeId{0}, 4),
               std::invalid_argument);
  EXPECT_TRUE(solver.k_shortest_paths(bad, NodeId{0}, 0).empty());
}

// Random node sequences (short, so loops, repeats and ids past the end are
// common) plus mutated real paths: is_valid_path must agree with the
// set-based oracle on every one and never throw.
TEST(KspDiff, IsValidPathMatchesSetOracle) {
  std::size_t valid = 0;
  std::size_t total = 0;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    const Graph g = fuzz_fabric(seed);
    Rng rng{seed * 977};
    const auto n = static_cast<std::uint32_t>(g.node_count());
    std::vector<Path> probes;
    for (int t = 0; t < 300; ++t) {
      Path p(rng.next_below(7));
      for (NodeId& id : p) {
        id = NodeId{static_cast<std::uint32_t>(rng.next_below(n + 2))};
      }
      probes.push_back(std::move(p));
    }
    const KspSolver solver{g};
    for (const auto& [a, b] : sampled_pairs(g, 30, seed)) {
      for (Path p : solver.k_shortest_paths(a, b, 4)) {
        probes.push_back(p);
        if (p.size() >= 2) {
          Path looped = p;
          looped.push_back(p[p.size() - 2]);  // step back: a loop
          probes.push_back(std::move(looped));
          Path past_end = p;
          past_end[rng.next_below(p.size())] = NodeId{n};
          probes.push_back(std::move(past_end));
        }
      }
    }
    for (const Path& p : probes) {
      const bool want = oracle::is_valid_path(g, p);
      bool got = false;
      ASSERT_NO_THROW(got = is_valid_path(g, p));
      ASSERT_EQ(got, want) << "seed " << seed << " path of " << p.size();
      valid += want ? 1 : 0;
      ++total;
    }
  }
  // Both outcomes must be exercised in bulk for the comparison to mean
  // anything.
  EXPECT_GT(valid, total / 10);
  EXPECT_GT(total - valid, total / 10);
}

// A server in the interior makes a path invalid even when every hop exists.
TEST(KspDiff, IsValidPathRejectsInteriorServer) {
  Graph g;
  const NodeId a = g.add_node(NodeRole::kEdge);
  const NodeId s = g.add_node(NodeRole::kServer);
  const NodeId b = g.add_node(NodeRole::kEdge);
  g.add_link(a, s, 1e9);
  g.add_link(s, b, 1e9);
  EXPECT_FALSE(is_valid_path(g, Path{a, s, b}));
  EXPECT_TRUE(is_valid_path(g, Path{s, b}));
  EXPECT_FALSE(is_valid_path(g, Path{a, s, a}));
}

}  // namespace
}  // namespace flattree
