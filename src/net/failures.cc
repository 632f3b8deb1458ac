#include "net/failures.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <type_traits>
#include <unordered_map>
#include <unordered_set>

namespace flattree {

namespace {

std::uint64_t undirected_pair_key(NodeId a, NodeId b) {
  const auto lo = std::min(a.value(), b.value());
  const auto hi = std::max(a.value(), b.value());
  return (static_cast<std::uint64_t>(lo) << 32) | hi;
}

// Inserts (fail) or erases (recover) each id of `ids` in the sorted `set`.
template <typename Id>
void fold_ids(std::vector<Id>& set, const std::vector<Id>& ids, bool recover) {
  for (Id id : ids) {
    const auto pos = std::lower_bound(set.begin(), set.end(), id);
    const bool present = pos != set.end() && *pos == id;
    if (recover && present) {
      set.erase(pos);
    } else if (!recover && !present) {
      set.insert(pos, id);
    }
  }
}

// Walks one entity's fail/recover alternation across `events` (plus, at
// index `insert_pos`, the elements of `pending`). Throws on a fail of an
// already-failed entity or a recover of a not-failed one. The entity's id
// type selects which element list of each FailureSet it lives in.
template <typename Id>
void check_alternation(const std::vector<FailureEvent>& events,
                       const FailureEvent* pending, std::size_t insert_pos,
                       Id entity) {
  const auto contains = [&](const FailureSet& set) {
    if constexpr (std::is_same_v<Id, LinkId>) {
      return std::count(set.links.begin(), set.links.end(), entity) > 0;
    } else {
      return std::count(set.switches.begin(), set.switches.end(), entity) > 0;
    }
  };
  bool failed = false;
  const auto apply = [&](const FailureEvent& e) {
    if (!contains(e.elements)) return;
    if (e.recover) {
      if (!failed) {
        throw std::invalid_argument(
            "FailureSchedule: recover of an element that is not failed "
            "(recover-before-fail ordering)");
      }
      failed = false;
    } else {
      if (failed) {
        throw std::invalid_argument(
            "FailureSchedule: duplicate fail without an intervening recover");
      }
      failed = true;
    }
  };
  for (std::size_t i = 0; i <= events.size(); ++i) {
    if (pending != nullptr && i == insert_pos) apply(*pending);
    if (i < events.size()) apply(events[i]);
  }
}

// Checks every entity the event names, against `events` with the event
// inserted at `insert_pos`. Duplicate ids inside one element list trip the
// same alternation errors (a set failing {L0, L0} is a duplicate fail).
void check_event_alternation(const std::vector<FailureEvent>& events,
                             const FailureEvent& pending,
                             std::size_t insert_pos) {
  for (LinkId id : pending.elements.links) {
    check_alternation(events, &pending, insert_pos, id);
  }
  for (NodeId id : pending.elements.switches) {
    check_alternation(events, &pending, insert_pos, id);
  }
  // A duplicate inside the pending set itself walks the same entity twice
  // above and is caught there only if the prior state disagrees; catch the
  // literal duplicates explicitly.
  const auto has_duplicate = [](auto ids) {
    std::sort(ids.begin(), ids.end());
    return std::adjacent_find(ids.begin(), ids.end()) != ids.end();
  };
  if (has_duplicate(pending.elements.links) ||
      has_duplicate(pending.elements.switches)) {
    throw std::invalid_argument(
        "FailureSchedule: duplicate element inside one event");
  }
}

}  // namespace

void FailureSchedule::insert(FailureEvent event) {
  if (!(event.time_s >= 0.0)) {
    throw std::invalid_argument("FailureSchedule: event time must be >= 0");
  }
  // Stable insertion keeps equal-time events in the order they were added.
  const auto pos = std::upper_bound(
      events_.begin(), events_.end(), event.time_s,
      [](double t, const FailureEvent& e) { return t < e.time_s; });
  // Construction-time validation: inserting here must keep every named
  // entity's fail/recover alternation intact. Rejected events leave the
  // schedule untouched.
  check_event_alternation(
      events_, event, static_cast<std::size_t>(pos - events_.begin()));
  events_.insert(pos, std::move(event));
}

void FailureSchedule::validate() const {
  for (std::size_t i = 1; i < events_.size(); ++i) {
    if (events_[i].time_s < events_[i - 1].time_s) {
      throw std::invalid_argument("FailureSchedule: events out of order");
    }
  }
  for (const FailureEvent& e : events_) {
    for (LinkId id : e.elements.links) {
      check_alternation(events_, nullptr, 0, id);
    }
    for (NodeId id : e.elements.switches) {
      check_alternation(events_, nullptr, 0, id);
    }
  }
}

FailureSchedule& FailureSchedule::fail_at(double time_s,
                                          FailureSet elements) {
  insert(FailureEvent{time_s, false, std::move(elements)});
  return *this;
}

FailureSchedule& FailureSchedule::recover_at(double time_s,
                                             FailureSet elements) {
  insert(FailureEvent{time_s, true, std::move(elements)});
  return *this;
}

void fold_failure_event(FailureSet& active, const FailureEvent& event) {
  fold_ids(active.links, event.elements.links, event.recover);
  fold_ids(active.switches, event.elements.switches, event.recover);
}

FailureSet FailureSchedule::active_at(double time_s) const {
  FailureSet active;
  for (const FailureEvent& event : events_) {
    if (event.time_s > time_s) break;
    fold_failure_event(active, event);
  }
  return active;
}

Graph remove_links(const Graph& graph, const std::vector<LinkId>& failed) {
  return degrade(graph, FailureSet{failed, {}});
}

Graph degrade(const Graph& graph, const FailureSet& failures) {
  std::vector<bool> dead_link(graph.link_count(), false);
  for (LinkId id : failures.links) {
    if (id.index() >= graph.link_count()) {
      throw std::invalid_argument("degrade: link id out of range");
    }
    dead_link[id.index()] = true;
  }
  std::vector<bool> dead_switch(graph.node_count(), false);
  for (NodeId id : failures.switches) {
    if (id.index() >= graph.node_count()) {
      throw std::invalid_argument("degrade: node id out of range");
    }
    if (!is_switch(graph.node(id).role)) {
      throw std::invalid_argument("degrade: failed node is not a switch");
    }
    dead_switch[id.index()] = true;
  }
  Graph out;
  for (std::uint32_t i = 0; i < graph.node_count(); ++i) {
    const Node& n = graph.node(NodeId{i});
    out.add_node(n.role, n.pod);
  }
  for (std::uint32_t i = 0; i < graph.link_count(); ++i) {
    if (dead_link[i]) continue;
    const Link& l = graph.link(LinkId{i});
    // A failed switch severs its fabric links; server access links survive
    // (the server stays cabled to the dead box, unreachable through it).
    const bool fabric =
        is_switch(graph.node(l.a).role) && is_switch(graph.node(l.b).role);
    if (fabric && (dead_switch[l.a.index()] || dead_switch[l.b.index()])) {
      continue;
    }
    out.add_link(l.a, l.b, l.capacity_bps);
  }
  return out;
}

FailureSet map_failures(const Graph& graph, const Graph& reference,
                        const FailureSet& failures) {
  std::unordered_set<std::uint64_t> severed;
  for (LinkId id : failures.links) {
    if (id.index() >= reference.link_count()) {
      throw std::invalid_argument("degrade_mapped: link id out of range");
    }
    const Link& l = reference.link(id);
    severed.insert(undirected_pair_key(l.a, l.b));
  }
  FailureSet mapped;
  mapped.switches = failures.switches;
  for (std::uint32_t i = 0; i < graph.link_count(); ++i) {
    const Link& l = graph.link(LinkId{i});
    if (severed.contains(undirected_pair_key(l.a, l.b))) {
      mapped.links.push_back(LinkId{i});
    }
  }
  return mapped;
}

Graph degrade_mapped(const Graph& graph, const Graph& reference,
                     const FailureSet& failures) {
  return degrade(graph, map_failures(graph, reference, failures));
}

std::shared_ptr<const Graph> live_graph(std::shared_ptr<const Graph> clean,
                                        const Graph& reference,
                                        const FailureSet& active) {
  if (active.empty()) return clean;
  return std::make_shared<const Graph>(
      degrade_mapped(*clean, reference, active));
}

std::vector<LinkId> sample_fabric_failures(const Graph& graph,
                                           double fraction, Rng& rng) {
  // Written as a negated conjunction so NaN (which compares false against
  // everything) is rejected too.
  if (!(fraction >= 0.0 && fraction <= 1.0)) {
    throw std::invalid_argument("sample_fabric_failures: bad fraction");
  }
  std::vector<LinkId> fabric;
  for (std::uint32_t i = 0; i < graph.link_count(); ++i) {
    const Link& l = graph.link(LinkId{i});
    if (is_switch(graph.node(l.a).role) && is_switch(graph.node(l.b).role)) {
      fabric.push_back(LinkId{i});
    }
  }
  shuffle(fabric, rng);
  fabric.resize(static_cast<std::size_t>(fraction * fabric.size()));
  std::sort(fabric.begin(), fabric.end());
  return fabric;
}

std::vector<NodeId> sample_switch_failures(const Graph& graph, NodeRole role,
                                           double fraction, Rng& rng) {
  if (!(fraction >= 0.0 && fraction <= 1.0)) {
    throw std::invalid_argument("sample_switch_failures: bad fraction");
  }
  if (!is_switch(role)) {
    throw std::invalid_argument("sample_switch_failures: servers never fail");
  }
  std::vector<NodeId> pool = graph.nodes_with_role(role);
  shuffle(pool, rng);
  pool.resize(static_cast<std::size_t>(fraction * pool.size()));
  std::sort(pool.begin(), pool.end());
  return pool;
}

FailureSet core_column_failure(const Graph& graph, std::uint32_t first_core,
                               std::uint32_t count) {
  const std::vector<NodeId> cores = graph.nodes_with_role(NodeRole::kCore);
  if (cores.empty()) {
    throw std::invalid_argument("core_column_failure: graph has no cores");
  }
  if (count > cores.size()) {
    throw std::invalid_argument("core_column_failure: count exceeds cores");
  }
  FailureSet set;
  for (std::uint32_t i = 0; i < count; ++i) {
    set.switches.push_back(cores[(first_core + i) % cores.size()]);
  }
  std::sort(set.switches.begin(), set.switches.end());
  return set;
}

std::vector<LinkId> links_not_in(const Graph& graph, const Graph& other) {
  std::unordered_map<std::uint64_t, int> budget;
  for (std::uint32_t i = 0; i < other.link_count(); ++i) {
    const Link& l = other.link(LinkId{i});
    ++budget[undirected_pair_key(l.a, l.b)];
  }
  std::vector<LinkId> extra;
  for (std::uint32_t i = 0; i < graph.link_count(); ++i) {
    const Link& l = graph.link(LinkId{i});
    if (budget[undirected_pair_key(l.a, l.b)]-- > 0) continue;
    extra.push_back(LinkId{i});
  }
  return extra;
}

Graph graph_union(const Graph& base, const Graph& extra) {
  Graph out = base;
  for (LinkId id : links_not_in(extra, base)) {
    const Link& l = extra.link(id);
    out.add_link(l.a, l.b, l.capacity_bps);
  }
  return out;
}

bool servers_connected(const Graph& graph) {
  const auto servers = graph.servers();
  if (servers.size() < 2) return true;
  const auto dist = graph.bfs_distances(servers.front());
  return std::all_of(servers.begin(), servers.end(), [&](NodeId s) {
    return dist[s.index()] != Graph::kUnreachable;
  });
}

}  // namespace flattree
