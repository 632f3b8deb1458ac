// Failure modeling: static graph surgery and live fail/recover schedules.
//
// The paper asserts (§4.2.1, footnote 2) that flat-tree, approximating
// random graph networks, should inherit their graceful throughput
// degradation under failure, and leaves the evaluation to future work. This
// module provides the substrate in two tiers:
//
//   * Static: derive a degraded copy of a network with a chosen set (or
//     random fraction) of links and/or switches removed, keeping node ids
//     stable so workloads and routing carry over unchanged.
//   * Dynamic: a FailureSchedule of time-stamped fail/recover events that
//     the simulators consume mid-run (FluidSimulator::run_with_schedule,
//     PacketSim::apply_failure / run_with_schedule) and the controller
//     repairs around (Controller::plan_repair).
//
// Failed switches keep their node id and their server access links — the
// servers stay physically cabled to a dead box — but lose every
// switch-switch link, so traffic through them (and to their servers) dies
// exactly as it does in a real fabric.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "net/graph.h"
#include "net/rng.h"

namespace flattree {

// A set of simultaneously failed elements. Links and switches compose: a
// correlated event (a dead core column, a cut cable bundle) is one set.
struct FailureSet {
  std::vector<LinkId> links;
  std::vector<NodeId> switches;

  [[nodiscard]] bool empty() const { return links.empty() && switches.empty(); }
  [[nodiscard]] std::size_t size() const {
    return links.size() + switches.size();
  }
  bool operator==(const FailureSet&) const = default;
};

// One fail or recover event. Events with equal timestamps apply in
// insertion order. Both simulators drain every event due at a time
// boundary before acting on the resulting state (FluidSimulator applies
// the whole batch before reallocating rates; PacketSim's schedule driver
// degrades against active_at(t), which folds the batch), so a fail and a
// recover of the same element at the identical timestamp net out: the
// element is never observed failed. Pinned by tests/test_failures.cc
// (SameTimestampFailRecover*).
struct FailureEvent {
  double time_s{0.0};
  bool recover{false};  // false = elements fail, true = elements recover
  FailureSet elements;
};

// Folds one event into `active`, a failed set kept sorted and free of
// duplicates: a fail inserts the event's elements, a recover erases them.
// FailureSchedule::active_at is this fold over every due event; consumers
// that track a schedule event by event (the conversion executor, the
// control hierarchy) fold through it too.
void fold_failure_event(FailureSet& active, const FailureEvent& event);

// A time-ordered script of fail/recover events, the unit both simulators
// and the controller consume. Construction is validated: every entity's
// event sequence must alternate fail / recover in time order (ties in
// insertion order), so a fail of an already-failed element, a recover of
// an element that was never failed (or has already recovered), and an
// out-of-order insertion that would produce either are all rejected with
// std::invalid_argument at fail_at()/recover_at() time. A consumer can
// therefore trust any schedule it receives; validate() re-checks the whole
// script (sortedness + per-entity alternation) for schedules that crossed
// a trust boundary.
class FailureSchedule {
 public:
  FailureSchedule& fail_at(double time_s, FailureSet elements);
  FailureSchedule& recover_at(double time_s, FailureSet elements);

  [[nodiscard]] const std::vector<FailureEvent>& events() const {
    return events_;
  }
  [[nodiscard]] bool empty() const { return events_.empty(); }

  // Cumulative failed set after applying every event with time <= time_s.
  [[nodiscard]] FailureSet active_at(double time_s) const;

  // Full-script re-check of the construction invariants: events sorted by
  // time, and per entity a strict fail/recover alternation starting with a
  // fail. Throws std::invalid_argument on the first violation. A schedule
  // built through fail_at()/recover_at() always passes.
  void validate() const;

 private:
  void insert(FailureEvent event);

  std::vector<FailureEvent> events_;  // sorted by time, stable on ties
};

// A copy of `graph` without the given links. Node ids (and therefore server
// identities) are preserved; link ids are renumbered. Throws if an id is
// out of range.
[[nodiscard]] Graph remove_links(const Graph& graph,
                                 const std::vector<LinkId>& failed);

// A copy of `graph` degraded by `failures`: failed links are removed, and
// failed switches lose every switch-switch link (their server access links
// survive, leaving those servers attached but unreachable — see the header
// comment). Node ids are preserved; link ids are renumbered. Throws
// std::invalid_argument on out-of-range ids or if a listed switch is a
// server.
[[nodiscard]] Graph degrade(const Graph& graph, const FailureSet& failures);

// degrade() for a graph whose link numbering differs from the one the
// failure set was expressed against (e.g. a converter-rewired repair
// realization): link ids are resolved to node pairs in `reference`, and
// every link of `graph` between such a pair is removed — node ids are the
// stable currency across realizations; link ids are not. Switch failures
// apply as in degrade().
[[nodiscard]] Graph degrade_mapped(const Graph& graph, const Graph& reference,
                                   const FailureSet& failures);

// The link mapping behind degrade_mapped(): `failures` re-expressed in
// `graph`'s link numbering (every link of `graph` between a node pair that
// a failed `reference` link joins, ascending ids), switches unchanged.
// Throws std::invalid_argument on a link id out of `reference`'s range.
[[nodiscard]] FailureSet map_failures(const Graph& graph,
                                      const Graph& reference,
                                      const FailureSet& failures);

// The live view of a realization under a reference-space failure set:
// `clean` itself when nothing is failed, else degrade_mapped(*clean,
// reference, active) in a fresh shared graph.
[[nodiscard]] std::shared_ptr<const Graph> live_graph(
    std::shared_ptr<const Graph> clean, const Graph& reference,
    const FailureSet& active);

// Uniformly samples `fraction` of the switch-switch links (server access
// links never fail — the paper's failure discussions concern the fabric).
[[nodiscard]] std::vector<LinkId> sample_fabric_failures(const Graph& graph,
                                                         double fraction,
                                                         Rng& rng);

// Uniformly samples `fraction` of the switches with the given role.
[[nodiscard]] std::vector<NodeId> sample_switch_failures(const Graph& graph,
                                                         NodeRole role,
                                                         double fraction,
                                                         Rng& rng);

// Correlated failure: `count` consecutive core switches starting at core
// index `first_core` (by index_in_role, wrapping modulo the core count).
// With the flat-tree Pod-core wiring (§3.2), column j's connectors land on
// the consecutive core group [j*g, (j+1)*g), so first_core = j*g and
// count = g fails a whole core column. Throws if the graph has no cores or
// count exceeds the core count.
[[nodiscard]] FailureSet core_column_failure(const Graph& graph,
                                             std::uint32_t first_core,
                                             std::uint32_t count);

// Link ids of `graph` that have no counterpart in `other`: for each node
// pair, `graph`'s links beyond `other`'s count between that pair (parallel
// links match up count-aware; which ids of an over-full pair are reported
// is deterministic — the highest-numbered ones). Both graphs must share
// node ids. This is the link-level diff between two realizations of the
// same flat-tree, the currency of staged conversion execution.
[[nodiscard]] std::vector<LinkId> links_not_in(const Graph& graph,
                                               const Graph& other);

// `base` plus every link of `extra` it does not already contain
// (count-aware for parallel links). Node ids must be shared. Simulations
// spanning a conversion or a converter-rewire repair run on the union of
// the realizations involved: links absent from the current operating
// topology are failed (zero capacity) or simply unused, and become live
// the moment a schedule event or refreshed route needs them.
[[nodiscard]] Graph graph_union(const Graph& base, const Graph& extra);

// True if every server can still reach every other server.
[[nodiscard]] bool servers_connected(const Graph& graph);

}  // namespace flattree
