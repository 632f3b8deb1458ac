// Incremental max-min (progressive-filling) rate allocator.
//
// solve_max_min_fill (lp/mcf.h) re-derives the whole water-filling from
// scratch on every call: each round it scans every edge for the tightest
// fair share, raises every unfrozen subflow by that delta, and freezes the
// subflows crossing saturated edges. The fluid simulator calls it once per
// arrival/departure/failure event, so the inner loop of every closed-loop
// experiment is O(network) per event even when the event perturbs one path.
//
// This solver keeps the water-filling *trace* alive between events: per
// round the uniform increment (delta), the running fill level (prefix), the
// freeze count and the min-achieving edges; per edge its saturation round;
// per subflow its freeze round. An event marks the edges whose capacity or
// crosser set changed as dirty; solve() then replays the cached rounds,
// explicitly simulating only dirty edges (their residual/active trajectory
// is re-derived with the cached deltas) and re-verifying only the subflows
// that touch them. Rounds whose fair share is unchanged are reused
// verbatim — bit for bit, because a clean edge's floating-point trajectory
// is exactly the cached one and a subflow's final rate is the prefix sum at
// its freeze round, which is how the scratch solver accumulates it.
//
// The moment a dirty edge changes the round structure — a smaller fair
// share, a vanished freeze, a forced-freeze tie — the solver *falls back
// from that round*: it materializes the state of every edge still active
// at the divergence level (those an unfrozen subflow crosses) and re-runs
// the scratch algorithm for the remaining rounds (recording a fresh trace
// tail). Levels below the divergence are still reused; levels at and
// above re-solve. The fallback path executes the identical arithmetic as
// solve_max_min_fill, so results are always bit-for-bit equal to a
// from-scratch solve — the differential battery in
// tests/test_fluid_incremental_diff.cc holds this after every event.
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

namespace flattree {

// Touch accounting for one solve() call (feeds the
// fluid.realloc.links_touched / fluid.realloc.flows_touched metrics).
struct IncrementalSolveStats {
  // Directed edges whose state had to be re-derived this solve: the dirty
  // set, or, when a fallback ran, the edges it materialized (those still
  // active at the divergence level).
  std::uint64_t links_touched{0};
  // Distinct flows whose subflows were added, removed, re-verified or
  // re-frozen this solve.
  std::uint64_t flows_touched{0};
  // Cached rounds replayed verbatim / rounds re-solved by the scratch path.
  std::uint64_t rounds_replayed{0};
  std::uint64_t rounds_resolved{0};
  // True when the cached trace diverged (or there was none) and the
  // scratch path re-solved every round from `fallback_level` on.
  bool fallback{false};
  std::uint32_t fallback_level{0};
  // True when the whole trace was rebuilt (first solve, or divergence at
  // round 0): a fallback from level 0.
  bool full_resolve{false};
};

// Persistent-state drop-in for solve_max_min_fill. Usage:
//   solver.reset(capacities, flow_slots);
//   solver.add_flow(slot, path_edges); ... solver.solve();
//   rate = solver.flow_rate(slot);
// Rates are bit-for-bit identical to building an McfInstance over the
// present flows (in ascending slot order) and calling solve_max_min_fill.
class IncrementalMaxMinSolver {
 public:
  static constexpr std::uint32_t kNone = 0xFFFFFFFFu;

  // Starts over with `capacity[e]` per directed edge and slots
  // [0, flow_slots) addressable. Drops all flows and the cached trace.
  void reset(std::vector<double> capacity, std::size_t flow_slots);

  // Updates one directed edge's capacity (no-op if unchanged).
  void set_capacity(std::uint32_t edge, double capacity);

  // Registers a flow at `slot` with one subflow per path (a path is a list
  // of directed edge indices). The slot must be free. An empty path list is
  // allowed and yields rate 0 (the fluid simulator keeps black-holed flows
  // out of the allocation entirely).
  void add_flow(std::uint32_t slot, const std::vector<std::vector<std::uint32_t>>& path_edges);

  // Removes the flow at `slot` (no-op if absent).
  void remove_flow(std::uint32_t slot);

  // Replaces the flow's path set (remove + add; no-op path sets allowed).
  void update_flow(std::uint32_t slot, const std::vector<std::vector<std::uint32_t>>& path_edges);

  [[nodiscard]] bool has_flow(std::uint32_t slot) const {
    return slot < flows_.size() && flows_[slot].present;
  }

  // Recomputes the allocation for the current flow/capacity state.
  void solve();

  // Total rate of the flow at `slot` (0 if absent/empty). Valid after
  // solve(); identical fold order to solve_max_min_fill's extraction.
  [[nodiscard]] double flow_rate(std::uint32_t slot) const;

  // Per-path rates for the flow at `slot` (empty if absent).
  [[nodiscard]] std::vector<double> path_rates(std::uint32_t slot) const;

  [[nodiscard]] const IncrementalSolveStats& last_stats() const { return stats_; }
  [[nodiscard]] std::size_t edge_count() const { return edges_.size(); }
  [[nodiscard]] double capacity(std::uint32_t edge) const { return edges_[edge].capacity; }

 private:
  struct SubflowRec {
    std::uint32_t flow{kNone};          // owner slot; kNone = free-listed
    std::uint32_t freeze_round{kNone};  // round index into rounds_
    std::uint32_t bucket_epoch{0};      // scheduled for re-verification
    std::uint32_t confirm_epoch{0};     // freeze at its round finalized
    std::vector<std::uint32_t> edges;   // directed edges, path order
    std::vector<std::uint32_t> edge_pos;  // index in each edge's crossers
  };

  struct EdgeRec {
    double capacity{0.0};
    std::uint32_t sat_round{kNone};  // round this edge saturated, if any
    // (subflow, index of this edge within that subflow's edge list) — the
    // back-pointer makes removal O(1) per incidence.
    std::vector<std::pair<std::uint32_t, std::uint32_t>> crossers;
    // Explicit ("dirty") state, valid while dirty_epoch == epoch_:
    std::uint32_t dirty_epoch{0};
    std::uint32_t pending_epoch{0};  // queued for next solve's dirty seed
    double residual{0.0};
    std::uint32_t active{0};
  };

  struct Round {
    double delta{0.0};
    double prefix{0.0};          // fill level after this round (left fold)
    std::uint32_t frozen{0};     // subflows currently frozen at this round
    std::uint32_t argmin{kNone};  // first min-achieving edge (scan order)
    bool forced{false};          // freeze came from the progress guard
    std::uint8_t ms_n{0};
    std::uint32_t ms[8];         // min-achieving edges, ascending ids
  };

  struct FlowRec {
    bool present{false};
    std::vector<std::uint32_t> subflows;  // path order
  };

  [[nodiscard]] double thresh(const EdgeRec& e) const {
    return 1e-9 * e.capacity + 1e-12;
  }
  [[nodiscard]] bool is_dirty(const EdgeRec& e) const {
    return e.dirty_epoch == epoch_;
  }

  void mark_pending(std::uint32_t edge);
  void touch_flow(std::uint32_t slot);
  std::uint32_t alloc_subflow();
  void detach_subflow(std::uint32_t s);

  // Turns `edge` explicit mid-replay: derives its residual/active at the
  // end of round `upto` (post-decrement, pre-freeze-accounting for round
  // `upto` itself) from the cached deltas and current freeze rounds, clears
  // its stale saturation round, and schedules its pending crossers for
  // re-verification. `upto == kNone` seeds at the pre-round-0 state.
  void make_dirty(std::uint32_t edge, std::uint32_t upto);

  // Finalizes a subflow freeze at `round` during replay: moves its cached
  // freeze round if needed, decrements already-dirty crossed edges, and
  // dirties its clean edges (whose future trajectory just changed).
  void finalize_freeze(std::uint32_t s, std::uint32_t round);

  // Re-runs the scratch water-filling from round `from` (0 = full solve),
  // recording a fresh trace tail. Bitwise the solve_max_min_fill loop.
  void fallback_from(std::uint32_t from);

  // The solve_max_min_fill round loop over `active_edges_` (ascending ids),
  // starting at fill level `prefix`; records the rounds it produces.
  void scratch_fill(double prefix, std::size_t unfrozen_edged);

  void replay();

  std::vector<EdgeRec> edges_;
  std::vector<FlowRec> flows_;
  std::vector<SubflowRec> subflows_;
  std::vector<std::uint32_t> free_subflows_;
  std::vector<Round> rounds_;
  bool trace_valid_{false};
  std::size_t total_edged_{0};  // live subflows with >= 1 edge

  std::uint32_t epoch_{0};
  std::uint32_t pending_gen_{1};
  std::uint32_t flow_touch_gen_{1};
  std::vector<std::uint32_t> pending_dirty_;
  std::vector<std::uint32_t> dirty_list_;  // edges explicit this solve
  // Per cached round, the subflows due for re-verification there; a
  // bucket whose epoch is not this solve's is empty.
  struct Bucket {
    std::uint32_t epoch{0};
    std::vector<std::uint32_t> subflows;
  };
  std::vector<Bucket> buckets_;
  std::vector<std::uint32_t> cnt_buf_;  // freeze-round histogram scratch
  std::vector<std::uint32_t> cnt_used_;
  // scratch_fill's working set: the edges still active (ascending ids),
  // one round's saturated edges, and fallback_from's edge bitmap.
  std::vector<std::uint32_t> active_edges_;
  std::vector<std::uint32_t> saturated_;
  std::vector<std::uint64_t> active_mark_;

  std::vector<std::uint32_t> flow_touch_epoch_;
  std::uint64_t flows_touched_pending_{0};
  IncrementalSolveStats stats_;
};

}  // namespace flattree
