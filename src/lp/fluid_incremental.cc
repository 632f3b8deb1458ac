#include "lp/fluid_incremental.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>

namespace flattree {

namespace {
constexpr std::uint32_t kNone = IncrementalMaxMinSolver::kNone;
}  // namespace

namespace {
// Progressive filling saturates an edge when its residual reaches a
// threshold relative to its capacity; an infinite or NaN capacity has no
// such threshold (it would saturate in the first round).
void check_finite(std::uint32_t edge, double capacity) {
  if (!std::isfinite(capacity)) {
    throw std::invalid_argument("incremental mcf: edge " +
                                std::to_string(edge) +
                                " has a non-finite capacity");
  }
}
}  // namespace

void IncrementalMaxMinSolver::reset(std::vector<double> capacity,
                                    std::size_t flow_slots) {
  for (std::size_t e = 0; e < capacity.size(); ++e) {
    check_finite(static_cast<std::uint32_t>(e), capacity[e]);
  }
  edges_.assign(capacity.size(), EdgeRec{});
  edge_slot_.assign(capacity.size(), 0);
  for (std::size_t e = 0; e < capacity.size(); ++e) {
    edges_[e].capacity = capacity[e];
  }
  flows_.assign(flow_slots, FlowRec{});
  subflows_.clear();
  free_subflows_.clear();
  rounds_.clear();
  trace_valid_ = false;
  total_edged_ = 0;
  epoch_ = 0;
  pending_gen_ = 1;
  flow_touch_gen_ = 1;
  pending_dirty_.clear();
  dirty_list_.clear();
  buckets_.clear();
  cnt_buf_.clear();
  cnt_used_.clear();
  flow_touch_epoch_.assign(flow_slots, 0);
  flows_touched_pending_ = 0;
  stats_ = IncrementalSolveStats{};
}

void IncrementalMaxMinSolver::mark_pending(std::uint32_t edge) {
  EdgeRec& e = edges_[edge];
  if (e.pending_epoch == pending_gen_) return;
  e.pending_epoch = pending_gen_;
  pending_dirty_.push_back(edge);
}

void IncrementalMaxMinSolver::touch_flow(std::uint32_t slot) {
  if (flow_touch_epoch_[slot] == flow_touch_gen_) return;
  flow_touch_epoch_[slot] = flow_touch_gen_;
  ++flows_touched_pending_;
}

std::uint32_t IncrementalMaxMinSolver::alloc_subflow() {
  if (!free_subflows_.empty()) {
    const std::uint32_t s = free_subflows_.back();
    free_subflows_.pop_back();
    return s;
  }
  subflows_.emplace_back();
  return static_cast<std::uint32_t>(subflows_.size() - 1);
}

void IncrementalMaxMinSolver::set_capacity(std::uint32_t edge,
                                           double capacity) {
  check_finite(edge, capacity);
  EdgeRec& e = edges_[edge];
  if (e.capacity == capacity) return;
  e.capacity = capacity;
  mark_pending(edge);
}

void IncrementalMaxMinSolver::add_flow(
    std::uint32_t slot,
    const std::vector<std::vector<std::uint32_t>>& path_edges) {
  if (slot >= flows_.size()) {
    throw std::invalid_argument("incremental mcf: flow slot out of range");
  }
  FlowRec& flow = flows_[slot];
  if (flow.present) {
    throw std::logic_error("incremental mcf: flow slot already present");
  }
  flow.present = true;
  touch_flow(slot);
  flow.subflows.reserve(path_edges.size());
  for (const auto& path : path_edges) {
    const std::uint32_t s = alloc_subflow();
    SubflowRec& sub = subflows_[s];
    sub.flow = slot;
    sub.freeze_round = kNone;
    sub.edges = path;
    sub.edge_pos.resize(path.size());
    for (std::size_t i = 0; i < path.size(); ++i) {
      const std::uint32_t e = path[i];
      if (e >= edges_.size()) {
        throw std::invalid_argument("incremental mcf: edge index out of range");
      }
      sub.edge_pos[i] = static_cast<std::uint32_t>(edges_[e].crossers.size());
      edges_[e].crossers.emplace_back(s, static_cast<std::uint32_t>(i));
      mark_pending(e);
    }
    if (!path.empty()) ++total_edged_;
    flow.subflows.push_back(s);
  }
}

void IncrementalMaxMinSolver::detach_subflow(std::uint32_t s) {
  SubflowRec& sub = subflows_[s];
  for (std::size_t i = 0; i < sub.edges.size(); ++i) {
    const std::uint32_t e = sub.edges[i];
    auto& crossers = edges_[e].crossers;
    const std::uint32_t pos = sub.edge_pos[i];
    const auto moved = crossers.back();
    crossers[pos] = moved;
    subflows_[moved.first].edge_pos[moved.second] = pos;
    crossers.pop_back();
    mark_pending(e);
  }
  sub.edges.clear();
  sub.edge_pos.clear();
  sub.flow = kNone;
  sub.freeze_round = kNone;
  free_subflows_.push_back(s);
}

void IncrementalMaxMinSolver::remove_flow(std::uint32_t slot) {
  if (slot >= flows_.size() || !flows_[slot].present) return;
  touch_flow(slot);
  FlowRec& flow = flows_[slot];
  for (const std::uint32_t s : flow.subflows) {
    SubflowRec& sub = subflows_[s];
    if (!sub.edges.empty()) --total_edged_;
    if (sub.freeze_round != kNone && sub.freeze_round < rounds_.size()) {
      --rounds_[sub.freeze_round].frozen;
    }
    detach_subflow(s);
  }
  flow.subflows.clear();
  flow.present = false;
}

void IncrementalMaxMinSolver::update_flow(
    std::uint32_t slot,
    const std::vector<std::vector<std::uint32_t>>& path_edges) {
  remove_flow(slot);
  add_flow(slot, path_edges);
}

void IncrementalMaxMinSolver::make_dirty(std::uint32_t edge,
                                         std::uint32_t upto) {
  EdgeRec& e = edges_[edge];
  if (is_dirty(e)) return;
  e.dirty_epoch = epoch_;
  dirty_list_.push_back(edge);
  // Any cached saturation round at or past the current replay point is
  // stale; replay re-establishes it if the edge still saturates. (An edge
  // can only be dirtied at a round <= its cached saturation round: a later
  // dirtying would require an unfrozen crosser, but saturation froze them
  // all.)
  assert(upto == kNone || e.sat_round == kNone || e.sat_round >= upto);
  e.sat_round = kNone;

  const std::uint32_t cur = (upto == kNone) ? 0 : upto;
  if (upto == kNone) {
    // Pre-round-0: nothing has filled yet.
    e.residual = e.capacity;
    e.active = static_cast<std::uint32_t>(e.crossers.size());
  } else {
    // Re-derive residual/active at the end of round `upto` (post-decrement)
    // with the cached deltas — the exact floating-point sequence the
    // scratch solver would have produced for this edge's current crosser
    // set. Crossers frozen at rounds < upto are finalized; crossers frozen
    // at `upto` leave the active count only once their freeze is confirmed
    // (duty-decrements handle pending ones later this round).
    if (cnt_buf_.size() < rounds_.size()) cnt_buf_.resize(rounds_.size(), 0);
    std::uint32_t confirmed_now = 0;
    for (const auto& [s, pos] : e.crossers) {
      (void)pos;
      const std::uint32_t fr = subflows_[s].freeze_round;
      if (fr == kNone || fr > upto) continue;
      if (fr == upto) {
        if (subflows_[s].confirm_epoch == epoch_) ++confirmed_now;
        continue;
      }
      if (cnt_buf_[fr]++ == 0) cnt_used_.push_back(fr);
    }
    double residual = e.capacity;
    std::uint32_t a = static_cast<std::uint32_t>(e.crossers.size());
    for (std::uint32_t j = 0; j <= upto; ++j) {
      if (a > 0) {
        residual = std::max(0.0, residual - rounds_[j].delta * a);
      }
      if (j < upto) a -= cnt_buf_[j];
    }
    for (const std::uint32_t j : cnt_used_) cnt_buf_[j] = 0;
    cnt_used_.clear();
    e.residual = residual;
    e.active = a - confirmed_now;
  }

  // Schedule still-pending crossers for re-verification at their cached
  // freeze rounds; they also owe this edge an active-decrement when their
  // freeze is confirmed.
  for (const auto& [s, pos] : e.crossers) {
    (void)pos;
    SubflowRec& sub = subflows_[s];
    const std::uint32_t fr = sub.freeze_round;
    if (fr == kNone || fr < cur) continue;
    if (fr == cur && upto != kNone && sub.confirm_epoch == epoch_) continue;
    if (sub.bucket_epoch == epoch_) continue;
    sub.bucket_epoch = epoch_;
    Bucket& bucket = buckets_[fr];
    if (bucket.epoch != epoch_) {
      bucket.epoch = epoch_;
      bucket.subflows.clear();
    }
    bucket.subflows.push_back(s);
    touch_flow(sub.flow);
  }
}

void IncrementalMaxMinSolver::finalize_freeze(std::uint32_t s,
                                              std::uint32_t round) {
  SubflowRec& sub = subflows_[s];
  const std::uint32_t old = sub.freeze_round;
  sub.confirm_epoch = epoch_;
  touch_flow(sub.flow);
  const bool moved = (old != round);
  if (moved) {
    if (old != kNone) --rounds_[old].frozen;
    ++rounds_[round].frozen;
    sub.freeze_round = round;
  }
  for (const std::uint32_t e : sub.edges) {
    EdgeRec& edge = edges_[e];
    if (is_dirty(edge)) {
      assert(edge.active > 0);
      --edge.active;
    } else if (moved) {
      // The clean edge's cached trajectory assumed this subflow stayed
      // active until `old`; it froze at `round` instead. Materialization
      // sees the new freeze round (set above) and excludes the confirmed
      // freeze from the post-round active count.
      make_dirty(e, round);
    }
  }
}

void IncrementalMaxMinSolver::replay() {
  const std::uint32_t cached_rounds =
      static_cast<std::uint32_t>(rounds_.size());
  std::size_t unfrozen_edged = total_edged_;
  std::vector<std::uint32_t> dirty_ach;

  for (std::uint32_t r = 0; r < cached_rounds; ++r) {
    if (unfrozen_edged == 0) {
      // Every edged subflow froze by round r-1: the remaining cached
      // rounds can no longer occur (their freezers were removed or froze
      // earlier — all of which dirtied the edges involved).
      rounds_.resize(r);
      break;
    }
    Round& rd = rounds_[r];

    // Fair share of the dirty edges this round.
    double dmin = std::numeric_limits<double>::infinity();
    std::uint32_t dmin_id = kNone;
    dirty_ach.clear();
    for (const std::uint32_t e : dirty_list_) {
      const EdgeRec& edge = edges_[e];
      if (edge.active == 0) continue;
      const double h = edge.residual / edge.active;
      if (h < dmin) {
        dmin = h;
        dmin_id = e;
        dirty_ach.clear();
        dirty_ach.push_back(e);
      } else if (h == dmin) {
        dirty_ach.push_back(e);
        dmin_id = std::min(dmin_id, e);
      }
    }

    if (dmin < rd.delta) {
      // A dirty edge's fair share undercuts the cached level: a new round
      // must be inserted here, shifting every later level's floating-point
      // trajectory. Re-solve from this level.
      fallback_from(r);
      return;
    }
    if (dmin > rd.delta) {
      // The cached level must still be pinned by a clean edge; otherwise
      // the min may have risen and the whole tail shifts.
      bool clean_ms = false;
      for (std::uint8_t i = 0; i < rd.ms_n; ++i) {
        if (!is_dirty(edges_[rd.ms[i]])) {
          clean_ms = true;
          break;
        }
      }
      if (!clean_ms) {
        fallback_from(r);
        return;
      }
    }

    // Decrement the dirty edges by the (validated) cached delta. Clean
    // edges' residuals evolve exactly as cached — nothing to do.
    const std::size_t dirty_n = dirty_list_.size();
    for (std::size_t i = 0; i < dirty_n; ++i) {
      EdgeRec& edge = edges_[dirty_list_[i]];
      if (edge.active > 0) {
        edge.residual = std::max(0.0, edge.residual - rd.delta * edge.active);
      }
    }

    // Saturation scan over the dirty edges (clean edges saturate exactly
    // per cache; their crossers are already counted frozen). Edges dirtied
    // mid-round by the freezes below enter with their cached round-r
    // residual and provably cannot saturate here, so the pre-scan snapshot
    // of the dirty list is the complete saturation set.
    bool dirty_froze = false;
    for (std::size_t i = 0; i < dirty_n; ++i) {
      const std::uint32_t eid = dirty_list_[i];
      EdgeRec& edge = edges_[eid];
      if (edge.active == 0 || edge.residual > thresh(edge)) continue;
      edge.sat_round = r;
      for (std::size_t c = 0; c < edge.crossers.size(); ++c) {
        const std::uint32_t s = edge.crossers[c].first;
        const SubflowRec& sub = subflows_[s];
        const bool frozen_now =
            sub.freeze_round < r ||
            (sub.freeze_round == r && sub.confirm_epoch == epoch_);
        if (frozen_now) continue;
        dirty_froze = true;
        finalize_freeze(s, r);
      }
    }

    // Re-verify the scheduled subflows whose cached freeze round is r: a
    // subflow keeps its cached freeze iff one of its edges still saturates
    // at r. The queue grows when a diverging subflow dirties edges whose
    // pending crossers are also due at r.
    if (r < buckets_.size() && buckets_[r].epoch == epoch_) {
      const std::vector<std::uint32_t>& queue = buckets_[r].subflows;
      for (std::size_t i = 0; i < queue.size(); ++i) {
        const std::uint32_t s = queue[i];
        SubflowRec& sub = subflows_[s];
        if (sub.freeze_round != r) continue;  // froze earlier or diverged
        if (sub.confirm_epoch == epoch_) continue;
        bool saturated = false;
        for (const std::uint32_t e : sub.edges) {
          if (edges_[e].sat_round == r) {
            saturated = true;
            break;
          }
        }
        if (saturated) {
          finalize_freeze(s, r);
        } else {
          // Diverges: stays unfrozen past r. Its edges carry it longer
          // than their cached trajectories assumed.
          --rd.frozen;
          sub.freeze_round = kNone;
          touch_flow(sub.flow);
          for (const std::uint32_t e : sub.edges) {
            if (!is_dirty(edges_[e])) make_dirty(e, r);
          }
        }
      }
    }

    if (rd.frozen == 0) {
      // The round vanished (its freezers all moved or left): the level
      // structure from here on is different. Re-solve the tail.
      fallback_from(r);
      return;
    }
    if (rd.forced &&
        (dirty_froze || is_dirty(edges_[rd.argmin]) ||
         (dmin == rd.delta && dmin_id < rd.argmin))) {
      // Forced freezes are floating-point residue tie-breaks on the
      // argmin edge; any dirty interference can change the pick. Cheaper
      // to re-solve than to re-derive the tie-break.
      fallback_from(r);
      return;
    }

    // Refresh the min-achiever head: drop dirty members whose fair share
    // moved off the level, merge dirty edges that now sit exactly on it.
    std::uint32_t new_ms[8];
    std::uint8_t new_n = 0;
    for (std::uint8_t i = 0; i < rd.ms_n; ++i) {
      if (!is_dirty(edges_[rd.ms[i]])) {
        if (new_n < 8) new_ms[new_n++] = rd.ms[i];
      }
    }
    if (dmin == rd.delta) {
      for (const std::uint32_t e : dirty_ach) {
        if (new_n < 8) new_ms[new_n++] = e;
      }
      for (std::uint8_t i = 1; i < new_n; ++i) {
        const std::uint32_t v = new_ms[i];
        std::uint8_t j = i;
        while (j > 0 && new_ms[j - 1] > v) {
          new_ms[j] = new_ms[j - 1];
          --j;
        }
        new_ms[j] = v;
      }
      if (dmin_id < rd.argmin) rd.argmin = dmin_id;
    }
    rd.ms_n = new_n;
    std::copy(new_ms, new_ms + new_n, rd.ms);

    assert(unfrozen_edged >= rd.frozen);
    unfrozen_edged -= rd.frozen;
    ++stats_.rounds_replayed;
  }

  if (unfrozen_edged > 0) {
    // Cached rounds exhausted with live subflows left: new arrivals and
    // diverged subflows (whose edges are all dirty by construction) fill
    // on above the cached levels.
    active_edges_.clear();
    for (const std::uint32_t e : dirty_list_) {
      if (edges_[e].active > 0) active_edges_.push_back(e);
    }
    std::sort(active_edges_.begin(), active_edges_.end());
    const double prefix = rounds_.empty() ? 0.0 : rounds_.back().prefix;
    scratch_fill(prefix, unfrozen_edged);
  }

  stats_.links_touched = dirty_list_.size();
}

void IncrementalMaxMinSolver::fallback_from(std::uint32_t from) {
  stats_.fallback = true;
  stats_.fallback_level = from;
  if (from == 0) stats_.full_resolve = true;

  // Rewind every subflow frozen at or past the divergence level, and mark
  // the edges of every subflow left unfrozen: those, and only those, are
  // active at level `from`. (An edge whose crossers all froze below `from`
  // is inactive there, and its cached saturation round, if any, is below
  // `from` too: a saturation round always names a freeze of a crosser.)
  // The subflows frozen below `from` are bucketed by freeze round: they
  // are what the kept rounds subtract from the active counts.
  const std::size_t words = (edges_.size() + 63) / 64;
  active_mark_.assign(words, 0);
  if (frozen_by_round_.size() < from) frozen_by_round_.resize(from);
  for (std::uint32_t j = 0; j < from; ++j) frozen_by_round_[j].clear();
  std::size_t unfrozen_edged = 0;
  for (std::uint32_t s = 0; s < subflows_.size(); ++s) {
    SubflowRec& sub = subflows_[s];
    if (sub.edges.empty()) continue;  // edgeless or free-listed
    if (sub.freeze_round != kNone) {
      if (sub.freeze_round < from) {
        frozen_by_round_[sub.freeze_round].push_back(s);
        continue;
      }
      sub.freeze_round = kNone;
    }
    ++unfrozen_edged;
    for (const std::uint32_t e : sub.edges) {
      active_mark_[e >> 6] |= std::uint64_t{1} << (e & 63);
    }
  }
  const auto marked = [&](std::uint32_t e) {
    return (active_mark_[e >> 6] >> (e & 63) & 1) != 0;
  };

  // The marked edges in id order (the scratch scan order), each with a
  // dense slot holding its residual and active count at the pre-round-0
  // state. Active counts are whole numbers, exact as doubles.
  active_edges_.clear();
  fill_residual_.clear();
  fill_active_.clear();
  for (std::size_t w = 0; w < words; ++w) {
    for (std::uint64_t bits = active_mark_[w]; bits != 0; bits &= bits - 1) {
      const auto eid =
          static_cast<std::uint32_t>(w * 64 + std::countr_zero(bits));
      EdgeRec& e = edges_[eid];
      if (e.sat_round != kNone && e.sat_round >= from) e.sat_round = kNone;
      edge_slot_[eid] = static_cast<std::uint32_t>(active_edges_.size());
      active_edges_.push_back(eid);
      fill_residual_.push_back(e.capacity);
      fill_active_.push_back(static_cast<double>(e.crossers.size()));
    }
  }

  // Materialize them at the pre-round-`from` state: replay the kept rounds
  // round-major. Each edge sees the scratch solver's floating-point
  // sequence — round j subtracts delta_j times the crossers still active,
  // then round j's freezes leave the count. Every marked edge keeps an
  // unfrozen crosser, so its count stays positive throughout.
  const std::size_t n = active_edges_.size();
  for (std::uint32_t j = 0; j < from; ++j) {
    const double delta = rounds_[j].delta;
    for (std::size_t i = 0; i < n; ++i) {
      fill_residual_[i] =
          std::max(0.0, fill_residual_[i] - delta * fill_active_[i]);
    }
    for (const std::uint32_t s : frozen_by_round_[j]) {
      for (const std::uint32_t e : subflows_[s].edges) {
        if (marked(e)) fill_active_[edge_slot_[e]] -= 1.0;
      }
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
    EdgeRec& e = edges_[active_edges_[i]];
    assert(fill_active_[i] > 0);
    e.residual = fill_residual_[i];
    e.active = static_cast<std::uint32_t>(fill_active_[i]);
    e.dirty_epoch = epoch_;  // explicit from here on
  }
  stats_.links_touched = n;

  rounds_.resize(from);
  const double prefix = from > 0 ? rounds_[from - 1].prefix : 0.0;
  scratch_fill(prefix, unfrozen_edged);
}

void IncrementalMaxMinSolver::scratch_fill(double prefix,
                                           std::size_t unfrozen_edged) {
  // The solve_max_min_fill loop, restricted to the edges that can still
  // constrain anything (every edge with an unfrozen crosser is in
  // `active_edges_`, in ascending id order — the scratch scan order — so
  // min, argmin and the freeze sweep are bitwise identical to scanning the
  // full edge array). Records the trace rounds it produces. Two passes per
  // round: the min scan (which also drops the edges the previous round's
  // freezes emptied), and the decrement (which also collects the edges at
  // or below their saturation threshold).
  //
  // The min scan skips the division for an edge whose fair share provably
  // exceeds the running minimum `delta`, as it can neither undercut nor tie
  // it. With u = 2^-53 and delta >= DBL_MIN (normal, so no product below
  // underflows), let hi = fl(delta * (1 + 4u)). If r > fl(hi * a) then
  //   r / a > hi (1 - u) >= delta (1 + 4u)(1 - u)^2 > delta (1 + u),
  // and delta (1 + u) is at least the midpoint between delta and the next
  // double up (half an ulp of a normal delta is at most u * delta), so the
  // rounded quotient fl(r / a) > delta. While delta is 0, subnormal or
  // infinite, hi stays infinite and every share is computed. A false test
  // (including any NaN) only means the division runs.
  constexpr double kHiScale =  // 1 + 4u
      1.0 + 2.0 * std::numeric_limits<double>::epsilon();
  std::vector<std::uint32_t>& active_edges = active_edges_;
  std::vector<std::uint32_t>& saturated = saturated_;
  std::size_t n = active_edges.size();
  while (unfrozen_edged > 0) {
    double delta = std::numeric_limits<double>::infinity();
    double delta_hi = delta;
    std::uint32_t argmin = kNone;
    Round rd;
    std::size_t kept = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint32_t e = active_edges[i];
      const EdgeRec& edge = edges_[e];
      if (edge.active == 0) continue;
      active_edges[kept++] = e;
      const double a = edge.active;
      if (edge.residual > delta_hi * a) continue;
      const double h = edge.residual / a;
      if (h < delta) {
        delta = h;
        delta_hi = delta >= std::numeric_limits<double>::min() &&
                           delta < std::numeric_limits<double>::infinity()
                       ? delta * kHiScale
                       : std::numeric_limits<double>::infinity();
        argmin = e;
        rd.ms_n = 1;
        rd.ms[0] = e;
      } else if (h == delta && rd.ms_n < 8) {
        rd.ms[rd.ms_n++] = e;
      }
    }
    n = kept;
    if (!std::isfinite(delta)) break;  // only edgeless subflows remain
    stats_.edges_scanned += n;
    delta = std::max(delta, 0.0);
    prefix += delta;

    // Every listed edge is active now; the saturation test is the scan's
    // `residual > thresh` negated, so a NaN threshold freezes as there.
    saturated.clear();
    for (std::size_t i = 0; i < n; ++i) {
      EdgeRec& edge = edges_[active_edges[i]];
      edge.residual = std::max(0.0, edge.residual - delta * edge.active);
      if (!(edge.residual > thresh(edge))) saturated.push_back(active_edges[i]);
    }

    const std::uint32_t round_idx = static_cast<std::uint32_t>(rounds_.size());
    std::uint32_t frozen = 0;
    const auto freeze_edge = [&](std::uint32_t eid) {
      EdgeRec& edge = edges_[eid];
      edge.sat_round = round_idx;
      for (std::size_t c = 0; c < edge.crossers.size(); ++c) {
        const std::uint32_t s = edge.crossers[c].first;
        SubflowRec& sub = subflows_[s];
        if (sub.freeze_round != kNone) continue;
        sub.freeze_round = round_idx;
        sub.confirm_epoch = epoch_;
        ++frozen;
        --unfrozen_edged;
        touch_flow(sub.flow);
        for (const std::uint32_t pe : sub.edges) {
          EdgeRec& other = edges_[pe];
          assert(other.active > 0);
          --other.active;
        }
      }
    };
    // Ascending, like the scan: an edge emptied by an earlier freeze this
    // round is skipped, exactly as the scan's `active == 0` test does.
    for (const std::uint32_t e : saturated) {
      if (edges_[e].active != 0) freeze_edge(e);
    }
    if (frozen == 0) {
      rd.forced = true;
      freeze_edge(argmin);
    }
    rd.delta = delta;
    rd.prefix = prefix;
    rd.argmin = argmin;
    rd.frozen = frozen;
    rounds_.push_back(rd);
    ++stats_.rounds_resolved;
  }
}

void IncrementalMaxMinSolver::solve() {
  ++epoch_;
  stats_ = IncrementalSolveStats{};
  dirty_list_.clear();

  if (!trace_valid_) {
    pending_dirty_.clear();
    ++pending_gen_;
    fallback_from(0);
    trace_valid_ = true;
  } else if (!pending_dirty_.empty()) {
    // Sized once per solve: replay holds a reference into a bucket while
    // make_dirty appends to others.
    if (buckets_.size() < rounds_.size()) buckets_.resize(rounds_.size());
    for (const std::uint32_t e : pending_dirty_) make_dirty(e, kNone);
    pending_dirty_.clear();
    ++pending_gen_;
    replay();
  }

  stats_.flows_touched = flows_touched_pending_;
  flows_touched_pending_ = 0;
  ++flow_touch_gen_;
}

double IncrementalMaxMinSolver::flow_rate(std::uint32_t slot) const {
  if (!has_flow(slot)) return 0.0;
  double rate = 0.0;
  for (const std::uint32_t s : flows_[slot].subflows) {
    const std::uint32_t fr = subflows_[s].freeze_round;
    rate += fr == kNone ? (rounds_.empty() ? 0.0 : rounds_.back().prefix)
                        : rounds_[fr].prefix;
  }
  return rate;
}

std::vector<double> IncrementalMaxMinSolver::path_rates(
    std::uint32_t slot) const {
  std::vector<double> out;
  if (!has_flow(slot)) return out;
  out.reserve(flows_[slot].subflows.size());
  for (const std::uint32_t s : flows_[slot].subflows) {
    const std::uint32_t fr = subflows_[s].freeze_round;
    out.push_back(fr == kNone
                      ? (rounds_.empty() ? 0.0 : rounds_.back().prefix)
                      : rounds_[fr].prefix);
  }
  return out;
}

}  // namespace flattree
