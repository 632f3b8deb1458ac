// Test oracle for progressive filling: the naive per-subflow round loop.
// Every round it scans every edge for the tightest fair share, raises every
// unfrozen subflow by that delta, and freezes the subflows crossing
// saturated edges — O(subflows x rounds), which is why the library solves
// through IncrementalMaxMinSolver instead. solve_max_min_fill must agree
// with it bit for bit in every McfResult field: a subflow's rate here is
// the left fold of the deltas up to its freeze round, which is the
// solver's running fill level at that round.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "lp/mcf.h"

namespace flattree {

inline McfResult max_min_fill_oracle(const McfInstance& instance) {
  McfResult result;
  result.feasible = true;
  result.flow_rate.assign(instance.commodities.size(), 0.0);
  result.path_rates.resize(instance.commodities.size());

  // Subflow table.
  struct Subflow {
    std::uint32_t commodity;
    std::uint32_t path;
    double rate{0.0};
    bool frozen{false};
  };
  std::vector<Subflow> subflows;
  for (std::size_t f = 0; f < instance.commodities.size(); ++f) {
    result.path_rates[f].assign(instance.commodities[f].paths.size(), 0.0);
    for (std::size_t p = 0; p < instance.commodities[f].paths.size(); ++p) {
      subflows.push_back(Subflow{static_cast<std::uint32_t>(f),
                                 static_cast<std::uint32_t>(p)});
    }
  }

  // Per-edge: residual capacity and active subflow count.
  std::vector<double> residual = instance.capacity;
  std::vector<std::uint32_t> active(instance.capacity.size(), 0);
  std::vector<std::vector<std::uint32_t>> edge_subflows(
      instance.capacity.size());
  for (std::size_t s = 0; s < subflows.size(); ++s) {
    const auto& path =
        instance.commodities[subflows[s].commodity].paths[subflows[s].path];
    for (std::uint32_t e : path) {
      ++active[e];
      edge_subflows[e].push_back(static_cast<std::uint32_t>(s));
    }
  }

  const auto freeze_edge_subflows = [&](std::size_t e,
                                        std::size_t& unfrozen_count) {
    for (std::uint32_t s : edge_subflows[e]) {
      if (subflows[s].frozen) continue;
      subflows[s].frozen = true;
      --unfrozen_count;
      const auto& path =
          instance.commodities[subflows[s].commodity].paths[subflows[s].path];
      for (std::uint32_t pe : path) --active[pe];
    }
  };

  std::size_t unfrozen = subflows.size();
  while (unfrozen > 0) {
    // Tightest edge determines the uniform increment.
    double delta = std::numeric_limits<double>::infinity();
    std::size_t argmin = residual.size();
    for (std::size_t e = 0; e < residual.size(); ++e) {
      if (active[e] == 0) continue;
      const double headroom = residual[e] / active[e];
      if (headroom < delta) {
        delta = headroom;
        argmin = e;
      }
    }
    if (!std::isfinite(delta)) break;  // no capacity-constrained subflows left
    delta = std::max(delta, 0.0);

    for (Subflow& s : subflows) {
      if (!s.frozen) s.rate += delta;
    }
    for (std::size_t e = 0; e < residual.size(); ++e) {
      if (active[e] > 0) residual[e] = std::max(0.0, residual[e] - delta * active[e]);
    }
    // Freeze every subflow crossing a saturated edge.
    const std::size_t before = unfrozen;
    for (std::size_t e = 0; e < residual.size(); ++e) {
      if (active[e] == 0 || residual[e] > 1e-9 * instance.capacity[e] + 1e-12) {
        continue;
      }
      freeze_edge_subflows(e, unfrozen);
    }
    // Guaranteed progress even under floating-point residue.
    if (unfrozen == before) freeze_edge_subflows(argmin, unfrozen);
  }

  result.min_rate = std::numeric_limits<double>::infinity();
  double total = 0;
  for (const Subflow& s : subflows) {
    result.path_rates[s.commodity][s.path] = s.rate;
    result.flow_rate[s.commodity] += s.rate;
  }
  for (double r : result.flow_rate) {
    result.min_rate = std::min(result.min_rate, r);
    total += r;
  }
  if (instance.commodities.empty()) {
    result.min_rate = 0;
  } else {
    result.avg_rate = total / static_cast<double>(instance.commodities.size());
  }
  return result;
}

}  // namespace flattree
