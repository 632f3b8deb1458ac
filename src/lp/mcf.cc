#include "lp/mcf.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace flattree {
namespace {

void validate(const McfInstance& instance) {
  for (const McfCommodity& c : instance.commodities) {
    if (c.paths.empty()) {
      throw std::invalid_argument("mcf: commodity with no paths");
    }
    for (const auto& path : c.paths) {
      for (std::uint32_t e : path) {
        if (e >= instance.capacity.size()) {
          throw std::invalid_argument("mcf: edge index out of range");
        }
      }
    }
  }
}

// Variable layout shared by both LP formulations: one rate variable per
// (commodity, path), then optionally the max-min variable t at the end.
struct VarLayout {
  std::vector<std::uint32_t> first_var;  // per commodity
  std::uint32_t total{0};
};

VarLayout layout_vars(const McfInstance& instance) {
  VarLayout l;
  l.first_var.reserve(instance.commodities.size());
  for (const McfCommodity& c : instance.commodities) {
    l.first_var.push_back(l.total);
    l.total += static_cast<std::uint32_t>(c.paths.size());
  }
  return l;
}

void add_capacity_rows(const McfInstance& instance, const VarLayout& layout,
                       LpProblem& problem) {
  // One row per edge actually used by some path.
  std::vector<std::vector<std::pair<std::uint32_t, double>>> rows(
      instance.capacity.size());
  for (std::size_t f = 0; f < instance.commodities.size(); ++f) {
    const McfCommodity& c = instance.commodities[f];
    for (std::size_t p = 0; p < c.paths.size(); ++p) {
      const std::uint32_t var =
          layout.first_var[f] + static_cast<std::uint32_t>(p);
      for (std::uint32_t e : c.paths[p]) {
        auto& row = rows[e];
        if (!row.empty() && row.back().first == var) {
          row.back().second += 1.0;  // path crosses the edge twice (unusual)
        } else {
          row.emplace_back(var, 1.0);
        }
      }
    }
  }
  for (std::size_t e = 0; e < rows.size(); ++e) {
    if (rows[e].empty()) continue;
    LpConstraint c;
    c.terms = std::move(rows[e]);
    c.sense = ConstraintSense::kLe;
    c.rhs = instance.capacity[e];
    problem.constraints.push_back(std::move(c));
  }
}

McfResult extract(const McfInstance& instance, const VarLayout& layout,
                  const LpSolution& solution) {
  McfResult result;
  if (solution.status != LpStatus::kOptimal) return result;
  result.feasible = true;
  result.min_rate = std::numeric_limits<double>::infinity();
  double total = 0;
  result.flow_rate.resize(instance.commodities.size(), 0.0);
  result.path_rates.resize(instance.commodities.size());
  for (std::size_t f = 0; f < instance.commodities.size(); ++f) {
    const McfCommodity& c = instance.commodities[f];
    result.path_rates[f].resize(c.paths.size(), 0.0);
    for (std::size_t p = 0; p < c.paths.size(); ++p) {
      const double rate = solution.x[layout.first_var[f] + p];
      result.path_rates[f][p] = rate;
      result.flow_rate[f] += rate;
    }
    total += result.flow_rate[f];
    result.min_rate = std::min(result.min_rate, result.flow_rate[f]);
  }
  result.avg_rate =
      instance.commodities.empty()
          ? 0.0
          : total / static_cast<double>(instance.commodities.size());
  return result;
}

}  // namespace

McfResult solve_lp_min(const McfInstance& instance,
                       const SimplexSolver& solver) {
  validate(instance);
  if (instance.commodities.empty()) return McfResult{true, 0, 0, {}, {}};
  const VarLayout layout = layout_vars(instance);

  LpProblem problem;
  problem.num_vars = layout.total + 1;  // + t
  const std::uint32_t t_var = layout.total;
  problem.objective.assign(problem.num_vars, 0.0);
  problem.objective[t_var] = 1.0;

  add_capacity_rows(instance, layout, problem);
  for (std::size_t f = 0; f < instance.commodities.size(); ++f) {
    LpConstraint c;
    for (std::size_t p = 0; p < instance.commodities[f].paths.size(); ++p) {
      c.terms.emplace_back(layout.first_var[f] + p, 1.0);
    }
    c.terms.emplace_back(t_var, -1.0);
    c.sense = ConstraintSense::kGe;
    c.rhs = 0.0;
    problem.constraints.push_back(std::move(c));
  }

  const LpSolution solution = solver.solve(problem);
  McfResult result = extract(instance, layout, solution);
  if (result.feasible) {
    // The paper's LP-minimum allocates no residual bandwidth: every flow's
    // rate is exactly t*. Report rates accordingly (the per-path split is
    // whatever the LP chose, scaled is unnecessary; only totals matter).
    const double t = solution.x[t_var];
    result.min_rate = t;
    result.avg_rate = t;
    for (double& r : result.flow_rate) r = t;
  }
  return result;
}

McfResult solve_lp_avg(const McfInstance& instance,
                       const SimplexSolver& solver) {
  validate(instance);
  if (instance.commodities.empty()) return McfResult{true, 0, 0, {}, {}};
  const VarLayout layout = layout_vars(instance);

  LpProblem problem;
  problem.num_vars = layout.total;
  problem.objective.assign(problem.num_vars, 1.0);
  add_capacity_rows(instance, layout, problem);

  const LpSolution solution = solver.solve(problem);
  return extract(instance, layout, solution);
}

McfResult solve_max_min_fill(const McfInstance& instance) {
  validate(instance);
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

McfResult solve_mptcp_model(const McfInstance& instance,
                            const SimplexSolver& solver) {
  McfResult base = solve_lp_min(instance, solver);
  if (!base.feasible) return base;

  // Consume the LP's allocation, then let every subflow fill what is left.
  McfInstance residual = instance;
  for (std::size_t f = 0; f < instance.commodities.size(); ++f) {
    const McfCommodity& c = instance.commodities[f];
    for (std::size_t p = 0; p < c.paths.size(); ++p) {
      for (std::uint32_t e : c.paths[p]) {
        residual.capacity[e] =
            std::max(0.0, residual.capacity[e] - base.path_rates[f][p]);
      }
    }
  }
  const McfResult extra = solve_max_min_fill(residual);

  McfResult result;
  result.feasible = true;
  result.min_rate = std::numeric_limits<double>::infinity();
  double total = 0;
  result.flow_rate.resize(instance.commodities.size(), 0.0);
  result.path_rates.resize(instance.commodities.size());
  for (std::size_t f = 0; f < instance.commodities.size(); ++f) {
    result.path_rates[f].resize(instance.commodities[f].paths.size(), 0.0);
    for (std::size_t p = 0; p < result.path_rates[f].size(); ++p) {
      result.path_rates[f][p] =
          base.path_rates[f][p] + extra.path_rates[f][p];
      result.flow_rate[f] += result.path_rates[f][p];
    }
    result.min_rate = std::min(result.min_rate, result.flow_rate[f]);
    total += result.flow_rate[f];
  }
  if (instance.commodities.empty()) {
    result.min_rate = 0;
  } else {
    result.avg_rate = total / static_cast<double>(instance.commodities.size());
  }
  return result;
}

}  // namespace flattree
