#include "lp/mcf.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>

#include "lp/fluid_incremental.h"

namespace flattree {
namespace {

void validate(const McfInstance& instance) {
  for (std::size_t e = 0; e < instance.capacity.size(); ++e) {
    // Zero (a failed link) and +inf are valid; NaN fails this test too.
    if (!(instance.capacity[e] >= 0.0)) {
      throw std::invalid_argument("mcf: edge " + std::to_string(e) +
                                  " has a negative or NaN capacity");
    }
  }
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

// Derives every flow's rate (its path rates summed in path order from 0.0)
// and the min/avg over flows from path_rates; min and avg are 0 without
// commodities.
void sum_rates(McfResult& result) {
  const std::size_t n = result.path_rates.size();
  result.flow_rate.assign(n, 0.0);
  result.min_rate = n == 0 ? 0.0 : std::numeric_limits<double>::infinity();
  double total = 0;
  for (std::size_t f = 0; f < n; ++f) {
    for (const double r : result.path_rates[f]) result.flow_rate[f] += r;
    result.min_rate = std::min(result.min_rate, result.flow_rate[f]);
    total += result.flow_rate[f];
  }
  result.avg_rate = n == 0 ? 0.0 : total / static_cast<double>(n);
}

McfResult extract(const McfInstance& instance, const VarLayout& layout,
                  const LpSolution& solution) {
  McfResult result;
  if (solution.status != LpStatus::kOptimal) return result;
  result.feasible = true;
  result.path_rates.resize(instance.commodities.size());
  for (std::size_t f = 0; f < instance.commodities.size(); ++f) {
    const auto first = solution.x.begin() + layout.first_var[f];
    result.path_rates[f].assign(first,
                                first + instance.commodities[f].paths.size());
  }
  sum_rates(result);
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
  for (std::size_t e = 0; e < instance.capacity.size(); ++e) {
    if (!std::isfinite(instance.capacity[e])) {
      throw std::invalid_argument("mcf: edge " + std::to_string(e) +
                                  " has an infinite capacity, which "
                                  "progressive filling cannot saturate");
    }
  }
  const std::size_t n = instance.commodities.size();
  IncrementalMaxMinSolver solver;
  solver.reset(instance.capacity, n);
  for (std::size_t f = 0; f < n; ++f) {
    solver.add_flow(static_cast<std::uint32_t>(f),
                    instance.commodities[f].paths);
  }
  solver.solve();
  McfResult result;
  result.feasible = true;
  result.path_rates.resize(n);
  for (std::size_t f = 0; f < n; ++f) {
    result.path_rates[f] = solver.path_rates(static_cast<std::uint32_t>(f));
  }
  sum_rates(result);
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

  for (std::size_t f = 0; f < base.path_rates.size(); ++f) {
    for (std::size_t p = 0; p < base.path_rates[f].size(); ++p) {
      base.path_rates[f][p] += extra.path_rates[f][p];
    }
  }
  sum_rates(base);
  return base;
}

}  // namespace flattree
