#include "lp/simplex.h"

#include <gtest/gtest.h>

namespace flattree {
namespace {

LpProblem make_problem(std::uint32_t vars, std::vector<double> objective) {
  LpProblem p;
  p.num_vars = vars;
  p.objective = std::move(objective);
  return p;
}

void add_row(LpProblem& p,
             std::vector<std::pair<std::uint32_t, double>> terms,
             ConstraintSense sense, double rhs) {
  p.constraints.push_back(LpConstraint{std::move(terms), sense, rhs});
}

TEST(Simplex, SimpleTwoVariableMax) {
  // max 3x + 5y st x <= 4, 2y <= 12, 3x + 2y <= 18  -> x=2, y=6, obj=36.
  LpProblem p = make_problem(2, {3, 5});
  add_row(p, {{0, 1}}, ConstraintSense::kLe, 4);
  add_row(p, {{1, 2}}, ConstraintSense::kLe, 12);
  add_row(p, {{0, 3}, {1, 2}}, ConstraintSense::kLe, 18);
  const LpSolution s = SimplexSolver{}.solve(p);
  ASSERT_EQ(s.status, LpStatus::kOptimal);
  EXPECT_NEAR(s.objective, 36.0, 1e-7);
  EXPECT_NEAR(s.x[0], 2.0, 1e-7);
  EXPECT_NEAR(s.x[1], 6.0, 1e-7);
}

TEST(Simplex, GreaterEqualConstraints) {
  // max -x - y st x + y >= 4, x <= 10, y <= 10 -> obj = -4.
  LpProblem p = make_problem(2, {-1, -1});
  add_row(p, {{0, 1}, {1, 1}}, ConstraintSense::kGe, 4);
  add_row(p, {{0, 1}}, ConstraintSense::kLe, 10);
  add_row(p, {{1, 1}}, ConstraintSense::kLe, 10);
  const LpSolution s = SimplexSolver{}.solve(p);
  ASSERT_EQ(s.status, LpStatus::kOptimal);
  EXPECT_NEAR(s.objective, -4.0, 1e-7);
}

TEST(Simplex, EqualityConstraints) {
  // max x + 2y st x + y = 3, x - y = 1 -> x=2, y=1, obj=4.
  LpProblem p = make_problem(2, {1, 2});
  add_row(p, {{0, 1}, {1, 1}}, ConstraintSense::kEq, 3);
  add_row(p, {{0, 1}, {1, -1}}, ConstraintSense::kEq, 1);
  const LpSolution s = SimplexSolver{}.solve(p);
  ASSERT_EQ(s.status, LpStatus::kOptimal);
  EXPECT_NEAR(s.x[0], 2.0, 1e-7);
  EXPECT_NEAR(s.x[1], 1.0, 1e-7);
  EXPECT_NEAR(s.objective, 4.0, 1e-7);
}

TEST(Simplex, NegativeRhsNormalized) {
  // x - y <= -2 with x,y >= 0: equivalent to y - x >= 2.
  // max x + y st x - y <= -2, x + y <= 10 -> x=4, y=6.
  LpProblem p = make_problem(2, {1, 1});
  add_row(p, {{0, 1}, {1, -1}}, ConstraintSense::kLe, -2);
  add_row(p, {{0, 1}, {1, 1}}, ConstraintSense::kLe, 10);
  const LpSolution s = SimplexSolver{}.solve(p);
  ASSERT_EQ(s.status, LpStatus::kOptimal);
  EXPECT_NEAR(s.objective, 10.0, 1e-7);
  EXPECT_NEAR(s.x[1] - s.x[0], 2.0, 1e-6);
}

TEST(Simplex, InfeasibleDetected) {
  // x <= 1 and x >= 3.
  LpProblem p = make_problem(1, {1});
  add_row(p, {{0, 1}}, ConstraintSense::kLe, 1);
  add_row(p, {{0, 1}}, ConstraintSense::kGe, 3);
  EXPECT_EQ(SimplexSolver{}.solve(p).status, LpStatus::kInfeasible);
}

TEST(Simplex, UnboundedDetected) {
  // max x with only x >= 1.
  LpProblem p = make_problem(1, {1});
  add_row(p, {{0, 1}}, ConstraintSense::kGe, 1);
  EXPECT_EQ(SimplexSolver{}.solve(p).status, LpStatus::kUnbounded);
}

TEST(Simplex, ZeroObjectiveFeasible) {
  LpProblem p = make_problem(2, {0, 0});
  add_row(p, {{0, 1}, {1, 1}}, ConstraintSense::kLe, 5);
  const LpSolution s = SimplexSolver{}.solve(p);
  ASSERT_EQ(s.status, LpStatus::kOptimal);
  EXPECT_NEAR(s.objective, 0.0, 1e-9);
}

TEST(Simplex, DegenerateProblem) {
  // Multiple constraints intersecting at the optimum (degeneracy).
  LpProblem p = make_problem(2, {1, 1});
  add_row(p, {{0, 1}}, ConstraintSense::kLe, 2);
  add_row(p, {{1, 1}}, ConstraintSense::kLe, 2);
  add_row(p, {{0, 1}, {1, 1}}, ConstraintSense::kLe, 4);
  add_row(p, {{0, 1}, {1, 1}}, ConstraintSense::kLe, 4);  // duplicate row
  const LpSolution s = SimplexSolver{}.solve(p);
  ASSERT_EQ(s.status, LpStatus::kOptimal);
  EXPECT_NEAR(s.objective, 4.0, 1e-7);
}

TEST(Simplex, RedundantEqualityRows) {
  // x + y = 2 twice (phase 1 must drive out the second artificial).
  LpProblem p = make_problem(2, {1, 0});
  add_row(p, {{0, 1}, {1, 1}}, ConstraintSense::kEq, 2);
  add_row(p, {{0, 1}, {1, 1}}, ConstraintSense::kEq, 2);
  const LpSolution s = SimplexSolver{}.solve(p);
  ASSERT_EQ(s.status, LpStatus::kOptimal);
  EXPECT_NEAR(s.objective, 2.0, 1e-7);
}

TEST(Simplex, ObjectiveSizeMismatchThrows) {
  LpProblem p;
  p.num_vars = 2;
  p.objective = {1.0};
  EXPECT_THROW((void)SimplexSolver{}.solve(p), std::invalid_argument);
}

TEST(Simplex, BadVariableIndexThrows) {
  LpProblem p = make_problem(1, {1});
  add_row(p, {{5, 1}}, ConstraintSense::kLe, 1);
  EXPECT_THROW((void)SimplexSolver{}.solve(p), std::invalid_argument);
}

TEST(Simplex, MediumRandomFeasibleProblem) {
  // A transportation-style LP with a known optimum: max sum x_ij
  // st row sums <= 1 (10 rows), col sums <= 1 (10 cols) -> obj = 10.
  const int n = 10;
  LpProblem p = make_problem(n * n, std::vector<double>(n * n, 1.0));
  for (int i = 0; i < n; ++i) {
    LpConstraint row;
    LpConstraint col;
    for (int j = 0; j < n; ++j) {
      row.terms.emplace_back(i * n + j, 1.0);
      col.terms.emplace_back(j * n + i, 1.0);
    }
    row.sense = ConstraintSense::kLe;
    row.rhs = 1.0;
    col.sense = ConstraintSense::kLe;
    col.rhs = 1.0;
    p.constraints.push_back(std::move(row));
    p.constraints.push_back(std::move(col));
  }
  const LpSolution s = SimplexSolver{}.solve(p);
  ASSERT_EQ(s.status, LpStatus::kOptimal);
  EXPECT_NEAR(s.objective, 10.0, 1e-6);
}

TEST(Simplex, SolutionSatisfiesConstraints) {
  LpProblem p = make_problem(3, {2, 3, 1});
  add_row(p, {{0, 1}, {1, 1}, {2, 1}}, ConstraintSense::kLe, 10);
  add_row(p, {{0, 2}, {1, 1}}, ConstraintSense::kLe, 8);
  add_row(p, {{1, 1}, {2, 3}}, ConstraintSense::kGe, 3);
  const LpSolution s = SimplexSolver{}.solve(p);
  ASSERT_EQ(s.status, LpStatus::kOptimal);
  for (const LpConstraint& c : p.constraints) {
    double lhs = 0;
    for (const auto& [v, coeff] : c.terms) lhs += coeff * s.x[v];
    if (c.sense == ConstraintSense::kLe) {
      EXPECT_LE(lhs, c.rhs + 1e-6);
    }
    if (c.sense == ConstraintSense::kGe) {
      EXPECT_GE(lhs, c.rhs - 1e-6);
    }
  }
  for (double v : s.x) EXPECT_GE(v, -1e-9);
}

}  // namespace
}  // namespace flattree
