#include <gtest/gtest.h>

#include <cmath>
#include <random>
#include <string>

#include "common/stopwatch.h"
#include "ilp/branch_and_bound.h"
#include "paql/parser.h"
#include "translate/compiled_query.h"
#include "workload/galaxy.h"
#include "workload/queries.h"

namespace paql::ilp {
namespace {

using lp::kInf;
using lp::Model;
using lp::RowDef;
using lp::Sense;

TEST(IlpTest, PureIntegerKnapsack) {
  // max 10x0 + 6x1 + 4x2 s.t. x0+x1+x2 <= 2 (0/1 vars) => pick x0, x1 = 16.
  Model m;
  m.set_sense(Sense::kMaximize);
  double values[] = {10, 6, 4};
  RowDef row;
  for (int j = 0; j < 3; ++j) {
    m.AddVariable(0, 1, values[j], true);
    row.vars.push_back(j);
    row.coefs.push_back(1.0);
  }
  row.lo = -kInf;
  row.hi = 2;
  ASSERT_TRUE(m.AddRow(std::move(row)).ok());
  auto r = SolveIlp(m);
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_NEAR(r->objective, 16.0, 1e-9);
  EXPECT_TRUE(r->stats.proven_optimal);
}

TEST(IlpTest, FractionalLpButIntegerOptimum) {
  // max x + y s.t. 2x + 2y <= 3, binary. LP gives 1.5; ILP must give 1.
  Model m;
  m.set_sense(Sense::kMaximize);
  m.AddVariable(0, 1, 1.0, true);
  m.AddVariable(0, 1, 1.0, true);
  ASSERT_TRUE(m.AddRow({{0, 1}, {2.0, 2.0}, -kInf, 3, ""}).ok());

  // With root cuts off, the fractional LP optimum forces actual branching.
  BranchAndBoundOptions no_cuts;
  no_cuts.cuts.enable = false;
  auto branched = SolveIlp(m, SolverLimits{}, no_cuts);
  ASSERT_TRUE(branched.ok());
  EXPECT_NEAR(branched->objective, 1.0, 1e-9);
  EXPECT_GT(branched->stats.nodes, 1);  // required actual branching

  // With cuts on, the 1/2-CG round x + y <= 1 closes the gap at the root.
  auto cut = SolveIlp(m);
  ASSERT_TRUE(cut.ok());
  EXPECT_NEAR(cut->objective, 1.0, 1e-9);
  EXPECT_EQ(cut->stats.nodes, 1);
  EXPECT_GT(cut->stats.cuts_added, 0);
}

TEST(IlpTest, EqualityCardinalityConstraint) {
  // The package-query shape: exactly 3 of 10 items, minimize cost.
  Model m;
  RowDef row;
  double costs[] = {5, 1, 4, 2, 8, 3, 9, 7, 6, 0.5};
  for (int j = 0; j < 10; ++j) {
    m.AddVariable(0, 1, costs[j], true);
    row.vars.push_back(j);
    row.coefs.push_back(1.0);
  }
  row.lo = 3;
  row.hi = 3;
  ASSERT_TRUE(m.AddRow(std::move(row)).ok());
  auto r = SolveIlp(m);
  ASSERT_TRUE(r.ok());
  EXPECT_NEAR(r->objective, 0.5 + 1 + 2, 1e-9);
}

TEST(IlpTest, InfeasibleIlp) {
  Model m;
  m.AddVariable(0, 1, 1.0, true);
  m.AddVariable(0, 1, 1.0, true);
  ASSERT_TRUE(m.AddRow({{0, 1}, {1.0, 1.0}, 3, kInf, ""}).ok());
  auto r = SolveIlp(m);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsInfeasible());
}

TEST(IlpTest, IntegralityGapInfeasible) {
  // x + y = 1 with both in {0, 2}: LP feasible (0.5, 0.5), ILP infeasible.
  Model m;
  m.AddVariable(0, 2, 0.0, true);
  m.AddVariable(0, 2, 0.0, true);
  ASSERT_TRUE(m.AddRow({{0, 1}, {2.0, 2.0}, 1, 1, ""}).ok());
  auto r = SolveIlp(m);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsInfeasible());
}

TEST(IlpTest, UnboundedIlp) {
  Model m;
  m.set_sense(Sense::kMaximize);
  m.AddVariable(0, kInf, 1.0, true);
  auto r = SolveIlp(m);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kUnbounded);
}

TEST(IlpTest, GeneralIntegerVariables) {
  // max 3x + 4y s.t. x + 2y <= 7, 3x + y <= 9, x,y >= 0 integer.
  // Optimum x=1, y=3 -> 15 (enumeration over the small feasible box).
  Model m;
  m.set_sense(Sense::kMaximize);
  m.AddVariable(0, kInf, 3.0, true);
  m.AddVariable(0, kInf, 4.0, true);
  ASSERT_TRUE(m.AddRow({{0, 1}, {1.0, 2.0}, -kInf, 7, ""}).ok());
  ASSERT_TRUE(m.AddRow({{0, 1}, {3.0, 1.0}, -kInf, 9, ""}).ok());
  auto r = SolveIlp(m);
  ASSERT_TRUE(r.ok());
  EXPECT_NEAR(r->objective, 15.0, 1e-9);
  EXPECT_NEAR(r->x[0], 1.0, 1e-9);
  EXPECT_NEAR(r->x[1], 3.0, 1e-9);
}

TEST(IlpTest, RepeatSemanticsViaUpperBounds) {
  // REPEAT 2 => x_i in [0, 3]. min cost with COUNT = 5 over 2 tuples.
  Model m;
  m.AddVariable(0, 3, 1.0, true);
  m.AddVariable(0, 3, 2.0, true);
  ASSERT_TRUE(m.AddRow({{0, 1}, {1.0, 1.0}, 5, 5, ""}).ok());
  auto r = SolveIlp(m);
  ASSERT_TRUE(r.ok());
  EXPECT_NEAR(r->x[0], 3.0, 1e-9);
  EXPECT_NEAR(r->x[1], 2.0, 1e-9);
  EXPECT_NEAR(r->objective, 3 + 4, 1e-9);
}

TEST(IlpTest, MixedIntegerContinuous) {
  // max x + y, x integer <= 2.5-ish constraint, y continuous.
  Model m;
  m.set_sense(Sense::kMaximize);
  m.AddVariable(0, kInf, 1.0, true);    // x integer
  m.AddVariable(0, kInf, 1.0, false);   // y continuous
  ASSERT_TRUE(m.AddRow({{0}, {1.0}, -kInf, 2.5, ""}).ok());
  ASSERT_TRUE(m.AddRow({{1}, {1.0}, -kInf, 1.5, ""}).ok());
  auto r = SolveIlp(m);
  ASSERT_TRUE(r.ok());
  EXPECT_NEAR(r->x[0], 2.0, 1e-9);   // snapped to integer
  EXPECT_NEAR(r->x[1], 1.5, 1e-9);   // stays fractional
}

TEST(IlpTest, NodeLimitTriggersResourceExhausted) {
  // A hard subset-sum-like instance with a tiny node budget.
  Model m;
  m.set_sense(Sense::kMaximize);
  std::mt19937 rng(5);
  std::uniform_int_distribution<int> weight(50, 100);
  RowDef row;
  const int kN = 30;
  for (int j = 0; j < kN; ++j) {
    double w = weight(rng);
    m.AddVariable(0, 1, w, true);
    row.vars.push_back(j);
    row.coefs.push_back(w);
  }
  row.lo = -kInf;
  row.hi = 1111.5;  // fractional capacity forces branching
  ASSERT_TRUE(m.AddRow(std::move(row)).ok());
  SolverLimits limits;
  limits.max_nodes = 3;
  BranchAndBoundOptions options;
  options.enable_rounding_heuristic = false;
  options.enable_diving_heuristic = false;
  auto r = SolveIlp(m, limits, options);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsResourceExhausted());
}

TEST(IlpTest, MemoryBudgetTriggersResourceExhausted) {
  Model m;
  m.set_sense(Sense::kMaximize);
  std::mt19937 rng(7);
  std::uniform_real_distribution<double> weight(1.0, 2.0);
  RowDef row;
  for (int j = 0; j < 40; ++j) {
    double w = weight(rng);
    m.AddVariable(0, 1, w, true);
    row.vars.push_back(j);
    row.coefs.push_back(w);
  }
  row.lo = 20.333;  // equality-ish range hard to hit
  row.hi = 20.334;
  ASSERT_TRUE(m.AddRow(std::move(row)).ok());
  SolverLimits limits;
  limits.memory_budget_bytes = 1;  // absurdly small: immediate failure
  auto r = SolveIlp(m, limits);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsResourceExhausted());
  EXPECT_NE(r.status().message().find("memory"), std::string::npos);
}

TEST(IlpTest, TimeLimitTriggersResourceExhausted) {
  Model m;
  std::mt19937 rng(11);
  std::uniform_real_distribution<double> weight(1.0, 2.0);
  RowDef row;
  for (int j = 0; j < 50; ++j) {
    double w = weight(rng);
    m.AddVariable(0, 1, w, true);
    row.vars.push_back(j);
    row.coefs.push_back(w);
  }
  row.lo = 25.4321;
  row.hi = 25.4322;
  ASSERT_TRUE(m.AddRow(std::move(row)).ok());
  SolverLimits limits;
  limits.time_limit_s = 1e-6;
  auto r = SolveIlp(m, limits);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsResourceExhausted());
}

TEST(IlpTest, StatsArePopulated) {
  Model m;
  m.set_sense(Sense::kMaximize);
  m.AddVariable(0, 1, 1.0, true);
  m.AddVariable(0, 1, 1.0, true);
  ASSERT_TRUE(m.AddRow({{0, 1}, {2.0, 2.0}, -kInf, 3, ""}).ok());
  BranchAndBoundOptions no_cuts;
  no_cuts.cuts.enable = false;
  auto r = SolveIlp(m, SolverLimits{}, no_cuts);
  ASSERT_TRUE(r.ok());
  EXPECT_GE(r->stats.nodes, 1);
  EXPECT_GT(r->stats.lp_iterations, 0);
  EXPECT_GE(r->stats.wall_seconds, 0);
  EXPECT_GT(r->stats.peak_memory_bytes, 0u);
  EXPECT_NEAR(r->stats.root_bound, 1.5, 1e-6);  // LP relaxation value
  EXPECT_EQ(r->stats.cuts_added, 0);

  // The cut loop reports its own counters.
  auto with_cuts = SolveIlp(m);
  ASSERT_TRUE(with_cuts.ok());
  EXPECT_GT(with_cuts->stats.cuts_added, 0);
  EXPECT_GT(with_cuts->stats.cut_rounds, 0);
}

TEST(IlpTest, LpRelaxationHelper) {
  Model m;
  m.set_sense(Sense::kMaximize);
  m.AddVariable(0, 1, 1.0, true);
  m.AddVariable(0, 1, 1.0, true);
  ASSERT_TRUE(m.AddRow({{0, 1}, {2.0, 2.0}, -kInf, 3, ""}).ok());
  auto lp = SolveLpRelaxation(m);
  ASSERT_EQ(lp.status, lp::LpStatus::kOptimal);
  EXPECT_NEAR(lp.objective, 1.5, 1e-7);
}

// ---------------------------------------------------------------------------
// Presolve integration and reduced-cost fixing
// ---------------------------------------------------------------------------

TEST(IlpPresolveTest, EmptyAndForcedColumnsShrinkTheSearch) {
  // COUNT == 3 over 5 cheap items, plus 4 columns no constraint touches.
  // Presolve removes the empty columns (fixing them at their objective-
  // best bound) before the search sees them.
  Model m;
  RowDef count;
  double costs[] = {5, 1, 4, 2, 8};
  for (int j = 0; j < 5; ++j) {
    m.AddVariable(0, 1, costs[j], true);
    count.vars.push_back(j);
    count.coefs.push_back(1.0);
  }
  for (int j = 0; j < 4; ++j) m.AddVariable(0, 1, 1.0, true);  // empty cols
  count.lo = count.hi = 3;
  ASSERT_TRUE(m.AddRow(std::move(count)).ok());

  auto on = SolveIlp(m);
  ASSERT_TRUE(on.ok()) << on.status();
  EXPECT_GT(on->stats.presolve_fixed_vars, 0);
  EXPECT_NEAR(on->objective, 1 + 2 + 4, 1e-9);
  ASSERT_EQ(on->x.size(), 9u);  // postsolve restored the full vector
  for (int j = 5; j < 9; ++j) EXPECT_DOUBLE_EQ(on->x[j], 0.0);

  BranchAndBoundOptions off;
  off.presolve = false;
  auto baseline = SolveIlp(m, SolverLimits{}, off);
  ASSERT_TRUE(baseline.ok());
  EXPECT_EQ(baseline->stats.presolve_fixed_vars, 0);
  EXPECT_NEAR(baseline->objective, on->objective, 1e-9);
}

TEST(IlpPresolveTest, PresolveProvesInfeasibility) {
  Model m;
  m.AddVariable(0, 1, 1.0, true);
  m.AddVariable(0, 1, 1.0, true);
  ASSERT_TRUE(m.AddRow({{0, 1}, {1.0, 1.0}, 5, kInf, ""}).ok());
  auto r = SolveIlp(m);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsInfeasible());
}

TEST(IlpPresolveTest, FullyFixedModelSolvesWithoutSearch) {
  // x + y >= 4 with x,y in [0,2]: presolve pins both at 2; no search runs.
  Model m;
  m.AddVariable(0, 2, 1.0, true);
  m.AddVariable(0, 2, 3.0, true);
  ASSERT_TRUE(m.AddRow({{0, 1}, {1.0, 1.0}, 4, kInf, ""}).ok());
  auto r = SolveIlp(m);
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(r->stats.nodes, 0);
  EXPECT_TRUE(r->stats.proven_optimal);
  EXPECT_NEAR(r->objective, 2 + 6, 1e-9);
  EXPECT_DOUBLE_EQ(r->x[0], 2.0);
  EXPECT_DOUBLE_EQ(r->x[1], 2.0);
}

TEST(IlpReducedCostFixingTest, ExpensiveColumnsAreFixedAtTheRoot) {
  // min cost with COUNT == 2: the rounding heuristic lands the incumbent
  // at the LP optimum, and every expensive column's reduced cost exceeds
  // the (zero) gap — they can never enter an improving solution.
  Model m;
  RowDef count;
  for (int j = 0; j < 20; ++j) {
    m.AddVariable(0, 1, j < 2 ? 1.0 : 100.0 + j, true);
    count.vars.push_back(j);
    count.coefs.push_back(1.0);
  }
  count.lo = count.hi = 2;
  ASSERT_TRUE(m.AddRow(std::move(count)).ok());

  // Presolve off isolates the reduced-cost fixing counter (presolve would
  // not fix these columns anyway, but keep the test single-purpose).
  BranchAndBoundOptions rc_on, rc_off;
  rc_on.presolve = rc_off.presolve = false;
  rc_off.reduced_cost_fixing = false;
  auto on = SolveIlp(m, SolverLimits{}, rc_on);
  ASSERT_TRUE(on.ok()) << on.status();
  EXPECT_GT(on->stats.rc_fixed_vars, 0);
  EXPECT_NEAR(on->objective, 2.0, 1e-9);

  auto off = SolveIlp(m, SolverLimits{}, rc_off);
  ASSERT_TRUE(off.ok());
  EXPECT_EQ(off->stats.rc_fixed_vars, 0);
  EXPECT_NEAR(off->objective, on->objective, 1e-9);
}

TEST(IlpReducedCostFixingTest, FractionalBoundsAreNeverFixed) {
  // An integer variable resting on a *fractional* bound breaks the unit-
  // step assumption behind d > gap (the move to the nearest integer can
  // cost less than one reduced-cost unit), and fixing at the bound would
  // not even be integer-feasible — such variables must be skipped.
  // min 5*x0 + x1, integer x0 in [0.5, 10], integer x1 in [0, 10],
  // x0 + x1 >= 2: optimum is x0=1, x1=1 with objective 6.
  Model m;
  m.AddVariable(0.5, 10, 5.0, true);
  m.AddVariable(0, 10, 1.0, true);
  ASSERT_TRUE(m.AddRow({{0, 1}, {1.0, 1.0}, 2, kInf, ""}).ok());
  BranchAndBoundOptions no_presolve;  // keep the fractional bound visible
  no_presolve.presolve = false;
  auto r = SolveIlp(m, SolverLimits{}, no_presolve);
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_NEAR(r->objective, 6.0, 1e-9);
  EXPECT_NEAR(r->x[0], 1.0, 1e-9);
  EXPECT_NEAR(r->x[1], 1.0, 1e-9);
}

TEST(IlpReducedCostFixingTest, FixingNeverChangesTheOptimumOnRandomIlps) {
  // A/B over random knapsack-with-cardinality models: identical objective
  // with the whole sparse core on vs the pre-sparse baseline.
  std::mt19937 rng(1234);
  std::uniform_real_distribution<double> value(1.0, 10.0), weight(1.0, 5.0);
  for (int trial = 0; trial < 20; ++trial) {
    int n = 10 + static_cast<int>(rng() % 20);
    Model m;
    m.set_sense(Sense::kMaximize);
    RowDef cap, cnt;
    for (int j = 0; j < n; ++j) {
      m.AddVariable(0, 1, value(rng), true);
      cap.vars.push_back(j);
      cap.coefs.push_back(weight(rng));
      cnt.vars.push_back(j);
      cnt.coefs.push_back(1.0);
    }
    cap.lo = -kInf;
    cap.hi = n / 2.0 + 0.25;  // fractional capacity forces branching
    cnt.lo = 2;
    cnt.hi = n / 3 + 2;
    ASSERT_TRUE(m.AddRow(std::move(cap)).ok());
    ASSERT_TRUE(m.AddRow(std::move(cnt)).ok());

    BranchAndBoundOptions baseline;
    baseline.presolve = false;
    baseline.reduced_cost_fixing = false;
    baseline.simplex.partial_pricing = false;
    auto fast = SolveIlp(m);
    auto slow = SolveIlp(m, SolverLimits{}, baseline);
    ASSERT_EQ(fast.ok(), slow.ok()) << "trial " << trial;
    if (!fast.ok()) continue;
    EXPECT_NEAR(fast->objective, slow->objective,
                1e-6 * (1.0 + std::abs(slow->objective)))
        << "trial " << trial;
    EXPECT_EQ(slow->stats.rc_fixed_vars, 0);
    EXPECT_EQ(slow->stats.presolve_fixed_vars, 0);
    EXPECT_EQ(slow->stats.pricing_candidate_hits, 0);
  }
}

// ---------------------------------------------------------------------------
// Property test: branch-and-bound matches exhaustive enumeration on random
// small ILPs (the ground-truth oracle).
// ---------------------------------------------------------------------------

class IlpVsBruteForceTest : public ::testing::TestWithParam<unsigned> {};

TEST_P(IlpVsBruteForceTest, MatchesEnumeration) {
  std::mt19937 rng(GetParam());
  std::uniform_int_distribution<int> nvars(2, 7), nrows(1, 4), ub_dist(1, 3);
  std::uniform_real_distribution<double> coef(-4.0, 4.0);
  std::uniform_real_distribution<double> rhs(-2.0, 10.0);
  std::bernoulli_distribution maximize(0.5), two_sided(0.3);

  int n = nvars(rng), k = nrows(rng);
  Model m;
  m.set_sense(maximize(rng) ? Sense::kMaximize : Sense::kMinimize);
  std::vector<int> ubs;
  for (int j = 0; j < n; ++j) {
    int ub = ub_dist(rng);
    ubs.push_back(ub);
    m.AddVariable(0, ub, coef(rng), true);
  }
  for (int i = 0; i < k; ++i) {
    RowDef row;
    for (int j = 0; j < n; ++j) {
      row.vars.push_back(j);
      row.coefs.push_back(coef(rng));
    }
    double b = rhs(rng);
    if (two_sided(rng)) {
      row.lo = b - 5.0;
      row.hi = b;
    } else {
      row.lo = -kInf;
      row.hi = b;
    }
    ASSERT_TRUE(m.AddRow(std::move(row)).ok());
  }

  // Oracle: enumerate the full integer box.
  bool any_feasible = false;
  double best = 0;
  std::vector<double> x(n, 0.0);
  std::function<void(int)> enumerate = [&](int j) {
    if (j == n) {
      if (!m.IsFeasible(x, 1e-9)) return;
      double obj = m.ObjectiveValue(x);
      bool better = m.sense() == Sense::kMaximize ? obj > best : obj < best;
      if (!any_feasible || better) {
        best = obj;
        any_feasible = true;
      }
      return;
    }
    for (int v = 0; v <= ubs[j]; ++v) {
      x[j] = v;
      enumerate(j + 1);
    }
    x[j] = 0;
  };
  enumerate(0);

  auto r = SolveIlp(m);
  if (!any_feasible) {
    ASSERT_FALSE(r.ok());
    EXPECT_TRUE(r.status().IsInfeasible()) << r.status();
  } else {
    ASSERT_TRUE(r.ok()) << r.status();
    EXPECT_NEAR(r->objective, best, 1e-6)
        << "model:\n" << m.ToString();
    EXPECT_TRUE(m.IsFeasible(r->x, 1e-6));
  }
}

INSTANTIATE_TEST_SUITE_P(RandomIlps, IlpVsBruteForceTest,
                         ::testing::Range(1u, 61u));

// ---------------------------------------------------------------------------
// Time budget: presolve and root cuts must leave the search its budget
// ---------------------------------------------------------------------------

/// The DIRECT ILP of Galaxy Q2 (COUNT = 10 plus a tight SUM window over
/// 20k rows, the workload's solver-killer) at one bound seed.
Model MakeGalaxyQ2Model() {
  relation::Table galaxy = workload::MakeGalaxyTable(20000);
  auto queries = workload::MakeGalaxyQueries(galaxy, 1000003);
  EXPECT_TRUE(queries.ok());
  const workload::BenchQuery& q2 = (*queries)[1];
  EXPECT_EQ(q2.name, "Q2");
  auto parsed = lang::ParsePackageQuery(q2.paql);
  EXPECT_TRUE(parsed.ok());
  auto compiled = translate::CompiledQuery::Compile(*parsed, galaxy.schema());
  EXPECT_TRUE(compiled.ok());
  auto model = compiled->BuildModel(
      galaxy, compiled->ComputeBaseRowsVectorized(galaxy));
  EXPECT_TRUE(model.ok());
  return std::move(*model);
}

TEST(IlpBudgetTest, GalaxyQ2SearchesWithinItsTimeLimit) {
#if !defined(NDEBUG) || defined(__SANITIZE_ADDRESS__) || \
    defined(__SANITIZE_THREAD__)
  GTEST_SKIP() << "wall-clock budget test: Release builds only";
#endif
  // Root cut separation used to take 150-300 ms a round on this model:
  // the search got a 1 ms floor, explored one node, and the call returned
  // after 0.3-0.5 s against a 0.2 s limit. Now the budget goes to nodes.
  Model model = MakeGalaxyQ2Model();
  ASSERT_EQ(model.num_vars(), 20000);
  SolverLimits limits;
  limits.time_limit_s = 0.2;
  limits.memory_budget_bytes = 32ull << 20;
  IlpStats stats;
  Stopwatch watch;
  auto solution = SolveIlp(model, limits, {}, nullptr, &stats);
  const double wall = watch.ElapsedSeconds();
  EXPECT_LT(wall, 0.3);
  EXPECT_GE(stats.nodes, 2);
  if (!solution.ok()) {
    EXPECT_TRUE(solution.status().IsResourceExhausted())
        << solution.status().ToString();
  }
}

TEST(IlpBudgetTest, TimeLimitErrorReportsCallersLimitAndItsSplit) {
  // A budget far below what presolve and one root LP need: the search
  // runs on a small floor and fails. The error names the caller's limit
  // and where the time went, not the leftover the search ran on.
  Model model = MakeGalaxyQ2Model();
  SolverLimits limits;
  limits.time_limit_s = 1e-6;
  auto solution = SolveIlp(model, limits);
  ASSERT_FALSE(solution.ok());
  ASSERT_TRUE(solution.status().IsResourceExhausted());
  const std::string message = solution.status().message();
  EXPECT_NE(message.find("ILP time limit of 1e-06s exceeded"),
            std::string::npos)
      << message;
  EXPECT_NE(message.find("presolve"), std::string::npos) << message;
  EXPECT_NE(message.find("root cuts"), std::string::npos) << message;
  EXPECT_EQ(message.find("0.001s"), std::string::npos) << message;
}

}  // namespace
}  // namespace paql::ilp
