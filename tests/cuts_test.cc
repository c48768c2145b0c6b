#include "ilp/cuts.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <numeric>
#include <string>
#include <utility>

#include "common/rng.h"
#include "common/str_util.h"
#include "ilp/branch_and_bound.h"
#include "lp/model.h"

namespace paql::ilp {
namespace {

using lp::Model;
using lp::RowDef;

/// 0/1 knapsack: max sum v_j x_j s.t. sum w_j x_j <= cap.
Model MakeKnapsack(const std::vector<double>& w, const std::vector<double>& v,
                   double cap) {
  Model m;
  for (size_t j = 0; j < w.size(); ++j) {
    m.AddVariable(0, 1, v[j], /*is_integer=*/true);
  }
  RowDef row;
  for (size_t j = 0; j < w.size(); ++j) {
    row.vars.push_back(static_cast<int>(j));
    row.coefs.push_back(w[j]);
  }
  row.hi = cap;
  EXPECT_TRUE(m.AddRow(std::move(row)).ok());
  m.set_sense(lp::Sense::kMaximize);
  return m;
}

double RowActivity(const RowDef& row, const std::vector<double>& x) {
  double a = 0;
  for (size_t k = 0; k < row.vars.size(); ++k) {
    a += row.coefs[k] * x[row.vars[k]];
  }
  return a;
}

/// Exhaustively verify a cut admits every feasible 0/1 point of `model`.
void ExpectCutValidForAllBinaryPoints(const Model& model, const Cut& cut) {
  int n = model.num_vars();
  ASSERT_LE(n, 20) << "exhaustive check needs small n";
  for (uint32_t mask = 0; mask < (1u << n); ++mask) {
    std::vector<double> x(static_cast<size_t>(n));
    for (int j = 0; j < n; ++j) x[static_cast<size_t>(j)] = (mask >> j) & 1;
    if (!model.IsFeasible(x, 1e-9)) continue;
    double act = RowActivity(cut.row, x);
    EXPECT_LE(act, cut.row.hi + 1e-9)
        << "cut " << cut.row.name << " cuts off feasible point mask=" << mask;
    EXPECT_GE(act, cut.row.lo - 1e-9);
  }
}

TEST(CoverCutTest, ClassicFractionalKnapsackIsCut) {
  // Three equal items, capacity fits two: LP optimum is x = (1,1,.5)-ish and
  // the cover {1,2,3} gives x1+x2+x3 <= 2.
  Model m = MakeKnapsack({4, 4, 4}, {1, 1, 1}, 10);
  std::vector<double> x = {1.0, 1.0, 0.5};
  auto cuts = SeparateCoverCuts(m, x, CutOptions{});
  ASSERT_FALSE(cuts.empty());
  const Cut& cut = cuts[0];
  EXPECT_NEAR(cut.row.hi, 2.0, 1e-12);
  EXPECT_EQ(cut.row.vars.size(), 3u);
  EXPECT_NEAR(cut.violation, 0.5, 1e-9);
  ExpectCutValidForAllBinaryPoints(m, cut);
}

TEST(CoverCutTest, NoCutWhenPointIsInteger) {
  Model m = MakeKnapsack({4, 4, 4}, {1, 1, 1}, 10);
  std::vector<double> x = {1.0, 1.0, 0.0};
  auto cuts = SeparateCoverCuts(m, x, CutOptions{});
  EXPECT_TRUE(cuts.empty());
}

TEST(CoverCutTest, NoCoverWhenEverythingFits) {
  Model m = MakeKnapsack({1, 1, 1}, {1, 1, 1}, 10);
  std::vector<double> x = {0.9, 0.9, 0.9};
  auto cuts = SeparateCoverCuts(m, x, CutOptions{});
  EXPECT_TRUE(cuts.empty());
}

TEST(CoverCutTest, NegativeCoefficientsComplemented) {
  // -3x1 - 3x2 - 3x3 >= -7  ==  3x1 + 3x2 + 3x3 <= 7: cover of any 3.
  Model m;
  for (int j = 0; j < 3; ++j) m.AddVariable(0, 1, 1, true);
  RowDef row;
  row.vars = {0, 1, 2};
  row.coefs = {-3, -3, -3};
  row.lo = -7;
  ASSERT_TRUE(m.AddRow(std::move(row)).ok());
  m.set_sense(lp::Sense::kMaximize);
  std::vector<double> x = {1.0, 0.8, 0.8};
  auto cuts = SeparateCoverCuts(m, x, CutOptions{});
  ASSERT_FALSE(cuts.empty());
  ExpectCutValidForAllBinaryPoints(m, cuts[0]);
  // x1+x2+x3 <= 2 separates (1, .8, .8).
  EXPECT_GT(cuts[0].violation, 0.5);
}

TEST(CoverCutTest, NonBinaryVariablesShiftCapacity) {
  // y in [1,2] integer uses at least 5 of the capacity; the binary part
  // has effective capacity 10 - 5 = 5, so {x1,x2} (4+4 > 5) is a cover.
  Model m;
  int x1 = m.AddVariable(0, 1, 1, true);
  int x2 = m.AddVariable(0, 1, 1, true);
  int y = m.AddVariable(1, 2, 1, true);
  RowDef row;
  row.vars = {x1, x2, y};
  row.coefs = {4, 4, 5};
  row.hi = 10;
  ASSERT_TRUE(m.AddRow(std::move(row)).ok());
  m.set_sense(lp::Sense::kMaximize);
  std::vector<double> frac = {0.9, 0.7, 1.0};
  auto cuts = SeparateCoverCuts(m, frac, CutOptions{});
  ASSERT_FALSE(cuts.empty());
  EXPECT_NEAR(cuts[0].row.hi, 1.0, 1e-12);  // x1 + x2 <= 1
  // Validity against all integer points including y.
  for (int b1 = 0; b1 <= 1; ++b1) {
    for (int b2 = 0; b2 <= 1; ++b2) {
      for (int yv = 1; yv <= 2; ++yv) {
        std::vector<double> pt = {double(b1), double(b2), double(yv)};
        if (!m.IsFeasible(pt, 1e-9)) continue;
        EXPECT_LE(RowActivity(cuts[0].row, pt), cuts[0].row.hi + 1e-9);
      }
    }
  }
}

TEST(CoverCutTest, ExtendedCoverLiftsHeavyOutsiders) {
  // Items 8,5,5 with capacity 9: cover {5,5} -> x2+x3 <= 1; item 1 (weight
  // 8 >= 5) lifts in: x1+x2+x3 <= 1.
  Model m = MakeKnapsack({8, 5, 5}, {1, 1, 1}, 9);
  std::vector<double> x = {0.1, 0.95, 0.95};
  auto cuts = SeparateCoverCuts(m, x, CutOptions{});
  ASSERT_FALSE(cuts.empty());
  const Cut& cut = cuts[0];
  EXPECT_EQ(cut.row.vars.size(), 3u);
  EXPECT_NEAR(cut.row.hi, 1.0, 1e-12);
  ExpectCutValidForAllBinaryPoints(m, cut);
}

TEST(CgCutTest, OddCountBoundRoundsDown) {
  // x1 + x2 + x3 <= 3 with x binary has no slack, but over a row
  // 2x1 + 2x2 + 2x3 <= 5 the 1/2-CG round gives x1+x2+x3 <= 2.
  Model m = MakeKnapsack({2, 2, 2}, {1, 1, 1}, 5);
  std::vector<double> x = {0.9, 0.9, 0.7};
  auto cuts = SeparateCgCuts(m, x, CutOptions{});
  ASSERT_FALSE(cuts.empty());
  EXPECT_NEAR(cuts[0].row.hi, 2.0, 1e-12);
  ExpectCutValidForAllBinaryPoints(m, cuts[0]);
}

TEST(CgCutTest, SkipsFractionalCoefficients) {
  Model m = MakeKnapsack({2.5, 2, 2}, {1, 1, 1}, 5);
  std::vector<double> x = {0.9, 0.9, 0.7};
  auto cuts = SeparateCgCuts(m, x, CutOptions{});
  EXPECT_TRUE(cuts.empty());
}

TEST(CgCutTest, SkipsContinuousVariables) {
  Model m;
  m.AddVariable(0, 1, 1, /*is_integer=*/false);
  m.AddVariable(0, 1, 1, true);
  RowDef row;
  row.vars = {0, 1};
  row.coefs = {2, 2};
  row.hi = 3;
  ASSERT_TRUE(m.AddRow(std::move(row)).ok());
  std::vector<double> x = {0.9, 0.9};
  EXPECT_TRUE(SeparateCgCuts(m, x, CutOptions{}).empty());
}

TEST(SeparateCutsTest, DeduplicatesAndCaps) {
  Model m = MakeKnapsack({4, 4, 4}, {1, 1, 1}, 10);
  std::vector<double> x = {1.0, 1.0, 0.5};
  CutOptions options;
  options.max_cuts_per_round = 1;
  auto cuts = SeparateCuts(m, x, options);
  EXPECT_EQ(cuts.size(), 1u);
}

TEST(SeparateCutsTest, FamilySwitchesRespected) {
  Model m = MakeKnapsack({2, 2, 2}, {1, 1, 1}, 5);
  std::vector<double> x = {1.0, 1.0, 0.5};
  CutOptions no_cover;
  no_cover.cover_cuts = false;
  for (const Cut& c : SeparateCuts(m, x, no_cover)) {
    EXPECT_EQ(c.row.name.substr(0, 2), "cg");
  }
  CutOptions no_cg;
  no_cg.cg_cuts = false;
  for (const Cut& c : SeparateCuts(m, x, no_cg)) {
    EXPECT_EQ(c.row.name.substr(0, 5), "cover");
  }
}

// --- Property: cuts never change the ILP optimum. ---

class CutSeedTest : public ::testing::TestWithParam<unsigned> {};

TEST_P(CutSeedTest, CutsPreserveKnapsackOptimum) {
  Rng rng(GetParam());
  int n = 10 + static_cast<int>(rng.UniformInt(0, 6));
  std::vector<double> w(static_cast<size_t>(n)), v(static_cast<size_t>(n));
  double total = 0;
  for (int j = 0; j < n; ++j) {
    w[static_cast<size_t>(j)] = std::floor(rng.Uniform(1.0, 20.0));
    v[static_cast<size_t>(j)] = std::floor(rng.Uniform(1.0, 30.0));
    total += w[static_cast<size_t>(j)];
  }
  double cap = std::floor(total * rng.Uniform(0.3, 0.7));
  Model m = MakeKnapsack(w, v, cap);

  BranchAndBoundOptions with, without;
  with.cuts.enable = true;
  without.cuts.enable = false;
  auto a = SolveIlp(m, SolverLimits{}, with);
  auto b = SolveIlp(m, SolverLimits{}, without);
  ASSERT_TRUE(a.ok()) << a.status();
  ASSERT_TRUE(b.ok()) << b.status();
  EXPECT_NEAR(a->objective, b->objective, 1e-6);
  EXPECT_TRUE(m.IsFeasible(a->x, 1e-6));
}

TEST_P(CutSeedTest, SeparatedCutsAreValidEverywhere) {
  Rng rng(GetParam() * 131);
  int n = 8 + static_cast<int>(rng.UniformInt(0, 5));
  std::vector<double> w(static_cast<size_t>(n)), v(static_cast<size_t>(n));
  double total = 0;
  for (int j = 0; j < n; ++j) {
    w[static_cast<size_t>(j)] = std::floor(rng.Uniform(1.0, 15.0));
    v[static_cast<size_t>(j)] = std::floor(rng.Uniform(1.0, 9.0));
    total += w[static_cast<size_t>(j)];
  }
  Model m = MakeKnapsack(w, v, std::floor(total * 0.5));
  // Separate at a random fractional point; every returned cut must admit
  // every feasible integer point.
  std::vector<double> x(static_cast<size_t>(n));
  for (auto& xi : x) xi = rng.Uniform(0.0, 1.0);
  for (const Cut& cut : SeparateCuts(m, x, CutOptions{})) {
    ExpectCutValidForAllBinaryPoints(m, cut);
  }
}

TEST_P(CutSeedTest, CutsPreserveGeneralIntegerOptimum) {
  // REPEAT K queries give general-integer variables: cover cuts must skip
  // them (complementing is only valid for binaries) but CG cuts apply, and
  // the optimum must be unchanged either way.
  Rng rng(GetParam() * 7 + 11);
  Model m;
  m.set_sense(lp::Sense::kMaximize);
  int n = 6 + static_cast<int>(rng.UniformInt(0, 4));
  RowDef cap;
  for (int j = 0; j < n; ++j) {
    m.AddVariable(0, 3, std::floor(rng.Uniform(1.0, 12.0)), true);
    cap.vars.push_back(j);
    cap.coefs.push_back(std::floor(rng.Uniform(1.0, 7.0)));
  }
  cap.hi = std::floor(rng.Uniform(10.0, 25.0));
  ASSERT_TRUE(m.AddRow(std::move(cap)).ok());

  BranchAndBoundOptions with, without;
  with.cuts.enable = true;
  without.cuts.enable = false;
  auto a = SolveIlp(m, SolverLimits{}, with);
  auto b = SolveIlp(m, SolverLimits{}, without);
  ASSERT_TRUE(a.ok()) << a.status();
  ASSERT_TRUE(b.ok()) << b.status();
  EXPECT_NEAR(a->objective, b->objective, 1e-6);
  EXPECT_TRUE(m.IsFeasible(a->x, 1e-6));
}

INSTANTIATE_TEST_SUITE_P(Seeds, CutSeedTest, ::testing::Range(1u, 13u));

// ---------------------------------------------------------------------------
// Cut identity against the reference separation
// ---------------------------------------------------------------------------

/// The separation as it was before the O(n log n) rewrite: an index sort
/// per greedy order, vector::erase per dropped cover member, std::find
/// membership in the lifting loop, and a stream-formatted string key for
/// de-duplication. The production code must emit exactly its cuts.
namespace reference {

constexpr double kInf = lp::kInf;

/// A knapsack-form view of one side of a range row:
///   sum_j weight_j * y_j <= capacity,   y_j binary,
/// where y_j is x_{var_j} or its complement 1 - x_{var_j}.
struct KnapsackForm {
  struct Item {
    int var = -1;
    double weight = 0;     // > 0 after complementing
    bool complemented = false;
    double frac = 0;       // LP value of y_j in [0, 1]
  };
  std::vector<Item> items;
  double capacity = 0;
};

/// Build the knapsack form of `sum coefs*x <= rhs` over the binary integer
/// variables of the row. Non-binary variables contribute their worst-case
/// (minimum) activity to keep the form valid; rows with an unbounded
/// non-binary contribution have no finite form and return false.
bool BuildKnapsackForm(const lp::Model& model, const lp::RowDef& row,
                       double rhs, double side_sign,
                       const std::vector<double>& x, KnapsackForm* out) {
  out->items.clear();
  out->capacity = side_sign * rhs;
  const auto& lb = model.lb();
  const auto& ub = model.ub();
  const auto& is_int = model.is_integer();
  for (size_t k = 0; k < row.vars.size(); ++k) {
    int j = row.vars[k];
    double a = side_sign * row.coefs[k];
    if (a == 0) continue;
    bool binary = is_int[j] && lb[j] == 0 && ub[j] == 1;
    if (!binary) {
      // Shift the bound by the variable's minimum possible contribution.
      double contrib = a > 0 ? a * lb[j] : a * ub[j];
      if (std::isinf(contrib)) return false;
      out->capacity -= contrib;
      continue;
    }
    KnapsackForm::Item item;
    item.var = j;
    if (a > 0) {
      item.weight = a;
      item.complemented = false;
      item.frac = std::clamp(x[j], 0.0, 1.0);
    } else {
      // a*x = a - a*(1-x): complement so the weight is positive.
      item.weight = -a;
      item.complemented = true;
      item.frac = std::clamp(1.0 - x[j], 0.0, 1.0);
      out->capacity -= a;  // capacity - a > capacity since a < 0
    }
    out->items.push_back(item);
  }
  return out->capacity >= 0 && out->items.size() >= 2;
}

/// Convert a cover inequality sum_{j in E} y_j <= rhs back to original
/// variables and package it as a Cut.
Cut MakeCoverCut(const KnapsackForm& form, const std::vector<size_t>& member,
                 double rhs, const std::vector<double>& x) {
  Cut cut;
  double bound = rhs;
  for (size_t idx : member) {
    const auto& item = form.items[idx];
    if (item.complemented) {
      // (1 - x_j) term: subtract x_j from the LHS and 1 from the bound.
      cut.row.vars.push_back(item.var);
      cut.row.coefs.push_back(-1.0);
      bound -= 1.0;
    } else {
      cut.row.vars.push_back(item.var);
      cut.row.coefs.push_back(1.0);
    }
  }
  cut.row.lo = -kInf;
  cut.row.hi = bound;
  cut.row.name = StrCat("cover(", member.size(), ")");
  double activity = 0;
  for (size_t k = 0; k < cut.row.vars.size(); ++k) {
    activity += cut.row.coefs[k] * x[cut.row.vars[k]];
  }
  cut.violation = activity - bound;
  return cut;
}

/// Greedy most-violated minimal-cover separation over one knapsack form.
/// Returns true and fills `cut` when a cut violated by more than
/// `min_violation` exists.
bool SeparateOneCover(const KnapsackForm& form, const std::vector<double>& x,
                      double min_violation, Cut* cut) {
  double total_weight = 0;
  for (const auto& item : form.items) total_weight += item.weight;
  if (total_weight <= form.capacity) return false;  // no cover exists

  // Greedy: take items by descending fractional value (they contribute the
  // most violation per unit), heavier first on ties, until a cover forms.
  std::vector<size_t> order(form.items.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    if (form.items[a].frac != form.items[b].frac) {
      return form.items[a].frac > form.items[b].frac;
    }
    return form.items[a].weight > form.items[b].weight;
  });
  std::vector<size_t> cover;
  double weight = 0;
  for (size_t idx : order) {
    cover.push_back(idx);
    weight += form.items[idx].weight;
    if (weight > form.capacity + 1e-12) break;
  }
  if (weight <= form.capacity + 1e-12) return false;

  // Minimalize: drop members whose removal keeps the cover property,
  // lowest-fraction first (they cost violation, and removal shrinks |C|).
  std::sort(cover.begin(), cover.end(), [&](size_t a, size_t b) {
    return form.items[a].frac < form.items[b].frac;
  });
  for (size_t i = 0; i < cover.size();) {
    double w = form.items[cover[i]].weight;
    if (cover.size() > 2 && weight - w > form.capacity + 1e-12) {
      weight -= w;
      cover.erase(cover.begin() + static_cast<ptrdiff_t>(i));
    } else {
      ++i;
    }
  }

  // Extended cover (simple lifting): every non-member at least as heavy as
  // the heaviest member joins with coefficient 1. Valid for minimal covers:
  // selecting such an item plus |C|-1 members already exceeds capacity.
  double max_weight = 0;
  for (size_t idx : cover) {
    max_weight = std::max(max_weight, form.items[idx].weight);
  }
  std::vector<size_t> extended = cover;
  for (size_t idx = 0; idx < form.items.size(); ++idx) {
    if (std::find(cover.begin(), cover.end(), idx) != cover.end()) continue;
    if (form.items[idx].weight >= max_weight - 1e-12) {
      extended.push_back(idx);
    }
  }

  *cut = MakeCoverCut(form, extended,
                      static_cast<double>(cover.size()) - 1.0, x);
  return cut->violation > min_violation;
}

/// True when `v` is integral within tolerance.
bool IsIntegral(double v) { return std::abs(v - std::round(v)) < 1e-9; }

/// Key for structural cut de-duplication.
std::string CutKey(const Cut& cut) {
  std::vector<std::pair<int, double>> terms;
  for (size_t k = 0; k < cut.row.vars.size(); ++k) {
    terms.emplace_back(cut.row.vars[k], cut.row.coefs[k]);
  }
  std::sort(terms.begin(), terms.end());
  std::string key;
  for (const auto& [var, coef] : terms) {
    key += StrCat(var, ":", coef, ";");
  }
  key += StrCat("|", cut.row.lo, ",", cut.row.hi);
  return key;
}

std::vector<Cut> SeparateCoverCuts(const lp::Model& model,
                                   const std::vector<double>& x,
                                   const CutOptions& options) {
  std::vector<Cut> cuts;
  KnapsackForm form;
  for (const lp::RowDef& row : model.rows()) {
    // Each finite side of a range row yields one knapsack form:
    //   ax <= hi directly, and lo <= ax as (-a)x <= -lo.
    for (int side = 0; side < 2; ++side) {
      double rhs = side == 0 ? row.hi : row.lo;
      if (std::isinf(rhs)) continue;
      double sign = side == 0 ? 1.0 : -1.0;
      if (!BuildKnapsackForm(model, row, rhs, sign, x, &form)) continue;
      Cut cut;
      if (SeparateOneCover(form, x, options.min_violation, &cut)) {
        cuts.push_back(std::move(cut));
      }
    }
  }
  return cuts;
}

std::vector<Cut> SeparateCgCuts(const lp::Model& model,
                                const std::vector<double>& x,
                                const CutOptions& options) {
  std::vector<Cut> cuts;
  const auto& lb = model.lb();
  const auto& is_int = model.is_integer();
  for (const lp::RowDef& row : model.rows()) {
    // Chvatal-Gomory rounding needs nonnegative integer variables and
    // integral coefficients on this row.
    bool eligible = true;
    for (size_t k = 0; k < row.vars.size() && eligible; ++k) {
      int j = row.vars[k];
      eligible = is_int[j] && lb[j] >= 0 && IsIntegral(row.coefs[k]);
    }
    if (!eligible || row.vars.empty()) continue;
    for (int side = 0; side < 2; ++side) {
      double rhs = side == 0 ? row.hi : row.lo;
      if (std::isinf(rhs)) continue;
      double sign = side == 0 ? 1.0 : -1.0;
      // Multiply by u = 1/2 and round down: sum floor(a_j/2) x_j <=
      // floor(rhs/2). Only odd data can tighten anything.
      Cut cut;
      double activity = 0;
      for (size_t k = 0; k < row.vars.size(); ++k) {
        double a = std::floor(sign * row.coefs[k] / 2.0);
        if (a == 0) continue;
        cut.row.vars.push_back(row.vars[k]);
        cut.row.coefs.push_back(a);
        activity += a * x[row.vars[k]];
      }
      if (cut.row.vars.empty()) continue;
      cut.row.lo = -kInf;
      cut.row.hi = std::floor(sign * rhs / 2.0);
      cut.row.name = "cg(1/2)";
      cut.violation = activity - cut.row.hi;
      if (cut.violation > options.min_violation) {
        cuts.push_back(std::move(cut));
      }
    }
  }
  return cuts;
}

std::vector<Cut> SeparateCuts(const lp::Model& model,
                              const std::vector<double>& x,
                              const CutOptions& options) {
  std::vector<Cut> all;
  if (options.cover_cuts) {
    auto cover = reference::SeparateCoverCuts(model, x, options);
    all.insert(all.end(), std::make_move_iterator(cover.begin()),
               std::make_move_iterator(cover.end()));
  }
  if (options.cg_cuts) {
    auto cg = reference::SeparateCgCuts(model, x, options);
    all.insert(all.end(), std::make_move_iterator(cg.begin()),
               std::make_move_iterator(cg.end()));
  }
  std::sort(all.begin(), all.end(),
            [](const Cut& a, const Cut& b) { return a.violation > b.violation; });
  std::vector<Cut> out;
  std::map<std::string, bool> seen;
  for (Cut& cut : all) {
    if (static_cast<int>(out.size()) >= options.max_cuts_per_round) break;
    std::string key = CutKey(cut);
    if (seen.count(key)) continue;
    seen[key] = true;
    out.push_back(std::move(cut));
  }
  return out;
}


}  // namespace reference

void ExpectSameCuts(const std::vector<Cut>& got, const std::vector<Cut>& want,
                    const std::string& where) {
  ASSERT_EQ(got.size(), want.size()) << where;
  for (size_t c = 0; c < got.size(); ++c) {
    EXPECT_EQ(got[c].row.vars, want[c].row.vars) << where << " cut " << c;
    EXPECT_EQ(got[c].row.coefs, want[c].row.coefs) << where << " cut " << c;
    EXPECT_EQ(got[c].row.lo, want[c].row.lo) << where << " cut " << c;
    EXPECT_EQ(got[c].row.hi, want[c].row.hi) << where << " cut " << c;
    EXPECT_EQ(got[c].row.name, want[c].row.name) << where << " cut " << c;
    EXPECT_EQ(got[c].violation, want[c].violation) << where << " cut " << c;
  }
}

/// A seeded random cut-separation instance: knapsack rows (ties-heavy
/// small integer weights or continuous ones, some negative), two-sided
/// range rows, COUNT rows, non-binary integer and continuous columns,
/// repeated rows (the de-duplication path) and large integral
/// coefficients (the CG path with coefficients past six digits), at a
/// mostly-0/1 point with a fractional minority, like a basic LP optimum.
struct CutInstance {
  Model model;
  std::vector<double> x;
};

CutInstance MakeCutInstance(uint64_t seed) {
  Rng rng(seed);
  CutInstance inst;
  const int n = static_cast<int>(rng.UniformInt(5, 2000));
  for (int j = 0; j < n; ++j) {
    double kind = rng.Uniform();
    if (kind < 0.85) {
      inst.model.AddVariable(0, 1, rng.Uniform(-1, 1), true);
    } else if (kind < 0.95) {
      inst.model.AddVariable(0, static_cast<double>(rng.UniformInt(2, 5)),
                             rng.Uniform(-1, 1), true);
    } else {
      inst.model.AddVariable(0, rng.Uniform(1, 3), rng.Uniform(-1, 1), false);
    }
    double u = rng.Uniform();
    double ub = inst.model.ub()[j];
    inst.x.push_back(u < 0.45 ? 0.0 : u < 0.8 ? ub : rng.Uniform(0, ub));
  }
  const bool ties = rng.Bernoulli(0.5);
  const int rows = static_cast<int>(rng.UniformInt(1, 8));
  for (int r = 0; r < rows; ++r) {
    RowDef row;
    const double kind = rng.Uniform();
    const bool count = kind < 0.25;
    const bool big = kind > 0.9;  // large integral coefficients
    // Rows over integer columns only (with integral data) are the
    // Chvatal-Gomory family's domain.
    const bool integer_only = rng.Bernoulli(0.5);
    double activity = 0;
    double total = 0;
    for (int j = 0; j < n; ++j) {
      if (integer_only && !inst.model.is_integer()[j]) continue;
      if (!count && !rng.Bernoulli(0.6)) continue;
      double a;
      if (count) {
        a = 1;
      } else if (big) {
        a = static_cast<double>(rng.UniformInt(1, 4000000));
      } else if (ties) {
        a = static_cast<double>(rng.UniformInt(1, 6));
      } else {
        a = rng.Uniform(0.5, 20);
      }
      if (!count && rng.Bernoulli(0.15)) a = -a;
      row.vars.push_back(j);
      row.coefs.push_back(a);
      activity += a * inst.x[static_cast<size_t>(j)];
      total += std::abs(a);
    }
    if (row.vars.empty()) continue;
    // Bounds near the point's activity so covers are tight enough to cut.
    double width = rng.Uniform(0, 0.2) * total;
    double mid = activity + rng.Uniform(-0.1, 0.1) * total;
    double side = rng.Uniform();
    if (!count && side < 0.2) {
      // Overloaded below the point's activity: the greedy cover then ends
      // inside the y = 1 items, where tied weights decide its members.
      row.hi = std::floor(activity * rng.Uniform(0.3, 0.9));
    } else if (count || side < 0.5) {
      row.lo = std::floor(mid - width);
      row.hi = std::floor(mid + width) + (count ? 0 : 0.5);
    } else if (side < 0.75) {
      row.hi = std::floor(mid);
    } else {
      row.lo = std::ceil(mid);
    }
    RowDef copy = row;
    EXPECT_TRUE(inst.model.AddRow(std::move(row)).ok());
    if (rng.Bernoulli(0.2)) {
      // A repeat, sometimes with its bound moved past six digits.
      if (big && rng.Bernoulli(0.5) && std::isfinite(copy.hi)) copy.hi += 1;
      EXPECT_TRUE(inst.model.AddRow(std::move(copy)).ok());
    }
  }
  return inst;
}

TEST(CutIdentityTest, SeparationMatchesReferenceOnRandomRows) {
  int64_t cover = 0, cg = 0, kept = 0;
  for (uint64_t seed = 1; seed <= 300; ++seed) {
    CutInstance inst = MakeCutInstance(seed);
    CutOptions options;
    std::string where = StrCat("seed ", seed);
    auto got_cover = SeparateCoverCuts(inst.model, inst.x, options);
    ExpectSameCuts(got_cover,
                   reference::SeparateCoverCuts(inst.model, inst.x, options),
                   where + " cover");
    auto got_cg = SeparateCgCuts(inst.model, inst.x, options);
    ExpectSameCuts(got_cg,
                   reference::SeparateCgCuts(inst.model, inst.x, options),
                   where + " cg");
    cover += static_cast<int64_t>(got_cover.size());
    cg += static_cast<int64_t>(got_cg.size());
    // A round ranks, de-duplicates and caps both families.
    for (int cap : {2, 16}) {
      options.max_cuts_per_round = cap;
      auto got = SeparateCuts(inst.model, inst.x, options);
      ExpectSameCuts(got, reference::SeparateCuts(inst.model, inst.x, options),
                     StrCat(where, " round cap ", cap));
      if (cap == 16) kept += static_cast<int64_t>(got.size());
    }
  }
  // Vacuity guards: both families fire, and de-duplication or the cap
  // drops some of them.
  EXPECT_GT(cover, 0);
  EXPECT_GT(cg, 0);
  EXPECT_LT(kept, cover + cg);
}

}  // namespace
}  // namespace paql::ilp
