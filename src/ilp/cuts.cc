#include "ilp/cuts.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <unordered_map>
#include <utility>

namespace paql::ilp {
namespace {

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

/// Reusable buffers for cover separation, sized once per SeparateCoverCuts
/// call instead of once per row side.
struct CoverScratch {
  /// Sort key of one item: the greedy and minimalization orders read only
  /// (frac, weight), so sorting these contiguous keys makes the same
  /// comparisons — and hence the same permutation, ties included — as
  /// sorting item indices, with none of the indirect loads.
  struct Key {
    double frac;
    double weight;
    size_t idx;
  };
  std::vector<Key> order;
  std::vector<size_t> cover;
  std::vector<uint8_t> in_cover;  // membership bitmap over form items
};

/// True when every item of `form` weighs the same (cardinality rows, and
/// the cover cuts of earlier rounds) and its cover cut is not violated by
/// more than `min_violation` at `x`, decided without sorting.
///
/// With equal weights the greedy order decides only which items form the
/// cover, not how many: the running weight and the minimalization test
/// see the same w at every step. Lifting then takes every non-member (all
/// weigh max_weight), so the cut is sum_{all items} y <= |C| - 1 in any
/// order. It is priced here in index order, and reported as holding only
/// when it stays below the threshold by more than re-ordering the sum
/// could move it, so the sorted separation would reject it too.
bool EqualWeightCoverHolds(const KnapsackForm& form,
                           const std::vector<double>& x,
                           double min_violation) {
  const auto& items = form.items;
  const double w = items.front().weight;
  for (const auto& item : items) {
    if (item.weight != w) return false;
  }
  double weight = 0;
  size_t size = 0;
  while (size < items.size() && weight <= form.capacity + 1e-12) {
    weight += w;
    ++size;
  }
  if (weight <= form.capacity + 1e-12) return true;  // no cover: no cut
  for (size_t i = size; i > 0; --i) {
    if (size > 2 && weight - w > form.capacity + 1e-12) {
      weight -= w;
      --size;
    }
  }
  double bound = static_cast<double>(size) - 1.0;
  double activity = 0;
  double magnitude = 0;
  for (const auto& item : items) {
    double term = item.complemented ? -1.0 * x[item.var] : x[item.var];
    if (item.complemented) bound -= 1.0;
    activity += term;
    magnitude += std::abs(term);
  }
  // Any two summation orders of n terms agree to n * eps * sum|term|;
  // doubled, with room for the final subtraction.
  const double slack =
      2.0 * static_cast<double>(items.size() + 1) *
          std::numeric_limits<double>::epsilon() *
          (magnitude + std::abs(bound)) +
      1e-12;
  return activity - bound + slack <= min_violation;
}

/// Greedy most-violated minimal-cover separation over one knapsack form.
/// Returns true and fills `cut` when a cut violated by more than
/// `min_violation` exists. O(n log n) for n items: one sort of the greedy
/// order, one of the cover, and linear passes otherwise — and only the
/// linear passes when all weights are equal and the cut clearly holds.
bool SeparateOneCover(const KnapsackForm& form, const std::vector<double>& x,
                      double min_violation, CoverScratch* scratch, Cut* cut) {
  const auto& items = form.items;
  double total_weight = 0;
  for (const auto& item : items) total_weight += item.weight;
  if (total_weight <= form.capacity) return false;  // no cover exists
  if (EqualWeightCoverHolds(form, x, min_violation)) return false;

  // Greedy: take items by descending fractional value (they contribute the
  // most violation per unit), heavier first on ties, until a cover forms.
  auto& order = scratch->order;
  order.resize(items.size());
  for (size_t idx = 0; idx < items.size(); ++idx) {
    order[idx] = {items[idx].frac, items[idx].weight, idx};
  }
  std::sort(order.begin(), order.end(),
            [](const CoverScratch::Key& a, const CoverScratch::Key& b) {
              if (a.frac != b.frac) return a.frac > b.frac;
              return a.weight > b.weight;
            });
  double weight = 0;
  size_t taken = 0;
  while (taken < order.size()) {
    weight += order[taken++].weight;
    if (weight > form.capacity + 1e-12) break;
  }
  if (weight <= form.capacity + 1e-12) return false;

  // Minimalize: drop members whose removal keeps the cover property,
  // lowest-fraction first (they cost violation, and removal shrinks |C|).
  // The taken prefix is the cover in greedy order; one compacting pass
  // over it re-sorted by fraction, `size` tracking the shrinking cover.
  std::sort(order.begin(), order.begin() + static_cast<ptrdiff_t>(taken),
            [](const CoverScratch::Key& a, const CoverScratch::Key& b) {
              return a.frac < b.frac;
            });
  auto& cover = scratch->cover;
  cover.clear();
  size_t size = taken;
  for (size_t i = 0; i < taken; ++i) {
    double w = order[i].weight;
    if (size > 2 && weight - w > form.capacity + 1e-12) {
      weight -= w;
      --size;
    } else {
      cover.push_back(order[i].idx);
    }
  }

  // Extended cover (simple lifting): every non-member at least as heavy as
  // the heaviest member joins with coefficient 1. Valid for minimal covers:
  // selecting such an item plus |C|-1 members already exceeds capacity.
  double max_weight = 0;
  for (size_t idx : cover) max_weight = std::max(max_weight, items[idx].weight);
  auto& in_cover = scratch->in_cover;
  in_cover.assign(items.size(), 0);
  for (size_t idx : cover) in_cover[idx] = 1;

  // The cut over y is sum_{j in E} y_j <= |C| - 1, E = cover then lifted
  // items in index order; each complemented y_j = 1 - x_j becomes a -x_j
  // term and moves 1 to the bound. Price it before building the row, so
  // forms whose cut is not violated allocate nothing.
  double bound = static_cast<double>(cover.size()) - 1.0;
  double activity = 0;
  size_t members = cover.size();
  auto price = [&](size_t idx) {
    const auto& item = items[idx];
    if (item.complemented) {
      activity += -1.0 * x[item.var];
      bound -= 1.0;
    } else {
      activity += x[item.var];
    }
  };
  for (size_t idx : cover) price(idx);
  for (size_t idx = 0; idx < items.size(); ++idx) {
    if (!in_cover[idx] && items[idx].weight >= max_weight - 1e-12) {
      price(idx);
      ++members;
    }
  }
  if (activity - bound <= min_violation) return false;

  cut->row.vars.clear();
  cut->row.coefs.clear();
  cut->row.vars.reserve(members);
  cut->row.coefs.reserve(members);
  auto emit = [&](size_t idx) {
    cut->row.vars.push_back(items[idx].var);
    cut->row.coefs.push_back(items[idx].complemented ? -1.0 : 1.0);
  };
  for (size_t idx : cover) emit(idx);
  for (size_t idx = 0; idx < items.size(); ++idx) {
    if (!in_cover[idx] && items[idx].weight >= max_weight - 1e-12) emit(idx);
  }
  cut->row.lo = -kInf;
  cut->row.hi = bound;
  cut->row.name = "cover(" + std::to_string(members) + ")";
  cut->violation = activity - bound;
  return true;
}

/// True when `v` is integral within tolerance.
bool IsIntegral(double v) { return std::abs(v - std::round(v)) < 1e-9; }

/// The value two cuts must share at a term or bound to count as
/// duplicates: `v` to six significant digits, the precision of the
/// default stream formatting the de-duplication key has always compared.
/// Cut coefficients and bounds are small integers in practice, which are
/// exact at that precision and skip the formatting.
uint64_t DedupeBits(double v) {
  if (!(std::abs(v) < 1e6 && v == std::trunc(v))) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%g", v);
    v = std::strtod(buf, nullptr);
  }
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

/// A cut's terms in canonical form: (var, DedupeBits(coef)), sorted.
std::vector<std::pair<int, uint64_t>> CanonicalTerms(const Cut& cut) {
  std::vector<std::pair<int, uint64_t>> terms(cut.row.vars.size());
  for (size_t k = 0; k < terms.size(); ++k) {
    terms[k] = {cut.row.vars[k], DedupeBits(cut.row.coefs[k])};
  }
  std::sort(terms.begin(), terms.end());
  return terms;
}

/// Order-independent hash of a cut's canonical terms and bounds: equal
/// for duplicates, so only hash matches need the sorted comparison.
uint64_t CutHash(const Cut& cut) {
  auto mix = [](uint64_t h) {
    h ^= h >> 33;
    h *= 0xff51afd7ed558ccdull;
    h ^= h >> 33;
    h *= 0xc4ceb9fe1a85ec53ull;
    return h ^ (h >> 33);
  };
  uint64_t sum = 0;
  for (size_t k = 0; k < cut.row.vars.size(); ++k) {
    uint64_t var = static_cast<uint32_t>(cut.row.vars[k]);
    sum += mix(var * 0x9e3779b97f4a7c15ull ^ DedupeBits(cut.row.coefs[k]));
  }
  return mix(sum ^ mix(DedupeBits(cut.row.lo)) ^
             mix(DedupeBits(cut.row.hi) + 1));
}

/// Structural duplicate test (the hashes already matched).
bool SameCut(const Cut& a, const Cut& b) {
  return a.row.vars.size() == b.row.vars.size() &&
         DedupeBits(a.row.lo) == DedupeBits(b.row.lo) &&
         DedupeBits(a.row.hi) == DedupeBits(b.row.hi) &&
         CanonicalTerms(a) == CanonicalTerms(b);
}

}  // namespace

std::vector<Cut> SeparateCoverCuts(const lp::Model& model,
                                   const std::vector<double>& x,
                                   const CutOptions& options) {
  std::vector<Cut> cuts;
  KnapsackForm form;
  CoverScratch scratch;
  for (const lp::RowDef& row : model.rows()) {
    // Each finite side of a range row yields one knapsack form:
    //   ax <= hi directly, and lo <= ax as (-a)x <= -lo.
    for (int side = 0; side < 2; ++side) {
      double rhs = side == 0 ? row.hi : row.lo;
      if (std::isinf(rhs)) continue;
      double sign = side == 0 ? 1.0 : -1.0;
      if (!BuildKnapsackForm(model, row, rhs, sign, x, &form)) continue;
      Cut cut;
      if (SeparateOneCover(form, x, options.min_violation, &scratch, &cut)) {
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
      // floor(rhs/2). Only odd data can tighten anything. Price the cut
      // first; only a violated one is materialized.
      double activity = 0;
      size_t terms = 0;
      for (size_t k = 0; k < row.vars.size(); ++k) {
        double a = std::floor(sign * row.coefs[k] / 2.0);
        if (a == 0) continue;
        activity += a * x[row.vars[k]];
        ++terms;
      }
      if (terms == 0) continue;
      double hi = std::floor(sign * rhs / 2.0);
      if (activity - hi <= options.min_violation) continue;
      Cut cut;
      cut.row.vars.reserve(terms);
      cut.row.coefs.reserve(terms);
      for (size_t k = 0; k < row.vars.size(); ++k) {
        double a = std::floor(sign * row.coefs[k] / 2.0);
        if (a == 0) continue;
        cut.row.vars.push_back(row.vars[k]);
        cut.row.coefs.push_back(a);
      }
      cut.row.lo = -kInf;
      cut.row.hi = hi;
      cut.row.name = "cg(1/2)";
      cut.violation = activity - hi;
      cuts.push_back(std::move(cut));
    }
  }
  return cuts;
}

std::vector<Cut> SeparateCuts(const lp::Model& model,
                              const std::vector<double>& x,
                              const CutOptions& options) {
  std::vector<Cut> all;
  if (options.cover_cuts) {
    auto cover = SeparateCoverCuts(model, x, options);
    all.insert(all.end(), std::make_move_iterator(cover.begin()),
               std::make_move_iterator(cover.end()));
  }
  if (options.cg_cuts) {
    auto cg = SeparateCgCuts(model, x, options);
    all.insert(all.end(), std::make_move_iterator(cg.begin()),
               std::make_move_iterator(cg.end()));
  }
  std::sort(all.begin(), all.end(),
            [](const Cut& a, const Cut& b) { return a.violation > b.violation; });
  std::vector<Cut> out;
  std::unordered_multimap<uint64_t, size_t> seen;  // hash -> index in out
  for (Cut& cut : all) {
    if (static_cast<int>(out.size()) >= options.max_cuts_per_round) break;
    uint64_t hash = CutHash(cut);
    auto [first, last] = seen.equal_range(hash);
    bool duplicate = false;
    for (auto it = first; it != last && !duplicate; ++it) {
      duplicate = SameCut(out[it->second], cut);
    }
    if (duplicate) continue;
    seen.emplace(hash, out.size());
    out.push_back(std::move(cut));
  }
  return out;
}

}  // namespace paql::ilp
