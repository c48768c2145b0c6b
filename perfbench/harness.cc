#include "harness.h"

#include <algorithm>
#include <cmath>

#include "common/str_util.h"
#include "core/package.h"
#include "paql/parser.h"

namespace perfbench {

using paql::Status;
using paql::StatusCode;

double Now() {
  using Clock = std::chrono::steady_clock;
  static const Clock::time_point epoch = Clock::now();
  return std::chrono::duration<double>(Clock::now() - epoch).count();
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double GeometricMean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double log_sum = 0;
  for (double x : v) log_sum += std::log(std::max(x, 1e-9));
  return std::exp(log_sum / static_cast<double>(v.size()));
}

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(std::ceil(p / 100.0 * v.size()));
  rank = std::clamp<size_t>(rank, 1, v.size());
  return v[rank - 1];
}

Tail TailOf(const std::vector<double>& v, double percentile) {
  Tail tail;
  tail.percentile = percentile;
  tail.samples = v.size();
  tail.value = Percentile(v, percentile);
  for (double x : v) tail.beyond += x > tail.value ? 1 : 0;
  return tail;
}

Tail HighestTail(const std::vector<double>& v) {
  for (double p : {99.9, 99.5, 99.0, 98.0, 97.0, 96.0, 95.0, 94.0, 92.0}) {
    const Tail tail = TailOf(v, p);
    if (tail.beyond >= 10) return tail;
  }
  return TailOf(v, 90);
}

const char* OutcomeName(Outcome outcome) {
  switch (outcome) {
    case Outcome::kOk: return "ok";
    case Outcome::kBudget: return "budget";
    case Outcome::kInfeasible: return "infeasible";
    case Outcome::kError: return "error";
    case Outcome::kShed: return "shed";
  }
  return "error";
}

Outcome Classify(const Status& status) {
  switch (status.code()) {
    case StatusCode::kOk: return Outcome::kOk;
    case StatusCode::kResourceExhausted: return Outcome::kBudget;
    case StatusCode::kInfeasible: return Outcome::kInfeasible;
    case StatusCode::kUnavailable: return Outcome::kShed;
    default: return Outcome::kError;
  }
}

void Gate::Fail(std::string message) {
  // Keep the first few messages; the count is what fails the run.
  if (violations_.size() < 20) violations_.push_back(std::move(message));
  else violations_.back() = "... more violations";
}

void CheckPackage(const std::string& what,
                  const paql::translate::CompiledQuery& query,
                  const paql::relation::ColumnSource& table,
                  const paql::core::Package& package, Gate* gate) {
  Status valid = paql::core::ValidatePackage(query, table, package);
  if (!valid.ok()) {
    gate->Fail(paql::StrCat(what, ": invalid package: ", valid.message()));
  }
}

void CheckNotBetterThanOptimum(const std::string& what, bool maximize,
                               double sr_objective, double direct_objective,
                               double gap_tol, Gate* gate) {
  // DIRECT proves optimality to a relative gap of gap_tol; 1e-7 relative
  // covers the solver's floating-point feasibility slack on top of that.
  const double slack =
      (gap_tol + 1e-7) * std::max(1.0, std::fabs(direct_objective));
  const double better = maximize ? sr_objective - direct_objective
                                 : direct_objective - sr_objective;
  if (better > slack) {
    gate->Fail(paql::StrCat(what, ": SKETCHREFINE objective ",
                            paql::FormatDouble(sr_objective, 12),
                            " beats the DIRECT optimum ",
                            paql::FormatDouble(direct_objective, 12)));
  }
}

double ApproxRatio(bool maximize, double approx, double exact) {
  if (approx <= 0 || exact <= 0) return -1;
  return maximize ? exact / approx : approx / exact;
}

paql::Result<paql::translate::CompiledQuery> CompileFor(
    const std::string& paql, const paql::relation::Schema& schema) {
  PAQL_ASSIGN_OR_RETURN(auto parsed, paql::lang::ParsePackageQuery(paql));
  return paql::translate::CompiledQuery::Compile(parsed, schema);
}

bool Faults::Fire(const char* name) {
  if (fired_ || name_ != name) return false;
  fired_ = true;
  return true;
}

void DropFirstRow(paql::core::Package* package) {
  if (package->rows.empty()) return;
  package->rows.erase(package->rows.begin());
  package->multiplicity.erase(package->multiplicity.begin());
}

// ---------------------------------------------------------------------------
// Tracer.
// ---------------------------------------------------------------------------

int Tracer::Add(std::string name, int parent, uint64_t request, double start,
                double end) {
  if (!enabled_) return -1;
  const double t0 = Now();
  Span span;
  span.name = std::move(name);
  span.start = start;
  span.end = std::max(start, end);
  span.parent = parent;
  span.request = request;
  spans_.push_back(std::move(span));
  bookkeeping_ += Now() - t0;
  return static_cast<int>(spans_.size()) - 1;
}

void Tracer::Count(int id, const char* key, double value) {
  if (id < 0) return;
  const double t0 = Now();
  spans_[static_cast<size_t>(id)].counters.emplace_back(key, value);
  bookkeeping_ += Now() - t0;
}

int Tracer::AddExecute(const char* root_name, uint64_t request, double start,
                       double end, const paql::QueryResult* result,
                       const paql::engine::PhaseTimings* timings) {
  if (!enabled_) return -1;
  const int root = Add(root_name, -1, request, start, end);
  if (timings == nullptr) {
    // A failed call returns no timings: its time is charged whole to the
    // strategy, where solver budgets are spent, and flagged as such.
    const int eval = Add("core.evaluate", root, request, start, end);
    Count(eval, "core.failed_call", 1);
    return root;
  }
  // Phases run back to back inside Execute; lay them out in order from the
  // call's start, clamped to its end.
  double t = start;
  auto phase = [&](const char* name, double seconds) {
    const double s = std::min(t, end);
    const double e = std::min(t + std::max(0.0, seconds), end);
    t += std::max(0.0, seconds);
    return Add(name, root, request, s, e);
  };
  phase("paql.parse", timings->parse_seconds);
  phase("engine.resolve", timings->resolve_seconds);
  phase("translate.compile", timings->compile_seconds);
  const int plan = phase("engine.plan", timings->plan_seconds);
  const double eval_start = std::min(t, end);
  const int eval = phase("core.evaluate", timings->evaluate_seconds);
  if (result == nullptr) return root;

  const paql::core::EvalStats& st = result->stats;
  Count(plan, "engine.cache_hits", static_cast<double>(st.cache_hits));
  Count(plan, "engine.cache_misses", static_cast<double>(st.cache_misses));
  Count(plan, "partition.groups",
        static_cast<double>(result->plan.partition_groups));
  const bool sr = result->plan.uses_partitioning();
  Count(eval, "core.sr_queries", sr ? 1 : 0);
  Count(eval, "core.sr_groups_refined", static_cast<double>(st.groups_refined));
  Count(eval, "core.sr_backtracks", static_cast<double>(st.backtracks));
  Count(eval, "core.sr_hybrid", st.used_hybrid_sketch ? 1 : 0);
  Count(eval, "core.sr_warm_model_reuses",
        static_cast<double>(st.warm_model_reuses));
  Count(eval, "relation.blocks_scanned", static_cast<double>(st.blocks_scanned));
  Count(eval, "relation.blocks_pruned", static_cast<double>(st.blocks_pruned));

  // Inside evaluate the strategy alternates model building and solving;
  // the totals are laid out back to back (their sum never exceeds it).
  const double eval_end = std::min(eval_start + timings->evaluate_seconds, end);
  const double tr_end = std::min(eval_start + st.translate_seconds, eval_end);
  Add("translate.model_build", eval, request, eval_start, tr_end);
  const int solve = Add("ilp.solve", eval, request, tr_end,
                        std::min(tr_end + st.solve_seconds, eval_end));
  Count(solve, "ilp.solves", static_cast<double>(st.ilp_solves));
  Count(solve, "ilp.bnb_nodes", static_cast<double>(st.bnb_nodes));
  Count(solve, "ilp.parallel_bnb_nodes",
        static_cast<double>(st.parallel_bnb_nodes));
  Count(solve, "ilp.model_bytes_peak",
        static_cast<double>(st.peak_memory_bytes));
  Count(solve, "lp.pivots", static_cast<double>(st.lp_iterations));
  Count(solve, "lp.warm_solves", static_cast<double>(st.warm_lp_solves));
  Count(solve, "lp.bound_flips", static_cast<double>(st.bound_flips));
  Count(solve, "lp.presolve_fixed_vars",
        static_cast<double>(st.presolve_fixed_vars));
  return root;
}

void Tracer::Append(const Tracer& other) {
  const int offset = static_cast<int>(spans_.size());
  for (Span span : other.spans_) {
    if (span.parent >= 0) span.parent += offset;
    spans_.push_back(std::move(span));
  }
  bookkeeping_ += other.bookkeeping_;
}

std::string CheckSpanTree(const std::vector<Span>& spans) {
  constexpr double kSlack = 1e-9;
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (s.end < s.start) return paql::StrCat("span ", s.name, " ends early");
    if (s.parent < 0) continue;
    if (static_cast<size_t>(s.parent) >= i) {
      return paql::StrCat("span ", s.name, " precedes its parent");
    }
    const Span& p = spans[static_cast<size_t>(s.parent)];
    if (p.request != s.request) {
      return paql::StrCat("span ", s.name, " crosses requests");
    }
    if (s.start < p.start - kSlack || s.end > p.end + kSlack) {
      return paql::StrCat("span ", s.name, " [", s.start, ", ", s.end,
                          "] escapes its parent ", p.name, " [", p.start,
                          ", ", p.end, "]");
    }
  }
  return "";
}

double SpanCoverage(const std::vector<Span>& spans) {
  std::vector<double> covered(spans.size(), 0);
  std::vector<bool> failed(spans.size(), false);
  for (const Span& s : spans) {
    if (s.parent < 0) continue;
    const size_t p = static_cast<size_t>(s.parent);
    covered[p] += s.end - s.start;
    for (const auto& [key, value] : s.counters) {
      if (key == "core.failed_call") failed[p] = true;
    }
  }
  double root_total = 0, root_covered = 0;
  for (size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].parent >= 0 || failed[i]) continue;
    const double d = spans[i].end - spans[i].start;
    root_total += d;
    root_covered += std::min(d, covered[i]);
  }
  return root_total > 0 ? root_covered / root_total : 0;
}

void RunResult::Record(Outcome outcome, bool answered_ok,
                       const std::string& name) {
  ++attempted;
  ++outcomes[outcome];
  if (answered_ok) {
    ++answered;
  } else {
    ++failing_queries[name];
  }
  if (outcome == Outcome::kError || outcome == Outcome::kShed) ++failed;
}

}  // namespace perfbench
