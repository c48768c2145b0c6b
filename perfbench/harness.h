// Shared machinery of the repository benchmark: run arguments, latency
// statistics, the span tracer, outcome classification, the correctness
// gates, fault injection for the gates' own tests, and the per-run result.
//
// The benchmark drives the engine only through its public API and measures
// each layer from outside: it times its own calls into public functions and
// reads the numbers the engine already returns (PhaseTimings, EvalStats,
// cache and scheduler statistics, the server's OK <micros> lines).
#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "core/package.h"
#include "engine/engine.h"
#include "relation/column_source.h"
#include "translate/compiled_query.h"

namespace perfbench {

/// Command-line settings of one run.
struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 20;
  bool trace = false;
  /// Shrunken inputs for the benchmark's own tests (seconds, not minutes).
  bool smoke = false;
  /// Name of a deliberate wrong answer to inject (see Faults); empty = none.
  std::string inject;
  /// Scratch directory inside the checkout (PQB file, write-ahead log).
  std::string tmp_dir = ".bench_tmp";
  /// Where the traced run writes its span dump; empty = do not write.
  std::string trace_out;
};

/// Seconds on the steady clock since the first call in this process.
double Now();

/// The median of `v` (0 for an empty sample).
double Median(std::vector<double> v);

/// The geometric mean of `v` (0 for an empty sample). Latencies of a
/// mixed query suite span orders of magnitude; their geometric mean (the
/// TPC-H power-metric statistic) moves with every query, where a median
/// jumps between the clusters of neighbouring queries.
double GeometricMean(const std::vector<double>& v);

/// Nearest-rank percentile `p` in [0, 100] of `v` (0 for an empty sample).
double Percentile(std::vector<double> v, double p);

/// A latency tail: the value at a percentile plus how many samples lie
/// beyond it in this run.
struct Tail {
  double percentile = 0;
  double value = 0;
  size_t beyond = 0;
  size_t samples = 0;
};
Tail TailOf(const std::vector<double>& v, double percentile);

/// The highest percentile of a fixed ladder (p99.9 down to p90) that has
/// at least ten samples beyond it.
Tail HighestTail(const std::vector<double>& v);

// ---------------------------------------------------------------------------
// Outcomes and correctness gates.
// ---------------------------------------------------------------------------

/// What one attempted operation came back with.
enum class Outcome { kOk, kBudget, kInfeasible, kError, kShed };
const char* OutcomeName(Outcome outcome);
Outcome Classify(const paql::Status& status);

/// Collects correctness-gate violations. Any violation fails the run.
class Gate {
 public:
  void Fail(std::string message);
  bool ok() const { return violations_.empty(); }
  const std::vector<std::string>& violations() const { return violations_; }

 private:
  std::vector<std::string> violations_;
};

/// Gate 1: a returned package must satisfy its compiled query.
void CheckPackage(const std::string& what,
                  const paql::translate::CompiledQuery& query,
                  const paql::relation::ColumnSource& table,
                  const paql::core::Package& package, Gate* gate);

/// Gate 2: SKETCHREFINE may not beat the DIRECT optimum by more than the
/// branch-and-bound gap tolerance (plus floating-point slack).
void CheckNotBetterThanOptimum(const std::string& what, bool maximize,
                               double sr_objective, double direct_objective,
                               double gap_tol, Gate* gate);

/// The paper's approximation ratio (>= 1 when `exact` is optimal):
/// exact/approx for maximization, approx/exact for minimization. Returns
/// a negative value when the ratio is undefined (non-positive objectives).
double ApproxRatio(bool maximize, double approx, double exact);

/// Parse and compile `paql` against `schema` (the gates' reference query).
paql::Result<paql::translate::CompiledQuery> CompileFor(
    const std::string& paql, const paql::relation::Schema& schema);

/// Deliberate wrong answers, one per gate, so the benchmark's tests can
/// prove that every gate fires. Each fault triggers at most once per run.
class Faults {
 public:
  explicit Faults(std::string name) : name_(std::move(name)) {}
  /// True (once) when fault `name` is armed; the caller then corrupts the
  /// answer it is about to check.
  bool Fire(const char* name);

 private:
  std::string name_;
  bool fired_ = false;
};

/// Drop the first row of a package (the "drop_row" fault).
void DropFirstRow(paql::core::Package* package);

// ---------------------------------------------------------------------------
// Tracing.
// ---------------------------------------------------------------------------

/// One span: a named interval on the steady clock, its parent (index into
/// the same tracer, -1 for a root), the request it belongs to, and the
/// counters that were read at this boundary.
struct Span {
  std::string name;
  double start = 0;
  double end = 0;
  int parent = -1;
  uint64_t request = 0;
  std::vector<std::pair<std::string, double>> counters;
};

/// In-memory span recorder. One per thread; merge with Append at the end.
/// Disabled tracers record nothing and every call is a cheap no-op.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  bool enabled() const { return enabled_; }

  /// Record a finished span; returns its index (-1 when disabled).
  int Add(std::string name, int parent, uint64_t request, double start,
          double end);
  /// Attach a counter to span `id` (ignored for -1).
  void Count(int id, const char* key, double value);

  /// The spans the engine's own Execute accounting implies, under a root
  /// span that the caller timed around Session::Execute (or
  /// QueryScheduler::Execute): parse / resolve / compile / plan / evaluate
  /// from PhaseTimings, and model build / solve under evaluate from
  /// EvalStats, each with its counters. Returns the root's index.
  int AddExecute(const char* root_name, uint64_t request, double start,
                 double end, const paql::QueryResult* result,
                 const paql::engine::PhaseTimings* timings);

  void Append(const Tracer& other);
  const std::vector<Span>& spans() const { return spans_; }
  /// Seconds this tracer spent recording (its own overhead).
  double bookkeeping_seconds() const { return bookkeeping_; }

 private:
  bool enabled_;
  std::vector<Span> spans_;
  double bookkeeping_ = 0;
};

/// Every span nests inside its parent and has a valid parent index;
/// returns the first violation, or an empty string.
std::string CheckSpanTree(const std::vector<Span>& spans);

/// Share of the root spans' time that their children cover, over the calls
/// that returned engine timings (a failed call's single charged child is
/// an attribution rule, not a measurement, so it is left out).
double SpanCoverage(const std::vector<Span>& spans);

// ---------------------------------------------------------------------------
// Results.
// ---------------------------------------------------------------------------

/// Everything one workload run measured; main.cc turns it into metrics.
struct RunResult {
  std::vector<double> setup_seconds;    // one entry per repeated set-up
  double measured_seconds = 0;          // length of the measured window
  /// Seconds a single closed-loop client spent inside measured calls (0
  /// when the workload has concurrent clients). ops_per_s divides by it,
  /// so the benchmark's own checks between calls do not count.
  double busy_seconds = 0;
  int64_t ops = 0;                      // operations counted in ops_per_s
  std::vector<double> primary_ms;       // latencies, primary operation
  std::vector<double> aux_ms;           // latencies, secondary operation
  std::vector<double> ratios;           // approximation ratios
  /// Per-query ratios; core.approx_ratio_max is the worst query's median.
  std::map<std::string, std::vector<double>> ratios_by_query;
  std::map<Outcome, int64_t> outcomes;  // every attempted operation
  int64_t attempted = 0;
  int64_t answered = 0;                 // package, or verified infeasible
  int64_t failed = 0;                   // error / shed (not an answer)
  std::map<std::string, int64_t> failing_queries;  // name -> count
  /// Per-layer figures measured outside the span tree (cache, scheduler,
  /// set-up), already in the unit BENCHMARK.json gives them.
  std::map<std::string, double> layer;
  Tracer tracer{false};
  /// Provenance: row counts, cache sizes, workload parameters.
  std::vector<std::pair<std::string, std::string>> info;
  Gate gate;

  void Record(Outcome outcome, bool answered_ok, const std::string& name);
};

int RunPaperSolver(const Args& args, RunResult* out);
int RunScanDisk(const Args& args, RunResult* out);
int RunServeRw(const Args& args, RunResult* out);
int RunSelfTest();

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
