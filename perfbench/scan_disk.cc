// Workload scan_disk: selective package queries over an out-of-core table
// that is larger than the engine's block cache; one client, closed loop.
//
// Inputs: a 1M-row Galaxy table (the fig5 dataset seed) quantized to
// catalog precision, written as a PQB1 block store and opened with
// Engine::OpenDisk, whose block cache holds a quarter of the raw column
// bytes (the scan_oocore budget). Set-up writes the store, opens it and
// builds the planner's offline partitioning (default policy: all numeric
// columns, tau = 10%). The --seed argument drives a non-repeating query
// stream: 80% predicates on a random non-clustered attribute (a 3%
// quantile slice no zone map can prune), 20% objid windows that zone maps
// can prune. Package constraints and objectives rotate over the numeric
// columns, so the decoded working set exceeds the cache. The planner
// chooses the strategy. Every eighth query is re-solved with DIRECT on the
// in-memory copy (untimed) for the approximation ratio.
//
// Primary latency: non-clustered queries; aux latency: objid windows.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <optional>

#include "common/rng.h"
#include "common/str_util.h"
#include "harness.h"
#include "relation/block_cache.h"
#include "relation/block_store.h"
#include "workload/galaxy.h"

namespace perfbench {
namespace {

using paql::Engine;
using paql::EngineOptions;
using paql::QueryResult;
using paql::Session;
using paql::StrCat;
namespace engine = paql::engine;
namespace relation = paql::relation;
namespace workload = paql::workload;

constexpr uint64_t kGalaxyDataSeed = 20161;
constexpr double kSliceWidth = 0.03;  // quantile width of a predicate slice
// One query in this many is re-solved with DIRECT (untimed) for the
// approximation ratio; each re-solve costs about seven timed queries.
constexpr int64_t kReferenceEvery = 8;

std::string Lit(double v) { return paql::FormatDouble(v, 17); }

/// MakeGalaxyTable rounded to 4 decimal digits, so the block store's
/// decimal encoding round-trips bit-exactly (as in scan_oocore).
relation::Table QuantizedGalaxy(size_t rows) {
  relation::Table source = workload::MakeGalaxyTable(rows, kGalaxyDataSeed);
  relation::Table out{source.schema()};
  out.Reserve(rows);
  std::vector<relation::Value> row(source.num_columns());
  for (relation::RowId r = 0; r < rows; ++r) {
    for (size_t c = 0; c < source.num_columns(); ++c) {
      if (source.schema().column(c).type == relation::DataType::kInt64) {
        row[c] = relation::Value(source.GetInt64(r, c));
      } else {
        row[c] = relation::Value(
            static_cast<double>(std::llround(source.GetDouble(r, c) * 1e4)) /
            1e4);
      }
    }
    out.AppendRowUnchecked(row);
  }
  return out;
}

/// A strided row sample of the table, used only to synthesize predicate
/// slices and feasible bounds (the engine never sees it).
struct Sample {
  std::vector<std::string> attrs;
  std::vector<relation::RowId> rows;
  std::vector<std::vector<double>> values;  // [attr][sample row]
  std::vector<std::vector<double>> sorted;  // [attr] ascending

  Sample(const relation::Table& table, size_t n) {
    attrs = workload::GalaxyNumericAttributes();
    const size_t stride = std::max<size_t>(1, table.num_rows() / n);
    for (relation::RowId r = 0; r < table.num_rows(); r += stride) {
      rows.push_back(r);
    }
    for (const auto& attr : attrs) {
      const size_t col = *table.schema().FindColumn(attr);
      std::vector<double> v;
      v.reserve(rows.size());
      for (relation::RowId r : rows) v.push_back(table.GetDouble(r, col));
      values.push_back(v);
      std::sort(v.begin(), v.end());
      sorted.push_back(std::move(v));
    }
  }
  size_t Index(const std::string& attr) const {
    return static_cast<size_t>(std::find(attrs.begin(), attrs.end(), attr) -
                               attrs.begin());
  }
  double Quantile(size_t a, double q) const {
    const auto& v = sorted[a];
    const size_t i = std::min(v.size() - 1, static_cast<size_t>(q * v.size()));
    return v[i];
  }
};

struct StreamQuery {
  bool window = false;  // objid window (prunable) vs non-clustered slice
  std::string paql;
};

/// One query of the stream. The cap on SUM(b) is set from the sample rows
/// that pass the same predicate, so every statement is feasible.
StreamQuery NextQuery(paql::Rng& rng, const Sample& sample,
                      const relation::Table& table) {
  // petroFlux_r is heavy-tailed: a cap on its sum makes subset-sum
  // searches that exhaust the solver budget, so it is only an objective.
  static const char* kConstrained[] = {"u", "g", "r", "i", "z",
                                       "petroRad_r", "petroR50_r",
                                       "expMag_r", "deVMag_r", "redshift"};
  static const char* kObjective[] = {"u", "g", "r", "i", "z", "petroRad_r",
                                     "petroR50_r", "petroFlux_r", "expMag_r",
                                     "deVMag_r"};
  StreamQuery q;
  q.window = rng.Bernoulli(0.2);
  std::string where, predicate_attr;
  std::vector<bool> pass(sample.rows.size(), false);
  if (q.window) {
    const int64_t rows = static_cast<int64_t>(table.num_rows());
    const int64_t width = std::min<int64_t>(
        rows, rng.UniformInt(2, 6) * static_cast<int64_t>(relation::kBlockRows));
    const int64_t offset = rng.UniformInt(0, rows - width);
    const int64_t first = table.GetInt64(0, 0);
    const int64_t lo = first + offset, hi = lo + width - 1;
    where = StrCat("G.objid BETWEEN ", lo, " AND ", hi);
    for (size_t i = 0; i < sample.rows.size(); ++i) {
      const int64_t id = table.GetInt64(sample.rows[i], 0);
      pass[i] = id >= lo && id <= hi;
    }
  } else {
    const size_t a = static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(sample.attrs.size()) - 1));
    const double qlo = rng.Uniform(0.02, 0.98 - kSliceWidth);
    const double lo = sample.Quantile(a, qlo);
    const double hi = sample.Quantile(a, qlo + kSliceWidth);
    predicate_attr = sample.attrs[a];
    where = StrCat("G.", predicate_attr, " BETWEEN ", Lit(lo), " AND ",
                   Lit(hi));
    for (size_t i = 0; i < sample.rows.size(); ++i) {
      pass[i] = sample.values[a][i] >= lo && sample.values[a][i] <= hi;
    }
  }
  const int64_t k = rng.UniformInt(5, 15);
  // A cap on the predicate's own column would leave a slice of nearly
  // equal values under a tight sum: a subset-sum search that exhausts the
  // solver budget. The constraint takes another column.
  std::string b = kConstrained[rng.UniformInt(0, 9)];
  if (b == predicate_attr) b = b == "u" ? "g" : "u";
  std::string c = kObjective[rng.UniformInt(0, 9)];
  if (c == b) c = b == "g" ? "r" : "g";
  const size_t bi = sample.Index(b);
  double sum = 0, n = 0;
  for (size_t i = 0; i < pass.size(); ++i) {
    if (pass[i]) {
      sum += sample.values[bi][i];
      n += 1;
    }
  }
  const double mean_b = n > 0 ? sum / n : sample.Quantile(bi, 0.5);
  const double cap = static_cast<double>(k) * mean_b * rng.Uniform(1.1, 1.5);
  q.paql = StrCat("SELECT PACKAGE(G) AS P FROM galaxy G REPEAT 0 WHERE ",
                  where, " SUCH THAT COUNT(P.*) = ", k, " AND SUM(P.", b,
                  ") <= ", Lit(cap), " MINIMIZE SUM(P.", c, ")");
  return q;
}

EngineOptions Options(size_t cache_bytes) {
  EngineOptions options;
  options.block_cache_bytes = cache_bytes;
  options.exec.limits.memory_budget_bytes = 32ull << 20;
  options.exec.limits.time_limit_s = 5;
  return options;
}

}  // namespace

int RunScanDisk(const Args& args, RunResult* out) {
  const size_t rows = args.smoke ? 50000 : 1'000'000;
  Faults faults(args.inject);
  auto mem = std::make_shared<const relation::Table>(QuantizedGalaxy(rows));
  const size_t raw_bytes = rows * mem->num_columns() * sizeof(double);
  // scan_oocore's budget: a quarter of the raw column bytes, at least
  // 8 MiB (smaller caches make the partition build over the disk table
  // thrash for minutes even at smoke size).
  const size_t cache_bytes = std::max<size_t>(raw_bytes / 4, size_t{8} << 20);
  const Sample sample(*mem, 20000);
  const std::string path = args.tmp_dir + "/galaxy.pqb";
  const std::string plan_query = StrCat(
      "SELECT PACKAGE(G) AS P FROM galaxy G REPEAT 0 SUCH THAT COUNT(P.*) = "
      "10 AND SUM(P.petroRad_r) <= ",
      Lit(10 * sample.Quantile(sample.Index("petroRad_r"), 0.5) * 1.5),
      " MINIMIZE SUM(P.g)");

  // Set up three times (write, open, partition); the last one is measured.
  std::optional<Session> disk;
  std::vector<double> write_s, partition_s;
  size_t groups = 0;
  for (int i = 0; i < 3; ++i) {
    disk.reset();
    const double t0 = Now();
    paql::Status written = relation::WriteBlockStore(*mem, path);
    PAQL_CHECK_MSG(written.ok(), written);
    const double t1 = Now();
    auto opened = Engine::OpenDisk(path, Options(cache_bytes));
    PAQL_CHECK_MSG(opened.ok(), opened.status());
    disk.emplace(std::move(*opened));
    const double t2 = Now();
    auto plan = disk->PlanQuery(plan_query);
    PAQL_CHECK_MSG(plan.ok(), plan.status());
    const double t3 = Now();
    groups = plan->partition_groups;
    out->setup_seconds.push_back(t3 - t0);
    write_s.push_back(t1 - t0);
    partition_s.push_back(t3 - t2);
  }
  out->layer["relation.write_store_s"] = Median(write_s);
  out->layer["partition.build_s"] = Median(partition_s);

  EngineOptions direct_options = Options(cache_bytes);
  direct_options.planner.force = engine::Strategy::kDirect;
  auto reference = Engine::Open(mem, "galaxy", direct_options);
  PAQL_CHECK_MSG(reference.ok(), reference.status());
  const double gap_tol = reference->options().exec.branch_and_bound.gap_tol;

  auto table = disk->GetTable("galaxy");
  PAQL_CHECK_MSG(table.ok(), table.status());
  out->info.emplace_back("rows", std::to_string(rows));
  out->info.emplace_back("decoded_bytes", std::to_string(raw_bytes));
  out->info.emplace_back("block_cache_bytes", std::to_string(cache_bytes));
  out->info.emplace_back("partition_groups", std::to_string(groups));
  out->info.emplace_back("loop", "closed, 1 client");

  paql::Rng rng(args.seed * 0x9E3779B97F4A7C15ull + 29);
  const relation::BlockCacheStats cache0 = disk->block_cache()->stats();
  const double start = Now();
  uint64_t request = 0;
  int64_t references = 0;
  while (Now() - start < args.seconds) {
    const StreamQuery q = NextQuery(rng, sample, *mem);
    const std::string kind = q.window ? "window" : "scan";
    const double t0 = Now();
    auto result = disk->Execute(q.paql);
    const double t1 = Now();
    (q.window ? out->aux_ms : out->primary_ms).push_back((t1 - t0) * 1e3);
    ++out->ops;
    out->busy_seconds += t1 - t0;
    if (out->tracer.enabled()) {
      out->tracer.AddExecute("engine.execute", ++request, t0, t1,
                             result.ok() ? &*result : nullptr,
                             result.ok() ? &result->timings : nullptr);
    }
    const Outcome outcome = Classify(result.status());
    out->Record(outcome, outcome == Outcome::kOk, kind);
    if (outcome == Outcome::kError) {
      out->gate.Fail(StrCat(kind, ": ", result.status().ToString()));
    }
    if (!result.ok()) {
      std::fprintf(stderr, "perfbench: %s query not answered after %.0f ms: %s\n  %s\n",
                   kind.c_str(), (t1 - t0) * 1e3,
                   result.status().ToString().c_str(), q.paql.c_str());
      continue;
    }

    // Gates, off the clock. Row ids are shared with the in-memory copy,
    // which keeps validation from disturbing the block cache.
    auto compiled = CompileFor(q.paql, mem->schema());
    PAQL_CHECK_MSG(compiled.ok(), compiled.status());
    paql::core::Package package = result->package;
    if (faults.Fire("drop_row")) DropFirstRow(&package);
    CheckPackage(kind, *compiled, *mem, package, &out->gate);
    if (out->ops % kReferenceEvery != 1) continue;
    auto exact = reference->Execute(q.paql);
    ++references;
    if (!exact.ok()) continue;
    double objective = result->objective;
    if (faults.Fire("sr_better")) {
      objective = exact->objective +
                  (compiled->maximize() ? 1 : -1) *
                      0.01 * std::max(1.0, std::fabs(exact->objective));
    }
    CheckNotBetterThanOptimum(kind, compiled->maximize(), objective,
                              exact->objective, gap_tol, &out->gate);
    const double ratio =
        ApproxRatio(compiled->maximize(), objective, exact->objective);
    if (ratio > 0) {
      out->ratios.push_back(ratio);
      out->ratios_by_query[kind].push_back(ratio);
    }
  }
  out->measured_seconds = Now() - start;

  const relation::BlockCacheStats cache1 = disk->block_cache()->stats();
  const double hits = static_cast<double>(cache1.hits - cache0.hits);
  const double misses = static_cast<double>(cache1.misses - cache0.misses);
  const double ops = static_cast<double>(std::max<int64_t>(out->ops, 1));
  out->layer["relation.block_cache_hit_rate"] =
      hits + misses > 0 ? hits / (hits + misses) : 0;
  out->layer["relation.block_cache_misses"] = misses / ops;
  out->layer["relation.block_cache_evictions"] =
      static_cast<double>(cache1.evictions - cache0.evictions) / ops;
  out->layer["engine.cache_evictions"] =
      static_cast<double>(disk->query_cache()->stats().evictions);
  out->info.emplace_back("direct_references", std::to_string(references));
  disk.reset();
  std::remove(path.c_str());
  return 0;
}

}  // namespace perfbench
