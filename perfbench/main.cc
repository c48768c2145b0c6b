// perfbench_bin: one run of one benchmark workload.
//
//   perfbench_bin --workload <paper_solver|scan_disk|serve_rw>
//                    [--seed N] [--seconds S] [--trace 0|1] [--smoke]
//                    [--inject <fault>] [--tmp-dir DIR] [--trace-out FILE]
//   perfbench_bin --self-test
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. --trace 0 reports the end-to-end
// metrics; --trace 1 re-runs the same inputs with spans recorded and
// reports the per-layer metrics. The line before it is a provenance
// record (seed, hardware, SIMD level, build type, input sizes, outcome
// counts, failing query names). perfbench/run.py builds this binary and
// is the command BENCHMARK.json names.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <thread>

#include "common/simd.h"
#include "common/str_util.h"
#include "harness.h"

namespace perfbench {
namespace {

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

struct MetricDef {
  const char* name;
  const char* unit;
};

// The end-to-end metrics, reported by every workload (BENCHMARK.json's
// end_to_end list; README.md maps each to what it measures per workload).
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
    {"answered_share", "share"},
    {"ops_per_s", "1/s"},
    {"latency_gm_ms", "ms"},
    {"aux_latency_gm_ms", "ms"},
    {"approx_ratio_median", "ratio"},
};

// The per-layer metrics (BENCHMARK.json's per_layer list). Layers are the
// src/ modules; "trace.*" describes the trace itself.
constexpr MetricDef kPerLayer[] = {
    {"trace.coverage", "share"},
    {"trace.failed_time_share", "share"},
    {"trace.overhead_share", "share"},
    {"trace.latency_gm_ms", "ms"},
    {"trace.spans", "count"},
    {"paql.parse_us", "us"},
    {"paql.self_ms", "ms/op"},
    {"translate.compile_us", "us"},
    {"translate.model_build_ms", "ms"},
    {"translate.self_ms", "ms/op"},
    {"engine.resolve_us", "us"},
    {"engine.plan_ms", "ms"},
    {"engine.cache_hit_rate", "share"},
    {"engine.cache_evictions", "count"},
    {"engine.self_ms", "ms/op"},
    {"partition.build_s", "s"},
    {"partition.groups", "count"},
    {"partition.dirty_groups_per_batch", "count/batch"},
    {"relation.blocks_scanned", "count/op"},
    {"relation.blocks_pruned", "count/op"},
    {"relation.block_cache_hit_rate", "share"},
    {"relation.block_cache_misses", "count/op"},
    {"relation.block_cache_evictions", "count/op"},
    {"relation.write_store_s", "s"},
    {"lp.pivots", "count/op"},
    {"lp.pivots_per_node", "count"},
    {"lp.warm_solves", "count/op"},
    {"lp.bound_flips", "count/op"},
    {"lp.presolve_fixed_vars", "count/op"},
    {"ilp.solve_ms", "ms"},
    {"ilp.solves", "count/op"},
    {"ilp.bnb_nodes", "count/op"},
    {"ilp.parallel_bnb_nodes", "count/op"},
    {"ilp.us_per_node", "us"},
    {"ilp.model_bytes_peak", "bytes"},
    {"ilp.self_ms", "ms/op"},
    {"core.sr_groups_refined", "count/op"},
    {"core.sr_backtracks", "count/op"},
    {"core.sr_hybrid_share", "share"},
    {"core.sr_warm_model_reuses", "count/op"},
    {"core.strategy_self_ms", "ms"},
    {"core.approx_ratio_max", "ratio"},
    {"core.self_ms", "ms/op"},
    {"service.server_us", "us"},
    {"service.protocol_us", "us"},
    {"service.gate_yields", "count"},
    {"service.shed", "count"},
    {"service.standing_repairs", "count/batch"},
    {"service.incremental_repair_share", "share"},
    {"service.self_ms", "ms/op"},
};

std::string Num(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

double PeakRssMb() {
  struct rusage usage;
  std::memset(&usage, 0, sizeof(usage));
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

/// The worst query's median approximation ratio.
double WorstQueryRatio(const RunResult& r) {
  double worst = 0;
  for (const auto& [name, ratios] : r.ratios_by_query) {
    worst = std::max(worst, Median(ratios));
  }
  return worst;
}

std::map<std::string, double> EndToEnd(const RunResult& r) {
  std::map<std::string, double> m;
  m["setup_s"] = Median(r.setup_seconds);
  m["peak_rss_mb"] = PeakRssMb();
  m["answered_share"] =
      r.attempted > 0 ? static_cast<double>(r.answered) / r.attempted : 0;
  const double seconds =
      r.busy_seconds > 0 ? r.busy_seconds : r.measured_seconds;
  m["ops_per_s"] = seconds > 0 ? static_cast<double>(r.ops) / seconds : 0;
  m["latency_gm_ms"] = GeometricMean(r.primary_ms);
  m["aux_latency_gm_ms"] = GeometricMean(r.aux_ms);
  m["approx_ratio_median"] = Median(r.ratios);
  return m;
}

std::map<std::string, double> PerLayer(const RunResult& r) {
  const std::vector<Span>& spans = r.tracer.spans();
  std::map<std::string, double> sum, peak, dur, self;
  std::vector<double> child_time(spans.size(), 0);
  for (const Span& s : spans) {
    if (s.parent >= 0) child_time[static_cast<size_t>(s.parent)] += s.end - s.start;
  }
  // roots: every traced request; timed_roots: the engine calls among them
  // that returned timings and statistics (counters are per such call).
  double roots = 0, root_time = 0, failed_time = 0, timed_roots = 0;
  std::vector<bool> failed_span(spans.size(), false);
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    const double d = s.end - s.start;
    dur[s.name] += d;
    const std::string layer = s.name.substr(0, s.name.find('.'));
    self[layer] += std::max(0.0, d - child_time[i]);
    bool failed = false;
    for (const auto& [key, value] : s.counters) {
      sum[key] += value;
      peak[key] = std::max(peak[key], value);
      failed = failed || key == "core.failed_call";
    }
    failed_span[i] = failed;
    if (s.parent < 0) {
      roots += 1;
      root_time += d;
    } else if (failed) {
      failed_time += d;
    }
    if (s.name == "paql.parse") timed_roots += 1;
  }
  auto per = [](double total, double n) { return n > 0 ? total / n : 0; };
  const double ops = timed_roots;
  const double sr = sum["core.sr_queries"];
  const double nodes = sum["ilp.bnb_nodes"];
  std::map<std::string, double> m;
  m["trace.coverage"] = SpanCoverage(spans);
  m["trace.failed_time_share"] = per(failed_time, root_time);
  m["trace.overhead_share"] =
      per(r.tracer.bookkeeping_seconds(), r.measured_seconds);
  m["trace.latency_gm_ms"] = GeometricMean(r.primary_ms);
  m["trace.spans"] = static_cast<double>(spans.size());
  m["paql.parse_us"] = per(dur["paql.parse"], timed_roots) * 1e6;
  m["translate.compile_us"] = per(dur["translate.compile"], timed_roots) * 1e6;
  m["translate.model_build_ms"] =
      per(dur["translate.model_build"], timed_roots) * 1e3;
  m["engine.resolve_us"] = per(dur["engine.resolve"], timed_roots) * 1e6;
  m["engine.plan_ms"] = per(dur["engine.plan"], timed_roots) * 1e3;
  m["engine.cache_hit_rate"] =
      per(sum["engine.cache_hits"],
          sum["engine.cache_hits"] + sum["engine.cache_misses"]);
  m["partition.groups"] = per(sum["partition.groups"], sr);
  m["relation.blocks_scanned"] = per(sum["relation.blocks_scanned"], ops);
  m["relation.blocks_pruned"] = per(sum["relation.blocks_pruned"], ops);
  m["lp.pivots"] = per(sum["lp.pivots"], ops);
  m["lp.pivots_per_node"] = per(sum["lp.pivots"], nodes);
  m["lp.warm_solves"] = per(sum["lp.warm_solves"], ops);
  m["lp.bound_flips"] = per(sum["lp.bound_flips"], ops);
  m["lp.presolve_fixed_vars"] = per(sum["lp.presolve_fixed_vars"], ops);
  m["ilp.solve_ms"] = per(dur["ilp.solve"], timed_roots) * 1e3;
  m["ilp.solves"] = per(sum["ilp.solves"], ops);
  m["ilp.bnb_nodes"] = per(nodes, ops);
  m["ilp.parallel_bnb_nodes"] = per(sum["ilp.parallel_bnb_nodes"], ops);
  m["ilp.us_per_node"] = per(dur["ilp.solve"], nodes) * 1e6;
  m["ilp.model_bytes_peak"] = peak["ilp.model_bytes_peak"];
  m["core.sr_groups_refined"] = per(sum["core.sr_groups_refined"], sr);
  m["core.sr_backtracks"] = per(sum["core.sr_backtracks"], sr);
  m["core.sr_hybrid_share"] = per(sum["core.sr_hybrid"], sr);
  m["core.sr_warm_model_reuses"] = per(sum["core.sr_warm_model_reuses"], sr);
  // Strategy self time over the calls that returned timings: evaluate
  // minus its model-build and solve children.
  double strategy_self = 0;
  for (size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].name == "core.evaluate" && !failed_span[i]) {
      strategy_self += (spans[i].end - spans[i].start) - child_time[i];
    }
  }
  m["core.strategy_self_ms"] = per(strategy_self, timed_roots) * 1e3;
  for (std::string layer :
       {"paql", "translate", "engine", "ilp", "core", "service"}) {
    m[layer + ".self_ms"] = per(self[layer], roots) * 1e3;
  }
  // Figures measured outside the span tree (caches, scheduler, set-up).
  m["core.approx_ratio_max"] = WorstQueryRatio(r);
  for (const auto& [key, value] : r.layer) m[key] = value;
  return m;
}

}  // namespace
}  // namespace perfbench

namespace perfbench {
namespace {

void PrintProvenance(const Args& args, const RunResult& r) {
  std::ostringstream os;
  os << "{\"provenance\": {";
  os << "\"workload\": " << Quote(args.workload);
  os << ", \"seed\": " << args.seed;
  os << ", \"seconds\": " << Num(args.seconds);
  os << ", \"trace\": " << (args.trace ? 1 : 0);
  os << ", \"smoke\": " << (args.smoke ? "true" : "false");
  os << ", \"nproc\": " << std::thread::hardware_concurrency();
  os << ", \"simd\": "
     << Quote(paql::simd::LevelName(paql::simd::ActiveLevel()));
  os << ", \"build_type\": " << Quote(PERFBENCH_BUILD_TYPE);
  for (const auto& [key, value] : r.info) {
    os << ", " << Quote(key) << ": " << Quote(value);
  }
  const Tail pt = HighestTail(r.primary_ms);
  const Tail at = HighestTail(r.aux_ms);
  os << ", \"p90_ms\": " << Num(Percentile(r.primary_ms, 90));
  os << ", \"aux_p90_ms\": " << Num(Percentile(r.aux_ms, 90));
  os << ", \"highest_tail\": {\"percentile\": " << Num(pt.percentile)
     << ", \"value_ms\": " << Num(pt.value) << ", \"beyond\": " << pt.beyond
     << ", \"samples\": " << pt.samples << "}";
  os << ", \"aux_highest_tail\": {\"percentile\": " << Num(at.percentile)
     << ", \"value_ms\": " << Num(at.value) << ", \"beyond\": " << at.beyond
     << ", \"samples\": " << at.samples << "}";
  os << ", \"p50_ms\": " << Num(Median(r.primary_ms));
  os << ", \"aux_p50_ms\": " << Num(Median(r.aux_ms));
  os << ", \"approx_ratio_max\": " << Num(WorstQueryRatio(r));
  os << ", \"setup_runs_s\": [";
  for (size_t i = 0; i < r.setup_seconds.size(); ++i) {
    os << (i ? ", " : "") << Num(r.setup_seconds[i]);
  }
  os << "], \"outcomes\": {";
  bool first = true;
  for (const auto& [outcome, count] : r.outcomes) {
    os << (first ? "" : ", ") << Quote(OutcomeName(outcome)) << ": " << count;
    first = false;
  }
  os << "}, \"failing_queries\": {";
  first = true;
  for (const auto& [name, count] : r.failing_queries) {
    os << (first ? "" : ", ") << Quote(name) << ": " << count;
    first = false;
  }
  os << "}, \"ratio_by_query\": {";
  first = true;
  for (const auto& [name, ratios] : r.ratios_by_query) {
    os << (first ? "" : ", ") << Quote(name) << ": " << Num(Median(ratios));
    first = false;
  }
  os << "}, \"gate_violations\": [";
  for (size_t i = 0; i < r.gate.violations().size(); ++i) {
    os << (i ? ", " : "") << Quote(r.gate.violations()[i]);
  }
  os << "]}}";
  std::cout << os.str() << "\n";
}

void WriteSpans(const std::string& path, const std::vector<Span>& spans) {
  std::ofstream out(path);
  if (!out) {
    std::cerr << "perfbench: cannot write " << path << "\n";
    return;
  }
  // The first requests' trees in full; the run's aggregate is in the
  // metrics. 4000 spans keep the file small at any run length.
  const size_t n = std::min<size_t>(spans.size(), 4000);
  out << "[\n";
  for (size_t i = 0; i < n; ++i) {
    const Span& s = spans[i];
    out << "{\"id\": " << i << ", \"name\": " << Quote(s.name)
        << ", \"parent\": " << s.parent << ", \"request\": " << s.request
        << ", \"start_s\": " << Num(s.start) << ", \"end_s\": " << Num(s.end)
        << ", \"counters\": {";
    for (size_t k = 0; k < s.counters.size(); ++k) {
      out << (k ? ", " : "") << Quote(s.counters[k].first) << ": "
          << Num(s.counters[k].second);
    }
    out << "}}" << (i + 1 < n ? "," : "") << "\n";
  }
  out << "]\n";
}

void PrintResult(const Args& args, const RunResult& r) {
  const auto values = args.trace ? PerLayer(r) : EndToEnd(r);
  std::ostringstream os;
  os << "{\"correct\": " << (r.gate.ok() ? "true" : "false")
     << ", \"attempted\": " << std::max<int64_t>(r.attempted, 1)
     << ", \"failed\": " << r.failed << ", \"metrics\": {";
  bool first = true;
  auto emit = [&](const MetricDef& def) {
    auto it = values.find(def.name);
    const double v = it == values.end() ? 0 : it->second;
    os << (first ? "" : ", ") << Quote(def.name) << ": {\"value\": " << Num(v)
       << ", \"unit\": " << Quote(def.unit) << "}";
    first = false;
  };
  if (args.trace) {
    for (const MetricDef& def : kPerLayer) emit(def);
  } else {
    for (const MetricDef& def : kEndToEnd) emit(def);
  }
  os << "}}";
  std::cout << os.str() << std::endl;
}

int Usage(const char* message) {
  std::cerr << "perfbench_bin: " << message << "\n"
            << "usage: perfbench_bin --workload "
               "<paper_solver|scan_disk|serve_rw> [--seed N] [--seconds S] "
               "[--trace 0|1] [--smoke] [--inject FAULT] [--tmp-dir DIR] "
               "[--trace-out FILE]\n"
               "       perfbench_bin --self-test\n";
  return 2;
}

int Main(int argc, char** argv) {
  Args args;
  bool self_test = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* v = nullptr;
    if (arg == "--self-test") {
      self_test = true;
    } else if (arg == "--smoke") {
      args.smoke = true;
    } else if (arg == "--workload" && (v = value())) {
      args.workload = v;
    } else if (arg == "--seed" && (v = value())) {
      args.seed = std::strtoull(v, nullptr, 10);
    } else if (arg == "--seconds" && (v = value())) {
      args.seconds = std::atof(v);
    } else if (arg == "--trace" && (v = value())) {
      args.trace = std::string(v) == "1";
    } else if (arg == "--inject" && (v = value())) {
      args.inject = v;
    } else if (arg == "--tmp-dir" && (v = value())) {
      args.tmp_dir = v;
    } else if (arg == "--trace-out" && (v = value())) {
      args.trace_out = v;
    } else {
      return Usage(("bad argument: " + arg).c_str());
    }
  }
  // Timings from an unoptimized build measure the compiler, not the
  // engine: refuse to report them.
  const bool release = std::string(PERFBENCH_BUILD_TYPE) == "Release";
#ifndef NDEBUG
  const bool asserts_off = false;
#else
  const bool asserts_off = true;
#endif
  if (!release || !asserts_off) {
    std::cerr << "perfbench_bin: built as '" << PERFBENCH_BUILD_TYPE
              << "'; numbers are only reported from a Release build\n";
    return 2;
  }
  if (self_test) return RunSelfTest();
  if (args.seconds <= 0) return Usage("--seconds must be positive");

  RunResult result;
  result.tracer = Tracer(args.trace);
  int rc;
  if (args.workload == "paper_solver") {
    rc = RunPaperSolver(args, &result);
  } else if (args.workload == "scan_disk") {
    rc = RunScanDisk(args, &result);
  } else if (args.workload == "serve_rw") {
    rc = RunServeRw(args, &result);
  } else {
    return Usage("unknown --workload");
  }
  if (rc != 0) return rc;
  if (args.trace) {
    const std::string bad = CheckSpanTree(result.tracer.spans());
    if (!bad.empty()) result.gate.Fail("span tree: " + bad);
    if (!args.trace_out.empty()) {
      WriteSpans(args.trace_out, result.tracer.spans());
    }
  }
  PrintProvenance(args, result);
  PrintResult(args, result);
  for (const std::string& v : result.gate.violations()) {
    std::cerr << "perfbench: correctness gate: " << v << "\n";
  }
  return result.gate.ok() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
