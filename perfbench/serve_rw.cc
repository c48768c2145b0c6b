// Workload serve_rw: an in-process service::Server on loopback with the
// write-ahead log on, under three closed-loop readers and one open-loop
// writer.
//
// Inputs: three catalog tables. Readers query "stars" (2k rows; the
// planner answers it with DIRECT) and "galaxy" (24k rows, above the
// planner's 20k-row threshold, so SKETCHREFINE); they send RUN over a
// skewed mix: 75% from a hot pool of 12 statements (Zipf-ranked; one of
// them infeasible by construction), 25% fresh statements that never
// repeat. The writer sends INSERT and DELETE batches at a fixed rate to
// "feed" (24k Galaxy-shaped rows under three WATCHed standing queries, so
// every batch is absorbed into the cached partitioning and repaired
// incrementally); each batch is timed from when it was due, and the
// generator's lateness is reported. All tables share the server's
// statement cache, scheduler and catalog.
//
// Readers do not query the table being written: a RUN that plans
// SKETCHREFINE on a table under concurrent INSERTs crashes the server
// (SIGSEGV in SketchRefineEvaluator, core/sketch_refine.cc, indexing the
// partitioning's gid past its end). Route the readers' galaxy statements
// to "feed" to reproduce it.
//
// The engine runs with its defaults except the solver budget and one
// intra-query thread, which keeps every response byte-comparable to a
// serial run (as in serve_throughput).
//
// Primary latency: reads; aux latency: writes; ops: reads.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <thread>

#include "common/rng.h"
#include "common/str_util.h"
#include "harness.h"
#include "service/catalog.h"
#include "service/server.h"
#include "workload/galaxy.h"
#include "workload/queries.h"

namespace perfbench {
namespace {

using paql::EngineOptions;
using paql::QueryResult;
using paql::Result;
using paql::StrCat;
namespace engine = paql::engine;
namespace relation = paql::relation;
namespace service = paql::service;
namespace workload = paql::workload;

constexpr int kReaders = 3;
// Each reader pauses this long between reads (closed loop with think
// time). Without it three readers keep an interactive query in flight at
// all times, and every standing-query repair waits out whole
// PriorityGate slices, which makes write latency a coin toss.
constexpr std::chrono::microseconds kThinkTime{2000};
constexpr double kWriteRate = 10;  // batches per second, open loop
constexpr int kRowsPerBatch = 4;
constexpr double kHotShare = 0.75;
constexpr size_t kReplayReads = 300;  // traced run: in-process replay
constexpr int64_t kFreshChecked = 8;  // 1 in 8 fresh reads re-run serially

std::string Lit(double v) { return paql::FormatDouble(v, 17); }

/// A blocking line-protocol client.
class LineClient {
 public:
  LineClient() = default;
  LineClient(const LineClient&) = delete;
  LineClient& operator=(const LineClient&) = delete;
  ~LineClient() {
    if (fd_ >= 0) ::close(fd_);
  }

  bool Connect(uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) return false;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    return ::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) ==
           0;
  }

  bool Send(const std::string& line) {
    const std::string data = line + "\n";
    size_t sent = 0;
    while (sent < data.size()) {
      const ssize_t n = ::send(fd_, data.data() + sent, data.size() - sent, 0);
      if (n <= 0) return false;
      sent += static_cast<size_t>(n);
    }
    return true;
  }

  bool ReadLine(std::string* line) {
    size_t newline;
    while ((newline = buffer_.find('\n')) == std::string::npos) {
      char chunk[4096];
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n <= 0) return false;
      buffer_.append(chunk, static_cast<size_t>(n));
    }
    *line = buffer_.substr(0, newline);
    buffer_.erase(0, newline + 1);
    return true;
  }

  /// One request: the first response line in `payload`; for responses
  /// that carry a trailing "OK <micros>" line (PKG, UPD, WATCH) the
  /// server's own time goes to `server_us` (else -1).
  bool RoundTrip(const std::string& request, std::string* payload,
                 double* server_us) {
    *server_us = -1;
    if (!Send(request) || !ReadLine(payload)) return false;
    if (payload->rfind("ERR", 0) == 0) return true;
    std::string line;
    while (ReadLine(&line)) {
      if (line.rfind("OK ", 0) == 0) {
        *server_us = std::atof(line.c_str() + 3);
        return true;
      }
    }
    return false;
  }

 private:
  int fd_ = -1;
  std::string buffer_;
};

/// The protocol's payload for an in-process result (serve_throughput's
/// CanonicalPayload: the first response line).
std::string CanonicalPayload(const Result<QueryResult>& result) {
  const std::string lines =
      result.ok() ? service::FormatResultLines(*result, 0)
                  : service::FormatErrorLine(result.status());
  return lines.substr(0, lines.find('\n'));
}

/// The outcome class of one response line.
Outcome PayloadOutcome(const std::string& payload) {
  if (payload.rfind("PKG", 0) == 0) return Outcome::kOk;
  const std::string code = payload.substr(4, payload.find(' ', 4) - 4);
  return code == "INFEASIBLE"   ? Outcome::kInfeasible
         : code == "BUDGET"     ? Outcome::kBudget
         : code == "OVERLOADED" ? Outcome::kShed
                                : Outcome::kError;
}

/// Parse "PKG <count> <objective> <id:mult>..." into a package.
bool ParsePackage(const std::string& line, paql::core::Package* package) {
  std::istringstream in(line);
  std::string tag;
  size_t count = 0;
  double objective = 0;
  if (!(in >> tag >> count >> objective) || tag != "PKG") return false;
  std::string pair;
  while (in >> pair) {
    const size_t colon = pair.find(':');
    if (colon == std::string::npos) return false;
    package->rows.push_back(
        static_cast<relation::RowId>(std::strtoull(pair.c_str(), nullptr, 10)));
    package->multiplicity.push_back(std::atoll(pair.c_str() + colon + 1));
  }
  return package->rows.size() == count;
}

/// Statement synthesis over one table's column means.
class Statements {
 public:
  Statements(const relation::Table& stars, const relation::Table& galaxy) {
    for (const char* attr : kAttrs) {
      stars_mean_[attr] = *workload::ColumnMeanNonNull(stars, attr);
      galaxy_mean_[attr] = *workload::ColumnMeanNonNull(galaxy, attr);
    }
  }

  /// A feasible package query on "stars" (DIRECT) or "galaxy" (SR).
  std::string Make(paql::Rng& rng, bool galaxy) const {
    const int64_t k = galaxy ? rng.UniformInt(5, 10) : rng.UniformInt(2, 6);
    std::string b = kAttrs[rng.UniformInt(0, kNumAttrs - 1)];
    std::string c = kAttrs[rng.UniformInt(0, kNumAttrs - 1)];
    if (b == c) c = b == "g" ? "r" : "g";
    return Make(rng, galaxy, k, b, c);
  }

  /// COUNT(P.*) = k AND SUM(P.b) <= cap MINIMIZE SUM(P.c), with the cap
  /// between 1.1 and 1.5 times k rows of average b.
  std::string Make(paql::Rng& rng, bool galaxy, int64_t k,
                   const std::string& b, const std::string& c) const {
    const auto& mean = galaxy ? galaxy_mean_ : stars_mean_;
    const double cap = k * mean.at(b) * rng.Uniform(1.1, 1.5);
    const char* t = galaxy ? "galaxy G" : "stars S";
    const char* a = galaxy ? "G" : "S";
    return StrCat("SELECT PACKAGE(", a, ") AS P FROM ", t,
                  " REPEAT 0 SUCH THAT COUNT(P.*) = ", k, " AND SUM(P.", b,
                  ") <= ", Lit(cap), " MINIMIZE SUM(P.", c, ")");
  }

  /// The deliberately infeasible statement (redshift is non-negative).
  static std::string Infeasible() {
    return "SELECT PACKAGE(S) AS P FROM stars S REPEAT 0 SUCH THAT "
           "COUNT(P.*) = 2 AND SUM(P.redshift) <= -1.0 MINIMIZE SUM(P.r)";
  }

 private:
  static constexpr int kNumAttrs = 8;
  static constexpr const char* kAttrs[kNumAttrs] = {
      "u", "g", "r", "i", "z", "petroRad_r", "expMag_r", "deVMag_r"};
  std::map<std::string, double> stars_mean_, galaxy_mean_;
};

/// One read of a reader's stream.
struct Read {
  std::string text;
  bool galaxy = false;
  bool hot = false;
};

class ReadStream {
 public:
  ReadStream(uint64_t seed, const Statements& statements,
             const std::vector<Read>* hot)
      : rng_(seed), statements_(statements), hot_(hot) {}
  Read Next() {
    if (rng_.Bernoulli(kHotShare)) {
      return (*hot_)[static_cast<size_t>(
                         rng_.Zipf(static_cast<int64_t>(hot_->size()), 1.0)) -
                     1];
    }
    Read r;
    r.galaxy = rng_.Bernoulli(0.5);
    r.text = statements_.Make(rng_, r.galaxy);
    return r;
  }

 private:
  paql::Rng rng_;
  const Statements& statements_;
  const std::vector<Read>* hot_;
};

/// Everything one set-up creates; destroyed server first.
struct Fixture {
  Fixture() = default;
  Fixture(const Fixture&) = delete;
  Fixture& operator=(const Fixture&) = delete;

  std::unique_ptr<service::Catalog> catalog;
  std::unique_ptr<service::Server> server;
  std::string wal_dir;
  std::vector<uint64_t> watch_ids;
  std::vector<std::string> watch_text;

  ~Fixture() {
    if (server) server->Stop();
    server.reset();
    catalog.reset();
    if (!wal_dir.empty()) {
      std::error_code ec;
      std::filesystem::remove_all(wal_dir, ec);
    }
  }
};

service::ServerOptions ServerOptionsFor(const std::string& wal_dir) {
  service::ServerOptions options;
  EngineOptions& eo = options.scheduler.engine;
  eo.exec.limits.memory_budget_bytes = 32ull << 20;
  eo.exec.limits.time_limit_s = 2;
  eo.exec.threads = 1;  // byte-comparable answers (see file comment)
  options.wal_dir = wal_dir;
  options.wal_sync = relation::WalSync::kBatch;
  return options;
}

std::unique_ptr<Fixture> SetUp(const relation::Table& stars,
                               const relation::Table& galaxy,
                               const relation::Table& feed,
                               const std::vector<std::string>& watches,
                               const std::string& wal_dir) {
  auto f = std::make_unique<Fixture>();
  std::error_code ec;
  std::filesystem::remove_all(wal_dir, ec);
  std::filesystem::create_directories(wal_dir);
  f->wal_dir = wal_dir;
  f->catalog = std::make_unique<service::Catalog>();
  PAQL_CHECK(f->catalog->AddTable("stars", stars).ok());
  PAQL_CHECK(f->catalog->AddTable("galaxy", galaxy).ok());
  PAQL_CHECK(f->catalog->AddTable("feed", feed).ok());
  f->server = std::make_unique<service::Server>(*f->catalog,
                                                ServerOptionsFor(wal_dir));
  paql::Status started = f->server->Start();
  PAQL_CHECK_MSG(started.ok(), started);
  LineClient client;
  PAQL_CHECK(client.Connect(f->server->port()));
  for (const std::string& text : watches) {
    std::string payload;
    double server_us;
    PAQL_CHECK(client.RoundTrip("WATCH " + text, &payload, &server_us));
    PAQL_CHECK_MSG(payload.rfind("WATCH ", 0) == 0, payload);
    f->watch_ids.push_back(std::strtoull(payload.c_str() + 6, nullptr, 10));
    f->watch_text.push_back(text);
  }
  client.Send("QUIT");
  return f;
}

}  // namespace

int RunServeRw(const Args& args, RunResult* out) {
  const size_t galaxy_rows = args.smoke ? 2500 : 24000;
  const size_t stars_rows = args.smoke ? 300 : 2000;
  Faults faults(args.inject);

  // Inputs (the engine sees them only through the catalog and protocol).
  const relation::Table stars = workload::MakeGalaxyTable(stars_rows, 977);
  const relation::Table galaxy = workload::MakeGalaxyTable(galaxy_rows, 20161);
  const relation::Table feed = workload::MakeGalaxyTable(galaxy_rows, 5113);
  const Statements statements(stars, galaxy);
  paql::Rng gen(args.seed * 0x9E3779B97F4A7C15ull + 41);
  // The hot pool: fixed shapes by popularity rank (so the read mix costs
  // the same from seed to seed), bounds drawn from the seed.
  std::vector<Read> hot;
  for (const char* shape :
       {"s|3|r|g", "g|6|petroRad_r|g", "s|2|u|i", "g|8|r|u", "infeasible",
        "g|5|expMag_r|i", "s|4|petroRad_r|z", "g|10|g|z", "s|5|g|expMag_r",
        "g|7|u|deVMag_r", "s|3|deVMag_r|r", "g|9|i|r"}) {
    Read r;
    r.hot = true;
    if (std::string(shape) == "infeasible") {
      r.text = Statements::Infeasible();
    } else {
      const auto parts = paql::Split(shape, '|');
      r.galaxy = parts[0] == "g";
      r.text = statements.Make(gen, r.galaxy, std::atoi(parts[1].c_str()),
                               parts[2], parts[3]);
    }
    hot.push_back(r);
  }
  // Standing queries: fixed shapes (their repair cost sets the write
  // latency), bounds drawn from the seed.
  std::vector<std::string> watches;
  for (const char* shape : {"8|petroRad_r|g", "6|r|petroR50_r", "10|expMag_r|u"}) {
    const auto parts = paql::Split(shape, '|');
    const int k = std::atoi(parts[0].c_str());
    const double cap = k * *workload::ColumnMeanNonNull(feed, parts[1]) *
                       gen.Uniform(1.8, 2.2);
    watches.push_back(StrCat("SELECT PACKAGE(G) AS P FROM feed G REPEAT 0 ",
                             "SUCH THAT COUNT(P.*) = ", k, " AND SUM(P.",
                             parts[1], ") <= ", Lit(cap), " MINIMIZE SUM(P.",
                             parts[2], ")"));
  }
  // Rows the writer inserts: fresh Galaxy rows from another seed.
  const relation::Table insert_pool =
      workload::MakeGalaxyTable(args.smoke ? 2000 : 20000, gen.engine()());

  // Set up three times (catalog, server, write-ahead log, standing
  // queries); the last one serves the run.
  std::unique_ptr<Fixture> f;
  for (int i = 0; i < 3; ++i) {
    f.reset();
    const double t0 = Now();
    f = SetUp(stars, galaxy, feed, watches, StrCat(args.tmp_dir, "/wal"));
    out->setup_seconds.push_back(Now() - t0);
  }
  service::Server& server = *f->server;
  const uint16_t port = server.port();
  const EngineOptions engine_options = ServerOptionsFor("").scheduler.engine;

  // Serial single-session baseline for the tables nobody writes.
  auto serial = f->catalog->OpenSession(engine_options);
  PAQL_CHECK_MSG(serial.ok(), serial.status());
  serial->set_query_cache(std::make_shared<engine::QueryCache>());
  std::map<std::string, std::string> expected;
  std::map<std::string, paql::translate::CompiledQuery> compiled;
  auto compile =
      [&](const std::string& text) -> const paql::translate::CompiledQuery& {
    auto it = compiled.find(text);
    if (it == compiled.end()) {
      auto cq = CompileFor(text, galaxy.schema());
      PAQL_CHECK_MSG(cq.ok(), cq.status());
      it = compiled.emplace(text, std::move(*cq)).first;
    }
    return it->second;
  };
  for (const Read& r : hot) {
    expected[r.text] = CanonicalPayload(serial->Execute(r.text));
    // Hot reads are compared byte for byte with this payload, so checking
    // its package here checks every hot read's package.
    paql::core::Package package;
    if (ParsePackage(expected[r.text], &package)) {
      CheckPackage("hot statement", compile(r.text),
                   r.galaxy ? galaxy : stars, package, &out->gate);
    }
  }

  out->info.emplace_back("stars_rows", std::to_string(stars_rows));
  out->info.emplace_back("galaxy_rows", std::to_string(galaxy_rows));
  out->info.emplace_back("feed_rows", std::to_string(galaxy_rows));
  out->info.emplace_back("loop", StrCat("closed, ", kReaders,
                                        " readers; open-loop writer at ",
                                        kWriteRate, " batches/s of ",
                                        kRowsPerBatch, " rows"));
  out->info.emplace_back("standing_queries", std::to_string(watches.size()));

  // Per-thread results, merged after the join.
  struct ReaderLog {
    std::vector<double> ms;
    std::vector<double> server_us, protocol_us;
    // Hot reads are compared with the serial baseline on the spot (a
    // string compare); fresh reads keep their payload for the checks after
    // the run.
    std::vector<std::pair<Read, std::string>> fresh;  // read, payload
    std::vector<std::pair<Read, Outcome>> hot;        // checked inline
    std::vector<std::string> mismatches;
    Tracer tracer{false};
    bool broken = false;
  };
  std::vector<ReaderLog> logs(kReaders);
  for (ReaderLog& log : logs) log.tracer = Tracer(args.trace);
  struct WriterLog {
    std::vector<double> ms, late_ms, round_trip_ms, server_us;
    int64_t batches = 0, dirty = 0, repaired = 0, incremental = 0;
    int64_t errors = 0;
    Tracer tracer{false};
  } wlog;
  wlog.tracer = Tracer(args.trace);

  // The writer's view of feed: every row ever inserted, by row id (rows
  // are immutable and ids are never reused), and the live ids.
  relation::Table all_rows = feed;
  std::vector<relation::RowId> live(galaxy_rows);
  for (size_t i = 0; i < galaxy_rows; ++i) live[i] = i;

  const paql::engine::QueryCacheStats cache0 = server.scheduler().cache_stats();
  const double start = Now();
  const double deadline = start + args.seconds;
  std::vector<std::thread> threads;
  for (int t = 0; t < kReaders; ++t) {
    threads.emplace_back([&, t] {
      ReaderLog& log = logs[static_cast<size_t>(t)];
      LineClient client;
      if (!client.Connect(port)) {
        log.broken = true;
        return;
      }
      ReadStream stream(args.seed * 1000 + static_cast<uint64_t>(t),
                        statements, &hot);
      uint64_t request = static_cast<uint64_t>(t + 1) << 40;
      while (Now() < deadline) {
        const Read read = stream.Next();
        std::string payload;
        double server_us;
        const double t0 = Now();
        if (!client.RoundTrip("RUN " + read.text, &payload, &server_us)) {
          log.broken = true;
          return;
        }
        const double t1 = Now();
        log.ms.push_back((t1 - t0) * 1e3);
        if (server_us >= 0) {
          log.server_us.push_back(server_us);
          log.protocol_us.push_back(std::max(0.0, (t1 - t0) * 1e6 - server_us));
        }
        if (log.tracer.enabled()) {
          const int root =
              log.tracer.Add("service.round_trip", -1, ++request, t0, t1);
          if (server_us >= 0) {
            // The server's own time, centred in the round trip; the rest
            // is transport and protocol handling.
            const double srv = std::min(server_us * 1e-6, t1 - t0);
            const double s = t0 + ((t1 - t0) - srv) / 2;
            log.tracer.Add("service.server", root, request, s, s + srv);
            log.tracer.Add("service.protocol", root, request, t0, s);
            log.tracer.Add("service.protocol", root, request, s + srv, t1);
          }
        }
        if (read.hot) {
          const std::string& want = expected.at(read.text);
          if (payload != want && log.mismatches.size() < 5) {
            log.mismatches.push_back(StrCat(payload.substr(0, 80), " vs ",
                                            want.substr(0, 80)));
          }
          log.hot.emplace_back(read, PayloadOutcome(payload));
        } else {
          log.fresh.emplace_back(read, std::move(payload));
        }
        std::this_thread::sleep_for(kThinkTime);
      }
      client.Send("QUIT");
    });
  }
  threads.emplace_back([&] {
    LineClient client;
    if (!client.Connect(port)) {
      wlog.errors++;
      return;
    }
    paql::Rng rng(args.seed * 7919 + 3);
    size_t next_insert = 0;
    uint64_t request = uint64_t{1} << 50;
    for (int64_t i = 0;; ++i) {
      const double due = start + static_cast<double>(i) / kWriteRate;
      if (due >= deadline) break;
      while (Now() < due) {
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
      std::string line;
      std::vector<std::vector<relation::Value>> inserted;
      if (i % 2 == 0) {
        line = "INSERT feed ";
        for (int r = 0; r < kRowsPerBatch; ++r) {
          const relation::RowId src = next_insert++ % insert_pool.num_rows();
          std::vector<relation::Value> row;
          for (size_t c = 0; c < insert_pool.num_columns(); ++c) {
            row.push_back(insert_pool.GetValue(src, c));
            const bool is_int =
                insert_pool.schema().column(c).type == relation::DataType::kInt64;
            line += (c ? "," : "");
            line += is_int ? std::to_string(insert_pool.GetInt64(src, c))
                           : Lit(insert_pool.GetDouble(src, c));
          }
          line += r + 1 < kRowsPerBatch ? ";" : "";
          inserted.push_back(std::move(row));
        }
      } else {
        line = "DELETE feed ";
        for (int r = 0; r < kRowsPerBatch; ++r) {
          const size_t pick = static_cast<size_t>(
              rng.UniformInt(0, static_cast<int64_t>(live.size()) - 1));
          line += StrCat(r ? "," : "", live[pick]);
          live[pick] = live.back();
          live.pop_back();
        }
      }
      const double sent = Now();
      std::string payload;
      double server_us;
      if (!client.RoundTrip(line, &payload, &server_us) ||
          payload.rfind("UPD", 0) != 0) {
        wlog.errors++;
        continue;
      }
      const double done = Now();
      for (auto& row : inserted) {
        live.push_back(static_cast<relation::RowId>(all_rows.num_rows()));
        all_rows.AppendRowUnchecked(row);
      }
      wlog.ms.push_back((done - due) * 1e3);
      wlog.late_ms.push_back((sent - due) * 1e3);
      wlog.round_trip_ms.push_back((done - sent) * 1e3);
      wlog.server_us.push_back(server_us);
      wlog.batches++;
      auto field = [&](const char* key) {
        const size_t at = payload.find(key);
        return at == std::string::npos
                   ? 0
                   : std::atoll(payload.c_str() + at + std::strlen(key));
      };
      wlog.dirty += field("dirty=");
      wlog.repaired += field("repaired=");
      wlog.incremental += field("incremental=");
      if (wlog.tracer.enabled()) {
        const int root = wlog.tracer.Add("service.write_round_trip", -1,
                                         ++request, sent, done);
        const double srv = std::min(server_us * 1e-6, done - sent);
        const double s = sent + ((done - sent) - srv) / 2;
        const int server_span =
            wlog.tracer.Add("service.server", root, request, s, s + srv);
        wlog.tracer.Count(server_span, "partition.dirty_groups",
                          static_cast<double>(field("dirty=")));
        wlog.tracer.Add("service.protocol", root, request, sent, s);
        wlog.tracer.Add("service.protocol", root, request, s + srv, done);
      }
    }
    client.Send("QUIT");
  });
  for (std::thread& t : threads) t.join();
  out->measured_seconds = Now() - start;

  // Merge, classify and check (off the clock).
  const service::SchedulerStats sched = server.scheduler().stats();
  const paql::engine::QueryCacheStats cache1 = server.scheduler().cache_stats();
  std::vector<double> server_us, protocol_us;
  int64_t fresh_reads = 0;
  for (ReaderLog& log : logs) {
    if (log.broken) out->gate.Fail("a reader connection broke");
    out->primary_ms.insert(out->primary_ms.end(), log.ms.begin(), log.ms.end());
    server_us.insert(server_us.end(), log.server_us.begin(), log.server_us.end());
    protocol_us.insert(protocol_us.end(), log.protocol_us.begin(),
                       log.protocol_us.end());
    out->tracer.Append(log.tracer);
    for (const std::string& m : log.mismatches) {
      out->gate.Fail("hot read differs from the serial baseline: " + m);
    }
    for (const auto& [read, outcome] : log.hot) {
      // The infeasible statement's verified ERR INFEASIBLE is its answer.
      const bool answered =
          outcome == Outcome::kOk || (outcome == Outcome::kInfeasible &&
                                      read.text == Statements::Infeasible());
      out->Record(outcome, answered,
                  StrCat(read.galaxy ? "galaxy" : "stars", ".hot"));
    }
    for (auto& [read, payload] : log.fresh) {
      const Outcome outcome = PayloadOutcome(payload);
      const std::string name = read.galaxy ? "galaxy" : "stars";
      // Nobody writes these tables: one fresh read in kFreshChecked must be
      // byte-identical to a serial execution too.
      if (++fresh_reads % kFreshChecked == 0) {
        std::string want = CanonicalPayload(serial->Execute(read.text));
        if (faults.Fire("payload")) payload += " ";
        if (payload != want) {
          out->gate.Fail(StrCat(name, " read differs from the serial baseline: ",
                                payload.substr(0, 80), " vs ",
                                want.substr(0, 80)));
        }
      }
      if (outcome == Outcome::kOk) {
        paql::core::Package package;
        if (!ParsePackage(payload, &package)) {
          out->gate.Fail("unparseable PKG line: " + payload.substr(0, 80));
          continue;
        }
        if (faults.Fire("drop_row")) DropFirstRow(&package);
        CheckPackage(name + " read", compile(read.text),
                     read.galaxy ? galaxy : stars, package, &out->gate);
      }
      out->Record(outcome, outcome == Outcome::kOk, name + ".fresh");
    }
  }
  out->ops = static_cast<int64_t>(out->primary_ms.size());
  out->aux_ms = wlog.ms;
  out->tracer.Append(wlog.tracer);
  if (wlog.errors > 0) {
    out->gate.Fail(StrCat(wlog.errors, " write batches failed"));
  }

  // Standing queries against a fresh execution on the final snapshot, and
  // SKETCHREFINE quality there against DIRECT.
  auto final_session = f->catalog->OpenSession(engine_options);
  PAQL_CHECK_MSG(final_session.ok(), final_session.status());
  final_session->set_query_cache(std::make_shared<engine::QueryCache>());
  EngineOptions direct_options = engine_options;
  direct_options.planner.force = engine::Strategy::kDirect;
  auto direct_session = f->catalog->OpenSession(direct_options);
  PAQL_CHECK_MSG(direct_session.ok(), direct_session.status());
  const double gap_tol = engine_options.exec.branch_and_bound.gap_tol;
  auto rate = [&](const std::string& key, const std::string& text,
                  double objective) {
    auto exact = direct_session->Execute(text);
    if (!exact.ok()) return;
    const bool maximize = compile(text).maximize();
    CheckNotBetterThanOptimum(key, maximize, objective, exact->objective,
                              gap_tol, &out->gate);
    const double ratio = ApproxRatio(maximize, objective, exact->objective);
    if (ratio > 0) {
      out->ratios.push_back(ratio);
      out->ratios_by_query[key].push_back(ratio);
    }
  };
  for (size_t i = 0; i < f->watch_ids.size(); ++i) {
    auto sq = server.registry().Get(f->watch_ids[i]);
    PAQL_CHECK_MSG(sq.ok(), sq.status());
    bool valid = sq->valid;
    if (faults.Fire("standing")) valid = !valid;
    auto fresh = final_session->Execute(f->watch_text[i]);
    const std::string key = StrCat("watch", i);
    if (valid != fresh.ok()) {
      out->gate.Fail(StrCat(key, ": standing query valid=", valid,
                            " but a fresh Execute says ",
                            fresh.ok() ? "feasible" : fresh.status().ToString()));
    }
    if (!sq->valid) continue;
    CheckPackage(key, compile(f->watch_text[i]), all_rows, sq->package,
                 &out->gate);
    rate(key, f->watch_text[i], sq->objective);
  }
  for (size_t i = 0; i < hot.size(); ++i) {
    if (!hot[i].galaxy) continue;
    auto answer = final_session->Execute(hot[i].text);
    if (answer.ok()) rate(StrCat("hot", i), hot[i].text, answer->objective);
  }

  // Traced run: replay the head of one reader's stream through the
  // scheduler in process (the call a RUN line makes) for the engine split.
  if (args.trace) {
    ReadStream stream(args.seed * 1000, statements, &hot);
    uint64_t request = uint64_t{1} << 60;
    for (size_t i = 0; i < kReplayReads; ++i) {
      service::QueryRequest qr;
      qr.paql = stream.Next().text;
      const double t0 = Now();
      auto result = server.scheduler().Execute(qr);
      const double t1 = Now();
      out->tracer.AddExecute("service.scheduler_execute", ++request, t0, t1,
                             result.ok() ? &*result : nullptr,
                             result.ok() ? &result->timings : nullptr);
    }
  }

  auto mean = [](const std::vector<double>& v) {
    double s = 0;
    for (double x : v) s += x;
    return v.empty() ? 0 : s / static_cast<double>(v.size());
  };
  const double batches = static_cast<double>(std::max<int64_t>(wlog.batches, 1));
  const double hits = static_cast<double>(cache1.hits - cache0.hits);
  const double misses = static_cast<double>(cache1.misses - cache0.misses);
  out->layer["service.server_us"] = mean(server_us);
  out->layer["service.protocol_us"] = mean(protocol_us);
  out->layer["service.gate_yields"] = static_cast<double>(sched.gate_yields);
  out->layer["service.shed"] =
      static_cast<double>(sched.shed_queue + sched.shed_memory);
  out->layer["service.standing_repairs"] =
      static_cast<double>(wlog.repaired) / batches;
  out->layer["service.incremental_repair_share"] =
      wlog.repaired > 0 ? static_cast<double>(wlog.incremental) /
                              static_cast<double>(wlog.repaired)
                        : 0;
  out->layer["partition.dirty_groups_per_batch"] =
      static_cast<double>(wlog.dirty) / batches;
  out->layer["engine.cache_hit_rate"] =
      hits + misses > 0 ? hits / (hits + misses) : 0;
  out->layer["engine.cache_evictions"] =
      static_cast<double>(cache1.evictions - cache0.evictions);
  out->info.emplace_back("write_batches", std::to_string(wlog.batches));
  out->info.emplace_back("writer_late_ms_p50",
                         paql::FormatDouble(Median(wlog.late_ms), 4));
  out->info.emplace_back("writer_late_ms_max",
                         paql::FormatDouble(Percentile(wlog.late_ms, 100), 4));
  out->info.emplace_back("write_round_trip_ms_p50",
                         paql::FormatDouble(Median(wlog.round_trip_ms), 4));
  out->info.emplace_back("write_server_us_p50",
                         paql::FormatDouble(Median(wlog.server_us), 4));
  out->info.emplace_back("final_feed_rows", std::to_string(live.size()));
  return 0;
}

}  // namespace perfbench
