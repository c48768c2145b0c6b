// The service layer end to end: catalog snapshots, the process-wide
// cross-query cache, the priority-aware scheduler, Session thread safety,
// and the line-protocol server.
//
// The concurrency suites here carry the "parallel" ctest label, so the
// ThreadSanitizer CI job runs them — the shared-session hammer and the
// scheduler sweep are the regression tests for the Session races fixed in
// this layer (join cache, partition cache, per-query options).
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <map>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "common/str_util.h"
#include "common/thread_pool.h"
#include "engine/query_cache.h"
#include "service/catalog.h"
#include "service/scheduler.h"
#include "service/server.h"
#include "workload/galaxy.h"

namespace paql::service {

/// Befriended by QueryScheduler: holds admission slots open
/// deterministically so the queue tests don't depend on finding a query
/// that reliably runs "long enough".
struct SchedulerTestAccess {
  static Result<int> Admit(QueryScheduler* scheduler, QueryClass cls) {
    return scheduler->Admit(cls, /*cancel=*/nullptr, /*deadline_seconds=*/0,
                            /*queue_wait_seconds=*/nullptr);
  }
  static void Release(QueryScheduler* scheduler) { scheduler->Release(); }
};

namespace {

using relation::DataType;
using relation::Schema;
using relation::Table;
using relation::Value;

Table MakeRecipes() {
  Table recipes{Schema({{"name", DataType::kString},
                        {"gluten", DataType::kString},
                        {"kcal", DataType::kDouble},
                        {"fat", DataType::kDouble}})};
  struct Row {
    const char* name;
    const char* gluten;
    double kcal, fat;
  };
  const Row kRows[] = {
      {"lentil soup", "free", 0.55, 1.2}, {"salmon", "free", 0.80, 3.1},
      {"carbonara", "full", 1.10, 12.4},  {"rice bowl", "free", 0.95, 2.0},
      {"quinoa", "free", 0.60, 0.9},      {"steak", "free", 1.20, 9.5},
      {"pudding", "full", 0.85, 6.2},     {"parfait", "free", 0.45, 2.5},
      {"omelette", "free", 0.70, 4.8},    {"tofu", "free", 0.75, 1.6},
  };
  for (const Row& r : kRows) {
    PAQL_CHECK(recipes
                   .AppendRow({Value(r.name), Value(r.gluten), Value(r.kcal),
                               Value(r.fat)})
                   .ok());
  }
  return recipes;
}

/// Populates `catalog` with one DIRECT-sized table ("recipes") and one
/// table big enough to route to SKETCHREFINE under the options below
/// ("galaxy"). In-place because Catalog owns a mutex and is immovable.
void PopulateServiceCatalog(Catalog* catalog) {
  PAQL_CHECK(catalog->AddTable("recipes", MakeRecipes()).ok());
  PAQL_CHECK(
      catalog->AddTable("galaxy", workload::MakeGalaxyTable(2500, 20161)).ok());
}

/// Deterministic per-query options for bit-identical comparisons: one
/// worker thread pins the search order; the low threshold routes galaxy to
/// SKETCHREFINE while recipes stays DIRECT.
EngineOptions DeterministicOptions() {
  EngineOptions options;
  options.exec.threads = 1;
  options.planner.direct_row_threshold = 1000;
  return options;
}

const char* kRecipesQuery =
    "SELECT PACKAGE(R) AS P FROM recipes R REPEAT 0 WHERE R.gluten = 'free' "
    "SUCH THAT COUNT(P.*) = 3 MINIMIZE SUM(P.fat)";
const char* kGalaxyQuery =
    "SELECT PACKAGE(G) AS P FROM galaxy G REPEAT 0 "
    "SUCH THAT COUNT(P.*) = 2 MINIMIZE SUM(P.petroRad_r)";
const char* kInfeasibleQuery =
    "SELECT PACKAGE(R) AS P FROM recipes R REPEAT 0 SUCH THAT "
    "COUNT(P.*) = 2 AND SUM(P.kcal) <= -1.0 MINIMIZE SUM(P.fat)";

/// Canonical comparable form of one outcome (package rows/multiplicities +
/// objective on success, status text on failure).
std::string CanonicalOne(const QueryResult& result) {
  std::string out = StrCat("objective: ", result.objective, " rows:");
  for (size_t i = 0; i < result.package.rows.size(); ++i) {
    out += StrCat(" ", result.package.rows[i], ":",
                  result.package.multiplicity[i]);
  }
  return out;
}

std::string Canonical(const Result<QueryResult>& result) {
  if (!result.ok()) return StrCat("status: ", result.status().message());
  return CanonicalOne(*result);
}

/// Canonical form of a top-k enumeration, best first.
std::string CanonicalTopK(const Result<std::vector<QueryResult>>& result) {
  if (!result.ok()) return StrCat("status: ", result.status().message());
  std::string out;
  for (const QueryResult& r : *result) out += CanonicalOne(r) + "\n";
  return out;
}

// ---------------------------------------------------------------------------
// Catalog
// ---------------------------------------------------------------------------

TEST(CatalogTest, SnapshotsAreCopyOnWrite) {
  Catalog catalog;
  ASSERT_TRUE(catalog.AddTable("recipes", MakeRecipes()).ok());
  auto before = catalog.Snapshot();
  ASSERT_TRUE(catalog.AddTable("more", MakeRecipes()).ok());
  auto after = catalog.Snapshot();
  // The old snapshot is untouched; the new one sees both tables.
  EXPECT_EQ(before->size(), 1u);
  EXPECT_EQ(after->size(), 2u);
  EXPECT_EQ(before->count("more"), 0u);
  // The shared table instance is identical across snapshots (no copy).
  EXPECT_EQ(before->at("recipes").get(), after->at("recipes").get());
}

TEST(CatalogTest, RejectsEmptyAndDuplicateNames) {
  Catalog catalog;
  EXPECT_FALSE(catalog.AddTable("", MakeRecipes()).ok());
  ASSERT_TRUE(catalog.AddTable("recipes", MakeRecipes()).ok());
  EXPECT_FALSE(catalog.AddTable("recipes", MakeRecipes()).ok());
  Catalog empty;
  EXPECT_FALSE(empty.OpenSession().ok());
}

TEST(CatalogTest, SessionsShareTablesAndCache) {
  Catalog catalog;
  PopulateServiceCatalog(&catalog);
  auto s1 = catalog.OpenSession(DeterministicOptions());
  auto s2 = catalog.OpenSession(DeterministicOptions());
  ASSERT_TRUE(s1.ok() && s2.ok());
  EXPECT_EQ(s1->query_cache().get(), s2->query_cache().get());
  EXPECT_EQ(s1->query_cache().get(), catalog.query_cache().get());

  auto r1 = s1->Execute(kRecipesQuery);
  auto r2 = s2->Execute(kRecipesQuery);
  ASSERT_TRUE(r1.ok()) << r1.status();
  ASSERT_TRUE(r2.ok()) << r2.status();
  // Same table instance end to end (shared, never copied per session) and
  // the second session's identical statement hits the shared cache.
  EXPECT_EQ(r1->table.get(), r2->table.get());
  EXPECT_EQ(r1->stats.cache_misses, 1);
  EXPECT_EQ(r2->stats.cache_hits, 1);
  EXPECT_TRUE(r2->plan.plan_cached);
  EXPECT_EQ(Canonical(r1), Canonical(r2));
}

// ---------------------------------------------------------------------------
// QueryCache
// ---------------------------------------------------------------------------

TEST(QueryCacheTest, LruEvictionAndCounters) {
  engine::QueryCache::Options options;
  options.capacity = 2;
  engine::QueryCache cache(options);
  auto table = std::make_shared<const Table>(MakeRecipes());

  engine::QueryCache::Artifacts artifacts;
  artifacts.table = table;
  cache.Store("a", artifacts);
  cache.Store("b", artifacts);
  EXPECT_TRUE(cache.Lookup("a", table).has_value());  // "a" becomes MRU
  cache.Store("c", artifacts);                        // evicts "b" (LRU)
  EXPECT_FALSE(cache.Lookup("b", table).has_value());
  EXPECT_TRUE(cache.Lookup("a", table).has_value());
  EXPECT_TRUE(cache.Lookup("c", table).has_value());

  engine::QueryCacheStats stats = cache.stats();
  EXPECT_EQ(stats.entries, 2u);
  EXPECT_EQ(stats.insertions, 3);
  EXPECT_EQ(stats.evictions, 1);
  EXPECT_EQ(stats.hits, 3);
  EXPECT_EQ(stats.misses, 1);
}

TEST(QueryCacheTest, HitRequiresTableIdentity) {
  engine::QueryCache cache;
  auto table = std::make_shared<const Table>(MakeRecipes());
  auto impostor = std::make_shared<const Table>(MakeRecipes());
  engine::QueryCache::Artifacts artifacts;
  artifacts.table = table;
  cache.Store("key", artifacts);
  // Same key, different table instance (a re-registered name, another
  // catalog): must miss, never serve the stale entry.
  EXPECT_FALSE(cache.Lookup("key", impostor).has_value());
  EXPECT_TRUE(cache.Lookup("key", table).has_value());
}

TEST(QueryCacheTest, RepeatStatementReusesPlanAndBasis) {
  Catalog catalog;
  PopulateServiceCatalog(&catalog);
  auto session = catalog.OpenSession(DeterministicOptions());
  ASSERT_TRUE(session.ok());

  auto first = session->Execute(kRecipesQuery);
  ASSERT_TRUE(first.ok()) << first.status();
  EXPECT_FALSE(first->plan.plan_cached);
  EXPECT_EQ(first->stats.cache_hits, 0);

  auto second = session->Execute(kRecipesQuery);
  ASSERT_TRUE(second.ok()) << second.status();
  EXPECT_TRUE(second->plan.plan_cached);
  EXPECT_TRUE(second->plan.warm_cached);
  EXPECT_EQ(second->stats.cache_hits, 1);
  EXPECT_EQ(Canonical(first), Canonical(second));
  // Explain surfaces the provenance on the pipeline/solver lines.
  EXPECT_NE(second->plan.Explain().find("plan from cross-query cache"),
            std::string::npos);
  EXPECT_NE(second->plan.Explain().find("root basis from cross-query cache"),
            std::string::npos);
}

TEST(QueryCacheTest, RespellingHitsTheSameEntry) {
  Catalog catalog;
  PopulateServiceCatalog(&catalog);
  auto session = catalog.OpenSession(DeterministicOptions());
  ASSERT_TRUE(session.ok());
  ASSERT_TRUE(session->Execute(kRecipesQuery).ok());
  // Same statement, different keyword case and whitespace: same key.
  auto respelled = session->Execute(
      "select package(R) as P\n  from recipes R repeat 0\n  where "
      "R.gluten = 'free'\n  such that count(P.*) = 3\n  minimize "
      "sum(P.fat);");
  ASSERT_TRUE(respelled.ok()) << respelled.status();
  EXPECT_EQ(respelled->stats.cache_hits, 1);
  EXPECT_TRUE(respelled->plan.plan_cached);
}

TEST(QueryCacheTest, SketchRefinePartitioningIsShared) {
  Catalog catalog;
  PopulateServiceCatalog(&catalog);
  auto s1 = catalog.OpenSession(DeterministicOptions());
  auto s2 = catalog.OpenSession(DeterministicOptions());
  ASSERT_TRUE(s1.ok() && s2.ok());
  auto r1 = s1->Execute(kGalaxyQuery);
  ASSERT_TRUE(r1.ok()) << r1.status();
  ASSERT_EQ(r1->plan.strategy, engine::Strategy::kSketchRefine);
  EXPECT_FALSE(r1->plan.partitioning_reused);
  // A *different* galaxy statement from another session misses the
  // statement cache but reuses the shared partition registry.
  auto r2 = s2->Execute(
      "SELECT PACKAGE(G) AS P FROM galaxy G REPEAT 0 "
      "SUCH THAT COUNT(P.*) = 3 MAXIMIZE SUM(P.petroFlux_r)");
  ASSERT_TRUE(r2.ok()) << r2.status();
  EXPECT_TRUE(r2->plan.partitioning_reused);
  EXPECT_GE(catalog.query_cache()->stats().partition_hits, 1);
}

// ---------------------------------------------------------------------------
// Scheduler
// ---------------------------------------------------------------------------

TEST(SchedulerTest, MixedConcurrentSweepMatchesSerialExecution) {
  Catalog catalog;
  PopulateServiceCatalog(&catalog);
  EngineOptions options = DeterministicOptions();

  // Serial ground truth from a session with a private cache (the serial
  // run must not warm the scheduler's).
  std::vector<std::string> statements = {kRecipesQuery, kGalaxyQuery,
                                         kInfeasibleQuery};
  std::map<std::string, std::string> expected;
  std::string expected_topk;
  {
    auto serial = catalog.OpenSession(options);
    ASSERT_TRUE(serial.ok());
    serial->set_query_cache(std::make_shared<engine::QueryCache>());
    for (const std::string& stmt : statements) {
      expected[stmt] = Canonical(serial->Execute(stmt));
    }
    expected_topk = CanonicalTopK(serial->ExecuteTopK(kRecipesQuery, 2));
  }

  SchedulerOptions sopts;
  sopts.engine = options;
  sopts.max_concurrent = 4;
  QueryScheduler scheduler(catalog, sopts);

  constexpr int kThreads = 8;
  constexpr int kItersPerThread = 6;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kItersPerThread; ++i) {
        QueryRequest request;
        // Alternate priority classes so both admission paths run.
        request.query_class =
            (t % 2 == 0) ? QueryClass::kInteractive : QueryClass::kBatch;
        const int pick = (t + i) % 4;
        if (pick == 3) {
          // The top-k element of the mix enumerates alternatives under the
          // same admission slot.
          request.paql = kRecipesQuery;
          if (CanonicalTopK(scheduler.ExecuteTopK(request, 2)) !=
              expected_topk) {
            mismatches.fetch_add(1, std::memory_order_relaxed);
          }
          continue;
        }
        const std::string& stmt = statements[static_cast<size_t>(pick)];
        request.paql = stmt;
        if (Canonical(scheduler.Execute(request)) != expected[stmt]) {
          mismatches.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  EXPECT_EQ(mismatches.load(), 0)
      << "concurrent results diverged from serial execution";
  SchedulerStats stats = scheduler.stats();
  EXPECT_EQ(stats.admitted, kThreads * kItersPerThread);
  EXPECT_EQ(stats.completed, kThreads * kItersPerThread);
  EXPECT_EQ(stats.active, 0);
  // Vacuity guards: the sweep repeats statements, so the shared cache MUST
  // have produced hits — a silently disengaged cache fails here.
  engine::QueryCacheStats cache = scheduler.cache_stats();
  EXPECT_GT(cache.hits, 0);
  EXPECT_GT(cache.misses, 0);
}

TEST(SchedulerTest, BudgetsMapToSolverLimits) {
  Catalog catalog;
  PopulateServiceCatalog(&catalog);
  SchedulerOptions sopts;
  sopts.engine = DeterministicOptions();
  QueryScheduler scheduler(catalog, sopts);

  QueryRequest request;
  request.paql = kGalaxyQuery;
  request.budget.max_nodes = 1;  // no interesting solve finishes in 1 node
  auto result = scheduler.Execute(request);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsResourceExhausted()) << result.status();

  // The same query without the budget succeeds.
  QueryRequest unbounded;
  unbounded.paql = kGalaxyQuery;
  EXPECT_TRUE(scheduler.Execute(unbounded).ok());
}

TEST(SchedulerTest, QueuedDeadlineRejectsPromptly) {
  Catalog catalog;
  PopulateServiceCatalog(&catalog);
  SchedulerOptions sopts;
  sopts.engine = DeterministicOptions();
  sopts.max_concurrent = 1;
  QueryScheduler scheduler(catalog, sopts);

  // Saturate: hold the only slot open for the duration of the probe. The
  // slot is NOT released until after Execute returns, so the only way the
  // probe can come back is the queued-deadline rejection.
  ASSERT_TRUE(
      SchedulerTestAccess::Admit(&scheduler, QueryClass::kInteractive).ok());

  QueryRequest request;
  request.paql = kRecipesQuery;
  request.budget.deadline_seconds = 0.01;
  auto start = std::chrono::steady_clock::now();
  auto result = scheduler.Execute(request);
  double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsResourceExhausted()) << result.status();
  EXPECT_NE(result.status().message().find("queued"), std::string::npos)
      << result.status();
  // "Promptly": ~deadline + one wakeup, nowhere near the 50ms poll floor
  // the old loop imposed; the bound is generous for loaded CI machines.
  EXPECT_LT(elapsed, 2.0);
  EXPECT_EQ(scheduler.stats().rejected, 1);

  SchedulerTestAccess::Release(&scheduler);

  // With the slot free the same deadline admits instantly and the solver
  // still gets (deadline - ~0 queue wait) of budget, so it succeeds.
  QueryRequest after;
  after.paql = kRecipesQuery;
  after.budget.deadline_seconds = 30;
  EXPECT_TRUE(scheduler.Execute(after).ok());
}

// Regression: with max_concurrent=1 and a continuous stream of interactive
// arrivals, the old admissible() rule (batch defers whenever ANY
// interactive request is waiting) starved batch work forever — this test
// hung. Aging admits a batch request after batch_starvation_window_s even
// while interactive requests are queued.
TEST(SchedulerTest, BatchMakesProgressUnderInteractiveFlood) {
  Catalog catalog;
  PopulateServiceCatalog(&catalog);
  SchedulerOptions sopts;
  sopts.engine = DeterministicOptions();
  sopts.max_concurrent = 1;
  sopts.batch_starvation_window_s = 0.05;
  QueryScheduler scheduler(catalog, sopts);

  // Hold the only slot so the flood parks completely before any batch
  // work is submitted — otherwise (especially on small machines) a batch
  // request can slip in before the first interactive even queues.
  ASSERT_TRUE(
      SchedulerTestAccess::Admit(&scheduler, QueryClass::kInteractive).ok());

  // Interactive flood: loopers resubmit the moment they finish, so while
  // the single slot is busy the other loopers are parked inside Admit and
  // waiting_interactive stays > 0 essentially continuously.
  std::atomic<bool> stop{false};
  std::atomic<int> flood_failures{0};
  constexpr int kFloodThreads = 4;
  std::vector<std::thread> flood;
  for (int t = 0; t < kFloodThreads; ++t) {
    flood.emplace_back([&] {
      QueryRequest request;
      request.paql = kRecipesQuery;
      request.query_class = QueryClass::kInteractive;
      while (!stop.load(std::memory_order_relaxed)) {
        if (!scheduler.Execute(request).ok()) flood_failures.fetch_add(1);
      }
    });
  }
  while (scheduler.stats().waiting < kFloodThreads) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  // Batch requests submitted mid-flood must complete while the flood is
  // still running (progress), not after it drains. Under the old rule this
  // loop never terminated. The retry bound absorbs the one residual race:
  // a batch admission can land in the microscopic moment when every looper
  // is between requests, which does not count as an aged admission.
  int batch_ok = 0;
  for (int i = 0; i < 10 && scheduler.stats().aged_batch_admits == 0; ++i) {
    QueryRequest request;
    request.paql = kGalaxyQuery;
    request.query_class = QueryClass::kBatch;
    std::thread batch([&] {
      if (scheduler.Execute(request).ok()) batch_ok++;  // joined before read
    });
    if (i == 0) {
      // Let the first batch request age past the starvation window while
      // everything is still parked behind the held slot, then open it.
      std::this_thread::sleep_for(std::chrono::duration<double>(
          2 * sopts.batch_starvation_window_s));
      SchedulerTestAccess::Release(&scheduler);
    }
    batch.join();
  }
  EXPECT_FALSE(stop.load());  // flood was still active throughout

  stop.store(true);
  for (std::thread& thread : flood) thread.join();

  EXPECT_GE(batch_ok, 1);
  EXPECT_EQ(flood_failures.load(), 0);
  // Vacuity guard: at least one batch admission actually jumped past a
  // waiting interactive request via the aging window.
  EXPECT_GE(scheduler.stats().aged_batch_admits, 1);
}

TEST(SchedulerTest, CancellationIsCooperative) {
  Catalog catalog;
  PopulateServiceCatalog(&catalog);
  SchedulerOptions sopts;
  sopts.engine = DeterministicOptions();
  QueryScheduler scheduler(catalog, sopts);

  std::atomic<bool> cancel{true};  // already tripped
  QueryRequest request;
  request.paql = kGalaxyQuery;
  request.cancel = &cancel;
  auto result = scheduler.Execute(request);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsResourceExhausted()) << result.status();
}

// ---------------------------------------------------------------------------
// Session thread safety (the TSan regression suite)
// ---------------------------------------------------------------------------

TEST(SessionConcurrencyTest, SharedSessionHammer) {
  Catalog catalog;
  PopulateServiceCatalog(&catalog);
  auto opened = catalog.OpenSession(DeterministicOptions());
  ASSERT_TRUE(opened.ok());
  Session& session = *opened;

  // Two spellings of one join statement hammer the normalized-text join
  // cache; the single-relation statements hammer the artifact cache; the
  // top-k call exercises the enumeration path concurrently.
  const std::string join_a =
      "SELECT PACKAGE(R) AS P FROM recipes R REPEAT 0, galaxy G "
      "WHERE R.kcal <= G.redshift SUCH THAT COUNT(P.*) = 1 "
      "MINIMIZE SUM(P.fat)";
  const std::string join_b =
      "select package(R) as P from recipes R repeat 0, galaxy G "
      "where R.kcal <= G.redshift such that count(P.*) = 1 "
      "minimize sum(P.fat)";

  std::string expected_recipes = Canonical(session.Execute(kRecipesQuery));
  std::string expected_join = Canonical(session.Execute(join_a));
  std::string expected_topk = CanonicalTopK(session.ExecuteTopK(kRecipesQuery, 2));

  constexpr int kThreads = 8;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 4; ++i) {
        switch ((t + i) % 4) {
          case 0: {
            if (Canonical(session.Execute(kRecipesQuery)) !=
                expected_recipes) {
              failures.fetch_add(1);
            }
            break;
          }
          case 1: {
            const std::string& join = (i % 2 == 0) ? join_a : join_b;
            if (Canonical(session.Execute(join)) != expected_join) {
              failures.fetch_add(1);
            }
            break;
          }
          case 2: {
            if (CanonicalTopK(session.ExecuteTopK(kRecipesQuery, 2)) !=
                expected_topk) {
              failures.fetch_add(1);
            }
            break;
          }
          case 3: {
            auto r = session.Execute(kInfeasibleQuery);
            if (r.ok() || !r.status().IsInfeasible()) failures.fetch_add(1);
            break;
          }
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);
}

// ---------------------------------------------------------------------------
// PriorityGate
// ---------------------------------------------------------------------------

TEST(PriorityGateTest, BatchYieldsOnlyUnderContention) {
  PriorityGate& gate = PriorityGate::Global();
  int64_t before = gate.yields();

  {
    // Batch work with no interactive query in flight: the fast path, no
    // yield recorded.
    ScopedWorkClass batch(WorkClass::kBatch);
    gate.YieldIfContended();
    EXPECT_EQ(gate.yields(), before);

    // Raise the gate: the batch thread now waits (bounded) and records.
    ScopedInteractive interactive(gate);
    gate.YieldIfContended();
    EXPECT_EQ(gate.yields(), before + 1);
  }

  // Interactive work never yields, contended or not.
  ScopedInteractive interactive(gate);
  gate.YieldIfContended();
  EXPECT_EQ(gate.yields(), before + 1);
}

TEST(PriorityGateTest, WaitIsBoundedAndWakesOnRelease) {
  PriorityGate& gate = PriorityGate::Global();
  gate.BeginInteractive();
  std::atomic<bool> released{false};
  std::thread batch([&] {
    ScopedWorkClass cls(WorkClass::kBatch);
    // Each call waits at most kMaxWaitSlice; the loop exits promptly once
    // the interactive query ends (cv notify), not after a full slice.
    while (gate.Contended()) gate.YieldIfContended();
    released.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(released.load());
  gate.EndInteractive();
  batch.join();
  EXPECT_TRUE(released.load());
}

// ---------------------------------------------------------------------------
// Server (line protocol over loopback TCP)
// ---------------------------------------------------------------------------

/// Minimal blocking test client.
class TestClient {
 public:
  bool Connect(uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) return false;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    return ::connect(fd_, reinterpret_cast<sockaddr*>(&addr),
                     sizeof(addr)) == 0;
  }
  ~TestClient() {
    if (fd_ >= 0) ::close(fd_);
  }
  bool SendLine(const std::string& line) {
    return SendRaw(line + "\n");
  }
  bool SendRaw(const std::string& data) {
    return ::send(fd_, data.data(), data.size(), 0) ==
           static_cast<ssize_t>(data.size());
  }
  bool ReadLine(std::string* line) {
    size_t newline;
    while ((newline = buffer_.find('\n')) == std::string::npos) {
      char chunk[4096];
      ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n <= 0) return false;
      buffer_.append(chunk, static_cast<size_t>(n));
    }
    *line = buffer_.substr(0, newline);
    buffer_.erase(0, newline + 1);
    return true;
  }
  bool AtEof() {
    char c;
    return ::recv(fd_, &c, 1, 0) <= 0;
  }

 private:
  int fd_ = -1;
  std::string buffer_;
};

TEST(ServerTest, SpeaksTheLineProtocol) {
  Catalog catalog;
  PopulateServiceCatalog(&catalog);
  ServerOptions options;
  options.scheduler.engine = DeterministicOptions();
  Server server(catalog, options);
  ASSERT_TRUE(server.Start().ok());
  ASSERT_GT(server.port(), 0);

  // What the protocol must return for the statement.
  auto session = catalog.OpenSession(DeterministicOptions());
  ASSERT_TRUE(session.ok());
  session->set_query_cache(std::make_shared<engine::QueryCache>());
  auto direct = session->Execute(kRecipesQuery);
  ASSERT_TRUE(direct.ok());
  std::string expected_pkg = FormatResultLines(*direct, 0);
  expected_pkg = expected_pkg.substr(0, expected_pkg.find('\n'));

  TestClient client;
  ASSERT_TRUE(client.Connect(server.port()));

  std::string line;
  ASSERT_TRUE(client.SendLine(StrCat("RUN ", kRecipesQuery)));
  ASSERT_TRUE(client.ReadLine(&line));
  EXPECT_EQ(line, expected_pkg);
  ASSERT_TRUE(client.ReadLine(&line));
  EXPECT_EQ(line.rfind("OK ", 0), 0u) << line;

  // BATCH runs the same statement at batch priority — same answer.
  ASSERT_TRUE(client.SendLine(StrCat("BATCH ", kRecipesQuery)));
  ASSERT_TRUE(client.ReadLine(&line));
  EXPECT_EQ(line, expected_pkg);
  ASSERT_TRUE(client.ReadLine(&line));
  EXPECT_EQ(line.rfind("OK ", 0), 0u) << line;

  // Infeasible statements and unknown verbs come back as ERR lines.
  ASSERT_TRUE(client.SendLine(StrCat("RUN ", kInfeasibleQuery)));
  ASSERT_TRUE(client.ReadLine(&line));
  EXPECT_EQ(line.rfind("ERR ", 0), 0u) << line;
  ASSERT_TRUE(client.SendLine("FROB x"));
  ASSERT_TRUE(client.ReadLine(&line));
  EXPECT_EQ(line.rfind("ERR INVALID_ARGUMENT unknown command", 0), 0u) << line;
  ASSERT_TRUE(client.SendLine("RUN"));
  ASSERT_TRUE(client.ReadLine(&line));
  EXPECT_EQ(line.rfind("ERR ", 0), 0u) << line;

  // STATS reports scheduler and cache counters.
  ASSERT_TRUE(client.SendLine("STATS"));
  ASSERT_TRUE(client.ReadLine(&line));
  EXPECT_EQ(line.rfind("STATS ", 0), 0u) << line;
  EXPECT_NE(line.find("cache_hits="), std::string::npos) << line;

  // QUIT closes the connection.
  ASSERT_TRUE(client.SendLine("QUIT"));
  EXPECT_TRUE(client.AtEof());
  server.Stop();
}

/// One INSERT payload row (schema order) for a Galaxy-shaped table.
std::string GalaxyRowLiteral(const Table& source, relation::RowId row) {
  std::string out;
  for (size_t c = 0; c < source.num_columns(); ++c) {
    if (c > 0) out += ",";
    out += source.schema().column(c).type == DataType::kInt64
               ? std::to_string(source.GetInt64(row, c))
               : FormatDouble(source.GetDouble(row, c), 17);
  }
  return out;
}

TEST(ServerTest, SketchRefineRunsSurviveConcurrentInsertsAndDeletes) {
  // RUN statements that plan SKETCHREFINE on the very table a writer is
  // changing. A DELETE leaves the row count alone, so a partitioning
  // absorbed for the newer snapshot (deleted rows in no group) passed the
  // row-count check for a reader still on the older snapshot, whose scan
  // returns those rows — and the group lookup indexed past the group
  // list, killing the server. Every RUN must come back as a package: these
  // statements are feasible, so even a structured ERR is a failure.
  Catalog catalog;
  PopulateServiceCatalog(&catalog);
  ServerOptions options;
  options.scheduler.engine = DeterministicOptions();
  Server server(catalog, options);
  ASSERT_TRUE(server.Start().ok());
  const Table inserts = workload::MakeGalaxyTable(64, 77);
  constexpr int kBatches = 60;

  std::atomic<bool> writer_done{false};
  std::atomic<int> answered{0};
  std::atomic<int> bad_lines{0};
  std::thread writer([&] {
    TestClient client;
    if (!client.Connect(server.port())) {
      bad_lines++;
      writer_done = true;
      return;
    }
    std::mt19937 rng(17);
    std::vector<relation::RowId> live(2500);
    for (size_t r = 0; r < live.size(); ++r) live[r] = r;
    relation::RowId next_id = live.size();
    std::string line;
    for (int b = 0; b < kBatches; ++b) {
      std::string request;
      if (b % 2 == 0) {
        request = "INSERT galaxy ";
        for (int k = 0; k < 4; ++k) {
          if (k > 0) request += ";";
          request += GalaxyRowLiteral(inserts, (4 * b + k) % inserts.num_rows());
          live.push_back(next_id++);
        }
      } else {
        request = "DELETE galaxy ";
        for (int k = 0; k < 4; ++k) {
          size_t pick = rng() % live.size();
          request += StrCat(k > 0 ? "," : "", live[pick]);
          live[pick] = live.back();
          live.pop_back();
        }
      }
      if (!client.SendLine(request) || !client.ReadLine(&line) ||
          line.rfind("UPD ", 0) != 0 || !client.ReadLine(&line) ||
          line.rfind("OK ", 0) != 0) {
        bad_lines++;
        break;
      }
    }
    writer_done = true;
  });
  std::vector<std::thread> readers;
  for (int t = 0; t < 2; ++t) {
    readers.emplace_back([&, t] {
      TestClient client;
      if (!client.Connect(server.port())) {
        bad_lines++;
        return;
      }
      std::string line;
      for (int i = 0; !writer_done || i < 4; ++i) {
        // Alternate a repeated statement (the artifact-cache path) with
        // fresh ones (the partition-registry path).
        std::string query =
            i % 2 == 0 ? std::string(kGalaxyQuery)
                       : StrCat("SELECT PACKAGE(G) AS P FROM galaxy G REPEAT 0 "
                                "SUCH THAT COUNT(P.*) = ", 2 + (i + t) % 5,
                                " MINIMIZE SUM(P.petroRad_r)");
        if (!client.SendLine(StrCat("RUN ", query)) || !client.ReadLine(&line)) {
          bad_lines++;
          return;
        }
        if (line.rfind("PKG ", 0) != 0 || !client.ReadLine(&line) ||
            line.rfind("OK ", 0) != 0) {
          ADD_FAILURE() << query << " -> " << line;
          bad_lines++;
          return;
        }
        answered++;
      }
    });
  }
  writer.join();
  for (auto& reader : readers) reader.join();
  server.Stop();
  EXPECT_EQ(bad_lines.load(), 0);
  EXPECT_GT(answered.load(), 0);
}

TEST(ServerTest, DeeplyNestedStatementsGetAStructuredError) {
  // A 40 KB RUN line of 20,000 nested parentheses used to overflow the
  // parser's stack and kill the server; so would a million. Both are an
  // ERR PARSE line now, and the connection keeps serving. (The request
  // limit is raised so the 2 MB line reaches the parser.)
  Catalog catalog;
  PopulateServiceCatalog(&catalog);
  ServerOptions options;
  options.scheduler.engine = DeterministicOptions();
  options.max_request_bytes = 4 << 20;
  Server server(catalog, options);
  ASSERT_TRUE(server.Start().ok());
  TestClient client;
  ASSERT_TRUE(client.Connect(server.port()));
  for (size_t deep : {size_t{20000}, size_t{1000000}}) {
    std::string nested = std::string(deep, '(') + "R.kcal > 0" +
                         std::string(deep, ')');
    ASSERT_TRUE(client.SendLine(
        StrCat("RUN SELECT PACKAGE(R) AS P FROM recipes R REPEAT 0 WHERE ",
               nested, " SUCH THAT COUNT(P.*) = 1 MINIMIZE SUM(P.fat)")));
    std::string line;
    ASSERT_TRUE(client.ReadLine(&line)) << deep << "-deep: connection lost";
    EXPECT_EQ(line.rfind("ERR PARSE ", 0), 0u) << line;
    EXPECT_NE(line.find("deeper than 256"), std::string::npos) << line;
  }
  std::string line;
  ASSERT_TRUE(client.SendLine(StrCat("RUN ", kRecipesQuery)));
  ASSERT_TRUE(client.ReadLine(&line));
  EXPECT_EQ(line.rfind("PKG ", 0), 0u) << line;
  server.Stop();
}

TEST(ServerTest, ConcurrentClientsGetBitIdenticalAnswers) {
  Catalog catalog;
  PopulateServiceCatalog(&catalog);
  ServerOptions options;
  options.scheduler.engine = DeterministicOptions();
  Server server(catalog, options);
  ASSERT_TRUE(server.Start().ok());

  auto session = catalog.OpenSession(DeterministicOptions());
  ASSERT_TRUE(session.ok());
  session->set_query_cache(std::make_shared<engine::QueryCache>());
  std::map<std::string, std::string> expected;
  for (const std::string stmt : {kRecipesQuery, kGalaxyQuery}) {
    auto result = session->Execute(stmt);
    ASSERT_TRUE(result.ok());
    std::string lines = FormatResultLines(*result, 0);
    expected[stmt] = lines.substr(0, lines.find('\n'));
  }

  constexpr int kClients = 8;
  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      TestClient client;
      if (!client.Connect(server.port())) {
        failures.fetch_add(1);
        return;
      }
      for (int i = 0; i < 4; ++i) {
        const std::string stmt =
            (c + i) % 2 == 0 ? kRecipesQuery : kGalaxyQuery;
        std::string line;
        if (!client.SendLine(StrCat("RUN ", stmt)) ||
            !client.ReadLine(&line) || line != expected[stmt] ||
            !client.ReadLine(&line) || line.rfind("OK ", 0) != 0) {
          failures.fetch_add(1);
          return;
        }
      }
      client.SendLine("QUIT");
    });
  }
  for (std::thread& thread : clients) thread.join();
  EXPECT_EQ(failures.load(), 0);
  server.Stop();
}

// ---------------------------------------------------------------------------
// Graceful degradation: load shedding and connection hygiene
// ---------------------------------------------------------------------------

TEST(SchedulerTest, ShedsAtTheQueueBarWithRetryAfterHint) {
  Catalog catalog;
  PopulateServiceCatalog(&catalog);
  SchedulerOptions sopts;
  sopts.engine = DeterministicOptions();
  sopts.max_concurrent = 1;
  sopts.shed_waiting_interactive = 1;
  QueryScheduler scheduler(catalog, sopts);

  // Hold the only slot, then park one request in the admission queue.
  ASSERT_TRUE(
      SchedulerTestAccess::Admit(&scheduler, QueryClass::kInteractive).ok());
  std::thread waiter([&] {
    QueryRequest request;
    request.paql = kRecipesQuery;
    request.budget.deadline_seconds = 30;
    EXPECT_TRUE(scheduler.Execute(request).ok());
  });
  while (scheduler.stats().waiting < 1) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  // The queue is at the bar: the next arrival is shed immediately with a
  // machine-readable come-back-later hint, instead of queueing behind
  // work that cannot drain.
  QueryRequest probe;
  probe.paql = kRecipesQuery;
  auto shed = scheduler.Execute(probe);
  ASSERT_FALSE(shed.ok());
  EXPECT_TRUE(shed.status().IsUnavailable()) << shed.status();
  EXPECT_NE(shed.status().message().find("retry-after-ms="),
            std::string::npos)
      << shed.status();
  EXPECT_EQ(scheduler.stats().shed_queue, 1);

  // Shedding is about arrival, not occupancy: releasing the slot drains
  // the queued request normally.
  SchedulerTestAccess::Release(&scheduler);
  waiter.join();
  EXPECT_EQ(scheduler.stats().waiting, 0);
}

TEST(SchedulerTest, MemoryWatermarkShedsEveryArrival) {
  Catalog catalog;
  PopulateServiceCatalog(&catalog);
  SchedulerOptions sopts;
  sopts.engine = DeterministicOptions();
  sopts.shed_memory_bytes = 1;  // any live process is over this watermark
  QueryScheduler scheduler(catalog, sopts);

  QueryRequest request;
  request.paql = kRecipesQuery;
  auto shed = scheduler.Execute(request);
  ASSERT_FALSE(shed.ok());
  EXPECT_TRUE(shed.status().IsUnavailable()) << shed.status();
  EXPECT_NE(shed.status().message().find("memory watermark"),
            std::string::npos)
      << shed.status();
  EXPECT_NE(shed.status().message().find("retry-after-ms="),
            std::string::npos)
      << shed.status();
  EXPECT_EQ(scheduler.stats().shed_memory, 1);
}

TEST(ServerTest, OverloadShowsUpAsOverloadedErrLine) {
  Catalog catalog;
  PopulateServiceCatalog(&catalog);
  ServerOptions options;
  options.scheduler.engine = DeterministicOptions();
  options.scheduler.shed_memory_bytes = 1;  // permanently "overloaded"
  Server server(catalog, options);
  ASSERT_TRUE(server.Start().ok());

  TestClient client;
  ASSERT_TRUE(client.Connect(server.port()));
  ASSERT_TRUE(client.SendLine(StrCat("RUN ", kRecipesQuery)));
  std::string line;
  ASSERT_TRUE(client.ReadLine(&line));
  EXPECT_EQ(line.rfind("ERR OVERLOADED ", 0), 0u) << line;
  EXPECT_NE(line.find("retry-after-ms="), std::string::npos) << line;
  // The connection survives shedding: the client is meant to retry.
  ASSERT_TRUE(client.SendLine("STATS"));
  ASSERT_TRUE(client.ReadLine(&line));
  EXPECT_EQ(line.rfind("STATS ", 0), 0u) << line;
  EXPECT_NE(line.find("shed_memory=1"), std::string::npos) << line;
  server.Stop();
}

TEST(ServerTest, IdleConnectionsTimeOutWithAnExplanation) {
  Catalog catalog;
  PopulateServiceCatalog(&catalog);
  ServerOptions options;
  options.scheduler.engine = DeterministicOptions();
  options.idle_timeout_s = 0.2;
  Server server(catalog, options);
  ASSERT_TRUE(server.Start().ok());

  TestClient client;
  ASSERT_TRUE(client.Connect(server.port()));
  // Say nothing. The server explains the hangup, then closes.
  std::string line;
  ASSERT_TRUE(client.ReadLine(&line));
  EXPECT_EQ(line.rfind("ERR OVERLOADED idle timeout", 0), 0u) << line;
  EXPECT_TRUE(client.AtEof());
  server.Stop();
}

TEST(ServerTest, OversizedRequestLinesAreRejectedNotBuffered) {
  Catalog catalog;
  PopulateServiceCatalog(&catalog);
  ServerOptions options;
  options.scheduler.engine = DeterministicOptions();
  options.max_request_bytes = 64;
  Server server(catalog, options);
  ASSERT_TRUE(server.Start().ok());

  // A newline-terminated line over the budget: rejected, connection done.
  {
    TestClient client;
    ASSERT_TRUE(client.Connect(server.port()));
    ASSERT_TRUE(client.SendLine("RUN " + std::string(200, 'x')));
    std::string line;
    ASSERT_TRUE(client.ReadLine(&line));
    EXPECT_EQ(line.rfind("ERR INVALID_ARGUMENT request line exceeds", 0), 0u)
        << line;
    EXPECT_TRUE(client.AtEof());
  }
  // A byte stream with no newline at all: rejected as soon as the buffer
  // passes the budget, not after unbounded growth.
  {
    TestClient client;
    ASSERT_TRUE(client.Connect(server.port()));
    ASSERT_TRUE(client.SendRaw(std::string(4096, 'y')));  // never a newline
    std::string line;
    ASSERT_TRUE(client.ReadLine(&line));
    EXPECT_EQ(line.rfind("ERR INVALID_ARGUMENT request line exceeds", 0), 0u)
        << line;
    EXPECT_TRUE(client.AtEof());
  }
  server.Stop();
}

}  // namespace
}  // namespace paql::service
