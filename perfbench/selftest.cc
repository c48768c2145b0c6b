// The benchmark's own unit checks (perfbench_bin --self-test): every
// correctness gate fires on a wrong answer and stays quiet on a right one,
// and the traced span tree nests and covers the engine call. run.py adds
// the end-to-end half: each workload at smoke size, with and without an
// injected wrong answer.
#include <iostream>

#include "common/str_util.h"
#include "harness.h"
#include "workload/galaxy.h"

namespace perfbench {
namespace {

int failures = 0;

void Expect(bool condition, const std::string& what) {
  std::cout << (condition ? "ok   " : "FAIL ") << what << "\n";
  if (!condition) ++failures;
}

}  // namespace

int RunSelfTest() {
  auto table = std::make_shared<const paql::relation::Table>(
      paql::workload::MakeGalaxyTable(2000, 5));
  auto session = paql::Engine::Open(table, "galaxy");
  PAQL_CHECK_MSG(session.ok(), session.status());
  const std::string query =
      "SELECT PACKAGE(G) AS P FROM galaxy G REPEAT 0 SUCH THAT "
      "COUNT(P.*) = 5 AND SUM(P.petroRad_r) <= 40 MINIMIZE SUM(P.g)";
  auto compiled = CompileFor(query, table->schema());
  PAQL_CHECK_MSG(compiled.ok(), compiled.status());

  Tracer tracer(true);
  const double t0 = Now();
  auto result = session->Execute(query);
  const double t1 = Now();
  Expect(result.ok(), "the reference query answers");
  if (!result.ok()) return 1;

  // Gate 1: a valid package passes, the same package minus a row fails.
  {
    Gate gate;
    CheckPackage("valid", *compiled, *table, result->package, &gate);
    Expect(gate.ok(), "package gate accepts the engine's answer");
    paql::core::Package dropped = result->package;
    DropFirstRow(&dropped);
    CheckPackage("dropped", *compiled, *table, dropped, &gate);
    Expect(!gate.ok(), "package gate fires on a package with a row dropped");
  }
  // Gate 2: SKETCHREFINE may tie the optimum, never beat it.
  {
    Gate gate;
    CheckNotBetterThanOptimum("tie", true, 100.0, 100.0, 1e-9, &gate);
    CheckNotBetterThanOptimum("worse", false, 101.0, 100.0, 1e-9, &gate);
    Expect(gate.ok(), "optimum gate accepts ties and worse answers");
    CheckNotBetterThanOptimum("max", true, 101.0, 100.0, 1e-9, &gate);
    Expect(gate.violations().size() == 1, "optimum gate fires (maximize)");
    CheckNotBetterThanOptimum("min", false, 99.0, 100.0, 1e-9, &gate);
    Expect(gate.violations().size() == 2, "optimum gate fires (minimize)");
  }
  Expect(ApproxRatio(true, 50, 100) == 2 && ApproxRatio(false, 150, 100) == 1.5,
         "approximation ratio follows the paper's convention");

  // Spans: the tree of one traced Execute nests and covers the call.
  tracer.AddExecute("engine.execute", 1, t0, t1, &*result, &result->timings);
  const std::string bad = CheckSpanTree(tracer.spans());
  Expect(bad.empty(), "span tree nests: " + (bad.empty() ? "yes" : bad));
  Expect(tracer.spans().size() == 8, "span tree has root, 5 phases, 2 leaves");
  const double coverage = SpanCoverage(tracer.spans());
  Expect(coverage >= 0.95,
         paql::StrCat("spans cover the call (", coverage, ")"));
  Tracer broken(true);
  const int root = broken.Add("engine.execute", -1, 1, 0.0, 1.0);
  broken.Add("core.evaluate", root, 1, 0.5, 1.5);
  Expect(!CheckSpanTree(broken.spans()).empty(),
         "span check fires on a child that outlives its parent");

  // Tail: the chosen percentile and the samples beyond it.
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(i);
  const Tail tail = TailOf(v, 90);
  Expect(tail.value == 90 && tail.beyond == 10, "tail p90 of 1..100 is 90");

  std::cout << (failures == 0 ? "self-test passed" : "self-test FAILED")
            << "\n";
  return failures == 0 ? 0 : 1;
}

}  // namespace perfbench
