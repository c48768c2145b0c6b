#include <gtest/gtest.h>

#include <string>

#include "common/str_util.h"
#include "paql/ast.h"
#include "paql/parser.h"

namespace paql::lang {
namespace {

PackageQuery MustParse(std::string_view text) {
  auto r = ParsePackageQuery(text);
  EXPECT_TRUE(r.ok()) << r.status();
  if (!r.ok()) return PackageQuery{};
  return std::move(*r);
}

constexpr const char* kMealPlanner = R"(
  SELECT PACKAGE(R) AS P
  FROM Recipes R REPEAT 0
  WHERE R.gluten = 'free'
  SUCH THAT COUNT(P.*) = 3 AND
            SUM(P.kcal) BETWEEN 2.0 AND 2.5
  MINIMIZE SUM(P.saturated_fat)
)";

TEST(ParserTest, MealPlannerQueryStructure) {
  PackageQuery q = MustParse(kMealPlanner);
  EXPECT_EQ(q.package_name, "P");
  EXPECT_EQ(q.relation_name, "Recipes");
  EXPECT_EQ(q.relation_alias, "R");
  ASSERT_TRUE(q.repeat.has_value());
  EXPECT_EQ(*q.repeat, 0);
  ASSERT_NE(q.where, nullptr);
  EXPECT_EQ(q.where->kind, BoolKind::kCmp);
  ASSERT_NE(q.such_that, nullptr);
  EXPECT_EQ(q.such_that->kind, GlobalPredKind::kAnd);
  ASSERT_TRUE(q.objective.has_value());
  EXPECT_EQ(q.objective->sense, ObjectiveSense::kMinimize);
}

TEST(ParserTest, SuchThatTreeShape) {
  PackageQuery q = MustParse(kMealPlanner);
  const GlobalPredicate& st = *q.such_that;
  ASSERT_EQ(st.kind, GlobalPredKind::kAnd);
  const GlobalPredicate& count = *st.left;
  EXPECT_EQ(count.kind, GlobalPredKind::kCmp);
  EXPECT_EQ(count.cmp, CmpOp::kEq);
  ASSERT_EQ(count.lhs->kind, GlobalKind::kAgg);
  EXPECT_TRUE(count.lhs->agg->is_count_star);
  const GlobalPredicate& between = *st.right;
  EXPECT_EQ(between.kind, GlobalPredKind::kBetween);
  ASSERT_EQ(between.lhs->kind, GlobalKind::kAgg);
  EXPECT_EQ(between.lhs->agg->func, relation::AggFunc::kSum);
}

TEST(ParserTest, MinimalQuery) {
  PackageQuery q = MustParse("SELECT PACKAGE(R) FROM Recipes R");
  EXPECT_EQ(q.package_name, "R");  // defaults to the PACKAGE argument
  EXPECT_FALSE(q.repeat.has_value());
  EXPECT_EQ(q.where, nullptr);
  EXPECT_EQ(q.such_that, nullptr);
  EXPECT_FALSE(q.objective.has_value());
}

TEST(ParserTest, AliasWithoutAsKeyword) {
  PackageQuery q = MustParse("SELECT PACKAGE(R) P FROM Recipes R");
  EXPECT_EQ(q.package_name, "P");
  EXPECT_EQ(q.relation_alias, "R");
}

TEST(ParserTest, PackageOverRelationNameWithoutAlias) {
  PackageQuery q =
      MustParse("SELECT PACKAGE(Recipes) AS P FROM Recipes REPEAT 2");
  EXPECT_EQ(q.relation_alias, "Recipes");
  EXPECT_EQ(*q.repeat, 2);
}

TEST(ParserTest, PackageArgMustNameRelation) {
  auto r = ParsePackageQuery("SELECT PACKAGE(X) AS P FROM Recipes R");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kParseError);
}

TEST(ParserTest, SubqueryCountForm) {
  PackageQuery q = MustParse(R"(
    SELECT PACKAGE(R) AS P FROM T R
    SUCH THAT (SELECT COUNT(*) FROM P WHERE P.carbs > 0) >=
              (SELECT COUNT(*) FROM P WHERE P.protein <= 5))");
  const GlobalPredicate& st = *q.such_that;
  ASSERT_EQ(st.kind, GlobalPredKind::kCmp);
  EXPECT_EQ(st.cmp, CmpOp::kGe);
  ASSERT_EQ(st.lhs->kind, GlobalKind::kAgg);
  EXPECT_TRUE(st.lhs->agg->is_count_star);
  ASSERT_NE(st.lhs->agg->filter, nullptr);
  EXPECT_EQ(st.lhs->agg->filter->kind, BoolKind::kCmp);
  ASSERT_NE(st.rhs->agg->filter, nullptr);
}

TEST(ParserTest, SubquerySumWithFilter) {
  PackageQuery q = MustParse(R"(
    SELECT PACKAGE(R) AS P FROM T R
    SUCH THAT (SELECT SUM(P.cost) FROM P WHERE P.region = 'EU') <= 100)");
  const AggCall& agg = *q.such_that->lhs->agg;
  EXPECT_EQ(agg.func, relation::AggFunc::kSum);
  EXPECT_FALSE(agg.is_count_star);
  ASSERT_NE(agg.arg, nullptr);
  ASSERT_NE(agg.filter, nullptr);
}

TEST(ParserTest, SubqueryMustSelectFromPackage) {
  auto r = ParsePackageQuery(R"(
    SELECT PACKAGE(R) AS P FROM T R
    SUCH THAT (SELECT COUNT(*) FROM Q) >= 1)");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("package"), std::string::npos);
}

TEST(ParserTest, GlobalArithmeticPrecedence) {
  PackageQuery q = MustParse(R"(
    SELECT PACKAGE(R) AS P FROM T R
    SUCH THAT SUM(P.a) + 2 * SUM(P.b) <= 10)");
  const GlobalExpr& lhs = *q.such_that->lhs;
  ASSERT_EQ(lhs.kind, GlobalKind::kAdd);
  EXPECT_EQ(lhs.lhs->kind, GlobalKind::kAgg);
  ASSERT_EQ(lhs.rhs->kind, GlobalKind::kMul);
  EXPECT_EQ(lhs.rhs->lhs->kind, GlobalKind::kLiteral);
}

TEST(ParserTest, BooleanPrecedenceAndParens) {
  PackageQuery q = MustParse(R"(
    SELECT PACKAGE(R) AS P FROM T R
    WHERE a = 1 OR b = 2 AND c = 3)");
  // OR binds looser than AND.
  ASSERT_EQ(q.where->kind, BoolKind::kOr);
  EXPECT_EQ(q.where->left->kind, BoolKind::kCmp);
  EXPECT_EQ(q.where->right->kind, BoolKind::kAnd);
}

TEST(ParserTest, ParenthesizedBooleanGrouping) {
  PackageQuery q = MustParse(R"(
    SELECT PACKAGE(R) AS P FROM T R
    WHERE (a = 1 OR b = 2) AND c = 3)");
  ASSERT_EQ(q.where->kind, BoolKind::kAnd);
  EXPECT_EQ(q.where->left->kind, BoolKind::kOr);
}

TEST(ParserTest, ParenthesizedScalarVsBoolean) {
  PackageQuery q = MustParse(R"(
    SELECT PACKAGE(R) AS P FROM T R
    WHERE (a + b) * 2 > 6)");
  ASSERT_EQ(q.where->kind, BoolKind::kCmp);
  EXPECT_EQ(q.where->cmp, CmpOp::kGt);
  EXPECT_EQ(q.where->scalar_lhs->kind, ScalarKind::kMul);
}

TEST(ParserTest, WhereIsNullForms) {
  PackageQuery q = MustParse(R"(
    SELECT PACKAGE(R) AS P FROM T R
    WHERE a IS NULL AND b IS NOT NULL)");
  ASSERT_EQ(q.where->kind, BoolKind::kAnd);
  EXPECT_EQ(q.where->left->kind, BoolKind::kIsNull);
  EXPECT_EQ(q.where->right->kind, BoolKind::kIsNotNull);
}

TEST(ParserTest, NotInWhere) {
  PackageQuery q = MustParse(R"(
    SELECT PACKAGE(R) AS P FROM T R WHERE NOT a = 1)");
  EXPECT_EQ(q.where->kind, BoolKind::kNot);
}

TEST(ParserTest, RepeatValidation) {
  EXPECT_FALSE(ParsePackageQuery(
                   "SELECT PACKAGE(R) AS P FROM T R REPEAT -1")
                   .ok());
  EXPECT_FALSE(ParsePackageQuery(
                   "SELECT PACKAGE(R) AS P FROM T R REPEAT 1.5")
                   .ok());
}

TEST(ParserTest, MultiRelationFromListParses) {
  // Multi-relation FROM lists are parsed into `more_relations` and handled
  // by the join pipeline (core/from_clause, paper Section 4.5).
  auto r = ParsePackageQuery("SELECT PACKAGE(A) AS P FROM A, B");
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(r->relation_name, "A");
  ASSERT_EQ(r->more_relations.size(), 1u);
  EXPECT_EQ(r->more_relations[0].relation_name, "B");
}

TEST(ParserTest, MaximizeObjective) {
  PackageQuery q = MustParse(R"(
    SELECT PACKAGE(R) AS P FROM T R MAXIMIZE SUM(P.gain) - SUM(P.cost))");
  ASSERT_TRUE(q.objective.has_value());
  EXPECT_EQ(q.objective->sense, ObjectiveSense::kMaximize);
  EXPECT_EQ(q.objective->expr->kind, GlobalKind::kSub);
}

TEST(ParserTest, CountStarUnqualified) {
  PackageQuery q = MustParse(R"(
    SELECT PACKAGE(R) AS P FROM T R SUCH THAT COUNT(*) <= 4)");
  EXPECT_TRUE(q.such_that->lhs->agg->is_count_star);
}

TEST(ParserTest, CountStarWrongQualifierFails) {
  auto r = ParsePackageQuery(R"(
    SELECT PACKAGE(R) AS P FROM T R SUCH THAT COUNT(Z.*) <= 4)");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("Z"), std::string::npos);
}

TEST(ParserTest, TrailingGarbageFails) {
  auto r = ParsePackageQuery("SELECT PACKAGE(R) AS P FROM T R bogus extra");
  EXPECT_FALSE(r.ok());
}

TEST(ParserTest, SemicolonAccepted) {
  EXPECT_TRUE(ParsePackageQuery("SELECT PACKAGE(R) AS P FROM T R;").ok());
}

TEST(ParserTest, ErrorsCarryLocation) {
  auto r = ParsePackageQuery("SELECT PACKAGE(R AS P FROM T R");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("1:"), std::string::npos);
}

// Round-trip: parse → print → parse → print must be a fixed point.
class RoundTripTest : public ::testing::TestWithParam<const char*> {};

TEST_P(RoundTripTest, PrintParsePrintIsStable) {
  auto q1 = ParsePackageQuery(GetParam());
  ASSERT_TRUE(q1.ok()) << q1.status();
  std::string printed1 = ToString(*q1);
  auto q2 = ParsePackageQuery(printed1);
  ASSERT_TRUE(q2.ok()) << "reparse failed: " << q2.status() << "\n"
                       << printed1;
  EXPECT_EQ(printed1, ToString(*q2));
}

INSTANTIATE_TEST_SUITE_P(
    Queries, RoundTripTest,
    ::testing::Values(
        "SELECT PACKAGE(R) AS P FROM Recipes R",
        "SELECT PACKAGE(R) AS P FROM Recipes R REPEAT 3",
        "SELECT PACKAGE(R) AS P FROM Recipes R WHERE R.gluten = 'free'",
        "SELECT PACKAGE(R) AS P FROM T R WHERE a BETWEEN 1 AND 2",
        "SELECT PACKAGE(R) AS P FROM T R WHERE NOT (a = 1 OR b < 2)",
        "SELECT PACKAGE(R) AS P FROM T R WHERE a IS NOT NULL",
        "SELECT PACKAGE(R) AS P FROM T R SUCH THAT COUNT(P.*) = 3",
        "SELECT PACKAGE(R) AS P FROM T R SUCH THAT SUM(P.x) BETWEEN 1 AND 2",
        "SELECT PACKAGE(R) AS P FROM T R SUCH THAT AVG(P.x) <= 0.5",
        "SELECT PACKAGE(R) AS P FROM T R "
        "SUCH THAT (SELECT COUNT(*) FROM P WHERE P.c > 0) >= 2",
        "SELECT PACKAGE(R) AS P FROM T R "
        "SUCH THAT (SELECT SUM(P.w) FROM P WHERE P.t = 'x') <= 9",
        "SELECT PACKAGE(R) AS P FROM T R "
        "SUCH THAT COUNT(P.*) = 3 AND SUM(P.x) <= 5 MINIMIZE SUM(P.y)",
        "SELECT PACKAGE(R) AS P FROM T R "
        "SUCH THAT SUM(P.a) <= 1 OR SUM(P.b) >= 2",
        "SELECT PACKAGE(R) AS P FROM T R MAXIMIZE SUM(P.gain) - "
        "(2 * SUM(P.cost))",
        "SELECT PACKAGE(R) AS P FROM T R WHERE (a + b) * 2 > 6"));

// ---------------------------------------------------------------------------
// Nesting depth: adversarial text is a structured error, never a crash.
// ---------------------------------------------------------------------------

std::string Repeat(std::string_view piece, size_t times) {
  std::string out;
  out.reserve(piece.size() * times);
  for (size_t i = 0; i < times; ++i) out += piece;
  return out;
}

void ExpectTooDeep(const std::string& text) {
  auto parsed = ParsePackageQuery(text);
  ASSERT_FALSE(parsed.ok()) << "text of " << text.size() << " bytes parsed";
  EXPECT_EQ(parsed.status().code(), StatusCode::kParseError);
  EXPECT_NE(parsed.status().message().find("deeper than 256"),
            std::string::npos)
      << parsed.status();
}

constexpr const char* kHead = "SELECT PACKAGE(R) AS P FROM T R REPEAT 0 ";

TEST(ParserDepthTest, MillionDeepNestingIsAParseError) {
  const size_t kDeep = 1000000;
  // Parentheses around a WHERE predicate, around a scalar, and around a
  // SUCH THAT predicate.
  ExpectTooDeep(StrCat(kHead, "WHERE ", Repeat("(", kDeep), "R.a > 1",
                       Repeat(")", kDeep)));
  ExpectTooDeep(StrCat(kHead, "WHERE ", Repeat("(", kDeep), "R.a",
                       Repeat(")", kDeep), " > 1"));
  ExpectTooDeep(StrCat(kHead, "SUCH THAT ", Repeat("(", kDeep),
                       "COUNT(P.*) = 1", Repeat(")", kDeep)));
  // (Operator chains tokenize in full before the parser stops them, so
  // they run 100k deep: still 400 times the limit, at a tenth the tokens.)
  const size_t kChain = 100000;
  ExpectTooDeep(StrCat(kHead, "WHERE ", Repeat("NOT ", kChain), "R.a > 1"));
  ExpectTooDeep(StrCat(kHead, "WHERE ", Repeat("- ", kChain), "R.a > 1"));
  ExpectTooDeep(StrCat(kHead, "SUCH THAT ", Repeat("NOT ", kChain),
                       "COUNT(P.*) = 1"));
  ExpectTooDeep(StrCat(kHead, "SUCH THAT COUNT(P.*) = 1 MINIMIZE ",
                       Repeat("- ", kChain), "SUM(P.a)"));
}

TEST(ParserDepthTest, LongOperatorChainsAreBoundedByTheirTreeDepth) {
  // A flat chain builds a left-deep tree, one level per operator.
  ExpectTooDeep(StrCat(kHead, "WHERE R.a > 1", Repeat(" OR R.a > 1", 5000)));
  ExpectTooDeep(StrCat(kHead, "WHERE R.a", Repeat(" + R.a", 5000), " > 1"));
  ExpectTooDeep(StrCat(kHead, "SUCH THAT COUNT(P.*) = 1",
                       Repeat(" AND COUNT(P.*) = 1", 5000)));
  ExpectTooDeep(StrCat(kHead, "SUCH THAT COUNT(P.*) = 1 MINIMIZE SUM(P.a)",
                       Repeat(" + SUM(P.a)", 5000)));
}

TEST(ParserDepthTest, TheLimitIsExactAndMatchesDepth) {
  // n AND-ed comparisons: each comparison is 2 levels (the Cmp node over
  // its column and literal), each AND one more: depth n + 1.
  auto chain = [](size_t n) {
    return StrCat(kHead, "WHERE R.a > 1", Repeat(" AND R.a > 1", n - 1));
  };
  auto at_limit = ParsePackageQuery(chain(kMaxExprDepth - 1));
  ASSERT_TRUE(at_limit.ok()) << at_limit.status();
  EXPECT_EQ(Depth(*at_limit->where), kMaxExprDepth);
  ExpectTooDeep(chain(kMaxExprDepth));

  // Parentheses add no node; NOT does: a comparison under 200 NOTs is
  // 202 deep. NOTs past the limit stop the parser's own recursion.
  auto nots = [](size_t n) {
    return StrCat(kHead, "WHERE ", Repeat("NOT ", n), "(R.a > 1)");
  };
  auto under_nots = ParsePackageQuery(nots(200));
  ASSERT_TRUE(under_nots.ok()) << under_nots.status();
  EXPECT_EQ(Depth(*under_nots->where), 202);
  ExpectTooDeep(nots(kMaxExprDepth));

  // Aggregates count their call node: COUNT(P.*) is 2 deep, SUM(P.a) 3,
  // a comparison of the two 4, and a subquery filter adds its own depth.
  auto q = ParsePackageQuery(StrCat(
      kHead, "SUCH THAT COUNT(P.*) <= SUM(P.a) AND "
             "(SELECT COUNT(*) FROM P WHERE P.a > 1 AND P.b > 2) >= 1"));
  ASSERT_TRUE(q.ok()) << q.status();
  EXPECT_EQ(Depth(*q->such_that->left), 4);
  EXPECT_EQ(Depth(*q->such_that->right), 6);
  EXPECT_EQ(Depth(*q->such_that), 7);

  // Parentheses within the limit parse to a shallow tree.
  auto parens = ParsePackageQuery(StrCat(kHead, "WHERE ",
                                         Repeat("(", kMaxExprDepth - 3),
                                         "R.a > 1",
                                         Repeat(")", kMaxExprDepth - 3)));
  ASSERT_TRUE(parens.ok()) << parens.status();
  EXPECT_EQ(Depth(*parens->where), 2);
}

}  // namespace
}  // namespace paql::lang
