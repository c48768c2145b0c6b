// Abstract syntax tree for PaQL package queries.
//
// The AST mirrors the grammar in Appendix A.4 of the paper:
//
//   SELECT PACKAGE(rel_alias) [AS] package_name
//   FROM rel_name [AS] rel_alias [REPEAT k]
//   [WHERE w_condition]
//   [SUCH THAT st_condition]
//   [(MINIMIZE|MAXIMIZE) objective]
//
// WHERE holds *base predicates* (per-tuple); SUCH THAT holds *global
// predicates* (package-level aggregates); the objective ranks packages.
#ifndef PAQL_PAQL_AST_H_
#define PAQL_PAQL_AST_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "relation/aggregate.h"
#include "relation/value.h"

namespace paql::lang {

// ---------------------------------------------------------------------------
// Scalar expressions: evaluated against one tuple. Used in WHERE and inside
// aggregate arguments (e.g. SUM(P.kcal * 2 + P.fat)).
// ---------------------------------------------------------------------------

enum class ScalarKind {
  kColumn,      // [qualifier.]column
  kLiteral,     // numeric or string constant
  kUnaryMinus,  // -expr
  kAdd, kSub, kMul, kDiv,
};

struct ScalarExpr {
  ScalarKind kind;
  // kColumn:
  std::string qualifier;  // optional relation/package alias; empty if none
  std::string column;
  // kLiteral:
  relation::Value literal;
  // kUnaryMinus uses lhs only; binary ops use both.
  std::unique_ptr<ScalarExpr> lhs;
  std::unique_ptr<ScalarExpr> rhs;

  static std::unique_ptr<ScalarExpr> Column(std::string qualifier,
                                            std::string column);
  static std::unique_ptr<ScalarExpr> Literal(relation::Value value);
  static std::unique_ptr<ScalarExpr> Unary(std::unique_ptr<ScalarExpr> inner);
  static std::unique_ptr<ScalarExpr> Binary(ScalarKind op,
                                            std::unique_ptr<ScalarExpr> lhs,
                                            std::unique_ptr<ScalarExpr> rhs);
  std::unique_ptr<ScalarExpr> Clone() const;
};

// ---------------------------------------------------------------------------
// Boolean expressions over one tuple (WHERE clause, aggregate filters).
// ---------------------------------------------------------------------------

enum class CmpOp { kEq, kNe, kLt, kLe, kGt, kGe };

const char* CmpOpSymbol(CmpOp op);
/// The comparison with operands swapped (e.g. `<` becomes `>`).
CmpOp FlipCmpOp(CmpOp op);

enum class BoolKind {
  kCmp,       // scalar CMP scalar
  kBetween,   // scalar BETWEEN lo AND hi
  kAnd, kOr, kNot,
  kIsNull,    // scalar IS NULL
  kIsNotNull, // scalar IS NOT NULL
};

struct BoolExpr {
  BoolKind kind;
  CmpOp cmp = CmpOp::kEq;
  // kCmp uses scalar_lhs/scalar_rhs; kBetween uses scalar_lhs + lo/hi;
  // kIsNull / kIsNotNull use scalar_lhs.
  std::unique_ptr<ScalarExpr> scalar_lhs;
  std::unique_ptr<ScalarExpr> scalar_rhs;
  std::unique_ptr<ScalarExpr> between_lo;
  std::unique_ptr<ScalarExpr> between_hi;
  // kAnd/kOr use left+right; kNot uses left.
  std::unique_ptr<BoolExpr> left;
  std::unique_ptr<BoolExpr> right;

  static std::unique_ptr<BoolExpr> Cmp(CmpOp op,
                                       std::unique_ptr<ScalarExpr> lhs,
                                       std::unique_ptr<ScalarExpr> rhs);
  static std::unique_ptr<BoolExpr> Between(std::unique_ptr<ScalarExpr> expr,
                                           std::unique_ptr<ScalarExpr> lo,
                                           std::unique_ptr<ScalarExpr> hi);
  static std::unique_ptr<BoolExpr> And(std::unique_ptr<BoolExpr> l,
                                       std::unique_ptr<BoolExpr> r);
  static std::unique_ptr<BoolExpr> Or(std::unique_ptr<BoolExpr> l,
                                      std::unique_ptr<BoolExpr> r);
  static std::unique_ptr<BoolExpr> Not(std::unique_ptr<BoolExpr> e);
  std::unique_ptr<BoolExpr> Clone() const;
};

// ---------------------------------------------------------------------------
// Global (package-level) expressions: linear combinations of aggregates.
// ---------------------------------------------------------------------------

/// One aggregate call over the package, e.g. `SUM(P.kcal)`, `COUNT(P.*)`, or
/// the subquery form `(SELECT COUNT(*) FROM P WHERE P.carbs > 0)`.
struct AggCall {
  relation::AggFunc func;
  bool is_count_star = false;          // COUNT(*) / COUNT(P.*)
  std::unique_ptr<ScalarExpr> arg;     // per-tuple argument; null iff count(*)
  std::unique_ptr<BoolExpr> filter;    // subquery WHERE filter; may be null

  std::unique_ptr<AggCall> Clone() const;
};

enum class GlobalKind {
  kAgg,       // an AggCall
  kLiteral,   // numeric constant
  kUnaryMinus,
  kAdd, kSub, kMul, kDiv,
};

struct GlobalExpr {
  GlobalKind kind;
  std::unique_ptr<AggCall> agg;  // kAgg
  double literal = 0;            // kLiteral
  std::unique_ptr<GlobalExpr> lhs;
  std::unique_ptr<GlobalExpr> rhs;

  static std::unique_ptr<GlobalExpr> Agg(std::unique_ptr<AggCall> call);
  static std::unique_ptr<GlobalExpr> Literal(double value);
  static std::unique_ptr<GlobalExpr> Unary(std::unique_ptr<GlobalExpr> inner);
  static std::unique_ptr<GlobalExpr> Binary(GlobalKind op,
                                            std::unique_ptr<GlobalExpr> lhs,
                                            std::unique_ptr<GlobalExpr> rhs);
  std::unique_ptr<GlobalExpr> Clone() const;
};

enum class GlobalPredKind { kCmp, kBetween, kAnd, kOr, kNot };

/// The SUCH THAT condition tree. The paper supports arbitrary Boolean
/// combinations; AND translates to conjoined rows, OR/NOT translate via
/// big-M indicator variables (Section 3.1, "General Boolean expressions").
struct GlobalPredicate {
  GlobalPredKind kind;
  CmpOp cmp = CmpOp::kEq;
  std::unique_ptr<GlobalExpr> lhs;   // kCmp / kBetween subject
  std::unique_ptr<GlobalExpr> rhs;   // kCmp
  std::unique_ptr<GlobalExpr> lo;    // kBetween
  std::unique_ptr<GlobalExpr> hi;    // kBetween
  std::unique_ptr<GlobalPredicate> left;
  std::unique_ptr<GlobalPredicate> right;

  static std::unique_ptr<GlobalPredicate> Cmp(CmpOp op,
                                              std::unique_ptr<GlobalExpr> l,
                                              std::unique_ptr<GlobalExpr> r);
  static std::unique_ptr<GlobalPredicate> Between(
      std::unique_ptr<GlobalExpr> subject, std::unique_ptr<GlobalExpr> lo,
      std::unique_ptr<GlobalExpr> hi);
  static std::unique_ptr<GlobalPredicate> And(
      std::unique_ptr<GlobalPredicate> l, std::unique_ptr<GlobalPredicate> r);
  static std::unique_ptr<GlobalPredicate> Or(
      std::unique_ptr<GlobalPredicate> l, std::unique_ptr<GlobalPredicate> r);
  static std::unique_ptr<GlobalPredicate> Not(
      std::unique_ptr<GlobalPredicate> e);
  std::unique_ptr<GlobalPredicate> Clone() const;
};

enum class ObjectiveSense { kMinimize, kMaximize };

struct Objective {
  ObjectiveSense sense;
  std::unique_ptr<GlobalExpr> expr;

  Objective Clone() const;
};

/// One additional FROM relation beyond the first (multi-relation queries).
struct FromItem {
  std::string relation_name;
  std::string alias;  // defaults to relation_name
};

/// A parsed PaQL query.
struct PackageQuery {
  std::string package_name;       // the AS name, e.g. "P"
  std::string relation_name;      // first FROM relation
  std::string relation_alias;     // alias (defaults to relation_name)
  /// Additional FROM relations (the grammar permits a list). Multi-relation
  /// queries are evaluated by materializing the join first (paper §4.5);
  /// see core/from_clause.h. Single-relation queries leave this empty.
  std::vector<FromItem> more_relations;
  std::optional<int64_t> repeat;  // REPEAT K; nullopt = unbounded repetition
  std::unique_ptr<BoolExpr> where;            // may be null
  std::unique_ptr<GlobalPredicate> such_that; // may be null
  std::optional<Objective> objective;         // may be absent

  PackageQuery Clone() const;
};

// ---------------------------------------------------------------------------
// Column collection (which columns does an expression reference?). Used by
// the translate layer to attach attribute provenance to compiled constraints
// — e.g. the attribute-dropping infeasibility remedy (paper Section 4.4,
// remedy 3) maps IIS rows back to partitioning attributes through this.
// ---------------------------------------------------------------------------

void CollectColumns(const ScalarExpr& expr, std::vector<std::string>* out);
void CollectColumns(const BoolExpr& expr, std::vector<std::string>* out);
void CollectColumns(const GlobalExpr& expr, std::vector<std::string>* out);

// ---------------------------------------------------------------------------
// Depth: nodes on the longest root-to-leaf path, counting every node of
// every kind the recursive walkers descend through (an AggCall and its
// argument and filter included).
// ---------------------------------------------------------------------------

/// The deepest expression the parser accepts: no parsed AST is deeper, and
/// the parser's own recursion through parentheses, unary signs and NOTs
/// stops at the same depth; deeper text is a kParseError. The recursive AST walkers (validation, compilation,
/// printing, cloning) rely on this bound, so adversarial nesting cannot
/// overflow their stacks.
inline constexpr int kMaxExprDepth = 256;

int Depth(const ScalarExpr& expr);
int Depth(const BoolExpr& expr);
int Depth(const AggCall& call);
int Depth(const GlobalExpr& expr);
int Depth(const GlobalPredicate& pred);

// ---------------------------------------------------------------------------
// Printing (produces parseable PaQL text; used for round-trip tests).
// ---------------------------------------------------------------------------

std::string ToString(const ScalarExpr& expr);
std::string ToString(const BoolExpr& expr);
std::string ToString(const AggCall& call, const std::string& package_name);
std::string ToString(const GlobalExpr& expr, const std::string& package_name);
std::string ToString(const GlobalPredicate& pred,
                     const std::string& package_name);
std::string ToString(const PackageQuery& query);

}  // namespace paql::lang

#endif  // PAQL_PAQL_AST_H_
