#include "paql/ast.h"

#include <algorithm>

#include "common/str_util.h"

namespace paql::lang {

// ---------------------------------------------------------------------------
// Factories
// ---------------------------------------------------------------------------

std::unique_ptr<ScalarExpr> ScalarExpr::Column(std::string qualifier,
                                               std::string column) {
  auto e = std::make_unique<ScalarExpr>();
  e->kind = ScalarKind::kColumn;
  e->qualifier = std::move(qualifier);
  e->column = std::move(column);
  return e;
}

std::unique_ptr<ScalarExpr> ScalarExpr::Literal(relation::Value value) {
  auto e = std::make_unique<ScalarExpr>();
  e->kind = ScalarKind::kLiteral;
  e->literal = std::move(value);
  return e;
}

std::unique_ptr<ScalarExpr> ScalarExpr::Unary(
    std::unique_ptr<ScalarExpr> inner) {
  auto e = std::make_unique<ScalarExpr>();
  e->kind = ScalarKind::kUnaryMinus;
  e->lhs = std::move(inner);
  return e;
}

std::unique_ptr<ScalarExpr> ScalarExpr::Binary(
    ScalarKind op, std::unique_ptr<ScalarExpr> lhs,
    std::unique_ptr<ScalarExpr> rhs) {
  PAQL_CHECK(op == ScalarKind::kAdd || op == ScalarKind::kSub ||
             op == ScalarKind::kMul || op == ScalarKind::kDiv);
  auto e = std::make_unique<ScalarExpr>();
  e->kind = op;
  e->lhs = std::move(lhs);
  e->rhs = std::move(rhs);
  return e;
}

std::unique_ptr<ScalarExpr> ScalarExpr::Clone() const {
  auto e = std::make_unique<ScalarExpr>();
  e->kind = kind;
  e->qualifier = qualifier;
  e->column = column;
  e->literal = literal;
  if (lhs) e->lhs = lhs->Clone();
  if (rhs) e->rhs = rhs->Clone();
  return e;
}

const char* CmpOpSymbol(CmpOp op) {
  switch (op) {
    case CmpOp::kEq: return "=";
    case CmpOp::kNe: return "<>";
    case CmpOp::kLt: return "<";
    case CmpOp::kLe: return "<=";
    case CmpOp::kGt: return ">";
    case CmpOp::kGe: return ">=";
  }
  return "?";
}

CmpOp FlipCmpOp(CmpOp op) {
  switch (op) {
    case CmpOp::kEq: return CmpOp::kEq;
    case CmpOp::kNe: return CmpOp::kNe;
    case CmpOp::kLt: return CmpOp::kGt;
    case CmpOp::kLe: return CmpOp::kGe;
    case CmpOp::kGt: return CmpOp::kLt;
    case CmpOp::kGe: return CmpOp::kLe;
  }
  return op;
}

std::unique_ptr<BoolExpr> BoolExpr::Cmp(CmpOp op,
                                        std::unique_ptr<ScalarExpr> lhs,
                                        std::unique_ptr<ScalarExpr> rhs) {
  auto e = std::make_unique<BoolExpr>();
  e->kind = BoolKind::kCmp;
  e->cmp = op;
  e->scalar_lhs = std::move(lhs);
  e->scalar_rhs = std::move(rhs);
  return e;
}

std::unique_ptr<BoolExpr> BoolExpr::Between(std::unique_ptr<ScalarExpr> expr,
                                            std::unique_ptr<ScalarExpr> lo,
                                            std::unique_ptr<ScalarExpr> hi) {
  auto e = std::make_unique<BoolExpr>();
  e->kind = BoolKind::kBetween;
  e->scalar_lhs = std::move(expr);
  e->between_lo = std::move(lo);
  e->between_hi = std::move(hi);
  return e;
}

std::unique_ptr<BoolExpr> BoolExpr::And(std::unique_ptr<BoolExpr> l,
                                        std::unique_ptr<BoolExpr> r) {
  auto e = std::make_unique<BoolExpr>();
  e->kind = BoolKind::kAnd;
  e->left = std::move(l);
  e->right = std::move(r);
  return e;
}

std::unique_ptr<BoolExpr> BoolExpr::Or(std::unique_ptr<BoolExpr> l,
                                       std::unique_ptr<BoolExpr> r) {
  auto e = std::make_unique<BoolExpr>();
  e->kind = BoolKind::kOr;
  e->left = std::move(l);
  e->right = std::move(r);
  return e;
}

std::unique_ptr<BoolExpr> BoolExpr::Not(std::unique_ptr<BoolExpr> inner) {
  auto e = std::make_unique<BoolExpr>();
  e->kind = BoolKind::kNot;
  e->left = std::move(inner);
  return e;
}

std::unique_ptr<BoolExpr> BoolExpr::Clone() const {
  auto e = std::make_unique<BoolExpr>();
  e->kind = kind;
  e->cmp = cmp;
  if (scalar_lhs) e->scalar_lhs = scalar_lhs->Clone();
  if (scalar_rhs) e->scalar_rhs = scalar_rhs->Clone();
  if (between_lo) e->between_lo = between_lo->Clone();
  if (between_hi) e->between_hi = between_hi->Clone();
  if (left) e->left = left->Clone();
  if (right) e->right = right->Clone();
  return e;
}

std::unique_ptr<AggCall> AggCall::Clone() const {
  auto c = std::make_unique<AggCall>();
  c->func = func;
  c->is_count_star = is_count_star;
  if (arg) c->arg = arg->Clone();
  if (filter) c->filter = filter->Clone();
  return c;
}

std::unique_ptr<GlobalExpr> GlobalExpr::Agg(std::unique_ptr<AggCall> call) {
  auto e = std::make_unique<GlobalExpr>();
  e->kind = GlobalKind::kAgg;
  e->agg = std::move(call);
  return e;
}

std::unique_ptr<GlobalExpr> GlobalExpr::Literal(double value) {
  auto e = std::make_unique<GlobalExpr>();
  e->kind = GlobalKind::kLiteral;
  e->literal = value;
  return e;
}

std::unique_ptr<GlobalExpr> GlobalExpr::Unary(
    std::unique_ptr<GlobalExpr> inner) {
  auto e = std::make_unique<GlobalExpr>();
  e->kind = GlobalKind::kUnaryMinus;
  e->lhs = std::move(inner);
  return e;
}

std::unique_ptr<GlobalExpr> GlobalExpr::Binary(
    GlobalKind op, std::unique_ptr<GlobalExpr> lhs,
    std::unique_ptr<GlobalExpr> rhs) {
  PAQL_CHECK(op == GlobalKind::kAdd || op == GlobalKind::kSub ||
             op == GlobalKind::kMul || op == GlobalKind::kDiv);
  auto e = std::make_unique<GlobalExpr>();
  e->kind = op;
  e->lhs = std::move(lhs);
  e->rhs = std::move(rhs);
  return e;
}

std::unique_ptr<GlobalExpr> GlobalExpr::Clone() const {
  auto e = std::make_unique<GlobalExpr>();
  e->kind = kind;
  e->literal = literal;
  if (agg) e->agg = agg->Clone();
  if (lhs) e->lhs = lhs->Clone();
  if (rhs) e->rhs = rhs->Clone();
  return e;
}

std::unique_ptr<GlobalPredicate> GlobalPredicate::Cmp(
    CmpOp op, std::unique_ptr<GlobalExpr> l, std::unique_ptr<GlobalExpr> r) {
  auto p = std::make_unique<GlobalPredicate>();
  p->kind = GlobalPredKind::kCmp;
  p->cmp = op;
  p->lhs = std::move(l);
  p->rhs = std::move(r);
  return p;
}

std::unique_ptr<GlobalPredicate> GlobalPredicate::Between(
    std::unique_ptr<GlobalExpr> subject, std::unique_ptr<GlobalExpr> lo,
    std::unique_ptr<GlobalExpr> hi) {
  auto p = std::make_unique<GlobalPredicate>();
  p->kind = GlobalPredKind::kBetween;
  p->lhs = std::move(subject);
  p->lo = std::move(lo);
  p->hi = std::move(hi);
  return p;
}

std::unique_ptr<GlobalPredicate> GlobalPredicate::And(
    std::unique_ptr<GlobalPredicate> l, std::unique_ptr<GlobalPredicate> r) {
  auto p = std::make_unique<GlobalPredicate>();
  p->kind = GlobalPredKind::kAnd;
  p->left = std::move(l);
  p->right = std::move(r);
  return p;
}

std::unique_ptr<GlobalPredicate> GlobalPredicate::Or(
    std::unique_ptr<GlobalPredicate> l, std::unique_ptr<GlobalPredicate> r) {
  auto p = std::make_unique<GlobalPredicate>();
  p->kind = GlobalPredKind::kOr;
  p->left = std::move(l);
  p->right = std::move(r);
  return p;
}

std::unique_ptr<GlobalPredicate> GlobalPredicate::Not(
    std::unique_ptr<GlobalPredicate> inner) {
  auto p = std::make_unique<GlobalPredicate>();
  p->kind = GlobalPredKind::kNot;
  p->left = std::move(inner);
  return p;
}

std::unique_ptr<GlobalPredicate> GlobalPredicate::Clone() const {
  auto p = std::make_unique<GlobalPredicate>();
  p->kind = kind;
  p->cmp = cmp;
  if (lhs) p->lhs = lhs->Clone();
  if (rhs) p->rhs = rhs->Clone();
  if (lo) p->lo = lo->Clone();
  if (hi) p->hi = hi->Clone();
  if (left) p->left = left->Clone();
  if (right) p->right = right->Clone();
  return p;
}

Objective Objective::Clone() const {
  Objective o;
  o.sense = sense;
  o.expr = expr ? expr->Clone() : nullptr;
  return o;
}

PackageQuery PackageQuery::Clone() const {
  PackageQuery q;
  q.package_name = package_name;
  q.relation_name = relation_name;
  q.relation_alias = relation_alias;
  q.more_relations = more_relations;
  q.repeat = repeat;
  if (where) q.where = where->Clone();
  if (such_that) q.such_that = such_that->Clone();
  if (objective) q.objective = objective->Clone();
  return q;
}

// ---------------------------------------------------------------------------
// Printing
// ---------------------------------------------------------------------------

namespace {

// Parenthesize children of binary operators conservatively: always wrap
// non-leaf children. Output stays parseable and unambiguous.
bool IsScalarLeaf(const ScalarExpr& e) {
  return e.kind == ScalarKind::kColumn || e.kind == ScalarKind::kLiteral;
}

std::string ScalarChild(const ScalarExpr& e) {
  std::string s = ToString(e);
  return IsScalarLeaf(e) ? s : StrCat("(", s, ")");
}

bool IsGlobalLeaf(const GlobalExpr& e) {
  return e.kind == GlobalKind::kAgg || e.kind == GlobalKind::kLiteral;
}

std::string GlobalChild(const GlobalExpr& e, const std::string& pkg) {
  std::string s = ToString(e, pkg);
  return IsGlobalLeaf(e) ? s : StrCat("(", s, ")");
}

}  // namespace

void CollectColumns(const ScalarExpr& expr, std::vector<std::string>* out) {
  if (expr.kind == ScalarKind::kColumn) {
    out->push_back(expr.column);
    return;
  }
  if (expr.lhs) CollectColumns(*expr.lhs, out);
  if (expr.rhs) CollectColumns(*expr.rhs, out);
}

void CollectColumns(const BoolExpr& expr, std::vector<std::string>* out) {
  if (expr.scalar_lhs) CollectColumns(*expr.scalar_lhs, out);
  if (expr.scalar_rhs) CollectColumns(*expr.scalar_rhs, out);
  if (expr.between_lo) CollectColumns(*expr.between_lo, out);
  if (expr.between_hi) CollectColumns(*expr.between_hi, out);
  if (expr.left) CollectColumns(*expr.left, out);
  if (expr.right) CollectColumns(*expr.right, out);
}

void CollectColumns(const GlobalExpr& expr, std::vector<std::string>* out) {
  if (expr.kind == GlobalKind::kAgg) {
    if (expr.agg->arg) CollectColumns(*expr.agg->arg, out);
    if (expr.agg->filter) CollectColumns(*expr.agg->filter, out);
    return;
  }
  if (expr.lhs) CollectColumns(*expr.lhs, out);
  if (expr.rhs) CollectColumns(*expr.rhs, out);
}

namespace {

template <typename T>
int DepthOrZero(const std::unique_ptr<T>& node) {
  return node ? Depth(*node) : 0;
}

}  // namespace

int Depth(const ScalarExpr& expr) {
  return 1 + std::max(DepthOrZero(expr.lhs), DepthOrZero(expr.rhs));
}

int Depth(const BoolExpr& expr) {
  return 1 + std::max({DepthOrZero(expr.scalar_lhs),
                       DepthOrZero(expr.scalar_rhs),
                       DepthOrZero(expr.between_lo),
                       DepthOrZero(expr.between_hi), DepthOrZero(expr.left),
                       DepthOrZero(expr.right)});
}

int Depth(const AggCall& call) {
  return 1 + std::max(DepthOrZero(call.arg), DepthOrZero(call.filter));
}

int Depth(const GlobalExpr& expr) {
  return 1 + std::max({DepthOrZero(expr.agg), DepthOrZero(expr.lhs),
                       DepthOrZero(expr.rhs)});
}

int Depth(const GlobalPredicate& pred) {
  return 1 + std::max({DepthOrZero(pred.lhs), DepthOrZero(pred.rhs),
                       DepthOrZero(pred.lo), DepthOrZero(pred.hi),
                       DepthOrZero(pred.left), DepthOrZero(pred.right)});
}

std::string ToString(const ScalarExpr& expr) {
  switch (expr.kind) {
    case ScalarKind::kColumn:
      return expr.qualifier.empty() ? expr.column
                                    : StrCat(expr.qualifier, ".", expr.column);
    case ScalarKind::kLiteral:
      return expr.literal.ToString();
    case ScalarKind::kUnaryMinus:
      return StrCat("-", ScalarChild(*expr.lhs));
    case ScalarKind::kAdd:
      return StrCat(ScalarChild(*expr.lhs), " + ", ScalarChild(*expr.rhs));
    case ScalarKind::kSub:
      return StrCat(ScalarChild(*expr.lhs), " - ", ScalarChild(*expr.rhs));
    case ScalarKind::kMul:
      return StrCat(ScalarChild(*expr.lhs), " * ", ScalarChild(*expr.rhs));
    case ScalarKind::kDiv:
      return StrCat(ScalarChild(*expr.lhs), " / ", ScalarChild(*expr.rhs));
  }
  return "?";
}

std::string ToString(const BoolExpr& expr) {
  switch (expr.kind) {
    case BoolKind::kCmp:
      return StrCat(ToString(*expr.scalar_lhs), " ", CmpOpSymbol(expr.cmp),
                    " ", ToString(*expr.scalar_rhs));
    case BoolKind::kBetween:
      return StrCat(ToString(*expr.scalar_lhs), " BETWEEN ",
                    ToString(*expr.between_lo), " AND ",
                    ToString(*expr.between_hi));
    case BoolKind::kAnd:
      return StrCat("(", ToString(*expr.left), ") AND (", ToString(*expr.right),
                    ")");
    case BoolKind::kOr:
      return StrCat("(", ToString(*expr.left), ") OR (", ToString(*expr.right),
                    ")");
    case BoolKind::kNot:
      return StrCat("NOT (", ToString(*expr.left), ")");
    case BoolKind::kIsNull:
      return StrCat(ToString(*expr.scalar_lhs), " IS NULL");
    case BoolKind::kIsNotNull:
      return StrCat(ToString(*expr.scalar_lhs), " IS NOT NULL");
  }
  return "?";
}

std::string ToString(const AggCall& call, const std::string& package_name) {
  using relation::AggFuncName;
  if (call.filter) {
    // Subquery form: (SELECT F(arg) FROM P WHERE filter)
    std::string arg = call.is_count_star ? "*" : ToString(*call.arg);
    return StrCat("(SELECT ", AggFuncName(call.func), "(", arg, ") FROM ",
                  package_name, " WHERE ", ToString(*call.filter), ")");
  }
  if (call.is_count_star) {
    return StrCat("COUNT(", package_name, ".*)");
  }
  return StrCat(AggFuncName(call.func), "(", ToString(*call.arg), ")");
}

std::string ToString(const GlobalExpr& expr, const std::string& pkg) {
  switch (expr.kind) {
    case GlobalKind::kAgg:
      return ToString(*expr.agg, pkg);
    case GlobalKind::kLiteral:
      return FormatDouble(expr.literal, 15);
    case GlobalKind::kUnaryMinus:
      return StrCat("-", GlobalChild(*expr.lhs, pkg));
    case GlobalKind::kAdd:
      return StrCat(GlobalChild(*expr.lhs, pkg), " + ",
                    GlobalChild(*expr.rhs, pkg));
    case GlobalKind::kSub:
      return StrCat(GlobalChild(*expr.lhs, pkg), " - ",
                    GlobalChild(*expr.rhs, pkg));
    case GlobalKind::kMul:
      return StrCat(GlobalChild(*expr.lhs, pkg), " * ",
                    GlobalChild(*expr.rhs, pkg));
    case GlobalKind::kDiv:
      return StrCat(GlobalChild(*expr.lhs, pkg), " / ",
                    GlobalChild(*expr.rhs, pkg));
  }
  return "?";
}

std::string ToString(const GlobalPredicate& pred, const std::string& pkg) {
  switch (pred.kind) {
    case GlobalPredKind::kCmp:
      return StrCat(ToString(*pred.lhs, pkg), " ", CmpOpSymbol(pred.cmp), " ",
                    ToString(*pred.rhs, pkg));
    case GlobalPredKind::kBetween:
      return StrCat(ToString(*pred.lhs, pkg), " BETWEEN ",
                    ToString(*pred.lo, pkg), " AND ", ToString(*pred.hi, pkg));
    case GlobalPredKind::kAnd:
      return StrCat("(", ToString(*pred.left, pkg), ") AND (",
                    ToString(*pred.right, pkg), ")");
    case GlobalPredKind::kOr:
      return StrCat("(", ToString(*pred.left, pkg), ") OR (",
                    ToString(*pred.right, pkg), ")");
    case GlobalPredKind::kNot:
      return StrCat("NOT (", ToString(*pred.left, pkg), ")");
  }
  return "?";
}

std::string ToString(const PackageQuery& query) {
  std::string out = StrCat("SELECT PACKAGE(", query.relation_alias, ") AS ",
                           query.package_name, "\nFROM ", query.relation_name);
  if (query.relation_alias != query.relation_name) {
    out += StrCat(" ", query.relation_alias);
  }
  if (query.repeat.has_value()) {
    out += StrCat(" REPEAT ", *query.repeat);
  }
  for (const FromItem& item : query.more_relations) {
    out += StrCat(", ", item.relation_name);
    if (item.alias != item.relation_name) {
      out += StrCat(" ", item.alias);
    }
  }
  if (query.where) {
    out += StrCat("\nWHERE ", ToString(*query.where));
  }
  if (query.such_that) {
    out += StrCat("\nSUCH THAT ", ToString(*query.such_that,
                                           query.package_name));
  }
  if (query.objective.has_value()) {
    out += StrCat(
        "\n",
        query.objective->sense == ObjectiveSense::kMinimize ? "MINIMIZE"
                                                            : "MAXIMIZE",
        " ", ToString(*query.objective->expr, query.package_name));
  }
  return out;
}

}  // namespace paql::lang
