#include "paql/parser.h"

#include <algorithm>
#include <cmath>
#include <initializer_list>

#include "common/str_util.h"
#include "paql/token.h"

namespace paql::lang {
namespace {

/// Token-stream parser with explicit backtracking (save/restore position).
///
/// Depth accounting (kMaxExprDepth): every expression parser leaves the
/// depth of the tree it returns in depth_, and every node it builds checks
/// its children's depths against the limit, so no deeper AST is ever
/// built. Recursion that builds no node — a parenthesis — is bounded by
/// nesting_, which the four factor parsers (every recursion cycle passes
/// through one) count.
class Parser {
 public:
  explicit Parser(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}

  Result<PackageQuery> ParseQuery() {
    PackageQuery q;
    PAQL_RETURN_IF_ERROR(Expect(TokenType::kSelect));
    PAQL_RETURN_IF_ERROR(Expect(TokenType::kPackage));
    PAQL_RETURN_IF_ERROR(Expect(TokenType::kLParen));
    PAQL_ASSIGN_OR_RETURN(std::string package_alias, ExpectIdentifier());
    PAQL_RETURN_IF_ERROR(Expect(TokenType::kRParen));
    // Package name: [AS] name; if absent, the package is named after the
    // PACKAGE(alias) argument.
    q.package_name = package_alias;
    if (Accept(TokenType::kAs)) {
      PAQL_ASSIGN_OR_RETURN(q.package_name, ExpectIdentifier());
    } else if (Check(TokenType::kIdentifier)) {
      PAQL_ASSIGN_OR_RETURN(q.package_name, ExpectIdentifier());
    }

    PAQL_RETURN_IF_ERROR(Expect(TokenType::kFrom));
    PAQL_ASSIGN_OR_RETURN(q.relation_name, ExpectIdentifier());
    q.relation_alias = q.relation_name;
    if (Accept(TokenType::kAs)) {
      PAQL_ASSIGN_OR_RETURN(q.relation_alias, ExpectIdentifier());
    } else if (Check(TokenType::kIdentifier)) {
      PAQL_ASSIGN_OR_RETURN(q.relation_alias, ExpectIdentifier());
    }
    if (Accept(TokenType::kRepeat)) {
      if (!Check(TokenType::kNumber)) {
        return Error("REPEAT expects a non-negative integer");
      }
      double value = Peek().number;
      Advance();
      if (value < 0 || value != std::floor(value)) {
        return Error("REPEAT expects a non-negative integer");
      }
      q.repeat = static_cast<int64_t>(value);
    }
    // Additional FROM relations (multi-relation queries are evaluated by
    // materializing the join first — core/from_clause.h, paper §4.5).
    while (Accept(TokenType::kComma)) {
      FromItem item;
      PAQL_ASSIGN_OR_RETURN(item.relation_name, ExpectIdentifier());
      item.alias = item.relation_name;
      if (Accept(TokenType::kAs)) {
        PAQL_ASSIGN_OR_RETURN(item.alias, ExpectIdentifier());
      } else if (Check(TokenType::kIdentifier)) {
        PAQL_ASSIGN_OR_RETURN(item.alias, ExpectIdentifier());
      }
      if (Check(TokenType::kRepeat)) {
        return Status::Unsupported(
            "REPEAT applies to the whole package; attach it to the first "
            "FROM relation");
      }
      q.more_relations.push_back(std::move(item));
    }
    bool package_names_from =
        q.relation_alias == package_alias || q.relation_name == package_alias;
    for (const FromItem& item : q.more_relations) {
      package_names_from = package_names_from ||
                           item.alias == package_alias ||
                           item.relation_name == package_alias;
    }
    if (!package_names_from) {
      return Error(StrCat("PACKAGE(", package_alias,
                          ") does not name a FROM relation or its alias"));
    }

    if (Accept(TokenType::kWhere)) {
      PAQL_ASSIGN_OR_RETURN(q.where, ParseBool());
    }
    if (Accept(TokenType::kSuchKw)) {
      PAQL_RETURN_IF_ERROR(Expect(TokenType::kThat));
      PAQL_ASSIGN_OR_RETURN(q.such_that, ParseGlobalPred(q.package_name));
    }
    if (Check(TokenType::kMinimize) || Check(TokenType::kMaximize)) {
      Objective obj;
      obj.sense = Check(TokenType::kMinimize) ? ObjectiveSense::kMinimize
                                              : ObjectiveSense::kMaximize;
      Advance();
      PAQL_ASSIGN_OR_RETURN(obj.expr, ParseGlobalExpr(q.package_name));
      q.objective = std::move(obj);
    }
    Accept(TokenType::kSemicolon);
    if (!Check(TokenType::kEnd)) {
      return Error(StrCat("unexpected trailing ", Peek().Describe()));
    }
    return q;
  }

  Result<std::unique_ptr<BoolExpr>> ParseBoolOnly() {
    PAQL_ASSIGN_OR_RETURN(auto e, ParseBool());
    if (!Check(TokenType::kEnd)) {
      return Error(StrCat("unexpected trailing ", Peek().Describe()));
    }
    return e;
  }

 private:
  // ------------------------------------------------------------------
  // Token helpers
  // ------------------------------------------------------------------
  const Token& Peek(size_t ahead = 0) const {
    size_t i = pos_ + ahead;
    return i < tokens_.size() ? tokens_[i] : tokens_.back();
  }
  bool Check(TokenType type) const { return Peek().type == type; }
  void Advance() {
    if (pos_ + 1 < tokens_.size()) ++pos_;
  }
  bool Accept(TokenType type) {
    if (!Check(type)) return false;
    Advance();
    return true;
  }
  Status Expect(TokenType type) {
    if (!Check(type)) {
      return Error(
          StrCat("expected ", TokenTypeName(type), ", found ", Peek().Describe()));
    }
    Advance();
    return Status::OK();
  }
  Result<std::string> ExpectIdentifier() {
    if (!Check(TokenType::kIdentifier)) {
      return Error(StrCat("expected identifier, found ", Peek().Describe()));
    }
    std::string name = Peek().text;
    Advance();
    return name;
  }
  Status Error(const std::string& msg) const {
    return Status::ParseError(
        StrCat("parse error at ", Peek().line, ":", Peek().column, ": ", msg));
  }

  Status TooDeep() const {
    return Error(StrCat("expression nests deeper than ", kMaxExprDepth,
                        " levels"));
  }

  /// Account for one node over children of the given depths: depth_
  /// becomes the node's depth, or the parse fails past the limit.
  Status Node(std::initializer_list<int> children) {
    int depth = 1 + std::max(children);
    if (depth > kMaxExprDepth) return TooDeep();
    depth_ = depth;
    return Status::OK();
  }

  /// One level of factor recursion, released on scope exit.
  class Nesting {
   public:
    explicit Nesting(Parser* parser) : parser_(parser) { ++parser_->nesting_; }
    ~Nesting() { --parser_->nesting_; }
    Nesting(const Nesting&) = delete;
    Nesting& operator=(const Nesting&) = delete;
    bool too_deep() const { return parser_->nesting_ > kMaxExprDepth; }

   private:
    Parser* parser_;
  };

  // ------------------------------------------------------------------
  // Scalar expressions (precedence: unary - > * / > + -)
  // ------------------------------------------------------------------
  Result<std::unique_ptr<ScalarExpr>> ParseScalar() {
    PAQL_ASSIGN_OR_RETURN(auto lhs, ParseScalarTerm());
    while (Check(TokenType::kPlus) || Check(TokenType::kMinus)) {
      ScalarKind op =
          Check(TokenType::kPlus) ? ScalarKind::kAdd : ScalarKind::kSub;
      Advance();
      int lhs_depth = depth_;
      PAQL_ASSIGN_OR_RETURN(auto rhs, ParseScalarTerm());
      PAQL_RETURN_IF_ERROR(Node({lhs_depth, depth_}));
      lhs = ScalarExpr::Binary(op, std::move(lhs), std::move(rhs));
    }
    return lhs;
  }

  Result<std::unique_ptr<ScalarExpr>> ParseScalarTerm() {
    PAQL_ASSIGN_OR_RETURN(auto lhs, ParseScalarFactor());
    while (Check(TokenType::kStar) || Check(TokenType::kSlash)) {
      ScalarKind op =
          Check(TokenType::kStar) ? ScalarKind::kMul : ScalarKind::kDiv;
      Advance();
      int lhs_depth = depth_;
      PAQL_ASSIGN_OR_RETURN(auto rhs, ParseScalarFactor());
      PAQL_RETURN_IF_ERROR(Node({lhs_depth, depth_}));
      lhs = ScalarExpr::Binary(op, std::move(lhs), std::move(rhs));
    }
    return lhs;
  }

  Result<std::unique_ptr<ScalarExpr>> ParseScalarFactor() {
    Nesting nesting(this);
    if (nesting.too_deep()) return TooDeep();
    if (Accept(TokenType::kMinus)) {
      PAQL_ASSIGN_OR_RETURN(auto inner, ParseScalarFactor());
      PAQL_RETURN_IF_ERROR(Node({depth_}));
      return ScalarExpr::Unary(std::move(inner));
    }
    if (Accept(TokenType::kPlus)) {
      return ParseScalarFactor();
    }
    depth_ = 1;  // the leaves below; a parenthesis reports its inner depth
    if (Check(TokenType::kNumber)) {
      double v = Peek().number;
      Advance();
      // Integral literals parse as INT64 so equality predicates on integer
      // columns behave intuitively.
      if (v == std::floor(v) && std::abs(v) < 9.2e18) {
        return ScalarExpr::Literal(
            relation::Value(static_cast<int64_t>(v)));
      }
      return ScalarExpr::Literal(relation::Value(v));
    }
    if (Check(TokenType::kString)) {
      std::string s = Peek().text;
      Advance();
      return ScalarExpr::Literal(relation::Value(std::move(s)));
    }
    if (Check(TokenType::kIdentifier)) {
      std::string first = Peek().text;
      Advance();
      if (Accept(TokenType::kDot)) {
        PAQL_ASSIGN_OR_RETURN(std::string col, ExpectIdentifier());
        return ScalarExpr::Column(first, std::move(col));
      }
      return ScalarExpr::Column("", std::move(first));
    }
    if (Accept(TokenType::kLParen)) {
      PAQL_ASSIGN_OR_RETURN(auto inner, ParseScalar());
      PAQL_RETURN_IF_ERROR(Expect(TokenType::kRParen));
      return inner;
    }
    return Error(StrCat("expected scalar expression, found ", Peek().Describe()));
  }

  // ------------------------------------------------------------------
  // Boolean expressions (WHERE): OR < AND < NOT < predicate
  // ------------------------------------------------------------------
  Result<std::unique_ptr<BoolExpr>> ParseBool() {
    PAQL_ASSIGN_OR_RETURN(auto lhs, ParseBoolTerm());
    while (Accept(TokenType::kOr)) {
      int lhs_depth = depth_;
      PAQL_ASSIGN_OR_RETURN(auto rhs, ParseBoolTerm());
      PAQL_RETURN_IF_ERROR(Node({lhs_depth, depth_}));
      lhs = BoolExpr::Or(std::move(lhs), std::move(rhs));
    }
    return lhs;
  }

  Result<std::unique_ptr<BoolExpr>> ParseBoolTerm() {
    PAQL_ASSIGN_OR_RETURN(auto lhs, ParseBoolFactor());
    while (Accept(TokenType::kAnd)) {
      int lhs_depth = depth_;
      PAQL_ASSIGN_OR_RETURN(auto rhs, ParseBoolFactor());
      PAQL_RETURN_IF_ERROR(Node({lhs_depth, depth_}));
      lhs = BoolExpr::And(std::move(lhs), std::move(rhs));
    }
    return lhs;
  }

  Result<std::unique_ptr<BoolExpr>> ParseBoolFactor() {
    Nesting nesting(this);
    if (nesting.too_deep()) return TooDeep();
    if (Accept(TokenType::kNot)) {
      PAQL_ASSIGN_OR_RETURN(auto inner, ParseBoolFactor());
      PAQL_RETURN_IF_ERROR(Node({depth_}));
      return BoolExpr::Not(std::move(inner));
    }
    // '(' is ambiguous: "(a > 1) AND ..." vs "(a + b) > 1". Try to parse a
    // comparison predicate first; if that fails, backtrack and parse a
    // parenthesized boolean expression.
    size_t save = pos_;
    auto pred = ParseBoolPredicate();
    if (pred.ok()) return std::move(pred).value();
    pos_ = save;
    if (Check(TokenType::kLParen)) {
      Advance();
      auto inner = ParseBool();
      if (inner.ok()) {
        PAQL_RETURN_IF_ERROR(Expect(TokenType::kRParen));
        return std::move(inner).value();
      }
      pos_ = save;
    }
    return pred;  // original error message
  }

  Result<std::unique_ptr<BoolExpr>> ParseBoolPredicate() {
    PAQL_ASSIGN_OR_RETURN(auto lhs, ParseScalar());
    int lhs_depth = depth_;
    if (Accept(TokenType::kBetween)) {
      PAQL_ASSIGN_OR_RETURN(auto lo, ParseScalar());
      int lo_depth = depth_;
      PAQL_RETURN_IF_ERROR(Expect(TokenType::kAnd));
      PAQL_ASSIGN_OR_RETURN(auto hi, ParseScalar());
      PAQL_RETURN_IF_ERROR(Node({lhs_depth, lo_depth, depth_}));
      return BoolExpr::Between(std::move(lhs), std::move(lo), std::move(hi));
    }
    if (Accept(TokenType::kIs)) {
      bool negated = Accept(TokenType::kNot);
      PAQL_RETURN_IF_ERROR(Expect(TokenType::kNull));
      PAQL_RETURN_IF_ERROR(Node({lhs_depth}));
      auto e = std::make_unique<BoolExpr>();
      e->kind = negated ? BoolKind::kIsNotNull : BoolKind::kIsNull;
      e->scalar_lhs = std::move(lhs);
      return e;
    }
    PAQL_ASSIGN_OR_RETURN(CmpOp op, ParseCmpOp());
    PAQL_ASSIGN_OR_RETURN(auto rhs, ParseScalar());
    PAQL_RETURN_IF_ERROR(Node({lhs_depth, depth_}));
    return BoolExpr::Cmp(op, std::move(lhs), std::move(rhs));
  }

  Result<CmpOp> ParseCmpOp() {
    switch (Peek().type) {
      case TokenType::kEq: Advance(); return CmpOp::kEq;
      case TokenType::kNe: Advance(); return CmpOp::kNe;
      case TokenType::kLt: Advance(); return CmpOp::kLt;
      case TokenType::kLe: Advance(); return CmpOp::kLe;
      case TokenType::kGt: Advance(); return CmpOp::kGt;
      case TokenType::kGe: Advance(); return CmpOp::kGe;
      default:
        return Error(
            StrCat("expected comparison operator, found ", Peek().Describe()));
    }
  }

  // ------------------------------------------------------------------
  // Global predicates and expressions (SUCH THAT, objective)
  // ------------------------------------------------------------------
  Result<std::unique_ptr<GlobalPredicate>> ParseGlobalPred(
      const std::string& pkg) {
    PAQL_ASSIGN_OR_RETURN(auto lhs, ParseGlobalPredTerm(pkg));
    while (Accept(TokenType::kOr)) {
      int lhs_depth = depth_;
      PAQL_ASSIGN_OR_RETURN(auto rhs, ParseGlobalPredTerm(pkg));
      PAQL_RETURN_IF_ERROR(Node({lhs_depth, depth_}));
      lhs = GlobalPredicate::Or(std::move(lhs), std::move(rhs));
    }
    return lhs;
  }

  Result<std::unique_ptr<GlobalPredicate>> ParseGlobalPredTerm(
      const std::string& pkg) {
    PAQL_ASSIGN_OR_RETURN(auto lhs, ParseGlobalPredFactor(pkg));
    while (Accept(TokenType::kAnd)) {
      int lhs_depth = depth_;
      PAQL_ASSIGN_OR_RETURN(auto rhs, ParseGlobalPredFactor(pkg));
      PAQL_RETURN_IF_ERROR(Node({lhs_depth, depth_}));
      lhs = GlobalPredicate::And(std::move(lhs), std::move(rhs));
    }
    return lhs;
  }

  Result<std::unique_ptr<GlobalPredicate>> ParseGlobalPredFactor(
      const std::string& pkg) {
    Nesting nesting(this);
    if (nesting.too_deep()) return TooDeep();
    if (Accept(TokenType::kNot)) {
      PAQL_ASSIGN_OR_RETURN(auto inner, ParseGlobalPredFactor(pkg));
      PAQL_RETURN_IF_ERROR(Node({depth_}));
      return GlobalPredicate::Not(std::move(inner));
    }
    // Same '('-ambiguity as in WHERE: try comparison first, then paren-bool.
    size_t save = pos_;
    auto pred = ParseGlobalComparison(pkg);
    if (pred.ok()) return std::move(pred).value();
    pos_ = save;
    if (Check(TokenType::kLParen)) {
      // Could still be a subquery expression "(SELECT ...) >= v" — that path
      // is covered by ParseGlobalComparison; reaching here means boolean.
      Advance();
      auto inner = ParseGlobalPred(pkg);
      if (inner.ok()) {
        PAQL_RETURN_IF_ERROR(Expect(TokenType::kRParen));
        return std::move(inner).value();
      }
      // Both interpretations failed; the comparison error is usually the
      // more precise one (e.g. a bad subquery).
      pos_ = save;
    }
    return pred;
  }

  Result<std::unique_ptr<GlobalPredicate>> ParseGlobalComparison(
      const std::string& pkg) {
    PAQL_ASSIGN_OR_RETURN(auto lhs, ParseGlobalExpr(pkg));
    int lhs_depth = depth_;
    if (Accept(TokenType::kBetween)) {
      PAQL_ASSIGN_OR_RETURN(auto lo, ParseGlobalExpr(pkg));
      int lo_depth = depth_;
      PAQL_RETURN_IF_ERROR(Expect(TokenType::kAnd));
      PAQL_ASSIGN_OR_RETURN(auto hi, ParseGlobalExpr(pkg));
      PAQL_RETURN_IF_ERROR(Node({lhs_depth, lo_depth, depth_}));
      return GlobalPredicate::Between(std::move(lhs), std::move(lo),
                                      std::move(hi));
    }
    PAQL_ASSIGN_OR_RETURN(CmpOp op, ParseCmpOp());
    PAQL_ASSIGN_OR_RETURN(auto rhs, ParseGlobalExpr(pkg));
    PAQL_RETURN_IF_ERROR(Node({lhs_depth, depth_}));
    return GlobalPredicate::Cmp(op, std::move(lhs), std::move(rhs));
  }

  Result<std::unique_ptr<GlobalExpr>> ParseGlobalExpr(const std::string& pkg) {
    PAQL_ASSIGN_OR_RETURN(auto lhs, ParseGlobalTerm(pkg));
    while (Check(TokenType::kPlus) || Check(TokenType::kMinus)) {
      GlobalKind op =
          Check(TokenType::kPlus) ? GlobalKind::kAdd : GlobalKind::kSub;
      Advance();
      int lhs_depth = depth_;
      PAQL_ASSIGN_OR_RETURN(auto rhs, ParseGlobalTerm(pkg));
      PAQL_RETURN_IF_ERROR(Node({lhs_depth, depth_}));
      lhs = GlobalExpr::Binary(op, std::move(lhs), std::move(rhs));
    }
    return lhs;
  }

  Result<std::unique_ptr<GlobalExpr>> ParseGlobalTerm(const std::string& pkg) {
    PAQL_ASSIGN_OR_RETURN(auto lhs, ParseGlobalFactor(pkg));
    while (Check(TokenType::kStar) || Check(TokenType::kSlash)) {
      GlobalKind op =
          Check(TokenType::kStar) ? GlobalKind::kMul : GlobalKind::kDiv;
      Advance();
      int lhs_depth = depth_;
      PAQL_ASSIGN_OR_RETURN(auto rhs, ParseGlobalFactor(pkg));
      PAQL_RETURN_IF_ERROR(Node({lhs_depth, depth_}));
      lhs = GlobalExpr::Binary(op, std::move(lhs), std::move(rhs));
    }
    return lhs;
  }

  Result<std::unique_ptr<GlobalExpr>> ParseGlobalFactor(
      const std::string& pkg) {
    Nesting nesting(this);
    if (nesting.too_deep()) return TooDeep();
    if (Accept(TokenType::kMinus)) {
      PAQL_ASSIGN_OR_RETURN(auto inner, ParseGlobalFactor(pkg));
      PAQL_RETURN_IF_ERROR(Node({depth_}));
      return GlobalExpr::Unary(std::move(inner));
    }
    if (Accept(TokenType::kPlus)) {
      return ParseGlobalFactor(pkg);
    }
    if (Check(TokenType::kNumber)) {
      double v = Peek().number;
      Advance();
      depth_ = 1;
      return GlobalExpr::Literal(v);
    }
    if (IsAggToken(Peek().type)) {
      PAQL_ASSIGN_OR_RETURN(auto call, ParseAggShorthand(pkg));
      PAQL_RETURN_IF_ERROR(Node({depth_}));
      return GlobalExpr::Agg(std::move(call));
    }
    if (Check(TokenType::kLParen)) {
      // Subquery form or parenthesized global expression.
      if (Peek(1).type == TokenType::kSelect) {
        PAQL_ASSIGN_OR_RETURN(auto call, ParseAggSubquery(pkg));
        PAQL_RETURN_IF_ERROR(Node({depth_}));
        return GlobalExpr::Agg(std::move(call));
      }
      Advance();  // consume '('
      PAQL_ASSIGN_OR_RETURN(auto inner, ParseGlobalExpr(pkg));
      PAQL_RETURN_IF_ERROR(Expect(TokenType::kRParen));
      return inner;
    }
    return Error(
        StrCat("expected aggregate, number, or subquery, found ",
               Peek().Describe()));
  }

  static bool IsAggToken(TokenType type) {
    return type == TokenType::kCount || type == TokenType::kSum ||
           type == TokenType::kAvg || type == TokenType::kMin ||
           type == TokenType::kMax;
  }

  Result<relation::AggFunc> ParseAggName() {
    switch (Peek().type) {
      case TokenType::kCount: Advance(); return relation::AggFunc::kCount;
      case TokenType::kSum: Advance(); return relation::AggFunc::kSum;
      case TokenType::kAvg: Advance(); return relation::AggFunc::kAvg;
      case TokenType::kMin: Advance(); return relation::AggFunc::kMin;
      case TokenType::kMax: Advance(); return relation::AggFunc::kMax;
      default:
        return Error(StrCat("expected aggregate name, found ",
                            Peek().Describe()));
    }
  }

  /// Shorthand: COUNT(P.*), SUM(P.attr), AVG(P.a + P.b), ...
  Result<std::unique_ptr<AggCall>> ParseAggShorthand(const std::string& pkg) {
    auto call = std::make_unique<AggCall>();
    PAQL_ASSIGN_OR_RETURN(call->func, ParseAggName());
    PAQL_RETURN_IF_ERROR(Expect(TokenType::kLParen));
    // COUNT(*) or COUNT(P.*)
    if (call->func == relation::AggFunc::kCount) {
      if (Accept(TokenType::kStar)) {
        call->is_count_star = true;
        PAQL_RETURN_IF_ERROR(Expect(TokenType::kRParen));
        depth_ = 1;
        return call;
      }
      if (Check(TokenType::kIdentifier) && Peek(1).type == TokenType::kDot &&
          Peek(2).type == TokenType::kStar) {
        std::string qual = Peek().text;
        if (!EqualsIgnoreCase(qual, pkg)) {
          return Error(StrCat("COUNT(", qual, ".*): unknown package '", qual,
                              "', expected '", pkg, "'"));
        }
        Advance();  // identifier
        Advance();  // '.'
        Advance();  // '*'
        call->is_count_star = true;
        PAQL_RETURN_IF_ERROR(Expect(TokenType::kRParen));
        depth_ = 1;
        return call;
      }
    }
    PAQL_ASSIGN_OR_RETURN(call->arg, ParseScalar());
    PAQL_RETURN_IF_ERROR(Expect(TokenType::kRParen));
    PAQL_RETURN_IF_ERROR(Node({depth_}));
    return call;
  }

  /// Subquery: ( SELECT AGG(arg|*) FROM pkg [WHERE bool] )
  Result<std::unique_ptr<AggCall>> ParseAggSubquery(const std::string& pkg) {
    PAQL_RETURN_IF_ERROR(Expect(TokenType::kLParen));
    PAQL_RETURN_IF_ERROR(Expect(TokenType::kSelect));
    auto call = std::make_unique<AggCall>();
    PAQL_ASSIGN_OR_RETURN(call->func, ParseAggName());
    PAQL_RETURN_IF_ERROR(Expect(TokenType::kLParen));
    int arg_depth = 0;
    if (Accept(TokenType::kStar)) {
      if (call->func != relation::AggFunc::kCount) {
        return Error("only COUNT may aggregate '*'");
      }
      call->is_count_star = true;
    } else {
      PAQL_ASSIGN_OR_RETURN(call->arg, ParseScalar());
      arg_depth = depth_;
    }
    PAQL_RETURN_IF_ERROR(Expect(TokenType::kRParen));
    PAQL_RETURN_IF_ERROR(Expect(TokenType::kFrom));
    PAQL_ASSIGN_OR_RETURN(std::string from, ExpectIdentifier());
    if (!EqualsIgnoreCase(from, pkg)) {
      return Error(StrCat("aggregate subquery must select FROM the package '",
                          pkg, "', found '", from, "'"));
    }
    int filter_depth = 0;
    if (Accept(TokenType::kWhere)) {
      PAQL_ASSIGN_OR_RETURN(call->filter, ParseBool());
      filter_depth = depth_;
    }
    PAQL_RETURN_IF_ERROR(Expect(TokenType::kRParen));
    PAQL_RETURN_IF_ERROR(Node({arg_depth, filter_depth}));
    return call;
  }

  std::vector<Token> tokens_;
  size_t pos_ = 0;
  int depth_ = 0;    // depth of the tree the last expression parser returned
  int nesting_ = 0;  // active factor-parser frames
};

}  // namespace

Result<PackageQuery> ParsePackageQuery(std::string_view text) {
  PAQL_ASSIGN_OR_RETURN(auto tokens, Tokenize(text));
  Parser parser(std::move(tokens));
  return parser.ParseQuery();
}

Result<std::unique_ptr<BoolExpr>> ParseBoolExpr(std::string_view text) {
  PAQL_ASSIGN_OR_RETURN(auto tokens, Tokenize(text));
  Parser parser(std::move(tokens));
  return parser.ParseBoolOnly();
}

}  // namespace paql::lang
