#include "core/from_clause.h"

#include <algorithm>
#include <optional>
#include <set>

#include "common/str_util.h"
#include "relation/join.h"

namespace paql::core {

using lang::BoolExpr;
using lang::BoolKind;
using lang::CmpOp;
using lang::FromItem;
using lang::GlobalExpr;
using lang::GlobalKind;
using lang::GlobalPredicate;
using lang::PackageQuery;
using lang::ScalarExpr;
using lang::ScalarKind;
using relation::Table;

namespace {

/// One resolved FROM relation.
struct Input {
  std::string name;
  std::string alias;
  const Table* table = nullptr;
};

std::string JoinedColumnName(const std::string& alias,
                             const std::string& column) {
  return StrCat(alias, "_", column);
}

/// Resolves (qualifier, column) references against the FROM inputs and the
/// package name, producing joined-table column names.
class RefResolver {
 public:
  RefResolver(const std::vector<Input>& inputs, std::string package_name)
      : inputs_(inputs), package_name_(std::move(package_name)) {}

  Result<std::string> Resolve(const std::string& qualifier,
                              const std::string& column) const {
    if (!qualifier.empty() && qualifier != package_name_) {
      const Input* input = FindInput(qualifier);
      if (input == nullptr) {
        return Status::NotFound(
            StrCat("unknown relation alias '", qualifier, "' in reference '",
                   qualifier, ".", column, "'"));
      }
      if (!input->table->schema().FindColumn(column).has_value()) {
        return Status::NotFound(StrCat("relation '", input->alias,
                                       "' has no column '", column, "'"));
      }
      return JoinedColumnName(input->alias, column);
    }
    // Unqualified (or package-qualified): must be unambiguous across inputs.
    const Input* owner = nullptr;
    for (const Input& input : inputs_) {
      if (input.table->schema().FindColumn(column).has_value()) {
        if (owner != nullptr) {
          return Status::InvalidArgument(
              StrCat("column '", column, "' is ambiguous (appears in '",
                     owner->alias, "' and '", input.alias,
                     "'); qualify it with a relation alias"));
        }
        owner = &input;
      }
    }
    if (owner == nullptr) {
      return Status::NotFound(
          StrCat("no FROM relation has a column '", column, "'"));
    }
    return JoinedColumnName(owner->alias, column);
  }

  const Input* FindInput(const std::string& qualifier) const {
    for (const Input& input : inputs_) {
      if (input.alias == qualifier || input.name == qualifier) return &input;
    }
    return nullptr;
  }

 private:
  const std::vector<Input>& inputs_;
  std::string package_name_;
};

// --- AST rewriting (in place, over cloned subtrees) ----------------------

Status RewriteScalar(ScalarExpr* expr, const RefResolver& resolver) {
  if (expr == nullptr) return Status::OK();
  if (expr->kind == ScalarKind::kColumn) {
    PAQL_ASSIGN_OR_RETURN(std::string renamed,
                          resolver.Resolve(expr->qualifier, expr->column));
    expr->qualifier.clear();
    expr->column = std::move(renamed);
    return Status::OK();
  }
  PAQL_RETURN_IF_ERROR(RewriteScalar(expr->lhs.get(), resolver));
  return RewriteScalar(expr->rhs.get(), resolver);
}

Status RewriteBool(BoolExpr* expr, const RefResolver& resolver) {
  if (expr == nullptr) return Status::OK();
  PAQL_RETURN_IF_ERROR(RewriteScalar(expr->scalar_lhs.get(), resolver));
  PAQL_RETURN_IF_ERROR(RewriteScalar(expr->scalar_rhs.get(), resolver));
  PAQL_RETURN_IF_ERROR(RewriteScalar(expr->between_lo.get(), resolver));
  PAQL_RETURN_IF_ERROR(RewriteScalar(expr->between_hi.get(), resolver));
  PAQL_RETURN_IF_ERROR(RewriteBool(expr->left.get(), resolver));
  return RewriteBool(expr->right.get(), resolver);
}

Status RewriteGlobal(GlobalExpr* expr, const RefResolver& resolver) {
  if (expr == nullptr) return Status::OK();
  if (expr->kind == GlobalKind::kAgg) {
    PAQL_RETURN_IF_ERROR(RewriteScalar(expr->agg->arg.get(), resolver));
    return RewriteBool(expr->agg->filter.get(), resolver);
  }
  PAQL_RETURN_IF_ERROR(RewriteGlobal(expr->lhs.get(), resolver));
  return RewriteGlobal(expr->rhs.get(), resolver);
}

Status RewriteGlobalPred(GlobalPredicate* pred, const RefResolver& resolver) {
  if (pred == nullptr) return Status::OK();
  PAQL_RETURN_IF_ERROR(RewriteGlobal(pred->lhs.get(), resolver));
  PAQL_RETURN_IF_ERROR(RewriteGlobal(pred->rhs.get(), resolver));
  PAQL_RETURN_IF_ERROR(RewriteGlobal(pred->lo.get(), resolver));
  PAQL_RETURN_IF_ERROR(RewriteGlobal(pred->hi.get(), resolver));
  PAQL_RETURN_IF_ERROR(RewriteGlobalPred(pred->left.get(), resolver));
  return RewriteGlobalPred(pred->right.get(), resolver);
}

// --- WHERE decomposition --------------------------------------------------

/// A recognized equi-join predicate: alias1.col1 = alias2.col2 with the two
/// sides in different FROM relations.
struct JoinPredicate {
  size_t left_input = 0;  // indices into the inputs vector
  size_t right_input = 0;
  std::string left_column;
  std::string right_column;
  bool consumed = false;
};

/// Collect the AND-tree leaves of `expr` (ownership transferred).
void SplitConjuncts(std::unique_ptr<BoolExpr> expr,
                    std::vector<std::unique_ptr<BoolExpr>>* out) {
  if (expr == nullptr) return;
  if (expr->kind == BoolKind::kAnd) {
    SplitConjuncts(std::move(expr->left), out);
    SplitConjuncts(std::move(expr->right), out);
    return;
  }
  out->push_back(std::move(expr));
}

/// If `leaf` is an explicit cross-relation equality, return it as a join
/// predicate. Both sides must be qualified column references (implicit
/// unqualified joins are ambiguous and stay in the residual WHERE).
std::optional<JoinPredicate> AsJoinPredicate(const BoolExpr& leaf,
                                             const RefResolver& resolver,
                                             const std::vector<Input>& inputs) {
  if (leaf.kind != BoolKind::kCmp || leaf.cmp != CmpOp::kEq) {
    return std::nullopt;
  }
  const ScalarExpr* l = leaf.scalar_lhs.get();
  const ScalarExpr* r = leaf.scalar_rhs.get();
  if (l == nullptr || r == nullptr) return std::nullopt;
  if (l->kind != ScalarKind::kColumn || r->kind != ScalarKind::kColumn) {
    return std::nullopt;
  }
  if (l->qualifier.empty() || r->qualifier.empty()) return std::nullopt;
  const Input* li = resolver.FindInput(l->qualifier);
  const Input* ri = resolver.FindInput(r->qualifier);
  if (li == nullptr || ri == nullptr || li == ri) return std::nullopt;
  if (!li->table->schema().FindColumn(l->column).has_value() ||
      !ri->table->schema().FindColumn(r->column).has_value()) {
    return std::nullopt;
  }
  JoinPredicate jp;
  jp.left_input = static_cast<size_t>(li - inputs.data());
  jp.right_input = static_cast<size_t>(ri - inputs.data());
  jp.left_column = l->column;
  jp.right_column = r->column;
  return jp;
}

/// Rebuild a left-deep AND tree from leaves (nullptr when empty). The
/// leaves came out of a parsed WHERE, but a bushy AND tree has more leaves
/// than levels, so the chain is refused when it would be deeper than any
/// parsed expression may be (kMaxExprDepth).
Result<std::unique_ptr<BoolExpr>> AndOf(
    std::vector<std::unique_ptr<BoolExpr>> leaves) {
  int depth = 0;
  for (size_t i = 0; i < leaves.size(); ++i) {
    int leaf = lang::Depth(*leaves[i]);
    depth = i == 0 ? leaf : 1 + std::max(depth, leaf);
  }
  if (depth > lang::kMaxExprDepth) {
    return Status::InvalidArgument(
        StrCat("the WHERE clause's ", leaves.size(),
               " conjuncts nest deeper than ", lang::kMaxExprDepth,
               " levels once re-chained over the join"));
  }
  std::unique_ptr<BoolExpr> out;
  for (auto& leaf : leaves) {
    out = out == nullptr ? std::move(leaf)
                         : BoolExpr::And(std::move(out), std::move(leaf));
  }
  return out;
}

}  // namespace

Result<MaterializedFrom> MaterializeFromClause(
    const PackageQuery& query, const Catalog& catalog,
    const FromClauseOptions& options) {
  // Resolve the FROM list.
  std::vector<Input> inputs;
  auto resolve_input = [&](const std::string& name,
                           const std::string& alias) -> Status {
    auto it = catalog.find(name);
    if (it == catalog.end() || it->second == nullptr) {
      return Status::NotFound(
          StrCat("FROM relation '", name, "' is not in the catalog"));
    }
    for (const Input& prev : inputs) {
      if (prev.alias == alias) {
        return Status::InvalidArgument(
            StrCat("duplicate FROM alias '", alias, "'"));
      }
    }
    inputs.push_back({name, alias, it->second});
    return Status::OK();
  };
  PAQL_RETURN_IF_ERROR(
      resolve_input(query.relation_name, query.relation_alias));
  for (const FromItem& item : query.more_relations) {
    PAQL_RETURN_IF_ERROR(resolve_input(item.relation_name, item.alias));
  }

  MaterializedFrom out;
  if (inputs.size() == 1) {
    // Single relation: pass through unchanged.
    out.table = *inputs[0].table;
    out.query = query.Clone();
    return out;
  }

  RefResolver resolver(inputs, query.package_name);

  // Split WHERE into join predicates and residual conjuncts.
  PackageQuery rewritten = query.Clone();
  std::vector<std::unique_ptr<BoolExpr>> conjuncts;
  SplitConjuncts(std::move(rewritten.where), &conjuncts);
  std::vector<JoinPredicate> join_preds;
  std::vector<std::unique_ptr<BoolExpr>> residual;
  for (auto& leaf : conjuncts) {
    auto jp = AsJoinPredicate(*leaf, resolver, inputs);
    if (jp.has_value()) {
      join_preds.push_back(*jp);
    } else {
      residual.push_back(std::move(leaf));
    }
  }

  // Join left-to-right. The accumulated table carries joined column names;
  // `joined_aliases` tracks which inputs it covers.
  Table acc;
  std::set<size_t> joined_inputs;
  {
    // Materialize input 0 with renamed columns via a 0-key "join" against
    // nothing: simplest is a manual projection-with-rename copy.
    std::vector<relation::ColumnDef> defs;
    for (size_t c = 0; c < inputs[0].table->num_columns(); ++c) {
      relation::ColumnDef def = inputs[0].table->schema().column(c);
      def.name = JoinedColumnName(inputs[0].alias, def.name);
      defs.push_back(std::move(def));
    }
    acc = Table{relation::Schema(std::move(defs))};
    acc.Reserve(inputs[0].table->num_rows());
    std::vector<relation::Value> row(inputs[0].table->num_columns());
    for (relation::RowId r = 0; r < inputs[0].table->num_rows(); ++r) {
      for (size_t c = 0; c < inputs[0].table->num_columns(); ++c) {
        row[c] = inputs[0].table->GetValue(r, c);
      }
      acc.AppendRowUnchecked(row);
    }
    joined_inputs.insert(0);
  }

  for (size_t next = 1; next < inputs.size(); ++next) {
    // Keys: consumed join predicates linking an already-joined input to
    // `next`.
    std::vector<relation::JoinKey> keys;
    for (JoinPredicate& jp : join_preds) {
      if (jp.consumed) continue;
      size_t other;
      std::string acc_col, next_col;
      if (jp.right_input == next && joined_inputs.count(jp.left_input) > 0) {
        other = jp.left_input;
        acc_col = JoinedColumnName(inputs[other].alias, jp.left_column);
        next_col = jp.right_column;
      } else if (jp.left_input == next &&
                 joined_inputs.count(jp.right_input) > 0) {
        other = jp.right_input;
        acc_col = JoinedColumnName(inputs[other].alias, jp.right_column);
        next_col = jp.left_column;
      } else {
        continue;
      }
      auto acc_idx = acc.schema().FindColumn(acc_col);
      auto next_idx = inputs[next].table->schema().FindColumn(next_col);
      PAQL_CHECK(acc_idx.has_value() && next_idx.has_value());
      keys.push_back({*acc_idx, *next_idx});
      jp.consumed = true;
      ++out.join_predicates_used;
    }
    relation::JoinOptions jopts;
    jopts.left_prefix = "";  // accumulated columns are already renamed
    jopts.right_prefix = inputs[next].alias;
    jopts.max_result_rows = options.max_result_rows;
    if (keys.empty()) {
      out.used_cross_join = true;
      PAQL_ASSIGN_OR_RETURN(acc,
                            relation::CrossJoin(acc, *inputs[next].table,
                                                jopts));
    } else {
      PAQL_ASSIGN_OR_RETURN(
          acc, relation::HashEquiJoin(acc, *inputs[next].table, keys, jopts));
    }
    joined_inputs.insert(next);
  }

  // Unconsumed join predicates (e.g. a second condition between two already
  // joined relations) become residual filters over the joined table.
  for (JoinPredicate& jp : join_preds) {
    if (jp.consumed) continue;
    auto leaf = BoolExpr::Cmp(
        CmpOp::kEq,
        ScalarExpr::Column("", JoinedColumnName(inputs[jp.left_input].alias,
                                                jp.left_column)),
        ScalarExpr::Column("", JoinedColumnName(inputs[jp.right_input].alias,
                                                jp.right_column)));
    residual.push_back(std::move(leaf));
    ++out.join_predicates_used;
  }

  // Rewrite residual WHERE, SUCH THAT, and the objective onto the joined
  // columns. (Already-renamed synthetic leaves above resolve trivially: the
  // resolver only sees unqualified names that are unique by construction —
  // they are joined-table names, not input names — so skip them.)
  std::vector<std::unique_ptr<BoolExpr>> rewritten_residual;
  for (auto& leaf : residual) {
    // Synthetic equality leaves reference joined names already; detect them
    // by successful lookup in the accumulated schema and pass through.
    bool already_joined_names = false;
    if (leaf->kind == BoolKind::kCmp && leaf->scalar_lhs != nullptr &&
        leaf->scalar_lhs->kind == ScalarKind::kColumn &&
        leaf->scalar_lhs->qualifier.empty() &&
        acc.schema().FindColumn(leaf->scalar_lhs->column).has_value()) {
      already_joined_names = true;
    }
    if (!already_joined_names) {
      PAQL_RETURN_IF_ERROR(RewriteBool(leaf.get(), resolver));
    }
    rewritten_residual.push_back(std::move(leaf));
  }
  PAQL_ASSIGN_OR_RETURN(rewritten.where,
                        AndOf(std::move(rewritten_residual)));
  PAQL_RETURN_IF_ERROR(
      RewriteGlobalPred(rewritten.such_that.get(), resolver));
  if (rewritten.objective.has_value()) {
    PAQL_RETURN_IF_ERROR(
        RewriteGlobal(rewritten.objective->expr.get(), resolver));
  }

  rewritten.relation_name = options.joined_relation_name;
  rewritten.relation_alias = options.joined_relation_name;
  rewritten.more_relations.clear();
  out.table = std::move(acc);
  out.query = std::move(rewritten);
  return out;
}

}  // namespace paql::core
