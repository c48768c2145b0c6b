// Recursive-descent parser for PaQL.
//
// The original system generates its parser with GNU Bison from a context-free
// grammar; this hand-written parser accepts the same language (Appendix A.4)
// and produces the AST in ast.h. See DESIGN.md §1 for the substitution note.
#ifndef PAQL_PAQL_PARSER_H_
#define PAQL_PAQL_PARSER_H_

#include <string>

#include "common/status.h"
#include "paql/ast.h"

namespace paql::lang {

/// Parse a full PaQL package query from text. Expressions deeper than
/// kMaxExprDepth (paql/ast.h) are a kParseError.
///
/// Example:
///   auto q = ParsePackageQuery(R"(
///     SELECT PACKAGE(R) AS P
///     FROM Recipes R REPEAT 0
///     WHERE R.gluten = 'free'
///     SUCH THAT COUNT(P.*) = 3 AND SUM(P.kcal) BETWEEN 2.0 AND 2.5
///     MINIMIZE SUM(P.saturated_fat))");
Result<PackageQuery> ParsePackageQuery(std::string_view text);

/// Parse just a boolean (WHERE-style) expression; used by tests and tools.
Result<std::unique_ptr<BoolExpr>> ParseBoolExpr(std::string_view text);

}  // namespace paql::lang

#endif  // PAQL_PAQL_PARSER_H_
