#ifndef QOCO_QUERY_PARSER_H_
#define QOCO_QUERY_PARSER_H_

#include <string_view>

#include "src/common/status.h"
#include "src/query/query.h"
#include "src/relational/schema.h"

namespace qoco::query {

/// Parses a conjunctive query with inequalities in Datalog-ish syntax:
///
///   (x) :- Games(d1, x, y, 'Final', u1), Games(d2, x, z, 'Final', u2),
///          Teams(x, 'EU'), d1 != d2.
///
/// Grammar notes:
///  * An optional head predicate name is allowed: "ans(x) :- ...".
///  * Bare identifiers in argument positions are variables; constants are
///    quoted strings ('Final' or "Final") or numeric literals.
///  * Inequalities use != or <>; each side is a variable or constant.
///  * A trailing period is optional.
///
/// Relation names and arities are validated against `catalog`.
common::Result<CQuery> ParseQuery(std::string_view text,
                                  const relational::Catalog& catalog);

/// Parses a union of conjunctive queries: disjuncts separated by ';',
/// empty ones skipped. A ';' inside a quoted constant separates nothing.
common::Result<UnionQuery> ParseUnionQuery(std::string_view text,
                                           const relational::Catalog& catalog);

}  // namespace qoco::query

#endif  // QOCO_QUERY_PARSER_H_
