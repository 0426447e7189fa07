// Parser for TP set queries in ASCII syntax.
//
//   query  := term (('|' | '-') term)*      union / except, left-assoc
//   term   := factor ('&' factor)*          intersect binds tighter
//   factor := identifier | '(' query ')'
//
// This follows SQL's convention (INTERSECT binds tighter than UNION/EXCEPT,
// which associate left at equal precedence).
#ifndef TPSET_QUERY_PARSER_H_
#define TPSET_QUERY_PARSER_H_

#include <cstddef>
#include <string>

#include "common/status.h"
#include "query/ast.h"

namespace tpset {

/// Deepest plan ParseQuery accepts: at most this many nested parentheses,
/// and at most this many nodes on any root-to-leaf path (a chain of n
/// operators is n + 1 deep). It bounds every recursive walk over a parsed
/// tree — evaluation, analysis, rendering, continuous-query compile and the
/// tree's own destructor — so query text cannot overflow the stack.
inline constexpr std::size_t kMaxQueryDepth = 256;

/// Parses `text` into a query tree; InvalidArgument for malformed text or a
/// plan deeper than kMaxQueryDepth.
Result<QueryPtr> ParseQuery(const std::string& text);

}  // namespace tpset

#endif  // TPSET_QUERY_PARSER_H_
