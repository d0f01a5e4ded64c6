#ifndef QOCO_RELATIONAL_CSV_H_
#define QOCO_RELATIONAL_CSV_H_

#include <string>
#include <string_view>
#include <vector>

#include "src/common/status.h"
#include "src/relational/database.h"

namespace qoco::relational {

/// Serializes one relation as CSV: a header row of attribute names followed
/// by one row per tuple, in storage order. Strings containing commas, quotes,
/// newlines or tabs, starting or ending with a space, or spelling a number
/// or NULL, are double-quoted with "" escaping; integers, doubles and NULL
/// are printed bare. Rows are rendered from their ids: each distinct value
/// is encoded once per call (EncodeCsvField), so the output is exactly the
/// EncodeCsvField rendering of every materialized field.
std::string RelationToCsv(const Database& db, RelationId id);

/// Parses CSV `text` (with header row, which is validated against the
/// schema) and inserts every row into relation `id` of `db`. A record ends
/// at a newline outside double quotes, so quoted fields may span lines.
/// A bare NULL becomes the null value; other fields that parse as int64
/// become integers, then doubles, otherwise strings.
common::Status LoadRelationFromCsv(std::string_view text, RelationId id,
                                   Database* db);

/// Serializes the whole database: each relation introduced by a line
/// "## <relation-name>" followed by its CSV block and a blank line. One
/// encoding memo serves every relation.
std::string DatabaseToCsv(const Database& db);

/// Parses the multi-relation format produced by DatabaseToCsv into `db`
/// (relations must already exist in the catalog).
common::Status LoadDatabaseFromCsv(std::string_view text, Database* db);

/// Encodes one value as a CSV field (quoting strings that would otherwise
/// be ambiguous). Building block shared with the edit journal.
std::string EncodeCsvField(const Value& v);

/// Renders `t` in TupleToString's "(a, b)" frame with every value encoded
/// by EncodeCsvField, so two different tuples of one arity never render
/// alike (TupleToString drops types and leaves separators unquoted). The
/// form crowd question signatures and answer-cache keys use.
std::string EncodeTupleKey(const Tuple& t);

/// The CSV record of `text` that starts at `*pos`: everything up to the
/// next newline outside double quotes, so a quoted field may span lines.
/// Advances `*pos` past that newline. Shared with the edit journal.
std::string_view NextCsvRecord(std::string_view text, size_t* pos);

/// Splits one CSV record into raw fields, honoring quotes; `was_quoted[i]`
/// records whether field i was quoted (quoted fields stay strings).
common::Status SplitCsvRecord(std::string_view line,
                              std::vector<std::string>* fields,
                              std::vector<bool>* was_quoted);

/// Decodes a raw CSV field into a typed value (a bare NULL, ints, then
/// doubles, then strings; quoted fields always strings).
Value ParseCsvField(const std::string& raw, bool quoted);

}  // namespace qoco::relational

#endif  // QOCO_RELATIONAL_CSV_H_
