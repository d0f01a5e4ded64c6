#include "src/relational/csv.h"

#include <cerrno>
#include <charconv>
#include <cstdlib>
#include <vector>

#include "src/common/strings.h"

namespace qoco::relational {

namespace {

bool NeedsQuoting(const std::string& s) {
  // A bare NULL reads back as the null value.
  if (s.empty() || s == "NULL") return true;
  for (char c : s) {
    if (c == ',' || c == '"' || c == '\n' || c == '\r' || c == '\t') {
      return true;
    }
  }
  // Readers strip whitespace around a whole record, which would eat a
  // leading space of its first field or a trailing one of its last.
  if (s.front() == ' ' || s.back() == ' ') return true;
  // Quote strings that would otherwise round-trip as numbers.
  char* end = nullptr;
  errno = 0;
  std::strtod(s.c_str(), &end);
  return end == s.c_str() + s.size() && errno == 0;
}

std::string EncodeFieldImpl(const Value& v) {
  if (!v.is_string()) return v.ToString();
  const std::string& s = v.AsString();
  if (!NeedsQuoting(s)) return s;
  std::string out = "\"";
  for (char c : s) {
    if (c == '"') out += "\"\"";
    else out += c;
  }
  out += "\"";
  return out;
}

/// Renders relations of one database as CSV straight from their row ids.
/// Inline integers are formatted from the id itself; every other value goes
/// through EncodeFieldImpl once per writer, memoized by dictionary slot, so
/// a value repeated across rows and relations is encoded once.
class IdCsvWriter {
 public:
  explicit IdCsvWriter(const Database& db) : db_(db) {}

  void AppendRelation(RelationId id, std::string* out) {
    *out += common::Join(db_.catalog().schema(id).attributes, ",");
    *out += '\n';
    for (const ITuple& row : db_.relation(id).rows()) {
      for (size_t i = 0; i < row.size(); ++i) {
        if (i > 0) *out += ',';
        AppendField(row[i], out);
      }
      *out += '\n';
    }
  }

 private:
  void AppendField(ValueId id, std::string* out) {
    if (IsInlineInt(id)) {
      char buf[16];
      char* end = std::to_chars(buf, buf + sizeof(buf), InlineIntOf(id)).ptr;
      out->append(buf, end);
      return;
    }
    if (id == kNullId) {
      *out += EncodeFieldImpl(Value());
      return;
    }
    uint32_t slot = SlotOf(id);
    if (slot >= memo_index_.size()) memo_index_.resize(slot + 1, 0);
    uint32_t& entry = memo_index_[slot];
    if (entry == 0) {
      memo_.push_back(EncodeFieldImpl(db_.dict().Materialize(id)));
      entry = static_cast<uint32_t>(memo_.size());
    }
    *out += memo_[entry - 1];
  }

  const Database& db_;
  // Dictionary slot -> 1 + its index in memo_; 0 = not encoded yet.
  std::vector<uint32_t> memo_index_;
  std::vector<std::string> memo_;
};

}  // namespace

std::string_view NextCsvRecord(std::string_view text, size_t* pos) {
  size_t start = *pos;
  size_t end = start;
  bool in_quotes = false;
  for (; end < text.size(); ++end) {
    if (text[end] == '"') {
      in_quotes = !in_quotes;
    } else if (text[end] == '\n' && !in_quotes) {
      break;
    }
  }
  *pos = end < text.size() ? end + 1 : end;
  return text.substr(start, end - start);
}

namespace {

common::Status SplitRecordImpl(std::string_view line,
                               std::vector<std::string>* fields,
                               std::vector<bool>* was_quoted) {
  fields->clear();
  was_quoted->clear();
  std::string current;
  bool quoted = false;
  bool in_quotes = false;
  for (size_t i = 0; i < line.size(); ++i) {
    char c = line[i];
    if (in_quotes) {
      if (c == '"') {
        if (i + 1 < line.size() && line[i + 1] == '"') {
          current += '"';
          ++i;
        } else {
          in_quotes = false;
        }
      } else {
        current += c;
      }
    } else if (c == '"') {
      in_quotes = true;
      quoted = true;
    } else if (c == ',') {
      fields->push_back(std::move(current));
      was_quoted->push_back(quoted);
      current.clear();
      quoted = false;
    } else {
      current += c;
    }
  }
  if (in_quotes) {
    return common::Status::ParseError("unterminated quote in CSV record");
  }
  fields->push_back(std::move(current));
  was_quoted->push_back(quoted);
  return common::Status::OK();
}

Value ParseFieldImpl(const std::string& raw, bool quoted) {
  if (quoted) return Value(raw);
  if (raw.empty()) return Value(std::string());
  if (raw == "NULL") return Value();
  char* end = nullptr;
  errno = 0;
  long long as_int = std::strtoll(raw.c_str(), &end, 10);
  if (end == raw.c_str() + raw.size() && errno == 0) {
    return Value(static_cast<int64_t>(as_int));
  }
  errno = 0;
  double as_double = std::strtod(raw.c_str(), &end);
  if (end == raw.c_str() + raw.size() && errno == 0) {
    return Value(as_double);
  }
  return Value(raw);
}

}  // namespace

std::string RelationToCsv(const Database& db, RelationId id) {
  std::string out;
  IdCsvWriter(db).AppendRelation(id, &out);
  return out;
}

common::Status LoadRelationFromCsv(std::string_view text, RelationId id,
                                   Database* db) {
  const RelationSchema& schema = db->catalog().schema(id);
  std::vector<std::string> fields;
  std::vector<bool> was_quoted;
  bool saw_header = false;
  for (size_t pos = 0; pos < text.size();) {
    std::string_view record =
        common::StripWhitespace(NextCsvRecord(text, &pos));
    if (record.empty()) continue;
    QOCO_RETURN_NOT_OK(SplitRecordImpl(record, &fields, &was_quoted));
    if (!saw_header) {
      if (fields.size() != schema.arity()) {
        return common::Status::ParseError(
            "CSV header arity mismatch for relation '" + schema.name + "'");
      }
      saw_header = true;
      continue;
    }
    if (fields.size() != schema.arity()) {
      return common::Status::ParseError(
          "CSV row arity mismatch for relation '" + schema.name + "'");
    }
    Tuple t;
    t.reserve(fields.size());
    for (size_t i = 0; i < fields.size(); ++i) {
      t.push_back(ParseFieldImpl(fields[i], was_quoted[i]));
    }
    QOCO_RETURN_NOT_OK(db->Insert(Fact{id, std::move(t)}).status());
  }
  return common::Status::OK();
}

std::string DatabaseToCsv(const Database& db) {
  IdCsvWriter writer(db);
  std::string out;
  for (size_t i = 0; i < db.catalog().size(); ++i) {
    RelationId id = static_cast<RelationId>(i);
    out += "## ";
    out += db.catalog().relation_name(id);
    out += '\n';
    writer.AppendRelation(id, &out);
    out += '\n';
  }
  return out;
}

std::string EncodeCsvField(const Value& v) { return EncodeFieldImpl(v); }

std::string EncodeTupleKey(const Tuple& t) {
  std::string out = "(";
  for (size_t i = 0; i < t.size(); ++i) {
    if (i > 0) out += ", ";
    out += EncodeFieldImpl(t[i]);
  }
  out += ")";
  return out;
}

common::Status SplitCsvRecord(std::string_view line,
                              std::vector<std::string>* fields,
                              std::vector<bool>* was_quoted) {
  return SplitRecordImpl(line, fields, was_quoted);
}

Value ParseCsvField(const std::string& raw, bool quoted) {
  return ParseFieldImpl(raw, quoted);
}

common::Status LoadDatabaseFromCsv(std::string_view text, Database* db) {
  // A relation's block runs from the end of its "## " record to the start
  // of the next one; records are quote-aware, so a quoted field cannot be
  // mistaken for a header.
  RelationId current = kInvalidRelation;
  size_t block_start = 0;
  auto flush = [&](size_t block_end) -> common::Status {
    if (current == kInvalidRelation) return common::Status::OK();
    return LoadRelationFromCsv(
        text.substr(block_start, block_end - block_start), current, db);
  };
  for (size_t pos = 0; pos < text.size();) {
    size_t record_start = pos;
    std::string_view record =
        common::StripWhitespace(NextCsvRecord(text, &pos));
    if (!common::StartsWith(record, "## ")) continue;
    QOCO_RETURN_NOT_OK(flush(record_start));
    std::string name(common::StripWhitespace(record.substr(3)));
    QOCO_ASSIGN_OR_RETURN(current, db->catalog().FindRelation(name));
    block_start = pos;
  }
  return flush(text.size());
}

}  // namespace qoco::relational
