#include "src/relational/journal.h"

#include <vector>

#include "src/common/strings.h"
#include "src/relational/csv.h"

namespace qoco::relational {

std::string EditJournal::EncodeEdit(bool insert, const Fact& fact,
                                    const Catalog& catalog) {
  std::string line = insert ? "+" : "-";
  line += "\t";
  line += catalog.relation_name(fact.relation);
  line += "\t";
  for (size_t i = 0; i < fact.tuple.size(); ++i) {
    if (i > 0) line += ",";
    line += EncodeCsvField(fact.tuple[i]);
  }
  return line;
}

void EditJournal::Append(bool insert, const Fact& fact,
                         const Catalog& catalog) {
  contents_ += EncodeEdit(insert, fact, catalog);
  contents_ += "\n";
}

common::Status ReplayJournal(std::string_view journal, Database* db) {
  std::vector<std::string> fields;
  std::vector<bool> was_quoted;
  for (size_t pos = 0; pos < journal.size();) {
    // Records end at a newline outside quotes, and the sign and the
    // relation name end at the first two tabs, so a quoted string holding
    // a newline or a tab stays inside its field.
    const size_t start = pos;
    const std::string_view record = NextCsvRecord(journal, &pos);
    const std::string_view line = common::StripWhitespace(record);
    if (line.empty()) continue;
    // A record without its newline was cut by a torn write or a snapshot
    // inside it: its last field may be a prefix of the committed value.
    if (pos == start + record.size()) {
      return common::Status::ParseError("unterminated journal record: " +
                                        std::string(line));
    }
    const size_t sign_end = line.find('\t');
    const size_t name_end = sign_end == std::string_view::npos
                                ? std::string_view::npos
                                : line.find('\t', sign_end + 1);
    const std::string_view sign = line.substr(0, sign_end);
    if (name_end == std::string_view::npos || (sign != "+" && sign != "-")) {
      return common::Status::ParseError("malformed journal record: " +
                                        std::string(line));
    }
    const std::string name(line.substr(sign_end + 1, name_end - sign_end - 1));
    QOCO_ASSIGN_OR_RETURN(RelationId relation,
                          db->catalog().FindRelation(name));
    QOCO_RETURN_NOT_OK(
        SplitCsvRecord(line.substr(name_end + 1), &fields, &was_quoted));
    Tuple tuple;
    tuple.reserve(fields.size());
    for (size_t i = 0; i < fields.size(); ++i) {
      tuple.push_back(ParseCsvField(fields[i], was_quoted[i]));
    }
    Fact fact{relation, std::move(tuple)};
    if (sign == "+") {
      QOCO_RETURN_NOT_OK(db->Insert(fact).status());
    } else {
      QOCO_RETURN_NOT_OK(db->Erase(fact).status());
    }
  }
  return common::Status::OK();
}

}  // namespace qoco::relational
