#include "src/relational/relation.h"

#include <algorithm>

#include "src/common/check.h"
#include "src/common/invariant.h"

namespace qoco::relational {

const std::vector<uint32_t> Relation::kEmptyRows;

bool Relation::Contains(const Tuple& t) const {
  std::optional<ITuple> ids = FindTuple(t, *dict_);
  return ids.has_value() && membership_.contains(*ids);
}

bool Relation::Insert(const Tuple& t) {
  QOCO_DCHECK_EQ(t.size(), arity_)
      << "arity mismatch inserting " << TupleToString(t);
  return InsertIds(InternTuple(t, dict_));
}

bool Relation::InsertIds(const ITuple& t) {
  QOCO_DCHECK_EQ(t.size(), arity_);
  if (membership_.contains(t)) return false;
  ++version_;
  uint32_t pos = static_cast<uint32_t>(rows_.size());
  rows_.push_back(t);
  membership_.emplace(t, pos);
  for (size_t col = 0; col < arity_; ++col) {
    if (index_valid_[col]) column_index_[col][t[col]].push_back(pos);
  }
  return true;
}

bool Relation::Erase(const Tuple& t) {
  std::optional<ITuple> ids = FindTuple(t, *dict_);
  if (!ids.has_value()) return false;
  return EraseIds(*ids);
}

bool Relation::EraseIds(const ITuple& t) {
  auto it = membership_.find(t);
  if (it == membership_.end()) return false;
  ++version_;
  uint32_t pos = it->second;
  membership_.erase(it);
  uint32_t last = static_cast<uint32_t>(rows_.size()) - 1;
  // Patch built indexes before touching rows_: drop `pos` under the erased
  // tuple's values, then retarget the row that swap-remove will move from
  // `last` to `pos`. (When the erased and moved rows share a value the list
  // momentarily holds both positions; the two steps compose correctly.)
  for (size_t col = 0; col < arity_; ++col) {
    if (!index_valid_[col]) continue;
    RemovePosting(col, t[col], pos);
    if (pos != last) RepointPosting(col, rows_[last][col], last, pos);
  }
  if (pos != last) {
    rows_[pos] = std::move(rows_[last]);
    membership_[rows_[pos]] = pos;
  }
  rows_.pop_back();
  return true;
}

void Relation::RemovePosting(size_t column, ValueId id, uint32_t pos) {
  IdPostingMap& index = column_index_[column];
  std::vector<uint32_t>* list = index.Find(id);
  QOCO_DCHECK(list != nullptr) << "no posting list for "
                               << dict_->ToString(id) << " in column "
                               << column;
  auto slot = std::find(list->begin(), list->end(), pos);
  QOCO_DCHECK(slot != list->end())
      << "position " << pos << " missing from the posting list of "
      << dict_->ToString(id) << " in column " << column;
  *slot = list->back();
  list->pop_back();
  if (list->empty()) index.Erase(id);
}

void Relation::RepointPosting(size_t column, ValueId id, uint32_t from,
                              uint32_t to) {
  std::vector<uint32_t>* list = column_index_[column].Find(id);
  QOCO_DCHECK(list != nullptr) << "no posting list for "
                               << dict_->ToString(id) << " in column "
                               << column;
  auto slot = std::find(list->begin(), list->end(), from);
  QOCO_DCHECK(slot != list->end())
      << "position " << from << " missing from the posting list of "
      << dict_->ToString(id) << " in column " << column;
  *slot = to;
}

void Relation::EnsureIndex(size_t column) const {
  if (index_valid_[column]) return;
  IdPostingMap& index = column_index_[column];
  index.Clear();
  for (uint32_t pos = 0; pos < rows_.size(); ++pos) {
    index[rows_[pos][column]].push_back(pos);
  }
  index_valid_[column] = true;
}

const std::vector<uint32_t>& Relation::RowsWithId(size_t column,
                                                  ValueId id) const {
  EnsureIndex(column);
  const std::vector<uint32_t>* list = column_index_[column].Find(id);
  return list != nullptr ? *list : kEmptyRows;
}

const std::vector<uint32_t>& Relation::RowsWithValue(size_t column,
                                                     const Value& v) const {
  std::optional<ValueId> id = dict_->Find(v);
  if (!id.has_value()) {
    EnsureIndex(column);
    return kEmptyRows;
  }
  return RowsWithId(column, *id);
}

size_t Relation::CountRowsWithId(size_t column, ValueId id) const {
  return RowsWithId(column, id).size();
}

std::vector<Value> Relation::ColumnDomain(size_t column) const {
  EnsureIndex(column);
  std::vector<Value> domain;
  domain.reserve(column_index_[column].size());
  column_index_[column].ForEach(
      [&](ValueId id, const std::vector<uint32_t>&) {
        domain.push_back(dict_->Materialize(id));
      });
  std::sort(domain.begin(), domain.end());
  return domain;
}

common::Status Relation::AuditInvariants() const {
  common::InvariantAuditor audit("relational::Relation");

  // Every stored id must decode through the shared dictionary: a dangling
  // slot id (beyond the table) or a sentinel in a row is corruption.
  for (uint32_t pos = 0; pos < rows_.size(); ++pos) {
    for (size_t col = 0; col < rows_[pos].size(); ++col) {
      ValueId id = rows_[pos][col];
      if (!dict_->IsValidId(id)) {
        audit.Violation() << "row " << pos << " column " << col
                          << " holds orphan id " << id
                          << " with no dictionary entry";
      }
    }
  }

  // Row store <-> membership map round-trip.
  if (membership_.size() != rows_.size()) {
    audit.Violation() << "membership has " << membership_.size()
                      << " entries for " << rows_.size() << " rows";
  }
  for (uint32_t pos = 0; pos < rows_.size(); ++pos) {
    const ITuple& row = rows_[pos];
    if (row.size() != arity_) {
      audit.Violation() << "row " << pos << " has arity " << row.size()
                        << ", relation arity is " << arity_;
      continue;
    }
    auto it = membership_.find(row);
    if (it == membership_.end()) {
      audit.Violation() << "row " << pos << " is missing from the membership"
                        << " map";
    } else if (it->second != pos) {
      audit.Violation() << "membership points row at position " << it->second
                        << ", stored at " << pos;
    }
  }

  // Built column indexes: every posting round-trips through the row store,
  // no list is empty, no list holds duplicates, and per column the posting
  // counts cover the rows exactly once (so swap-remove left no stale or
  // dangling last-row positions behind).
  for (size_t col = 0; col < arity_; ++col) {
    if (!index_valid_[col]) continue;
    size_t postings = 0;
    column_index_[col].ForEach([&](ValueId id,
                                   const std::vector<uint32_t>& list) {
      if (list.empty()) {
        audit.Violation() << "column " << col
                          << " keeps an empty posting list for "
                          << dict_->ToString(id);
      }
      postings += list.size();
      std::vector<uint32_t> sorted = list;
      std::sort(sorted.begin(), sorted.end());
      if (std::adjacent_find(sorted.begin(), sorted.end()) != sorted.end()) {
        audit.Violation() << "column " << col << " posting list of "
                          << dict_->ToString(id)
                          << " holds duplicate positions";
      }
      for (uint32_t pos : list) {
        if (pos >= rows_.size()) {
          audit.Violation() << "column " << col << " posting list of "
                            << dict_->ToString(id) << " holds stale position "
                            << pos << " (only " << rows_.size() << " rows)";
        } else if (rows_[pos][col] != id) {
          audit.Violation() << "column " << col << " posting list of "
                            << dict_->ToString(id) << " lists position "
                            << pos << " whose value is "
                            << dict_->ToString(rows_[pos][col]);
        }
      }
    });
    if (postings != rows_.size()) {
      audit.Violation() << "column " << col << " indexes " << postings
                        << " postings for " << rows_.size() << " rows";
    }
  }
  return audit.Finish();
}

}  // namespace qoco::relational
