#include "src/relational/relation.h"

#include <algorithm>
#include <optional>
#include <span>

#include "src/common/check.h"
#include "src/common/invariant.h"

namespace qoco::relational {

bool Relation::Contains(const Tuple& t) const {
  std::optional<ITuple> ids = FindTuple(t, *dict_);
  return ids.has_value() && ContainsIds(*ids);
}

bool Relation::Insert(const Tuple& t) {
  QOCO_DCHECK_EQ(t.size(), arity_)
      << "arity mismatch inserting " << TupleToString(t);
  return InsertIds(InternTuple(t, dict_));
}

bool Relation::InsertIds(const ITuple& t) {
  QOCO_DCHECK_EQ(t.size(), arity_);
  // Keep the load at most 1/2 with the new row counted.
  if (2 * (rows_.size() + 1) > slots_.size()) {
    RehashMembership(slots_.empty() ? 16 : 2 * slots_.size());
  }
  size_t slot = ProbeSlot(t);
  if (slots_[slot] != 0) return false;
  ++version_;
  uint32_t pos = static_cast<uint32_t>(rows_.size());
  rows_.push_back(t);
  slots_[slot] = pos + 1;
  for (size_t col = 0; col < arity_; ++col) {
    if (index_valid_[col]) column_index_[col].Append(t[col], pos);
  }
  return true;
}

bool Relation::Erase(const Tuple& t) {
  std::optional<ITuple> ids = FindTuple(t, *dict_);
  if (!ids.has_value()) return false;
  return EraseIds(*ids);
}

bool Relation::EraseIds(const ITuple& t) {
  if (slots_.empty()) return false;
  size_t slot = ProbeSlot(t);
  if (slots_[slot] == 0) return false;
  ++version_;
  uint32_t pos = slots_[slot] - 1;
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
  // `t` may alias a row, so it is read for the last time above.
  EraseSlot(slot);
  if (pos != last) {
    // Swap-remove: the one slot naming `last` now names `pos`.
    slots_[ProbeSlot(rows_[last])] = pos + 1;
    rows_[pos] = std::move(rows_[last]);
  }
  rows_.pop_back();
  return true;
}

void Relation::RehashMembership(size_t capacity) {
  slots_.assign(capacity, 0);
  size_t mask = capacity - 1;
  for (uint32_t pos = 0; pos < rows_.size(); ++pos) {
    size_t i = ITupleHash{}(rows_[pos]) & mask;
    while (slots_[i] != 0) i = (i + 1) & mask;
    slots_[i] = pos + 1;
  }
}

void Relation::EraseSlot(size_t hole) {
  size_t mask = slots_.size() - 1;
  for (size_t j = (hole + 1) & mask; slots_[j] != 0; j = (j + 1) & mask) {
    size_t home = ITupleHash{}(rows_[slots_[j] - 1]) & mask;
    // Move j into the hole iff the hole lies on j's probe run, that is,
    // j's run started at or before the hole (cyclically).
    if (((j - home) & mask) >= ((j - hole) & mask)) {
      slots_[hole] = slots_[j];
      hole = j;
    }
  }
  slots_[hole] = 0;
}

void Relation::RemovePosting(size_t column, ValueId id, uint32_t pos) {
  bool removed = column_index_[column].Remove(id, pos);
  QOCO_DCHECK(removed) << "position " << pos
                       << " missing from the posting list of "
                       << dict_->ToString(id) << " in column " << column;
}

void Relation::RepointPosting(size_t column, ValueId id, uint32_t from,
                              uint32_t to) {
  bool repointed = column_index_[column].Repoint(id, from, to);
  QOCO_DCHECK(repointed) << "position " << from
                         << " missing from the posting list of "
                         << dict_->ToString(id) << " in column " << column;
}

void Relation::EnsureIndex(size_t column) const {
  if (index_valid_[column]) return;
  column_index_[column].Build(rows_, column);
  index_valid_[column] = true;
}

void Relation::InstallPostings(size_t column,
                               const IdPostingMap& postings) const {
  if (index_valid_[column]) return;
  if constexpr (common::kDebugChecksEnabled) {
    IdPostingMap fresh;
    fresh.Build(rows_, column);
    QOCO_CHECK(fresh == postings)
        << "postings installed into column " << column
        << " differ from a build over the relation's " << rows_.size()
        << " rows";
  }
  column_index_[column] = postings;
  index_valid_[column] = true;
}

std::span<const uint32_t> Relation::RowsWithId(size_t column,
                                               ValueId id) const {
  EnsureIndex(column);
  return column_index_[column].Find(id);
}

size_t Relation::CountRowsWithId(size_t column, ValueId id) const {
  return RowsWithId(column, id).size();
}

std::vector<Value> Relation::ColumnDomain(size_t column) const {
  EnsureIndex(column);
  std::vector<Value> domain;
  domain.reserve(column_index_[column].size());
  column_index_[column].ForEach([&](ValueId id, std::span<const uint32_t>) {
    domain.push_back(dict_->Materialize(id));
  });
  std::sort(domain.begin(), domain.end());
  return domain;
}

namespace {

/// Audits one built column index over `rows`. The layout comes first: every
/// range must lie inside the arena and hold at most its capacity, and no
/// two ranges may overlap. Only the lists whose range passed are read.
/// Then every posting round-trips through the row store, no list is empty
/// or holds duplicates, and the postings cover the rows exactly once (so
/// swap-remove left no stale or dangling last-row positions behind).
void AuditPostings(const IdPostingMap& index, size_t col,
                   const std::vector<ITuple>& rows,
                   const ValueDictionary& dict,
                   common::InvariantAuditor* audit) {
  const std::span<const uint32_t> arena = index.arena();
  std::vector<IdPostingMap::Range> ranges;
  for (const IdPostingMap::Range& r : index.slots()) {
    if (r.key == kInvalidId) continue;
    if (r.size > r.capacity) {
      audit->Violation() << "column " << col << " posting list of "
                         << dict.ToString(r.key) << " holds " << r.size
                         << " positions in a capacity of " << r.capacity;
    } else if (size_t{r.begin} + r.capacity > arena.size()) {
      audit->Violation() << "column " << col << " posting list of "
                         << dict.ToString(r.key) << " ends at "
                         << size_t{r.begin} + r.capacity << ", past the "
                         << arena.size() << " words of its arena";
    } else {
      ranges.push_back(r);
    }
  }
  std::sort(ranges.begin(), ranges.end(),
            [](const IdPostingMap::Range& a, const IdPostingMap::Range& b) {
              return a.begin < b.begin;
            });
  for (size_t i = 0; i + 1 < ranges.size(); ++i) {
    if (size_t{ranges[i].begin} + ranges[i].capacity > ranges[i + 1].begin) {
      audit->Violation() << "column " << col << " posting lists of "
                         << dict.ToString(ranges[i].key) << " and "
                         << dict.ToString(ranges[i + 1].key)
                         << " overlap in the arena";
    }
  }

  size_t postings = 0;
  for (const IdPostingMap::Range& r : ranges) {
    const std::span<const uint32_t> list = arena.subspan(r.begin, r.size);
    if (list.empty()) {
      audit->Violation() << "column " << col
                         << " keeps an empty posting list for "
                         << dict.ToString(r.key);
    }
    postings += list.size();
    std::vector<uint32_t> sorted(list.begin(), list.end());
    std::sort(sorted.begin(), sorted.end());
    if (std::adjacent_find(sorted.begin(), sorted.end()) != sorted.end()) {
      audit->Violation() << "column " << col << " posting list of "
                         << dict.ToString(r.key)
                         << " holds duplicate positions";
    }
    for (uint32_t pos : list) {
      if (pos >= rows.size()) {
        audit->Violation() << "column " << col << " posting list of "
                           << dict.ToString(r.key) << " holds stale position "
                           << pos << " (only " << rows.size() << " rows)";
      } else if (rows[pos][col] != r.key) {
        audit->Violation() << "column " << col << " posting list of "
                           << dict.ToString(r.key) << " lists position "
                           << pos << " whose value is "
                           << dict.ToString(rows[pos][col]);
      }
    }
  }
  if (postings != rows.size()) {
    audit->Violation() << "column " << col << " indexes " << postings
                       << " postings for " << rows.size() << " rows";
  }
}

}  // namespace

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

  // Membership table <-> row store. The table may be corrupt, so every
  // position a slot names is range-checked before rows_ is read, and the
  // probes below stop after one lap instead of trusting an empty slot.
  size_t capacity = slots_.size();
  if ((capacity & (capacity - 1)) != 0) {
    audit.Violation() << "membership table has " << capacity
                      << " slots, not a power of two";
  }
  std::vector<uint32_t> named(rows_.size(), 0);
  size_t occupied = 0;
  for (size_t i = 0; i < capacity; ++i) {
    if (slots_[i] == 0) continue;
    ++occupied;
    uint32_t pos = slots_[i] - 1;
    if (pos >= rows_.size()) {
      audit.Violation() << "membership slot " << i << " names position "
                        << pos << " past the " << rows_.size() << " rows";
    } else {
      ++named[pos];
    }
  }
  if (occupied != rows_.size()) {
    audit.Violation() << "membership has " << occupied << " entries for "
                      << rows_.size() << " rows";
  }
  if (2 * occupied > capacity) {
    audit.Violation() << "membership holds " << occupied << " entries in "
                      << capacity << " slots, past half load";
  }
  for (uint32_t pos = 0; pos < rows_.size(); ++pos) {
    const ITuple& row = rows_[pos];
    if (row.size() != arity_) {
      audit.Violation() << "row " << pos << " has arity " << row.size()
                        << ", relation arity is " << arity_;
      continue;
    }
    if (named[pos] > 1) {
      audit.Violation() << "membership points " << named[pos]
                        << " slots at row " << pos;
    }
    // The first slot on the row's probe run that names an equal row.
    std::optional<uint32_t> found;
    size_t mask = capacity - 1;
    size_t i = capacity == 0 ? 0 : ITupleHash{}(row) & mask;
    for (size_t step = 0; step < capacity && slots_[i] != 0;
         ++step, i = (i + 1) & mask) {
      uint32_t named_pos = slots_[i] - 1;
      if (named_pos < rows_.size() && rows_[named_pos] == row) {
        found = named_pos;
        break;
      }
    }
    if (!found.has_value()) {
      audit.Violation() << "row " << pos
                        << " is missing from the membership table";
    } else if (*found != pos) {
      audit.Violation() << "membership points row at position " << *found
                        << ", stored at " << pos;
    }
  }

  for (size_t col = 0; col < arity_; ++col) {
    if (index_valid_[col]) {
      AuditPostings(column_index_[col], col, rows_, *dict_, &audit);
    }
  }
  return audit.Finish();
}

}  // namespace qoco::relational
