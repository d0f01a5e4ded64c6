#ifndef QOCO_RELATIONAL_RELATION_H_
#define QOCO_RELATIONAL_RELATION_H_

#include <cstdint>
#include <span>
#include <vector>

#include "src/common/status.h"
#include "src/relational/id_posting_map.h"
#include "src/relational/tuple.h"
#include "src/relational/value_dictionary.h"
#include "src/relational/value_id.h"

namespace qoco::relational {

/// A finite relation instance with set semantics, stored in id space: rows
/// are ITuples of dictionary-interned ValueIds (see value_dictionary.h), so
/// membership, joins and index probes are integer compares — no string
/// bytes, no variant dispatch. The Value-typed entry points intern (Insert)
/// or probe without interning (Contains/Erase) and exist for the
/// boundaries; hot paths use the *Id twins.
///
/// Membership is a flat open-addressed table of row positions: each slot
/// holds 1 + the position of a row in rows_ (0 marks an empty slot), probed
/// linearly from ITupleHash of the tuple and compared against that row.
/// The table has power-of-two size and load at most 1/2, and Erase
/// backward-shifts the probe run behind the hole, so it needs no
/// tombstones (the IdPostingMap scheme). The table holds no tuple, so
/// copying or freeing a relation costs a few flat vector copies and no
/// per-row heap node.
///
/// Besides membership and insert/erase, a Relation maintains lazily-built
/// per-column indexes (ValueId -> row positions; IdPostingMap) that the
/// query evaluator uses to drive index nested-loop joins. Once built, an
/// index is *incrementally maintained* across Insert/Erase: insertions
/// append the new row position to the matching posting list, and the
/// swap-remove performed by Erase patches the two affected posting lists in
/// place. An index is therefore built (or installed, InstallPostings) at
/// most once over the relation's lifetime, and the posting lists returned
/// by RowsWithId stay valid until the next mutation of this relation
/// (building indexes for *other* columns does not invalidate them).
///
/// Invariants while index_valid_[c] holds:
///  * column_index_[c][v] lists exactly the positions p with rows_[p][c] == v
///    (in no particular order; swap-remove maintenance permutes them);
///  * no posting list is empty (the key is erased with its last position),
///    so ColumnDomain can read the key set directly.
class Relation {
 public:
  /// Constructs an empty relation of the given arity over `dict`, which
  /// must outlive the relation (it is owned by the Catalog).
  Relation(size_t arity, ValueDictionary* dict)
      : arity_(arity),
        dict_(dict),
        column_index_(arity),
        index_valid_(arity, false) {}

  size_t arity() const { return arity_; }
  size_t size() const { return rows_.size(); }
  bool empty() const { return rows_.empty(); }

  /// Monotone mutation counter: bumped by every Insert/Erase that actually
  /// changed the relation (idempotent no-ops don't count). Derived caches
  /// outside the relation — the query planner's ColumnStats above all —
  /// stamp the version they were computed at and compare on read, so
  /// staleness detection is one integer compare instead of a journal
  /// subscription.
  uint64_t version() const { return version_; }

  /// The dictionary this relation's ids live in.
  ValueDictionary& dict() const { return *dict_; }

  /// True iff `t` is in the relation. Non-interning: a tuple with any
  /// value absent from the dictionary is stored nowhere. Precondition:
  /// t.size() == arity().
  bool Contains(const Tuple& t) const;
  bool ContainsIds(const ITuple& t) const {
    return !slots_.empty() && slots_[ProbeSlot(t)] != 0;
  }

  /// Inserts `t`, interning its values; returns true if newly inserted
  /// (set semantics). Precondition: t.size() == arity(). Mutates the
  /// shared dictionary — coordinator-side only (see ValueDictionary).
  bool Insert(const Tuple& t);
  bool InsertIds(const ITuple& t);

  /// Erases `t`; returns true if it was present. Non-interning.
  bool Erase(const Tuple& t);
  bool EraseIds(const ITuple& t);

  /// All rows in id space, in insertion order (stable across erases of
  /// other tuples only up to the swap-remove performed internally; treat as
  /// unordered). Materialize per row with MaterializeRow / MaterializeTuple
  /// at boundaries.
  const std::vector<ITuple>& rows() const { return rows_; }

  /// The values of row `pos`. Precondition: pos < size().
  Tuple MaterializeRow(size_t pos) const {
    return MaterializeTuple(rows_[pos], *dict_);
  }

  /// Row positions whose `column` equals the value behind `id`. The
  /// returned span is valid until the next mutation of this relation;
  /// probing other columns (or other relations) does not invalidate it.
  /// Precondition: column < arity().
  std::span<const uint32_t> RowsWithId(size_t column, ValueId id) const;

  /// The whole per-column index (built on demand), for derived statistics:
  /// the query planner's ColumnStats reads each column's sorted domain once
  /// per relation version. Same validity contract as RowsWithId: the
  /// reference holds until the next mutation of this relation.
  /// Precondition: column < arity().
  const IdPostingMap& ColumnPostings(size_t column) const {
    EnsureIndex(column);
    return column_index_[column];
  }

  /// True iff `column`'s index is built (and so maintained from now on).
  /// Unlike every probe above, it builds nothing. Precondition:
  /// column < arity().
  bool IndexBuilt(size_t column) const { return index_valid_[column]; }

  /// Installs a copy of `postings` as `column`'s index if the column is
  /// cold; a built column is left as it is. `postings` must be what a
  /// build over the current rows gives (same keys, same lists in the same
  /// order): ColumnPostings of a relation with these rows, taken before
  /// any edit patched it. Under QOCO_DEBUG_CHECKS the copy is checked
  /// against a fresh build. Precondition: column < arity().
  void InstallPostings(size_t column, const IdPostingMap& postings) const;

  /// Number of rows whose `column` equals the value behind `id`.
  /// Equivalent to RowsWithId(column, id).size(); spelled out so call sites
  /// that only need a cardinality (e.g. join-order scoring) don't read as
  /// if they materialized anything. Precondition: column < arity().
  size_t CountRowsWithId(size_t column, ValueId id) const;

  /// Distinct values appearing in `column`, in value order.
  std::vector<Value> ColumnDomain(size_t column) const;

  /// Deep audit of every class invariant: every row id materializes through
  /// the dictionary (no dangling/orphan ids), the membership table names
  /// every row exactly once, from a slot a probe for that row reaches, and
  /// names no position past the rows; in every built index each list's
  /// range lies inside the arena, holds at most its capacity and overlaps
  /// no other list's range; every built posting list entry matches its
  /// row (no stale positions left behind by the swap-remove maintenance),
  /// no posting list is empty, and per built column the posting counts
  /// cover the rows exactly once. O(rows × arity) plus
  /// hashing; meant for debug builds, fuzz checkpoints, and the
  /// corruption-injection tests — not the hot path. Returns OK or a
  /// kInternal Status listing every violation.
  common::Status AuditInvariants() const;

 private:
  // Test-only backdoor used by the corruption-injection tests to seed
  // invariant violations (tests/invariant_audit_test.cc).
  friend struct RelationCorruptor;
  void EnsureIndex(size_t column) const;

  /// The slot naming `t`, or the empty slot that ends its probe run.
  /// Precondition: slots_ is not empty.
  size_t ProbeSlot(const ITuple& t) const {
    size_t mask = slots_.size() - 1;
    for (size_t i = ITupleHash{}(t) & mask;; i = (i + 1) & mask) {
      if (slots_[i] == 0 || rows_[slots_[i] - 1] == t) return i;
    }
  }

  /// Rebuilds the membership table at `capacity` slots (a power of two)
  /// from rows_.
  void RehashMembership(size_t capacity);

  /// Empties slot `hole` and backward-shifts the probe run behind it.
  /// Reads the rows the shifted slots name, so call it before rows_ moves.
  void EraseSlot(size_t hole);

  /// Removes position `pos` from the posting list of `id` in `column`'s
  /// (built) index, erasing the key if the list empties.
  void RemovePosting(size_t column, ValueId id, uint32_t pos);

  /// Rewrites the occurrence of position `from` to `to` in the posting
  /// list of `id` in `column`'s (built) index.
  void RepointPosting(size_t column, ValueId id, uint32_t from, uint32_t to);

  size_t arity_;
  ValueDictionary* dict_;
  uint64_t version_ = 0;
  std::vector<ITuple> rows_;
  // Membership: 1 + a row position per occupied slot, 0 per empty one.
  std::vector<uint32_t> slots_;

  // Per-column indexes, built on first use (mutable for build-on-demand)
  // and maintained incrementally afterwards. Sized to arity_ up front so a
  // build never reallocates the outer vector mid-evaluation.
  mutable std::vector<IdPostingMap> column_index_;
  mutable std::vector<bool> index_valid_;
};

}  // namespace qoco::relational

#endif  // QOCO_RELATIONAL_RELATION_H_
