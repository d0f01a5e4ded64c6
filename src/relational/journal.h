#ifndef QOCO_RELATIONAL_JOURNAL_H_
#define QOCO_RELATIONAL_JOURNAL_H_

#include <string>
#include <string_view>

#include "src/common/status.h"
#include "src/common/thread_safety.h"
#include "src/relational/database.h"

namespace qoco::relational {

/// An in-memory, human-readable journal of database edits, one record per
/// edit in write-ahead-log style. It is a string: nothing is written to a
/// file or synced, so it outlives a crash only if its owner writes it out.
/// A snapshot of the database (DatabaseToCsv) with the journal's records
/// replayed over it (ReplayJournal) gives the edited database.
///
/// Record format, one edit per line:
///
///   +<TAB>RelationName<TAB>field,field,...
///   -<TAB>RelationName<TAB>field,field,...
///
/// Fields use the CSV escaping rules of relational/csv.h: strings holding
/// a comma, a quote, a newline or a tab, or starting or ending with a
/// space, are quoted, so every value round-trips. A record ends at a
/// newline outside quotes.
/// An immutable position in an EditJournal: the byte length of a prefix
/// whose content never changes afterwards (the journal is append-only).
/// Snapshot-isolated readers (src/service/session_manager.h) capture a
/// handle at admission and replay exactly that prefix over a copy of the
/// base database, so concurrently committing sessions never leak into a
/// reader's view mid-run.
struct JournalSnapshot {
  size_t bytes = 0;

  friend bool operator==(JournalSnapshot a, JournalSnapshot b) {
    return a.bytes == b.bytes;
  }
};

class EditJournal {
 public:
  /// Serializes one edit as a journal line (without trailing newline).
  static std::string EncodeEdit(bool insert, const Fact& fact,
                                const Catalog& catalog);

  /// Appends an edit record to the in-memory journal buffer. The journal is
  /// part of the oracle transcript, whose byte order must not depend on
  /// scheduling, so edits are recorded coordinator-side only.
  void Append(bool insert, const Fact& fact, const Catalog& catalog)
      QOCO_COORDINATOR_ONLY;

  /// Appends already-encoded records (as produced by EncodeEdit/Append of
  /// another journal; must be newline-terminated or empty). Used by the
  /// session service to splice per-session journals into the global commit
  /// journal. Not coordinator-only: callers synchronize externally and must
  /// guarantee a scheduling-independent append order themselves (the
  /// SessionManager commits in session-id order for exactly this reason).
  void AppendRecords(std::string_view encoded) { contents_ += encoded; }

  /// The journal contents accumulated so far (one record per line).
  const std::string& contents() const { return contents_; }

  /// Handle to the current end of the journal. Prefixes are immutable, so
  /// the handle stays valid for the journal's lifetime.
  JournalSnapshot snapshot() const { return JournalSnapshot{contents_.size()}; }

  /// The journal prefix frozen by `snap`. Precondition: `snap` was taken
  /// from this journal (its byte count never exceeds contents()).
  std::string_view ContentsAt(JournalSnapshot snap) const {
    return std::string_view(contents_).substr(0, snap.bytes);
  }

 private:
  std::string contents_;
};

/// Replays a journal over `db`: every `+` line is inserted, every `-` line
/// erased (idempotently, matching edit semantics). Unknown relations,
/// malformed records, arity mismatches or a final record cut before its
/// newline abort with ParseError; the database may then be partially
/// replayed, as with a torn log.
common::Status ReplayJournal(std::string_view journal, Database* db);

}  // namespace qoco::relational

#endif  // QOCO_RELATIONAL_JOURNAL_H_
