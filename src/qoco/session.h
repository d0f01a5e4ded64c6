#ifndef QOCO_QOCO_SESSION_H_
#define QOCO_QOCO_SESSION_H_

#include <string_view>
#include <vector>

#include "src/cleaning/aggregate_cleaner.h"
#include "src/cleaning/cleaner.h"
#include "src/common/rng.h"
#include "src/common/status.h"
#include "src/crowd/crowd_panel.h"
#include "src/query/aggregate.h"
#include "src/relational/database.h"
#include "src/relational/journal.h"

namespace qoco {

/// The front door of the library: a long-lived cleaning session over one
/// database and one crowd, cleaning any number of views.
///
/// A Session owns the crowd panel (so verdicts are cached and never
/// re-asked across views), accumulates an in-memory journal of every
/// applied edit (see relational::EditJournal), and exposes one call per
/// view language: conjunctive queries, unions, and COUNT aggregates.
///
///   qoco::Session session(&db, {&oracle});
///   auto stats = session.CleanView(
///       "(x) :- Games(d1, x, y, 'Final', u1), "
///       "Games(d2, x, z, 'Final', u2), Teams(x, 'EU'), d1 != d2.");
class Session {
 public:
  struct Options {
    cleaning::CleanerConfig cleaner;
    crowd::PanelConfig panel;
    uint64_t seed = 1;
  };

  /// `db` and every oracle must outlive the session. The database is
  /// cleaned in place.
  Session(relational::Database* db, std::vector<crowd::Oracle*> members,
          Options options);
  Session(relational::Database* db, std::vector<crowd::Oracle*> members)
      : Session(db, std::move(members), Options()) {}

  /// Parses `query_text` against the database's catalog and repairs the
  /// view with Algorithm 3.
  common::Result<cleaning::CleanerStats> CleanView(
      std::string_view query_text);

  /// Repairs an already-parsed view. With a `seed` (query::MakeViewSeed
  /// of `q` over a copy of this session's database as it is now), the view
  /// starts from the seed instead of evaluating `q`; the transcript is the
  /// same either way.
  common::Result<cleaning::CleanerStats> CleanView(
      const query::CQuery& q, const query::ViewSeed* seed = nullptr);

  /// Repairs a union view (';'-separated disjuncts in text form).
  common::Result<cleaning::CleanerStats> CleanUnionView(
      std::string_view query_text);
  common::Result<cleaning::CleanerStats> CleanUnionView(
      const query::UnionQuery& q);

  /// Repairs a COUNT aggregate view.
  common::Result<cleaning::CleanerStats> CleanAggregateView(
      const query::AggregateQuery& q);

  /// Crowd interaction accumulated across all views of this session.
  const crowd::QuestionCounts& questions() const { return panel_.counts(); }

  /// In-memory journal of every edit applied in this session, replayable
  /// with relational::ReplayJournal over a pre-session snapshot.
  const relational::EditJournal& journal() const { return journal_; }

  const relational::Database& database() const { return *db_; }
  crowd::CrowdPanel* panel() { return &panel_; }

 private:
  /// Appends `edits` to the journal.
  void JournalEdits(const cleaning::EditList& edits);

  relational::Database* db_;
  Options options_;
  crowd::CrowdPanel panel_;
  relational::EditJournal journal_;
  common::Rng rng_;
};

}  // namespace qoco

#endif  // QOCO_QOCO_SESSION_H_
