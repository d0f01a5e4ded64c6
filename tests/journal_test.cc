// Tests for the edit journal: record round trips, idempotent replay,
// crash recovery (snapshot + journal == final database), and integration
// with a cleaning session's edit log.

#include "src/relational/journal.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "src/cleaning/cleaner.h"
#include "src/crowd/crowd_panel.h"
#include "src/crowd/simulated_oracle.h"
#include "src/relational/csv.h"
#include "src/workload/figure_one.h"

namespace qoco::relational {
namespace {

class JournalTest : public ::testing::Test {
 protected:
  void SetUp() override {
    r_ = *catalog_.AddRelation("R", {"name", "n"});
    db_ = std::make_unique<Database>(&catalog_);
  }

  Catalog catalog_;
  RelationId r_ = kInvalidRelation;
  std::unique_ptr<Database> db_;
};

TEST_F(JournalTest, EncodeAndReplaySingleRecords) {
  Fact f{r_, {Value("alice"), Value(7)}};
  EXPECT_EQ(EditJournal::EncodeEdit(true, f, catalog_), "+\tR\talice,7");
  EXPECT_EQ(EditJournal::EncodeEdit(false, f, catalog_), "-\tR\talice,7");

  ASSERT_TRUE(ReplayJournal("+\tR\talice,7\n", db_.get()).ok());
  EXPECT_TRUE(db_->Contains(f));
  ASSERT_TRUE(ReplayJournal("-\tR\talice,7\n", db_.get()).ok());
  EXPECT_FALSE(db_->Contains(f));
}

TEST_F(JournalTest, SpecialCharactersRoundTrip) {
  // Each string is replayed as the first and as the last field: record
  // reading strips whitespace around the whole record.
  for (const char* s : {"has,comma and \"quote\"", "has\ttab", "two\nlines",
                        "ends\t", " spaced "}) {
    for (const Fact& f : {Fact{r_, {Value(s), Value(1)}},
                          Fact{r_, {Value(2), Value(s)}}}) {
      EditJournal journal;
      journal.Append(true, f, catalog_);
      journal.Append(true, {r_, {Value("next"), Value(3)}}, catalog_);
      common::Status replayed = ReplayJournal(journal.contents(), db_.get());
      ASSERT_TRUE(replayed.ok()) << replayed.ToString();
      EXPECT_TRUE(db_->Contains(f)) << journal.contents();
      EXPECT_EQ(db_->TotalFacts(), 2u) << journal.contents();
      db_ = std::make_unique<Database>(&catalog_);
    }
  }
}

TEST_F(JournalTest, TypesSurviveReplay) {
  Fact f{r_, {Value("x"), Value(42)}};
  Fact null_fact{r_, {Value("y"), Value()}};
  Fact null_text{r_, {Value("y"), Value("NULL")}};
  EditJournal journal;
  journal.Append(true, f, catalog_);
  journal.Append(true, null_fact, catalog_);
  journal.Append(true, null_text, catalog_);
  ASSERT_TRUE(ReplayJournal(journal.contents(), db_.get()).ok());
  // The integer stayed an integer: the string "42" would be a different
  // fact.
  EXPECT_TRUE(db_->Contains(f));
  EXPECT_FALSE(db_->Contains({r_, {Value("x"), Value("42")}}));
  // A NULL stayed apart from the string "NULL", so a replayed erase of the
  // fact holding it removes that fact only.
  EXPECT_TRUE(db_->Contains(null_fact)) << journal.contents();
  EXPECT_TRUE(db_->Contains(null_text)) << journal.contents();
  EditJournal erase;
  erase.Append(false, null_fact, catalog_);
  ASSERT_TRUE(ReplayJournal(erase.contents(), db_.get()).ok());
  EXPECT_FALSE(db_->Contains(null_fact)) << erase.contents();
  EXPECT_TRUE(db_->Contains(null_text)) << erase.contents();
}

TEST_F(JournalTest, EraseOfADoubleReplays) {
  // The journal keeps every digit of a double, so replaying an erase of a
  // fact holding one removes that fact.
  Fact f{r_, {Value("notes"), Value(0.1234567)}};
  ASSERT_TRUE(db_->Insert(f).ok());
  EditJournal journal;
  journal.Append(false, f, catalog_);
  ASSERT_TRUE(ReplayJournal(journal.contents(), db_.get()).ok());
  EXPECT_FALSE(db_->Contains(f)) << journal.contents();
  EXPECT_EQ(db_->TotalFacts(), 0u) << journal.contents();
}

TEST_F(JournalTest, ReplayIsIdempotent) {
  EditJournal journal;
  journal.Append(true, {r_, {Value("a"), Value(1)}}, catalog_);
  journal.Append(true, {r_, {Value("a"), Value(1)}}, catalog_);
  journal.Append(false, {r_, {Value("b"), Value(2)}}, catalog_);
  ASSERT_TRUE(ReplayJournal(journal.contents(), db_.get()).ok());
  EXPECT_EQ(db_->TotalFacts(), 1u);
  // Replaying the same journal again converges to the same state.
  ASSERT_TRUE(ReplayJournal(journal.contents(), db_.get()).ok());
  EXPECT_EQ(db_->TotalFacts(), 1u);
}

TEST_F(JournalTest, MalformedRecordsRejected) {
  EXPECT_FALSE(ReplayJournal("?\tR\ta,1\n", db_.get()).ok());
  EXPECT_FALSE(ReplayJournal("+\tNope\ta,1\n", db_.get()).ok());
  EXPECT_FALSE(ReplayJournal("+\tR\n", db_.get()).ok());
  EXPECT_FALSE(ReplayJournal("+\tR\ta\n", db_.get()).ok());  // arity
}

TEST_F(JournalTest, ReplaySucceedsExactlyAtRecordEnds) {
  // Records whose values hold a quoted newline, a tab and edge spaces, and
  // a deletion, so a cut can fall inside quotes or drop a committed erase.
  const std::vector<std::pair<bool, Fact>> edits = {
      {true, {r_, {Value("two\nlines"), Value(1)}}},
      {true, {r_, {Value(2), Value("has\ttab")}}},
      {false, {r_, {Value("two\nlines"), Value(1)}}},
      {true, {r_, {Value(" spaced "), Value(3)}}},
      {true, {r_, {Value(4), Value("ends ")}}},
  };
  EditJournal journal;
  std::vector<size_t> ends = {0};
  std::vector<std::string> states = {DatabaseToCsv(*db_)};
  Database expected(&catalog_);
  for (const auto& [insert, fact] : edits) {
    journal.Append(insert, fact, catalog_);
    ends.push_back(journal.contents().size());
    common::Status applied =
        insert ? expected.Insert(fact).status() : expected.Erase(fact).status();
    ASSERT_TRUE(applied.ok());
    states.push_back(DatabaseToCsv(expected));
  }

  const std::string& contents = journal.contents();
  for (size_t cut = 0; cut <= contents.size(); ++cut) {
    Database db(&catalog_);
    common::Status replayed =
        ReplayJournal(std::string_view(contents).substr(0, cut), &db);
    auto end = std::find(ends.begin(), ends.end(), cut);
    if (end == ends.end()) {
      EXPECT_FALSE(replayed.ok()) << cut;
      continue;
    }
    ASSERT_TRUE(replayed.ok()) << cut << ": " << replayed.ToString();
    EXPECT_EQ(DatabaseToCsv(db), states[end - ends.begin()]) << cut;
  }
}

TEST_F(JournalTest, RecoverSnapshotPlusJournal) {
  ASSERT_TRUE(db_->Insert({r_, {Value("old"), Value(1)}}).ok());
  std::string snapshot = DatabaseToCsv(*db_);

  EditJournal journal;
  journal.Append(false, {r_, {Value("old"), Value(1)}}, catalog_);
  journal.Append(true, {r_, {Value("new"), Value(2)}}, catalog_);

  auto recovered = RecoverDatabase(&catalog_, snapshot, journal.contents());
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_FALSE(recovered->Contains({r_, {Value("old"), Value(1)}}));
  EXPECT_TRUE(recovered->Contains({r_, {Value("new"), Value(2)}}));
}

TEST(JournalSessionTest, CleaningSessionSurvivesCrashReplay) {
  // Snapshot the dirty database, run a cleaning session while journaling
  // its edits, "crash", and recover: the recovered database must equal
  // the cleaned one.
  auto sample = workload::MakeFigureOneSample();
  ASSERT_TRUE(sample.ok());
  auto s = std::move(sample).value();
  std::string snapshot = DatabaseToCsv(*s.dirty);

  crowd::SimulatedOracle oracle(s.ground_truth.get());
  crowd::CrowdPanel panel({&oracle}, crowd::PanelConfig{1});
  Database db = *s.dirty;
  cleaning::QocoCleaner cleaner(s.q1, &db, &panel,
                                cleaning::CleanerConfig{}, common::Rng(4));
  auto stats = cleaner.Run();
  ASSERT_TRUE(stats.ok());

  EditJournal journal;
  for (const cleaning::Edit& e : stats->edits) {
    journal.Append(e.kind == cleaning::Edit::Kind::kInsert, e.fact,
                   *s.catalog);
  }

  auto recovered =
      RecoverDatabase(s.catalog.get(), snapshot, journal.contents());
  ASSERT_TRUE(recovered.ok());
  EXPECT_EQ(recovered->Distance(db), 0u);
}

}  // namespace
}  // namespace qoco::relational
