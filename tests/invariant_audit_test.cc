// Corruption-injection tests for the deep AuditInvariants() audits: each
// test seeds exactly one class-invariant violation through a test-only
// friend backdoor and asserts the audit detects it (and names it), while
// clean structures — including ones that went through heavy mixed
// insert/erase traffic — pass. Covers relational::Relation /
// relational::Database, query::IncrementalView / IncrementalUnionView, and
// hittingset::AuditHittingSet.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/hittingset/hitting_set.h"
#include "src/query/evaluator.h"
#include "src/query/incremental_view.h"
#include "src/query/parser.h"
#include "src/relational/database.h"
#include "src/relational/relation.h"

namespace qoco::relational {

// Friend of Relation (declared in relation.h) and of IdPostingMap
// (id_posting_map.h): pokes the private index and membership structures to
// seed invariant violations.
struct RelationCorruptor {
  static void BuildIndex(const Relation& r, size_t column) {
    r.EnsureIndex(column);
  }
  // Column `column`'s index (a mutable member).
  static IdPostingMap& Postings(const Relation& r, size_t column) {
    return r.column_index_[column];
  }
  // Interns `v` through the relation's dictionary on the way in: corruption
  // tests plant postings under values ("ghost") that no stored row carries.
  static ValueId Id(const Relation& r, const Value& v) {
    return r.dict_->Intern(v);
  }
  // The arena range of `key`, which `index` must hold.
  static IdPostingMap::Range& RangeOf(IdPostingMap& index, ValueId key) {
    IdPostingMap::Range* range = index.FindRange(key);
    EXPECT_NE(range, nullptr) << "no posting list for id " << key;
    return *range;
  }
  // The membership table: 1 + a row position per occupied slot.
  static std::vector<uint32_t>& Slots(Relation& r) { return r.slots_; }
  // The slot naming `t`, which must be stored.
  static size_t SlotOf(const Relation& r, const ITuple& t) {
    size_t slot = r.ProbeSlot(t);
    EXPECT_NE(r.slots_[slot], 0u) << "tuple is not stored";
    return slot;
  }
  static size_t SlotOf(const Relation& r, const Tuple& t) {
    return SlotOf(r, *FindTuple(t, *r.dict_));
  }
  // Databases only hand out const relations; the corruptor is the one place
  // allowed to break that seal.
  static Relation& Mutable(const Database& db, RelationId id) {
    return const_cast<Relation&>(db.relation(id));
  }
};

namespace {

Relation MakeIndexedRelation(ValueDictionary* dict) {
  Relation r(2, dict);
  r.Insert({Value("a"), Value(1)});
  r.Insert({Value("a"), Value(2)});
  r.Insert({Value("b"), Value(2)});
  r.Insert({Value("c"), Value(3)});
  // Build both column indexes so the audit covers them.
  RelationCorruptor::BuildIndex(r, 0);
  RelationCorruptor::BuildIndex(r, 1);
  return r;
}

void ExpectViolation(const common::Status& s, const std::string& needle) {
  ASSERT_FALSE(s.ok()) << "audit passed on a corrupted structure";
  EXPECT_EQ(s.code(), common::StatusCode::kInternal);
  EXPECT_NE(s.message().find(needle), std::string::npos)
      << "audit message does not mention \"" << needle
      << "\":\n" << s.message();
}

TEST(RelationAuditTest, CleanRelationPassesAfterMixedMutations) {
  ValueDictionary dict;
  Relation r = MakeIndexedRelation(&dict);
  EXPECT_TRUE(r.AuditInvariants().ok());

  // Exercise the swap-remove maintenance: erase from the middle and the
  // end, reinsert, and erase again while both indexes are live.
  EXPECT_TRUE(r.Erase({Value("a"), Value(2)}));
  EXPECT_TRUE(r.Erase({Value("c"), Value(3)}));
  EXPECT_TRUE(r.Insert({Value("d"), Value(1)}));
  EXPECT_TRUE(r.Erase({Value("a"), Value(1)}));
  EXPECT_FALSE(r.Erase({Value("a"), Value(1)}));  // idempotent
  common::Status audit = r.AuditInvariants();
  EXPECT_TRUE(audit.ok()) << audit.ToString();
}

TEST(RelationAuditTest, DetectsStalePostingPosition) {
  ValueDictionary dict;
  Relation r = MakeIndexedRelation(&dict);
  RelationCorruptor::Postings(r, 0).Append(
      RelationCorruptor::Id(r, Value("a")), 99);
  ExpectViolation(r.AuditInvariants(), "stale position 99");
}

TEST(RelationAuditTest, DetectsPostingUnderWrongValue) {
  ValueDictionary dict;
  Relation r = MakeIndexedRelation(&dict);
  // Move row 3's posting ("c") under "b": the audit must flag the value
  // mismatch.
  IdPostingMap& index = RelationCorruptor::Postings(r, 0);
  ValueId c = RelationCorruptor::Id(r, Value("c"));
  uint32_t pos = index.Find(c).back();
  ASSERT_TRUE(index.Remove(c, pos));
  index.Append(RelationCorruptor::Id(r, Value("b")), pos);
  ExpectViolation(r.AuditInvariants(), "whose value is");
}

TEST(RelationAuditTest, DetectsDuplicatePosting) {
  ValueDictionary dict;
  Relation r = MakeIndexedRelation(&dict);
  IdPostingMap& index = RelationCorruptor::Postings(r, 0);
  ValueId a = RelationCorruptor::Id(r, Value("a"));
  index.Append(a, index.Find(a).front());
  ExpectViolation(r.AuditInvariants(), "duplicate positions");
}

TEST(RelationAuditTest, DetectsEmptyPostingList) {
  ValueDictionary dict;
  Relation r = MakeIndexedRelation(&dict);
  // The empty list the erase path must never leave: a key whose range
  // holds no position.
  IdPostingMap& index = RelationCorruptor::Postings(r, 1);
  ValueId ghost = RelationCorruptor::Id(r, Value("ghost"));
  index.Append(ghost, 0);
  RelationCorruptor::RangeOf(index, ghost).size = 0;
  ExpectViolation(r.AuditInvariants(), "empty posting list");
}

TEST(RelationAuditTest, DetectsOverlappingPostingRanges) {
  ValueDictionary dict;
  Relation r = MakeIndexedRelation(&dict);
  // Point "b"'s one-position list at the start of "a"'s two-position list,
  // inside the arena.
  IdPostingMap& index = RelationCorruptor::Postings(r, 0);
  RelationCorruptor::RangeOf(index, RelationCorruptor::Id(r, Value("b")))
      .begin =
      RelationCorruptor::RangeOf(index, RelationCorruptor::Id(r, Value("a")))
          .begin;
  ExpectViolation(r.AuditInvariants(), "overlap in the arena");
}

TEST(RelationAuditTest, DetectsPostingRangePastTheArena) {
  ValueDictionary dict;
  Relation r = MakeIndexedRelation(&dict);
  // The audit must report the range without reading it (an out-of-range
  // read aborts under the sanitizer presets' _GLIBCXX_ASSERTIONS).
  IdPostingMap& index = RelationCorruptor::Postings(r, 0);
  RelationCorruptor::RangeOf(index, RelationCorruptor::Id(r, Value("c")))
      .begin = static_cast<uint32_t>(index.arena().size());
  common::Status audit = r.AuditInvariants();
  ExpectViolation(audit, "words of its arena");
  ExpectViolation(audit, "indexes 3 postings for 4 rows");
}

TEST(RelationAuditTest, DetectsPostingListPastItsCapacity) {
  ValueDictionary dict;
  Relation r = MakeIndexedRelation(&dict);
  IdPostingMap& index = RelationCorruptor::Postings(r, 1);
  IdPostingMap::Range& range =
      RelationCorruptor::RangeOf(index, RelationCorruptor::Id(r, Value(2)));
  range.size = range.capacity + 1;
  ExpectViolation(r.AuditInvariants(), "3 positions in a capacity of 2");
}

TEST(RelationAuditTest, DetectsMembershipPointingAtWrongRow) {
  ValueDictionary dict;
  Relation r = MakeIndexedRelation(&dict);
  // Repoint the slot of row 0 ("a", 1) at row 3 ("c", 3): row 3 is named
  // twice and row 0 by no slot.
  RelationCorruptor::Slots(r)[RelationCorruptor::SlotOf(
      r, {Value("a"), Value(1)})] = 3 + 1;
  common::Status audit = r.AuditInvariants();
  ExpectViolation(audit, "membership points 2 slots at row 3");
  ExpectViolation(audit, "row 0 is missing from the membership table");
}

TEST(RelationAuditTest, DetectsMissingMembershipEntry) {
  ValueDictionary dict;
  Relation r = MakeIndexedRelation(&dict);
  RelationCorruptor::Slots(r)[RelationCorruptor::SlotOf(
      r, {Value("b"), Value(2)})] = 0;
  common::Status audit = r.AuditInvariants();
  ExpectViolation(audit, "row 2 is missing from the membership table");
  ExpectViolation(audit, "membership has 3 entries for 4 rows");
}

TEST(RelationAuditTest, DetectsMembershipSlotPastTheRows) {
  ValueDictionary dict;
  Relation r = MakeIndexedRelation(&dict);
  // A slot on row 1's own probe run names position 99: the audit must
  // report it without reading rows_[99] (an out-of-range read aborts under
  // the sanitizer presets' _GLIBCXX_ASSERTIONS).
  size_t slot = RelationCorruptor::SlotOf(r, {Value("a"), Value(2)});
  RelationCorruptor::Slots(r)[slot] = 99 + 1;
  common::Status audit = r.AuditInvariants();
  ExpectViolation(audit, "membership slot " + std::to_string(slot) +
                             " names position 99 past the 4 rows");
  ExpectViolation(audit, "row 1 is missing from the membership table");
}

// Raw-id lexicographic order, for the reference set only: nothing here
// renders tuples, so interning order never reaches an output.
struct RawIdLess {
  bool operator()(const ITuple& a, const ITuple& b) const {
    return std::lexicographical_compare(a.begin(), a.end(), b.begin(),
                                        b.end());
  }
};

// A relation and the std::set it must equal, edited in lockstep.
struct MembershipTwin {
  Relation rel;
  std::set<ITuple, RawIdLess> ref;
};

// What the randomized membership test must have exercised.
struct MembershipCoverage {
  size_t growths = 0;
  size_t last_row_erases = 0;
  size_t wrapped_shifts = 0;
};

class RelationMembershipTest : public ::testing::TestWithParam<size_t> {
 protected:
  // A tuple over a per-column domain of inline integers, sized so that
  // domain^arity exceeds the largest relation the test grows.
  ITuple RandomTuple(common::Rng* rng) const {
    static constexpr size_t kDomain[] = {0, 600, 25, 0, 0, 4, 0, 0, 3};
    ITuple t;
    for (size_t c = 0; c < GetParam(); ++c) {
      t.push_back(MakeInlineInt(
          static_cast<int64_t>(rng->Index(kDomain[GetParam()]))));
    }
    return t;
  }

  // One random edit or probe of `twin`, checked against its reference.
  // Below `cap` rows the edit inserts a fresh tuple with `insert_bias`;
  // at or above it, it inserts only tuples already stored.
  void Step(MembershipTwin* twin, common::Rng* rng, double insert_bias,
            size_t cap, MembershipCoverage* coverage) {
    Relation& rel = twin->rel;
    const std::vector<uint32_t>& slots = RelationCorruptor::Slots(rel);
    ITuple t = RandomTuple(rng);
    size_t op = rng->Index(10);
    if (op < 2 && !rel.empty()) {
      // Duplicate insert of a stored row, or erase of the last row.
      ITuple stored = rel.rows()[rel.size() - 1];
      if (op == 0) {
        EXPECT_FALSE(rel.InsertIds(stored));
        return;
      }
      t = stored;
      ++coverage->last_row_erases;
    } else if (op < 2 || rng->Chance(insert_bias)) {
      if (rel.size() >= cap && !twin->ref.contains(t)) return;
      size_t before = slots.size();
      EXPECT_EQ(rel.InsertIds(t), twin->ref.insert(t).second);
      if (slots.size() > before) ++coverage->growths;
      return;
    } else if (op < 4) {
      EXPECT_EQ(rel.ContainsIds(t), twin->ref.contains(t));
      return;
    } else if (op < 7 && !rel.empty()) {
      t = rel.rows()[rng->Index(rel.size())];  // a present tuple
    }
    if (!rel.ContainsIds(t)) {
      EXPECT_FALSE(rel.EraseIds(t));  // absent
      EXPECT_EQ(twin->ref.erase(t), 0u);
      return;
    }
    // Present: erase it, and record whether the backward shift wrapped
    // around the table end, that is, changed a slot below the hole other
    // than by renaming the swap-removed last row.
    std::vector<uint32_t> before = slots;
    size_t hole = RelationCorruptor::SlotOf(rel, t);
    uint32_t pos = before[hole] - 1;
    uint32_t last = static_cast<uint32_t>(rel.size()) - 1;
    EXPECT_TRUE(rel.EraseIds(t));
    EXPECT_EQ(twin->ref.erase(t), 1u);
    for (size_t i = 0; i < hole; ++i) {
      uint32_t renamed = before[i] == last + 1 ? pos + 1 : before[i];
      if (slots[i] != renamed) {
        ++coverage->wrapped_shifts;
        break;
      }
    }
  }

  // Full comparison against the reference, plus the deep audit.
  static void ExpectMatches(const MembershipTwin& twin) {
    ASSERT_EQ(twin.rel.size(), twin.ref.size());
    for (const ITuple& t : twin.ref) ASSERT_TRUE(twin.rel.ContainsIds(t));
    for (const ITuple& row : twin.rel.rows()) {
      ASSERT_TRUE(twin.ref.contains(row));
    }
    common::Status audit = twin.rel.AuditInvariants();
    ASSERT_TRUE(audit.ok()) << audit.ToString();
  }
};

TEST_P(RelationMembershipTest, MatchesASetReferenceUnderRandomEdits) {
  ValueDictionary dict;
  MembershipTwin twin{Relation(GetParam(), &dict), {}};
  common::Rng rng(20150531 + GetParam());
  MembershipCoverage coverage;
  constexpr size_t kAuditEvery = 7;

  // Churn at 16 slots, where probe runs often cross the table end. The cap
  // of 7 rows keeps the table there: an insert into 8 rows grows it (load
  // at most 1/2, counting the new row).
  for (size_t step = 0; step < 1500; ++step) {
    Step(&twin, &rng, 0.5, 7, &coverage);
    if (step % kAuditEvery == 0) ExpectMatches(twin);
  }
  EXPECT_EQ(RelationCorruptor::Slots(twin.rel).size(), 16u);

  // Grow to a few hundred rows with column 0's index built, so erases also
  // patch posting lists; copy midway and edit both copies apart.
  twin.rel.RowsWithId(0, MakeInlineInt(0));
  for (size_t step = 0; step < 1000; ++step) {
    Step(&twin, &rng, 0.8, 400, &coverage);
    if (step % kAuditEvery == 0) ExpectMatches(twin);
  }
  MembershipTwin copy = twin;
  common::Rng copy_rng = rng.Fork();
  for (size_t step = 0; step < 1500; ++step) {
    Step(&twin, &rng, 0.7, 400, &coverage);
    Step(&copy, &copy_rng, 0.3, 400, &coverage);
    if (step % kAuditEvery == 0) {
      ExpectMatches(twin);
      ExpectMatches(copy);
    }
  }

  // Drain both to empty through erases of present rows and the last row.
  for (MembershipTwin* drained : {&twin, &copy}) {
    for (size_t step = 0; !drained->rel.empty() && step < 20000; ++step) {
      Step(drained, &rng, 0.1, 400, &coverage);
      if (step % kAuditEvery == 0) ExpectMatches(*drained);
    }
    ExpectMatches(*drained);
    EXPECT_TRUE(drained->rel.empty());
  }
  EXPECT_GE(coverage.growths, 4u);
  EXPECT_GT(coverage.last_row_erases, 0u);
  EXPECT_GT(coverage.wrapped_shifts, 0u);
}

// Arity 8 spills ITuple past its inline buffer to the heap.
INSTANTIATE_TEST_SUITE_P(Arities, RelationMembershipTest,
                         ::testing::Values(1, 2, 5, 8));

// A posting map and the vector-of-vectors reference it must equal, edited
// in lockstep. Key k is the inline int k; ref[k] is its list.
struct PostingTwin {
  IdPostingMap map;
  std::vector<std::vector<uint32_t>> ref;
};

// What the randomized posting-map test must have exercised.
struct PostingCoverage {
  size_t relocations = 0;   // an Append moved a full list to the arena end
  size_t compactions = 0;   // the dead space was packed away
  size_t emptied_keys = 0;  // a Remove erased a key with its last position
  size_t readded_keys = 0;  // an Append re-created an erased key
};

class IdPostingMapTest : public ::testing::Test {
 protected:
  static constexpr size_t kKeys = 24;

  // One random edit of `twin`, checked against its reference: an Append
  // with probability `append_bias`, else a Remove, a Repoint, or a Remove
  // or Repoint of a position the list does not hold.
  void Step(PostingTwin* twin, common::Rng* rng, double append_bias,
            PostingCoverage* coverage) {
    IdPostingMap& map = twin->map;
    const size_t k = rng->Index(kKeys);
    const ValueId key = MakeInlineInt(static_cast<int64_t>(k));
    std::vector<uint32_t>& list = twin->ref[k];
    const size_t dead_before = map.dead();
    if (rng->Chance(append_bias)) {
      if (list.empty() && erased_[k]) ++coverage->readded_keys;
      map.Append(key, next_pos_);
      list.push_back(next_pos_++);
      // Only a relocation adds dead space on an Append.
      if (map.dead() > dead_before) ++coverage->relocations;
    } else if (list.empty() || rng->Chance(0.1)) {
      // A position no list holds: nothing changes.
      EXPECT_FALSE(map.Remove(key, next_pos_));
      EXPECT_FALSE(map.Repoint(key, next_pos_, 0));
    } else if (rng->Chance(0.7)) {
      size_t i = rng->Index(list.size());
      ASSERT_TRUE(map.Remove(key, list[i]));
      list[i] = list.back();
      list.pop_back();
      if (list.empty()) {
        erased_[k] = true;
        ++coverage->emptied_keys;
      }
    } else {
      size_t i = rng->Index(list.size());
      ASSERT_TRUE(map.Repoint(key, list[i], next_pos_));
      list[i] = next_pos_++;
    }
    if (map.dead() < dead_before) ++coverage->compactions;
  }

  // Every list equals its reference, and the layout is sound: ranges
  // inside the arena, at most their capacity, disjoint, and the arena
  // is the ranges plus the dead words, which never exceed the live ones.
  static void ExpectMatches(const PostingTwin& twin) {
    const IdPostingMap& map = twin.map;
    size_t keys = 0;
    size_t live = 0;
    for (size_t k = 0; k < kKeys; ++k) {
      const ValueId key = MakeInlineInt(static_cast<int64_t>(k));
      std::span<const uint32_t> got = map.Find(key);
      ASSERT_TRUE(std::ranges::equal(got, twin.ref[k])) << "key " << k;
      keys += twin.ref[k].empty() ? 0 : 1;
      live += twin.ref[k].size();
    }
    ASSERT_EQ(map.size(), keys);
    std::vector<IdPostingMap::Range> ranges;
    for (const IdPostingMap::Range& r : map.slots()) {
      if (r.key != kInvalidId) ranges.push_back(r);
    }
    ASSERT_EQ(ranges.size(), keys);
    std::sort(ranges.begin(), ranges.end(),
              [](const IdPostingMap::Range& a, const IdPostingMap::Range& b) {
                return a.begin < b.begin;
              });
    size_t covered = 0;
    for (size_t i = 0; i < ranges.size(); ++i) {
      const IdPostingMap::Range& r = ranges[i];
      ASSERT_LE(r.size, r.capacity);
      ASSERT_LE(size_t{r.begin} + r.capacity, map.arena().size());
      if (i + 1 < ranges.size()) {
        ASSERT_LE(size_t{r.begin} + r.capacity, ranges[i + 1].begin);
      }
      covered += r.capacity;
    }
    EXPECT_EQ(covered + map.dead(), map.arena().size());
    EXPECT_LE(map.dead(), live);
  }

  std::vector<bool> erased_ = std::vector<bool>(kKeys, false);
  uint32_t next_pos_ = 0;
};

TEST_F(IdPostingMapTest, MatchesAVectorReferenceUnderRandomEdits) {
  common::Rng rng(20150531);
  PostingCoverage coverage;
  constexpr size_t kCheckEvery = 5;

  // Build over random rows: each list in row order.
  std::vector<ITuple> rows;
  PostingTwin twin{IdPostingMap(), std::vector<std::vector<uint32_t>>(kKeys)};
  for (; next_pos_ < 150; ++next_pos_) {
    size_t k = rng.Index(kKeys);
    rows.push_back({MakeInlineInt(7), MakeInlineInt(static_cast<int64_t>(k))});
    twin.ref[k].push_back(next_pos_);
  }
  twin.map.Build(rows, 1);
  ExpectMatches(twin);
  EXPECT_EQ(twin.map.arena().size(), rows.size());

  // Mixed edits, then a shrinking phase that empties keys and a growing
  // one that re-adds them.
  for (double bias : {0.5, 0.2, 0.8, 0.15, 0.7, 0.35}) {
    for (size_t step = 0; step < 1200; ++step) {
      Step(&twin, &rng, bias, &coverage);
      if (::testing::Test::HasFatalFailure()) return;
      if (step % kCheckEvery == 0) ExpectMatches(twin);
    }
  }

  // A copy is a separate map: edit both apart.
  PostingTwin copy = twin;
  EXPECT_TRUE(copy.map == twin.map);
  common::Rng copy_rng = rng.Fork();
  for (size_t step = 0; step < 1500; ++step) {
    Step(&twin, &rng, 0.6, &coverage);
    Step(&copy, &copy_rng, 0.4, &coverage);
    if (::testing::Test::HasFatalFailure()) return;
    if (step % kCheckEvery == 0) {
      ExpectMatches(twin);
      ExpectMatches(copy);
    }
  }
  EXPECT_FALSE(copy.map == twin.map);

  // Drain both: the last Remove leaves an empty arena.
  for (PostingTwin* drained : {&twin, &copy}) {
    for (size_t step = 0; step < 100000 && !drained->map.empty(); ++step) {
      Step(drained, &rng, 0.0, &coverage);
      if (::testing::Test::HasFatalFailure()) return;
      if (step % kCheckEvery == 0) ExpectMatches(*drained);
    }
    ExpectMatches(*drained);
    EXPECT_TRUE(drained->map.empty());
    EXPECT_TRUE(drained->map.arena().empty());
  }
  SCOPED_TRACE("relocations=" + std::to_string(coverage.relocations) +
               " compactions=" + std::to_string(coverage.compactions) +
               " emptied=" + std::to_string(coverage.emptied_keys) +
               " readded=" + std::to_string(coverage.readded_keys));
  EXPECT_GT(coverage.relocations, 100u);
  EXPECT_GT(coverage.compactions, 5u);
  EXPECT_GT(coverage.emptied_keys, 30u);
  EXPECT_GT(coverage.readded_keys, 20u);
}

TEST(DatabaseAuditTest, PrefixesViolationsWithTheRelationName) {
  Catalog catalog;
  RelationId r = *catalog.AddRelation("Player", {"name", "team"});
  RelationId s = *catalog.AddRelation("Team", {"name"});
  Database db(&catalog);
  ASSERT_TRUE(db.Insert({r, {Value("p"), Value("t")}}).ok());
  ASSERT_TRUE(db.Insert({s, {Value("t")}}).ok());
  EXPECT_TRUE(db.AuditInvariants().ok());

  std::vector<uint32_t>& slots =
      RelationCorruptor::Slots(RelationCorruptor::Mutable(db, s));
  std::fill(slots.begin(), slots.end(), 0);
  common::Status audit = db.AuditInvariants();
  ExpectViolation(audit, "Team");
  EXPECT_EQ(audit.message().find("Player"), std::string::npos);
}

}  // namespace
}  // namespace qoco::relational

namespace qoco::query {

// Friend of IncrementalView / IncrementalUnionView (incremental_view.h):
// reaches the maintained answers to seed maintenance-bug lookalikes.
struct IncrementalViewCorruptor {
  static std::vector<ViewAnswer>& Answers(IncrementalView& view) {
    return view.answers_;
  }
  static std::vector<IncrementalView>& Views(IncrementalUnionView& view) {
    return view.views_;
  }
};

namespace {

using relational::Database;
using relational::Fact;
using relational::Tuple;
using relational::Value;

class IncrementalViewAuditTest : public ::testing::Test {
 protected:
  void SetUp() override {
    r_ = *catalog_.AddRelation("R", {"a", "b"});
    s_ = *catalog_.AddRelation("S", {"c"});
    db_ = std::make_unique<Database>(&catalog_);
    ASSERT_TRUE(db_->Insert({r_, {Value("x"), Value("y")}}).ok());
    ASSERT_TRUE(db_->Insert({r_, {Value("w"), Value("z")}}).ok());
    ASSERT_TRUE(db_->Insert({s_, {Value("y")}}).ok());
    ASSERT_TRUE(db_->Insert({s_, {Value("z")}}).ok());
  }

  CQuery Parse(const std::string& text) {
    auto q = ParseQuery(text, catalog_);
    EXPECT_TRUE(q.ok()) << q.status().ToString();
    return std::move(q).value();
  }

  void ExpectViolation(const common::Status& s, const std::string& needle) {
    ASSERT_FALSE(s.ok()) << "audit passed on a corrupted view";
    EXPECT_NE(s.message().find(needle), std::string::npos)
        << "audit message does not mention \"" << needle
        << "\":\n" << s.message();
  }

  relational::Catalog catalog_;
  relational::RelationId r_ = relational::kInvalidRelation;
  relational::RelationId s_ = relational::kInvalidRelation;
  std::unique_ptr<Database> db_;
};

TEST_F(IncrementalViewAuditTest, CleanViewPassesAfterDeltas) {
  IncrementalView view(Parse("(a) :- R(a, b), S(b)."), db_.get());
  ASSERT_EQ(view.size(), 2u);
  EXPECT_TRUE(view.AuditInvariants().ok());

  Fact f{s_, {Value("y")}};
  ASSERT_TRUE(db_->Erase(f).ok());
  view.OnErase(f);
  ASSERT_TRUE(db_->Insert(f).ok());
  view.OnInsert(f);
  common::Status audit = view.AuditInvariants();
  EXPECT_TRUE(audit.ok()) << audit.ToString();
}

TEST_F(IncrementalViewAuditTest, DetectsDroppedAnswer) {
  IncrementalView view(Parse("(a) :- R(a, b), S(b)."), db_.get());
  std::vector<ViewAnswer>& answers = IncrementalViewCorruptor::Answers(view);
  auto w = std::find_if(answers.begin(), answers.end(),
                        [](const ViewAnswer& a) {
                          return a.tuple == Tuple{Value("w")};
                        });
  ASSERT_NE(w, answers.end());
  answers.erase(w);
  ExpectViolation(view.AuditInvariants(), "is missing from the view");
}

TEST_F(IncrementalViewAuditTest, DetectsAnswerThatSurvivedGcEmpty) {
  IncrementalView view(Parse("(a) :- R(a, b), S(b)."), db_.get());
  IncrementalViewCorruptor::Answers(view)[0].witnesses =
      std::make_shared<const provenance::WitnessSet>();
  ExpectViolation(view.AuditInvariants(), "has no witnesses");
}

TEST_F(IncrementalViewAuditTest, DetectsPhantomWitnessOverAbsentFact) {
  IncrementalView view(Parse("(a) :- R(a, b), S(b)."), db_.get());
  ViewAnswer& answer = IncrementalViewCorruptor::Answers(view)[0];
  provenance::WitnessSet edited = *answer.witnesses;
  edited.push_back(provenance::Witness(
      std::vector<Fact>{Fact{s_, {Value("never-inserted")}}}, &db_->dict()));
  answer.witnesses =
      std::make_shared<const provenance::WitnessSet>(std::move(edited));
  ExpectViolation(view.AuditInvariants(), "absent fact");
}

TEST_F(IncrementalViewAuditTest, DetectsStaleCachedAnswer) {
  IncrementalView view(Parse("(a) :- R(a, b), S(b)."), db_.get());
  // Mutate the database without notifying the view: the semantic pass must
  // notice the cached result no longer matches a from-scratch evaluation.
  ASSERT_TRUE(db_->Erase({s_, {Value("z")}}).ok());
  ExpectViolation(view.AuditInvariants(),
                  "not produced by from-scratch evaluation");
}

TEST_F(IncrementalViewAuditTest, UnionAuditNamesTheCorruptedDisjunct) {
  auto u = ParseUnionQuery("(a) :- R(a, b); (a) :- S(a).", catalog_);
  ASSERT_TRUE(u.ok());
  IncrementalUnionView view(*u, db_.get());
  EXPECT_TRUE(view.AuditInvariants().ok());

  std::vector<IncrementalView>& views = IncrementalViewCorruptor::Views(view);
  ASSERT_EQ(views.size(), 2u);
  std::vector<ViewAnswer>& answers =
      IncrementalViewCorruptor::Answers(views[1]);
  ASSERT_FALSE(answers.empty());
  answers[0].witnesses = std::make_shared<const provenance::WitnessSet>();
  common::Status audit = view.AuditInvariants();
  ExpectViolation(audit, "disjunct 1");
  EXPECT_EQ(audit.message().find("disjunct 0"), std::string::npos);
}

}  // namespace
}  // namespace qoco::query

namespace qoco::hittingset {
namespace {

Instance SmallInstance() {
  Instance instance;
  instance.num_elements = 5;
  instance.sets = {{0, 1}, {1, 2}, {3}, {1, 3, 4}};
  return instance;
}

TEST(AuditHittingSetTest, AcceptsValidHittingSets) {
  Instance instance = SmallInstance();
  EXPECT_TRUE(AuditHittingSet(instance, {1, 3}).ok());
  EXPECT_TRUE(AuditHittingSet(instance, {0, 2, 3}).ok());
  // The empty set hits an instance with no sets.
  EXPECT_TRUE(AuditHittingSet(Instance{}, {}).ok());
}

TEST(AuditHittingSetTest, DetectsUnhitSet) {
  common::Status s = AuditHittingSet(SmallInstance(), {1});
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("is not hit"), std::string::npos) << s.message();
}

TEST(AuditHittingSetTest, DetectsDuplicateElements) {
  common::Status s = AuditHittingSet(SmallInstance(), {1, 3, 1});
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("appears more than once"), std::string::npos)
      << s.message();
}

TEST(AuditHittingSetTest, DetectsOutOfUniverseElements) {
  common::Status s = AuditHittingSet(SmallInstance(), {1, 3, 7});
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("outside the universe"), std::string::npos)
      << s.message();
}

TEST(AuditHittingSetTest, SolversPassTheirOwnAuditOnRandomInstances) {
  common::Rng rng(404);
  for (int round = 0; round < 50; ++round) {
    Instance instance;
    instance.num_elements = 2 + rng.Index(8);
    size_t num_sets = 1 + rng.Index(6);
    for (size_t i = 0; i < num_sets; ++i) {
      std::vector<int> set;
      size_t size = 1 + rng.Index(3);
      for (size_t j = 0; j < size; ++j) {
        int e = static_cast<int>(rng.Index(instance.num_elements));
        if (std::find(set.begin(), set.end(), e) == set.end()) {
          set.push_back(e);
        }
      }
      instance.sets.push_back(std::move(set));
    }
    common::Status greedy = AuditHittingSet(instance, GreedyHittingSet(instance));
    EXPECT_TRUE(greedy.ok()) << greedy.ToString();
    common::Status exact =
        AuditHittingSet(instance, ExactMinimumHittingSet(instance));
    EXPECT_TRUE(exact.ok()) << exact.ToString();
  }
}

}  // namespace
}  // namespace qoco::hittingset
