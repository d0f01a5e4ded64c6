// Unit tests for CSV serialization: round trips, typed field inference,
// quoting rules, and parse errors.

#include "src/relational/csv.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "src/relational/database.h"

namespace qoco::relational {
namespace {

class CsvTest : public ::testing::Test {
 protected:
  void SetUp() override {
    r_ = *catalog_.AddRelation("R", {"name", "count", "ratio"});
    db_ = std::make_unique<Database>(&catalog_);
  }

  Catalog catalog_;
  RelationId r_ = kInvalidRelation;
  std::unique_ptr<Database> db_;
};

TEST_F(CsvTest, RoundTripPreservesTypes) {
  ASSERT_TRUE(db_->Insert({r_, {Value("alice"), Value(3), Value(0.5)}}).ok());
  ASSERT_TRUE(db_->Insert({r_, {Value("bob"), Value(-7), Value(1.25)}}).ok());
  // A NULL and the string "NULL" are different values.
  ASSERT_TRUE(db_->Insert({r_, {Value(), Value(1), Value()}}).ok());
  ASSERT_TRUE(db_->Insert({r_, {Value("NULL"), Value(2), Value(2.5)}}).ok());
  std::string csv = RelationToCsv(*db_, r_);

  Database reloaded(&catalog_);
  ASSERT_TRUE(LoadRelationFromCsv(csv, r_, &reloaded).ok());
  EXPECT_EQ(reloaded.Distance(*db_), 0u) << csv;
  // Types survived: the count column is int, ratio is double.
  const Tuple row = reloaded.relation(r_).MaterializeRow(0);
  EXPECT_TRUE(row[1].is_int());
  EXPECT_TRUE(row[2].is_double());
  EXPECT_TRUE(reloaded.relation(r_).MaterializeRow(2)[0].is_null()) << csv;
  EXPECT_TRUE(reloaded.relation(r_).MaterializeRow(3)[0].is_string()) << csv;
}

TEST_F(CsvTest, DoublesRoundTripExactly) {
  for (double d : {0.1234567, 1e-7, 3.0, 1e22, -1.25}) {
    const std::string encoded = EncodeCsvField(Value(d));
    const Value parsed = ParseCsvField(encoded, /*quoted=*/false);
    // An integral double keeps a ".0", so it does not come back an int.
    ASSERT_TRUE(parsed.is_double()) << encoded;
    EXPECT_EQ(parsed.AsDouble(), d) << encoded;
  }
  EXPECT_EQ(EncodeCsvField(Value(3.0)), "3.0");
}

TEST_F(CsvTest, QuotingOfSpecialStrings) {
  ASSERT_TRUE(
      db_->Insert({r_, {Value("has,comma"), Value(1), Value(1.0)}}).ok());
  ASSERT_TRUE(
      db_->Insert({r_, {Value("has\"quote"), Value(2), Value(1.0)}}).ok());
  ASSERT_TRUE(db_->Insert({r_, {Value("123"), Value(3), Value(1.0)}}).ok());
  ASSERT_TRUE(
      db_->Insert({r_, {Value("two\nlines"), Value(4), Value(1.0)}}).ok());
  // Whitespace at either end of a record would be stripped on load unless
  // quoted.
  ASSERT_TRUE(
      db_->Insert({r_, {Value(" spaced "), Value(5), Value("ends\t")}}).ok());

  std::string csv = RelationToCsv(*db_, r_);
  Database reloaded(&catalog_);
  ASSERT_TRUE(LoadRelationFromCsv(csv, r_, &reloaded).ok());
  EXPECT_EQ(reloaded.Distance(*db_), 0u);
  // The embedded newline is one quoted field, not a record break.
  EXPECT_NE(csv.find("\"two\nlines\",4,"), std::string::npos);
  // The numeric-looking string stayed a string after the round trip.
  bool found_string_123 = false;
  for (const ITuple& irow : reloaded.relation(r_).rows()) {
    Tuple row = MaterializeTuple(irow, reloaded.dict());
    if (row[0].is_string() && row[0].AsString() == "123") {
      found_string_123 = true;
    }
  }
  EXPECT_TRUE(found_string_123);
}

TEST_F(CsvTest, HeaderValidation) {
  Database reloaded(&catalog_);
  EXPECT_EQ(LoadRelationFromCsv("only,two\n", r_, &reloaded).code(),
            common::StatusCode::kParseError);
}

TEST_F(CsvTest, RowArityValidation) {
  Database reloaded(&catalog_);
  EXPECT_EQ(
      LoadRelationFromCsv("name,count,ratio\nx,1\n", r_, &reloaded).code(),
      common::StatusCode::kParseError);
}

TEST_F(CsvTest, UnterminatedQuote) {
  Database reloaded(&catalog_);
  EXPECT_EQ(LoadRelationFromCsv("name,count,ratio\n\"open,1,2\n", r_,
                                &reloaded)
                .code(),
            common::StatusCode::kParseError);
}

TEST_F(CsvTest, WholeDatabaseRoundTrip) {
  RelationId s = *catalog_.AddRelation("S", {"k"});
  Database db(&catalog_);
  ASSERT_TRUE(db.Insert({r_, {Value("x"), Value(1), Value(2.0)}}).ok());
  ASSERT_TRUE(db.Insert({s, {Value("key")}}).ok());
  // A quoted newline followed by text that looks like a relation header:
  // records end only at newlines outside quotes.
  ASSERT_TRUE(
      db.Insert({r_, {Value("a\n## S\nb"), Value(2), Value(0.5)}}).ok());
  ASSERT_TRUE(db.Insert({s, {Value("\nlead")}}).ok());

  std::string blob = DatabaseToCsv(db);
  Database reloaded(&catalog_);
  ASSERT_TRUE(LoadDatabaseFromCsv(blob, &reloaded).ok());
  EXPECT_EQ(reloaded.Distance(db), 0u);
  EXPECT_EQ(reloaded.TotalFacts(), 4u);
}

// The writer renders rows from their ids with a per-call memo. It must
// emit exactly what EncodeCsvField makes of every materialized field, on
// every branch: NULL, inline ints, ints outside the inline range, doubles,
// strings that look numeric, the empty string, and strings that need
// quoting. Values repeat across rows and relations so the memo is hit.
TEST_F(CsvTest, IdSpaceWriterMatchesMaterializedEncoding) {
  RelationId s = *catalog_.AddRelation("S", {"a", "b"});
  Database db(&catalog_);
  const std::vector<Value> values = {
      Value(),
      Value(0),
      Value(42),
      Value(kMaxInlineInt),
      Value(int64_t{-7}),
      Value(kMaxInlineInt + 1),
      Value(INT64_MIN),
      Value(0.5),
      Value(-1.25),
      Value(0.1234567),
      Value(1e20),
      Value("123"),
      Value("1e5"),
      Value("inf"),
      Value("NULL"),
      Value(" 12"),
      Value(""),
      Value("has,comma"),
      Value("say \"hi\""),
      Value("two\nlines"),
      Value("plain"),
  };
  for (size_t i = 0; i < values.size(); ++i) {
    const Value& a = values[i];
    const Value& b = values[(i + 7) % values.size()];
    ASSERT_TRUE(db.Insert({r_, {a, b, Value(static_cast<int64_t>(i))}}).ok());
    ASSERT_TRUE(db.Insert({r_, {b, a, values[(i + 3) % values.size()]}}).ok());
    ASSERT_TRUE(db.Insert({s, {a, a}}).ok());
  }

  auto reference_relation = [&](RelationId id) {
    std::string out;
    const std::vector<std::string>& attributes =
        catalog_.schema(id).attributes;
    for (size_t i = 0; i < attributes.size(); ++i) {
      out += (i > 0 ? "," : "") + attributes[i];
    }
    out += "\n";
    for (const ITuple& row : db.relation(id).rows()) {
      Tuple t = MaterializeTuple(row, db.dict());
      for (size_t i = 0; i < t.size(); ++i) {
        out += (i > 0 ? "," : "") + EncodeCsvField(t[i]);
      }
      out += "\n";
    }
    return out;
  };
  EXPECT_EQ(RelationToCsv(db, r_), reference_relation(r_));
  EXPECT_EQ(RelationToCsv(db, s), reference_relation(s));
  std::string expected = "## R\n" + reference_relation(r_) + "\n## S\n" +
                         reference_relation(s) + "\n";
  EXPECT_EQ(DatabaseToCsv(db), expected);
}

TEST_F(CsvTest, UnknownRelationNameInBlob) {
  Database reloaded(&catalog_);
  EXPECT_EQ(LoadDatabaseFromCsv("## Nope\nk\nv\n", &reloaded).code(),
            common::StatusCode::kNotFound);
}

TEST_F(CsvTest, EmptyRelationSerializesHeaderOnly) {
  std::string csv = RelationToCsv(*db_, r_);
  EXPECT_EQ(csv, "name,count,ratio\n");
  Database reloaded(&catalog_);
  ASSERT_TRUE(LoadRelationFromCsv(csv, r_, &reloaded).ok());
  EXPECT_EQ(reloaded.TotalFacts(), 0u);
}

}  // namespace
}  // namespace qoco::relational
