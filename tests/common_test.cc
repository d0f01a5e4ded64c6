// Unit tests for the common substrate: Status/Result error handling, the
// propagation macros, deterministic RNG (including index-addressed child
// streams), and string helpers.

#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <vector>

#include "src/common/rng.h"
#include "src/common/status.h"
#include "src/common/strings.h"

namespace qoco::common {
namespace {

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad arity");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad arity");
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad arity");
}

TEST(StatusTest, EveryCodeHasAName) {
  for (StatusCode code :
       {StatusCode::kOk, StatusCode::kInvalidArgument, StatusCode::kNotFound,
        StatusCode::kAlreadyExists, StatusCode::kOutOfRange,
        StatusCode::kFailedPrecondition, StatusCode::kInternal,
        StatusCode::kUnimplemented, StatusCode::kParseError,
        StatusCode::kDeadlineExceeded, StatusCode::kResourceExhausted}) {
    EXPECT_STRNE(StatusCodeToString(code), "Unknown");
  }
}

TEST(StatusTest, EveryFactoryProducesItsCodeAndToString) {
  struct Case {
    Status status;
    StatusCode code;
    const char* rendered;
  };
  const Case cases[] = {
      {Status::InvalidArgument("m"), StatusCode::kInvalidArgument,
       "InvalidArgument: m"},
      {Status::NotFound("m"), StatusCode::kNotFound, "NotFound: m"},
      {Status::AlreadyExists("m"), StatusCode::kAlreadyExists,
       "AlreadyExists: m"},
      {Status::OutOfRange("m"), StatusCode::kOutOfRange, "OutOfRange: m"},
      {Status::FailedPrecondition("m"), StatusCode::kFailedPrecondition,
       "FailedPrecondition: m"},
      {Status::Internal("m"), StatusCode::kInternal, "Internal: m"},
      {Status::Unimplemented("m"), StatusCode::kUnimplemented,
       "Unimplemented: m"},
      {Status::ParseError("m"), StatusCode::kParseError, "ParseError: m"},
      {Status::DeadlineExceeded("m"), StatusCode::kDeadlineExceeded,
       "DeadlineExceeded: m"},
      {Status::ResourceExhausted("m"), StatusCode::kResourceExhausted,
       "ResourceExhausted: m"},
  };
  for (const Case& c : cases) {
    EXPECT_FALSE(c.status.ok());
    EXPECT_EQ(c.status.code(), c.code);
    EXPECT_EQ(c.status.message(), "m");
    EXPECT_EQ(c.status.ToString(), c.rendered);
  }
  EXPECT_TRUE(Status::OK().ok());
  EXPECT_EQ(Status::OK().ToString(), "OK");
}

TEST(StatusTest, ErrorWithEmptyMessageStillRendersTheCode) {
  Status s = Status::Internal("");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.ToString(), "Internal: ");
}

TEST(StatusTest, CopyPreservesCodeAndMessage) {
  Status original = Status::ParseError("line 3: expected ')'");
  Status copy = original;
  EXPECT_EQ(copy.code(), StatusCode::kParseError);
  EXPECT_EQ(copy.message(), original.message());
  EXPECT_EQ(copy.ToString(), original.ToString());
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::NotFound("nope"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST(ResultTest, MoveOutValue) {
  Result<std::string> r(std::string("payload"));
  std::string v = std::move(r).value();
  EXPECT_EQ(v, "payload");
}

TEST(ResultDeathTest, AccessingTheValueOfAnErrorAborts) {
  Result<int> r(Status::OutOfRange("index 9 past end"));
  EXPECT_DEATH(r.value(), "QOCO fatal: OutOfRange: index 9 past end");
}

TEST(ResultDeathTest, ConstructingFromOkStatusAborts) {
  EXPECT_DEATH(Result<int>{Status::OK()},
               "Result constructed from OK status without a value");
}

namespace {

Status FailIfNegative(int x) {
  if (x < 0) return Status::OutOfRange("negative");
  return Status::OK();
}

Result<int> Doubled(int x) {
  QOCO_RETURN_NOT_OK(FailIfNegative(x));
  return x * 2;
}

Result<int> Chain(int x) {
  QOCO_ASSIGN_OR_RETURN(int doubled, Doubled(x));
  return doubled + 1;
}

}  // namespace

TEST(ResultTest, MacrosPropagate) {
  auto ok = Chain(10);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(*ok, 21);
  auto fail = Chain(-1);
  ASSERT_FALSE(fail.ok());
  EXPECT_EQ(fail.status().code(), StatusCode::kOutOfRange);
}

TEST(RngTest, DeterministicGivenSeed) {
  Rng a(99);
  Rng b(99);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Uniform(0, 1000), b.Uniform(0, 1000));
  }
}

TEST(RngTest, UniformStaysInRange) {
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    int64_t v = rng.Uniform(-3, 7);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 7);
  }
}

TEST(RngTest, IndexCoversAllSlots) {
  Rng rng(5);
  std::set<size_t> seen;
  for (int i = 0; i < 200; ++i) seen.insert(rng.Index(5));
  EXPECT_EQ(seen.size(), 5u);
}

TEST(RngTest, ChanceExtremes) {
  Rng rng(5);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.Chance(0.0));
    EXPECT_TRUE(rng.Chance(1.0));
  }
}

TEST(RngTest, ShufflePreservesElements) {
  Rng rng(5);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7};
  std::vector<int> shuffled = v;
  rng.Shuffle(&shuffled);
  std::sort(shuffled.begin(), shuffled.end());
  EXPECT_EQ(shuffled, v);
}

TEST(RngTest, ForkProducesIndependentStream) {
  Rng parent(7);
  Rng child = parent.Fork();
  // The fork consumed state; sibling forks differ.
  Rng child2 = parent.Fork();
  bool any_different = false;
  for (int i = 0; i < 20; ++i) {
    if (child.Uniform(0, 1 << 30) != child2.Uniform(0, 1 << 30)) {
      any_different = true;
    }
  }
  EXPECT_TRUE(any_different);
}

TEST(RngChildStreams, IndexAddressedChildrenAreOrderIndependent) {
  Rng parent(123);
  // ChildSeed is a pure function of (seed, index): drawing from the parent
  // must not shift the children (unlike Fork()).
  uint64_t child3_before = parent.ChildSeed(3);
  (void)parent.Real();
  (void)parent.Uniform(0, 1000);
  EXPECT_EQ(parent.ChildSeed(3), child3_before);

  // Distinct indexes give distinct streams, including adjacent ones.
  EXPECT_NE(parent.ChildSeed(0), parent.ChildSeed(1));
  EXPECT_NE(parent.ChildSeed(1), parent.ChildSeed(2));

  // The same child produces the same sequence regardless of the order in
  // which children are derived: draw them in reverse and compare against
  // forward derivation.
  std::vector<int64_t> forward;
  for (uint64_t i = 0; i < 8; ++i) {
    Rng child = parent.Child(i);
    forward.push_back(child.Uniform(0, 1 << 30));
  }
  std::vector<int64_t> reversed(8);
  for (size_t i = 8; i-- > 0;) {
    Rng child = parent.Child(i);
    reversed[i] = child.Uniform(0, 1 << 30);
  }
  EXPECT_EQ(forward, reversed);
}

TEST(StringsTest, SplitKeepsEmptyPieces) {
  EXPECT_EQ(Split("a,b,,c", ','),
            (std::vector<std::string>{"a", "b", "", "c"}));
  EXPECT_EQ(Split("", ','), (std::vector<std::string>{""}));
  EXPECT_EQ(Split("abc", ','), (std::vector<std::string>{"abc"}));
}

TEST(StringsTest, StripWhitespace) {
  EXPECT_EQ(StripWhitespace("  x y \t\n"), "x y");
  EXPECT_EQ(StripWhitespace(""), "");
  EXPECT_EQ(StripWhitespace(" \t "), "");
}

TEST(StringsTest, Join) {
  EXPECT_EQ(Join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(Join({}, ","), "");
  EXPECT_EQ(Join({"solo"}, ","), "solo");
}

TEST(StringsTest, StartsWith) {
  EXPECT_TRUE(StartsWith("## Teams", "## "));
  EXPECT_FALSE(StartsWith("#", "## "));
}

TEST(StringsTest, HashCombineChangesSeed) {
  size_t seed1 = 0;
  HashCombine(&seed1, 12345);
  size_t seed2 = 0;
  HashCombine(&seed2, 12346);
  EXPECT_NE(seed1, seed2);
}

}  // namespace
}  // namespace qoco::common
