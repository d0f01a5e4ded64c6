// Unit and property tests for the hitting-set machinery of Section 4,
// including both directions of Theorem 4.5 on random instances and the
// optimality relation between the exact and greedy solvers.

#include "src/hittingset/hitting_set.h"

#include <gtest/gtest.h>

#include <set>

#include "src/common/rng.h"

namespace qoco::hittingset {
namespace {

TEST(HittingSetTest, IsHittingSetBasics) {
  Instance instance{4, {{0, 1}, {2}, {1, 3}}};
  EXPECT_TRUE(IsHittingSet(instance, {1, 2}));
  EXPECT_FALSE(IsHittingSet(instance, {0, 1}));
  EXPECT_TRUE(IsHittingSet(instance, {0, 1, 2, 3}));
  EXPECT_FALSE(IsHittingSet(instance, {}));
}

TEST(HittingSetTest, EmptyInstanceHitByEmptySet) {
  Instance instance{3, {}};
  EXPECT_TRUE(IsHittingSet(instance, {}));
  EXPECT_TRUE(IsMinimalHittingSet(instance, {}));
  auto unique = UniqueMinimalHittingSet(instance);
  ASSERT_TRUE(unique.has_value());
  EXPECT_TRUE(unique->empty());
}

TEST(HittingSetTest, MinimalityCheck) {
  Instance instance{4, {{0, 1}, {1, 2}}};
  EXPECT_TRUE(IsMinimalHittingSet(instance, {1}));
  EXPECT_FALSE(IsMinimalHittingSet(instance, {0, 1}));  // 0 is redundant
  EXPECT_TRUE(IsMinimalHittingSet(instance, {0, 2}));
}

TEST(HittingSetTest, Example44FromThePaper) {
  // Witnesses {t1} and {t1, t2}: {t1} is the unique minimal hitting set.
  Instance with_unique{2, {{0}, {0, 1}}};
  auto unique = UniqueMinimalHittingSet(with_unique);
  ASSERT_TRUE(unique.has_value());
  EXPECT_EQ(*unique, std::vector<int>{0});

  // Witnesses {t1, t2} and {t1, t3}: two minimal hitting sets exist.
  Instance without{3, {{0, 1}, {0, 2}}};
  EXPECT_FALSE(UniqueMinimalHittingSet(without).has_value());
}

TEST(HittingSetTest, MostFrequentElement) {
  EXPECT_EQ(MostFrequentElement({{0, 1}, {1, 2}, {1}}), 1);
  EXPECT_EQ(MostFrequentElement({}), -1);
  // Ties break toward the smallest element id.
  EXPECT_EQ(MostFrequentElement({{3}, {5}}), 3);
  EXPECT_EQ(MostFrequentElement({{}, {}}), -1);
  // MostFrequentElements lists every tie, ascending.
  EXPECT_EQ(MostFrequentElements({{0, 1}, {1, 2}, {1}}), std::vector<int>{1});
  EXPECT_EQ(MostFrequentElements({{5}, {3}}), (std::vector<int>{3, 5}));
  EXPECT_EQ(MostFrequentElements({{5, 1}, {1, 5}, {2}}),
            (std::vector<int>{1, 5}));
  EXPECT_TRUE(MostFrequentElements({}).empty());
  EXPECT_TRUE(MostFrequentElements({{}, {}}).empty());
}

TEST(HittingSetTest, GreedyProducesValidHittingSet) {
  Instance instance{6, {{0, 1, 2}, {2, 3}, {3, 4}, {5}}};
  std::vector<int> h = GreedyHittingSet(instance);
  EXPECT_TRUE(IsHittingSet(instance, h));
}

TEST(HittingSetTest, ExactFindsKnownOptimum) {
  // The classic greedy-suboptimal instance: greedy may pick the frequent
  // middle element, exact must find the 2-element cover.
  Instance instance{5, {{0, 1}, {1, 2}, {3, 0}, {4, 2}}};
  std::vector<int> exact = ExactMinimumHittingSet(instance);
  EXPECT_TRUE(IsHittingSet(instance, exact));
  EXPECT_EQ(exact.size(), 2u);
}

class HittingSetPropertyTest : public ::testing::TestWithParam<uint64_t> {};

Instance RandomInstance(common::Rng* rng) {
  Instance instance;
  instance.num_elements = 4 + rng->Index(6);
  size_t sets = 2 + rng->Index(6);
  for (size_t s = 0; s < sets; ++s) {
    std::set<int> set;
    size_t size = 1 + rng->Index(3);
    for (size_t i = 0; i < size; ++i) {
      set.insert(static_cast<int>(rng->Index(instance.num_elements)));
    }
    instance.sets.emplace_back(set.begin(), set.end());
  }
  return instance;
}

TEST_P(HittingSetPropertyTest, Theorem45BothDirections) {
  common::Rng rng(GetParam());
  for (int round = 0; round < 20; ++round) {
    Instance instance = RandomInstance(&rng);
    auto unique = UniqueMinimalHittingSet(instance);
    if (unique.has_value()) {
      // The returned set is a minimal hitting set...
      EXPECT_TRUE(IsMinimalHittingSet(instance, *unique));
      // ...and it is contained in every hitting set, hence unique: verify
      // against the exact minimum.
      std::vector<int> exact = ExactMinimumHittingSet(instance);
      EXPECT_EQ(exact, *unique);
    } else {
      // No unique minimal hitting set: there must exist two distinct
      // minimal hitting sets. Find them by brute force over subsets.
      std::vector<std::vector<int>> minimal;
      size_t n = instance.num_elements;
      for (size_t mask = 0; mask < (size_t{1} << n); ++mask) {
        std::vector<int> candidate;
        for (size_t e = 0; e < n; ++e) {
          if (mask & (size_t{1} << e)) candidate.push_back(static_cast<int>(e));
        }
        if (IsMinimalHittingSet(instance, candidate)) {
          minimal.push_back(candidate);
        }
      }
      EXPECT_GE(minimal.size(), 2u) << "seed " << GetParam();
    }
  }
}

TEST_P(HittingSetPropertyTest, ExactNeverWorseThanGreedy) {
  common::Rng rng(GetParam() * 31 + 1);
  for (int round = 0; round < 20; ++round) {
    Instance instance = RandomInstance(&rng);
    std::vector<int> greedy = GreedyHittingSet(instance);
    std::vector<int> exact = ExactMinimumHittingSet(instance);
    EXPECT_TRUE(IsHittingSet(instance, greedy));
    EXPECT_TRUE(IsHittingSet(instance, exact));
    EXPECT_LE(exact.size(), greedy.size());
  }
}

INSTANTIATE_TEST_SUITE_P(RandomSeeds, HittingSetPropertyTest,
                         ::testing::Range<uint64_t>(1, 11));

}  // namespace
}  // namespace qoco::hittingset
