// Unit and property tests for the graph substrate: edge accumulation and
// the Stoer-Wagner global min-cut, validated against brute force on random
// graphs.

#include "src/graph/graph.h"

#include <gtest/gtest.h>

#include <limits>

#include "src/common/rng.h"

namespace qoco::graph {
namespace {

int64_t CutWeight(const WeightedGraph& g, const std::vector<bool>& side) {
  int64_t weight = 0;
  for (size_t i = 0; i < g.num_vertices(); ++i) {
    for (size_t j = i + 1; j < g.num_vertices(); ++j) {
      if (side[i] != side[j]) weight += g.EdgeWeight(i, j);
    }
  }
  return weight;
}

/// Brute-force global min cut over all proper bipartitions.
int64_t BruteForceMinCut(const WeightedGraph& g) {
  size_t n = g.num_vertices();
  int64_t best = std::numeric_limits<int64_t>::max();
  for (size_t mask = 1; mask + 1 < (size_t{1} << n); ++mask) {
    std::vector<bool> side(n);
    for (size_t v = 0; v < n; ++v) side[v] = (mask >> v) & 1;
    best = std::min(best, CutWeight(g, side));
  }
  return best;
}

TEST(GraphTest, EdgeAccumulationAndDegree) {
  WeightedGraph g(3);
  g.AddEdge(0, 1, 2);
  g.AddEdge(1, 0, 3);  // accumulates
  g.AddEdge(1, 1, 9);  // self loop ignored
  EXPECT_EQ(g.EdgeWeight(0, 1), 5);
  EXPECT_EQ(g.EdgeWeight(1, 0), 5);
}

TEST(GraphTest, MinCutOfPathIsLightestEdge) {
  WeightedGraph g(4);
  g.AddEdge(0, 1, 5);
  g.AddEdge(1, 2, 1);
  g.AddEdge(2, 3, 5);
  Cut cut = GlobalMinCut(g);
  EXPECT_EQ(cut.weight, 1);
  EXPECT_EQ(CutWeight(g, cut.side), 1);
}

TEST(GraphTest, MinCutOfDisconnectedGraphIsZero) {
  WeightedGraph g(4);
  g.AddEdge(0, 1, 3);
  g.AddEdge(2, 3, 3);
  Cut cut = GlobalMinCut(g);
  EXPECT_EQ(cut.weight, 0);
  // The cut separates the components.
  EXPECT_EQ(cut.side[0], cut.side[1]);
  EXPECT_EQ(cut.side[2], cut.side[3]);
  EXPECT_NE(cut.side[0], cut.side[2]);
}

class GraphPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(GraphPropertyTest, StoerWagnerMatchesBruteForce) {
  common::Rng rng(GetParam());
  for (int round = 0; round < 10; ++round) {
    size_t n = 3 + rng.Index(6);  // up to 8 vertices
    WeightedGraph g(n);
    for (size_t i = 0; i < n; ++i) {
      for (size_t j = i + 1; j < n; ++j) {
        if (rng.Chance(0.6)) g.AddEdge(i, j, rng.Uniform(1, 9));
      }
    }
    Cut cut = GlobalMinCut(g);
    // The reported weight matches the side mask and the brute force
    // optimum, and the cut is proper.
    EXPECT_EQ(CutWeight(g, cut.side), cut.weight);
    EXPECT_EQ(cut.weight, BruteForceMinCut(g));
    bool has_true = false;
    bool has_false = false;
    for (bool b : cut.side) (b ? has_true : has_false) = true;
    EXPECT_TRUE(has_true && has_false);
  }
}

INSTANTIATE_TEST_SUITE_P(RandomSeeds, GraphPropertyTest,
                         ::testing::Range<uint64_t>(1, 11));

}  // namespace
}  // namespace qoco::graph
