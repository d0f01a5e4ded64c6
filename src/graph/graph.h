#ifndef QOCO_GRAPH_GRAPH_H_
#define QOCO_GRAPH_GRAPH_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace qoco::graph {

/// A small dense weighted undirected graph used for query-split decisions.
/// Vertices are [0, n). Parallel edge weights accumulate.
class WeightedGraph {
 public:
  /// Constructs a graph with `num_vertices` vertices and no edges.
  explicit WeightedGraph(size_t num_vertices)
      : n_(num_vertices), weights_(num_vertices * num_vertices, 0) {}

  size_t num_vertices() const { return n_; }

  /// Adds `weight` to the undirected edge {u, v}. Self loops are ignored.
  void AddEdge(size_t u, size_t v, int64_t weight);

  /// Current weight of edge {u, v} (0 if absent).
  int64_t EdgeWeight(size_t u, size_t v) const {
    return weights_[u * n_ + v];
  }

 private:
  size_t n_;
  std::vector<int64_t> weights_;
};

/// The result of a cut: total crossing weight and the vertex side mask
/// (side[v] == true means v is in the "source" side).
struct Cut {
  int64_t weight = 0;
  std::vector<bool> side;
};

/// Computes a global minimum cut of `g` with the Stoer-Wagner algorithm in
/// O(V^3). Precondition: g has at least 2 vertices. If the graph is
/// disconnected the returned cut has weight 0 and separates one component.
Cut GlobalMinCut(const WeightedGraph& g);

}  // namespace qoco::graph

#endif  // QOCO_GRAPH_GRAPH_H_
