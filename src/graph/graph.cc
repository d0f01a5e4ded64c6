#include "src/graph/graph.h"

#include <algorithm>
#include <limits>

namespace qoco::graph {

void WeightedGraph::AddEdge(size_t u, size_t v, int64_t weight) {
  if (u == v) return;
  weights_[u * n_ + v] += weight;
  weights_[v * n_ + u] += weight;
}

Cut GlobalMinCut(const WeightedGraph& g) {
  size_t n = g.num_vertices();
  // Working copy of the weight matrix; vertices merge as the algorithm
  // proceeds. merged_into[v] tracks the original vertices merged into v.
  std::vector<std::vector<int64_t>> w(n, std::vector<int64_t>(n, 0));
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < n; ++j) w[i][j] = g.EdgeWeight(i, j);
  }
  std::vector<std::vector<size_t>> merged(n);
  for (size_t i = 0; i < n; ++i) merged[i] = {i};
  std::vector<size_t> active;
  for (size_t i = 0; i < n; ++i) active.push_back(i);

  Cut best;
  best.weight = std::numeric_limits<int64_t>::max();
  best.side.assign(n, false);

  while (active.size() > 1) {
    // Minimum cut phase: maximum adjacency ordering, recording the order so
    // the last and second-to-last vertices are known afterwards.
    std::vector<int64_t> weight_to_set(n, 0);
    std::vector<bool> added(n, false);
    std::vector<size_t> order;
    order.reserve(active.size());
    order.push_back(active[0]);
    added[active[0]] = true;
    for (size_t step = 1; step < active.size(); ++step) {
      size_t prev = order.back();
      for (size_t v : active) {
        if (!added[v]) weight_to_set[v] += w[prev][v];
      }
      size_t next = static_cast<size_t>(-1);
      int64_t best_weight = std::numeric_limits<int64_t>::min();
      for (size_t v : active) {
        if (!added[v] && weight_to_set[v] > best_weight) {
          best_weight = weight_to_set[v];
          next = v;
        }
      }
      added[next] = true;
      order.push_back(next);
    }
    size_t last = order.back();
    size_t second = order[order.size() - 2];
    // Cut-of-the-phase: `last` alone vs the rest (in terms of original
    // vertices: everything merged into `last`).
    int64_t phase_weight = 0;
    for (size_t v : active) {
      if (v != last) phase_weight += w[last][v];
    }
    if (phase_weight < best.weight) {
      best.weight = phase_weight;
      best.side.assign(n, false);
      for (size_t orig : merged[last]) best.side[orig] = true;
    }
    // Merge `last` into `second`.
    for (size_t v : active) {
      if (v == last || v == second) continue;
      w[second][v] += w[last][v];
      w[v][second] += w[v][last];
    }
    merged[second].insert(merged[second].end(), merged[last].begin(),
                          merged[last].end());
    active.erase(std::find(active.begin(), active.end(), last));
  }
  return best;
}

}  // namespace qoco::graph
