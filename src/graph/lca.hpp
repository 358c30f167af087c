// lca.hpp — least common ancestors on the BFS tree T0.
//
// InterferenceIndex::pi_intersects() evaluates LCA(v,t) for the
// π-intersection test of Sec. 3.1; it is the independent recomputation the
// tests check the index's precomputed flags against. Index construction
// itself evaluates no LCA: it uses the equivalent O(1) ancestor test
// through BfsTree's preorder intervals. Binary lifting gives O(n log n)
// preprocessing and O(log n) queries, which is plenty at our scales.
#pragma once

#include <vector>

#include "src/graph/bfs_tree.hpp"

namespace ftb {

/// Binary-lifting LCA index over a BfsTree.
class LcaIndex {
 public:
  explicit LcaIndex(const BfsTree& tree);

  /// LCA of u and v in T0. Both must be reachable from the source.
  Vertex lca(Vertex u, Vertex v) const;

  /// Depth of LCA(u,v) — the quantity the π-intersection test needs.
  std::int32_t lca_depth(Vertex u, Vertex v) const {
    return tree_->depth(lca(u, v));
  }

  /// The ancestor of v at depth `d` (d ≤ depth(v)).
  Vertex ancestor_at_depth(Vertex v, std::int32_t d) const;

 private:
  const BfsTree* tree_;
  std::int32_t log_ = 1;
  // up_[k][v] = 2^k-th ancestor of v (source's ancestor = source).
  std::vector<std::vector<Vertex>> up_;
};

}  // namespace ftb
