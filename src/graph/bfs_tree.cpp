#include "src/graph/bfs_tree.hpp"

#include <algorithm>

namespace ftb {

BfsTree::BfsTree(const Graph& g, const EdgeWeights& weights, Vertex source)
    : BfsTree(g, weights, source, BfsBans{}) {}

BfsTree::BfsTree(const Graph& g, const EdgeWeights& weights, Vertex source,
                 const BfsBans& bans)
    : BfsTree(g, weights, source, canonical_sp(g, weights, source, bans)) {}

BfsTree::BfsTree(const Graph& g, const EdgeWeights& weights, Vertex source,
                 CanonicalSp sp)
    : g_(&g), weights_(&weights), source_(source), sp_(std::move(sp)) {
  build_derived();
}

void BfsTree::build_derived() {
  const Graph& g = *g_;
  const std::size_t n = static_cast<std::size_t>(g.num_vertices());
  const std::size_t m = static_cast<std::size_t>(g.num_edges());

  // Children lists. Parents point up; invert: count, lay the ranges out in
  // id order, fill. Children come out sorted by id because we scan vertices
  // in id order.
  child_range_.assign(n, {0, 0});
  for (std::size_t v = 0; v < n; ++v) {
    const Vertex p = sp_.parent[v];
    if (p != kInvalidVertex) ++child_range_[idx(p)].second;
  }
  std::int64_t off = 0;
  for (auto& [begin, end] : child_range_) {
    const std::int64_t count = end;
    begin = end = off;
    off += count;
  }
  child_list_.resize(static_cast<std::size_t>(off));
  for (std::size_t v = 0; v < n; ++v) {
    const Vertex p = sp_.parent[v];
    if (p != kInvalidVertex) {
      child_list_[static_cast<std::size_t>(child_range_[idx(p)].second++)] =
          static_cast<Vertex>(v);
    }
  }

  // Preorder and tin by an iterative DFS (children in id order); subtree
  // sizes follow, and tout = tin + size needs no array of its own.
  tin_.assign(n, -1);
  subtree_size_.assign(n, 0);
  preorder_.clear();
  if (sp_.reachable(source_)) {
    std::vector<Vertex> stack{source_};
    while (!stack.empty()) {
      const Vertex u = stack.back();
      stack.pop_back();
      tin_[idx(u)] = static_cast<std::int32_t>(preorder_.size());
      preorder_.push_back(u);
      const auto kids = children(u);
      stack.insert(stack.end(), kids.rbegin(), kids.rend());
    }
  }
  num_reachable_ = static_cast<std::int32_t>(preorder_.size());
  // Subtree sizes in reverse preorder (children before parents).
  for (auto it = preorder_.rbegin(); it != preorder_.rend(); ++it) {
    std::int32_t sz = 1;
    for (const Vertex c : children(*it)) sz += subtree_size_[idx(c)];
    subtree_size_[idx(*it)] = sz;
  }

  // Tree edge table, ordered by preorder of the lower endpoint so that
  // "edges by increasing subtree position" enumerations are deterministic.
  lower_.assign(m, kInvalidVertex);
  tree_edges_.clear();
  tree_edges_.reserve(preorder_.size());
  for (const Vertex v : preorder_) {
    const EdgeId pe = sp_.parent_edge[idx(v)];
    if (pe != kInvalidEdge) {
      lower_[eidx(pe)] = v;
      tree_edges_.push_back(pe);
    }
  }
}

std::span<const Vertex> BfsTree::children(Vertex v) const {
  FTB_DCHECK(g_->valid_vertex(v));
  const auto [begin, end] = child_range_[idx(v)];
  return {child_list_.data() + begin, child_list_.data() + end};
}

std::span<const Vertex> BfsTree::subtree(Vertex v) const {
  FTB_DCHECK(reachable(v));
  const std::int32_t from = tin_[idx(v)];
  const std::int32_t to = tout(v);
  return {preorder_.data() + from, preorder_.data() + to};
}

}  // namespace ftb
