#include "src/core/dist_sweep.hpp"

#include <algorithm>
#include <limits>

namespace ftb {

void ReplacementSweepScratch::prepare(std::size_t n) {
  if (stamp_.size() < n) {
    stamp_.assign(n, 0);
    dist_.resize(n);
    epoch_ = 0;
  }
  if (epoch_ == std::numeric_limits<std::uint32_t>::max()) {
    std::fill(stamp_.begin(), stamp_.end(), 0);
    epoch_ = 0;
  }
  ++epoch_;
}

void replacement_dist_sweep(const BfsTree& tree, EdgeId banned_edge,
                            Vertex banned_vertex,
                            std::span<const Vertex> affected,
                            ReplacementSweepScratch& s, EdgeId ambient_edge,
                            Vertex ambient_vertex, SweepWorkStats* work) {
  const Graph& g = tree.graph();
  const std::size_t n = static_cast<std::size_t>(g.num_vertices());
  s.prepare(n);
  if (affected.empty()) return;

  // All replacement distances of A sit at or below no key smaller than the
  // depth of the subtree root (dist' ≥ depth ≥ depth(root of A)), so the
  // bucket queue can be based there.
  const std::int32_t base = tree.depth(affected.front());

  // Mark A first so the seeding pass can tell inside from outside.
  for (const Vertex v : affected) {
    if (v == banned_vertex || v == ambient_vertex) continue;
    const std::size_t vi = static_cast<std::size_t>(v);
    s.stamp_[vi] = s.epoch_;
    s.dist_[vi] = kInfHops;
  }

  // Seed c_out(v): the best admissible step from an unaffected vertex.
  std::int32_t max_seed_rel = -1;
  std::int64_t visits = 0;
  thread_local std::vector<std::pair<std::int32_t, Vertex>> seeds;
  seeds.clear();
  for (const Vertex v : affected) {
    if (v == banned_vertex || v == ambient_vertex) continue;
    ++visits;
    std::int32_t best = kInfHops;
    for (const Arc& a : g.neighbors(v)) {
      if (a.edge == banned_edge || a.edge == ambient_edge) continue;
      const Vertex u = a.to;
      if (u == banned_vertex || u == ambient_vertex) continue;
      if (s.in_set(u)) continue;
      const std::int32_t du = tree.depth(u);
      if (du >= kInfHops) continue;  // unreachable even in G
      best = std::min(best, du + 1);
    }
    if (best >= kInfHops) continue;
    FTB_DCHECK(best >= base);
    const std::int32_t rel = best - base;
    seeds.emplace_back(rel, v);
    max_seed_rel = std::max(max_seed_rel, rel);
  }
  if (max_seed_rel < 0) {  // fault disconnects the whole subtree
    if (work != nullptr) work->sweep_visits += visits;
    return;
  }

  // Every relaxation step adds one hop per processed level, so no key can
  // exceed max_seed_rel + |A|. Sizing the bucket array up front keeps the
  // relaxation loop free of reallocation (bucket capacity is retained
  // across sweeps, so this is a steady-state no-op).
  const std::size_t num_buckets =
      static_cast<std::size_t>(max_seed_rel) + affected.size() + 2;
  if (s.buckets_.size() < num_buckets) s.buckets_.resize(num_buckets);
  for (const auto& [rel, v] : seeds) {
    s.dist_[static_cast<std::size_t>(v)] = base + rel;
    s.buckets_[static_cast<std::size_t>(rel)].push_back(v);
  }

  // Dial relaxation: all arcs have weight 1, keys only grow, so the first
  // non-stale pop of a vertex is final.
  std::int32_t max_rel = max_seed_rel;
  for (std::int32_t k = 0; k <= max_rel; ++k) {
    auto& bucket = s.buckets_[static_cast<std::size_t>(k)];
    for (std::size_t i = 0; i < bucket.size(); ++i) {
      const Vertex v = bucket[i];
      if (s.dist_[static_cast<std::size_t>(v)] != base + k) continue;  // stale
      ++visits;
      for (const Arc& a : g.neighbors(v)) {
        if (a.edge == banned_edge || a.edge == ambient_edge) continue;
        const Vertex u = a.to;
        if (u == banned_vertex || u == ambient_vertex || !s.in_set(u)) {
          continue;
        }
        auto& du = s.dist_[static_cast<std::size_t>(u)];
        if (du > base + k + 1) {
          du = base + k + 1;
          FTB_DCHECK(static_cast<std::size_t>(k) + 1 < s.buckets_.size());
          s.buckets_[static_cast<std::size_t>(k) + 1].push_back(u);
          max_rel = std::max(max_rel, k + 1);
        }
      }
    }
    bucket.clear();  // capacity retained for the next sweep
  }
  if (work != nullptr) work->sweep_visits += visits;
}

namespace {

void check_puncture_args(const BfsTree& base, EdgeId banned_edge,
                         Vertex banned_vertex) {
  FTB_CHECK_MSG((banned_edge == kInvalidEdge) !=
                    (banned_vertex == kInvalidVertex),
                "rebase_punctured_tree: exactly one failed element");
  if (banned_edge != kInvalidEdge) {
    FTB_CHECK_MSG(base.is_tree_edge(banned_edge),
                  "rebase_punctured_tree: banned edge is not a tree edge — "
                  "the base tree already IS the punctured canonical tree");
  } else {
    FTB_CHECK_MSG(banned_vertex != base.source() &&
                      base.reachable(banned_vertex),
                  "rebase_punctured_tree: banned vertex must be a reachable "
                  "non-source vertex");
  }
}

/// Phase 2 of the punctured rebase — THE one relabel both
/// rebase_punctured_tree and PuncturedWorkspace::puncture run, so the
/// bit-identity contract between the independent and the DFS schedule
/// hangs on a single piece of code. Preconditions: `sweep` holds the
/// phase-1 punctured hop distances of `affected` (the base-tree preorder
/// slice below the fault), and `sp` holds base labels everywhere OUTSIDE
/// `affected` (inside may be arbitrary — every affected vertex is
/// rewritten). On return `sp`'s labels are the punctured canonical labels
/// (sp.order excepted, see splice_order) and `by_level` holds `affected`
/// in (new hops, id) order. Returns how many of them stay reachable: they
/// form the prefix of `by_level`, the vertices the fault disconnects its
/// tail.
std::size_t relabel(const BfsTree& base, EdgeId banned_edge,
                    Vertex banned_vertex, std::span<const Vertex> affected,
                    const ReplacementSweepScratch& sweep,
                    std::vector<Vertex>& by_level, CanonicalSp& sp,
                    SweepWorkStats* work) {
  const Graph& g = base.graph();
  const EdgeWeights& W = base.weights();
  const Vertex src = base.source();
  const Vertex top = affected.front();

  // The affected subtree is a contiguous preorder (tin) interval of the
  // base tree, so membership is two comparisons.
  const auto in_affected = [&](Vertex u) {
    return base.reachable(u) && base.is_ancestor_or_equal(top, u);
  };
  // Authoritative punctured hops: sweep output inside the affected set
  // (NOT sp.hops, which is stale until a vertex is processed), unchanged
  // labels outside.
  const auto hops_of = [&](Vertex u) {
    return in_affected(u) ? sweep.dist(u)
                          : sp.hops[static_cast<std::size_t>(u)];
  };

  // Canonical labels in ascending (new hops, id) order — the ONE parent
  // rule (pick_canonical_parent, shared with canonical_sp pass 2).
  // Predecessor labels are final when consumed: unaffected ones never
  // change, affected ones sit one level up and were processed earlier.
  by_level.assign(affected.begin(), affected.end());
  std::sort(by_level.begin(), by_level.end(), [&](Vertex a, Vertex b) {
    const std::int32_t ha = sweep.dist(a), hb = sweep.dist(b);
    return ha != hb ? ha < hb : a < b;
  });
  std::size_t reached = 0;
  for (const Vertex v : by_level) {
    const std::size_t vi = static_cast<std::size_t>(v);
    const std::int32_t hv = sweep.dist(v);
    if (hv >= kInfHops) {  // destroyed or disconnected by the fault
      sp.hops[vi] = kInfHops;
      sp.wsum[vi] = 0;
      sp.parent[vi] = kInvalidVertex;
      sp.parent_edge[vi] = kInvalidEdge;
      sp.first_hop[vi] = kInvalidVertex;
      continue;
    }
    ++reached;
    const CanonicalParentChoice best = pick_canonical_parent(
        g, W, v, hv,
        [&](const Arc& a) {
          return a.edge != banned_edge && a.to != banned_vertex;
        },
        hops_of,
        [&](Vertex u) { return sp.wsum[static_cast<std::size_t>(u)]; });
    FTB_DCHECK(best.parent != kInvalidVertex);
    sp.hops[vi] = hv;
    sp.wsum[vi] = best.wsum;
    sp.parent[vi] = best.parent;
    sp.parent_edge[vi] = best.edge;
    sp.first_hop[vi] = best.parent == src
                           ? v
                           : sp.first_hop[static_cast<std::size_t>(best.parent)];
  }
  if (work != nullptr) {
    work->label_writes += static_cast<std::int64_t>(by_level.size());
  }
  return reached;
}

/// Phase 3, shared like relabel: splices the relabeled subtree into the
/// finalization order. The base order already is the (hops, id) sequence
/// of the unaffected vertices; the punctured order cuts the affected
/// vertices out and merges `reached` (relabel's reachable prefix of
/// by_level, (new hops, id)-sorted) back in. Both edit sets are located by
/// binary search in the base order, and the runs between edits are block
/// copies, so the cost is O(|A| log n) plus the copied span. `order` must
/// hold the base order at every position this call does not write and be
/// at least the base order's size; the caller trims it to the punctured
/// size. Returns the written window [lo, end) in base-order positions: it
/// starts at the fault's top (the first affected vertex in the order) and
/// runs to the last edit, or to the end when the fault disconnects
/// vertices (the tail then shifts down by their count).
std::pair<std::size_t, std::size_t> splice_order(
    const BfsTree& base, std::span<const Vertex> affected,
    std::span<const Vertex> reached, const CanonicalSp& sp,
    std::vector<Vertex>& order, SweepWorkStats* work) {
  const std::vector<Vertex>& from = base.sp().order;
  const std::size_t nr = from.size();
  // First base-order position whose entry is not before (hops, v).
  const auto position = [&](std::size_t start, std::int32_t hops, Vertex v) {
    return static_cast<std::size_t>(
        std::lower_bound(from.begin() + static_cast<std::ptrdiff_t>(start),
                         from.end(), v,
                         [&](Vertex u, Vertex t) {
                           const std::int32_t hu = base.depth(u);
                           return hu != hops ? hu < hops : u < t;
                         }) -
        from.begin());
  };
  thread_local std::vector<std::size_t> cut;
  cut.clear();
  for (const Vertex v : affected) cut.push_back(position(0, base.depth(v), v));
  std::sort(cut.begin(), cut.end());
  const std::size_t lo = cut.front();
  FTB_DCHECK(from[lo] == affected.front());

  const auto copy_to = [&](std::size_t begin, std::size_t end,
                           std::size_t dst) {
    std::copy(from.begin() + static_cast<std::ptrdiff_t>(begin),
              from.begin() + static_cast<std::ptrdiff_t>(end),
              order.begin() + static_cast<std::ptrdiff_t>(dst));
  };
  std::size_t x = lo, out = lo, ci = 0, ri = 0;
  std::size_t ins = reached.empty()
                        ? nr
                        : position(lo, sp.hops[static_cast<std::size_t>(
                                           reached.front())],
                                   reached.front());
  while (ci < cut.size() || ri < reached.size()) {
    const std::size_t next =
        std::min(ci < cut.size() ? cut[ci] : nr, ins);
    copy_to(x, next, out);
    out += next - x;
    x = next;
    if (ri < reached.size() && ins == x) {  // before the base entry at x
      order[out++] = reached[ri++];
      ins = ri == reached.size()
                ? nr
                : position(x, sp.hops[static_cast<std::size_t>(reached[ri])],
                           reached[ri]);
    } else {  // x is a cut position
      ++x;
      ++ci;
    }
  }
  // Past the last edit the base order continues unchanged, shifted down by
  // the disconnected count.
  std::size_t end = x;
  if (out < x) {
    copy_to(x, nr, out);
    end = nr;
  }
  if (work != nullptr) {
    work->derived_writes += static_cast<std::int64_t>(end - lo - (x - out));
  }
  return {lo, end};
}

}  // namespace

BfsTree rebase_punctured_tree(const BfsTree& base, EdgeId banned_edge,
                              Vertex banned_vertex, SweepWorkStats* work) {
  check_puncture_args(base, banned_edge, banned_vertex);
  const Graph& g = base.graph();
  const Vertex top = banned_edge != kInvalidEdge
                         ? base.lower_endpoint(banned_edge)
                         : banned_vertex;
  const std::span<const Vertex> affected = base.subtree(top);

  // Phase 1: punctured hop distances for the affected subtree, seeded from
  // the unaffected boundary (whose depths are final — their tree paths
  // avoid the fault).
  thread_local ReplacementSweepScratch sweep;
  replacement_dist_sweep(base, banned_edge, banned_vertex, affected, sweep,
                         kInvalidEdge, kInvalidVertex, work);

  // Everything outside the affected subtree keeps its labels verbatim —
  // at the price the DFS schedule exists to avoid: a full O(n) copy.
  CanonicalSp sp = base.sp();
  if (work != nullptr) {
    work->label_writes += static_cast<std::int64_t>(g.num_vertices());
  }

  thread_local std::vector<Vertex> by_level;
  const std::size_t reached = relabel(base, banned_edge, banned_vertex,
                                      affected, sweep, by_level, sp, work);
  splice_order(base, affected,
               std::span<const Vertex>(by_level).first(reached), sp,
               sp.order, work);
  sp.order.resize(sp.order.size() - (affected.size() - reached));

  // The fresh tree derives everything from the labels: one O(n + m) pass.
  if (work != nullptr) {
    work->derived_writes += static_cast<std::int64_t>(g.num_vertices()) +
                            static_cast<std::int64_t>(g.num_edges());
  }
  return BfsTree(g, base.weights(), base.source(), std::move(sp));
}

// ---------------------------------------------------------------------------
// PuncturedWorkspace

namespace {

#ifndef NDEBUG
/// The workspace self-check: `t`'s patched derived arrays equal the ones a
/// fresh tree derives from the same labels, accessor for accessor.
bool derived_matches_labels(const BfsTree& t) {
  const Graph& g = t.graph();
  const BfsTree fresh(g, t.weights(), t.source(), CanonicalSp(t.sp()));
  if (t.num_reachable() != fresh.num_reachable() ||
      !std::ranges::equal(t.preorder(), fresh.preorder()) ||
      t.tree_edges() != fresh.tree_edges()) {
    return false;
  }
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    if (t.tin(v) != fresh.tin(v) || t.tout(v) != fresh.tout(v) ||
        t.subtree_size(v) != fresh.subtree_size(v) ||
        !std::ranges::equal(t.children(v), fresh.children(v))) {
      return false;
    }
  }
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    if (t.is_tree_edge(e) != fresh.is_tree_edge(e) ||
        (t.is_tree_edge(e) &&
         t.lower_endpoint(e) != fresh.lower_endpoint(e))) {
      return false;
    }
  }
  return true;
}
#endif

}  // namespace

void PuncturedWorkspace::bind(const BfsTree& base) {
  if (base_ == &base) return;  // pooled reuse within one build: free rebind
  base_ = &base;
  dirty_top_ = kInvalidVertex;
  ord_dirty_ = {0, 0};
  prev_cut_ = {0, 0};
  runs_.clear();
  touched_.clear();
  prev_touched_.clear();
  relisted_.clear();
  // The one full copy this workspace ever pays for `base`; every
  // puncture() after patches the subtree and the spliced windows only.
  tree_.emplace(base);
  const Graph& g = base.graph();
  mark_.assign(static_cast<std::size_t>(g.num_vertices()), 0);
  mark_epoch_ = 0;
  delta_.resize(static_cast<std::size_t>(g.num_vertices()));
  stats_.label_writes += static_cast<std::int64_t>(g.num_vertices());
  stats_.derived_writes += static_cast<std::int64_t>(g.num_vertices()) +
                           static_cast<std::int64_t>(g.num_edges());
}

const BfsTree& PuncturedWorkspace::puncture(EdgeId banned_edge,
                                            Vertex banned_vertex) {
  FTB_CHECK_MSG(base_ != nullptr,
                "PuncturedWorkspace::puncture before bind()");
  const BfsTree& base = *base_;
  check_puncture_args(base, banned_edge, banned_vertex);
  const Vertex top = banned_edge != kInvalidEdge
                         ? base.lower_endpoint(banned_edge)
                         : banned_vertex;
  CanonicalSp& sp = tree_->sp_;

  // The previous patch's tree-edge entries go first: finding them reads
  // its labels. The rest of its derived slices are undone by the patch.
  if (dirty_top_ != kInvalidVertex) {
    const std::span<const Vertex> prev = base.subtree(dirty_top_);
    for (const Vertex v : prev) {
      const std::size_t vi = static_cast<std::size_t>(v);
      if (sp.hops[vi] < kInfHops) {
        tree_->lower_[static_cast<std::size_t>(sp.parent_edge[vi])] =
            kInvalidVertex;
        ++stats_.derived_writes;
      }
    }
  }

  // Undo the previous patch back to base labels — except the slice the new
  // patch rewrites anyway. In DFS order the new top usually sits inside the
  // previous subtree (or the previous one inside the new window), so the
  // restored difference is the ancestor→site path segment, not the whole
  // previous subtree. When the new window covers the dirty subtree there is
  // nothing to undo at all. Undo values come straight from the base labels;
  // no log is kept.
  if (dirty_top_ != kInvalidVertex &&
      !base.is_ancestor_or_equal(top, dirty_top_)) {
    const std::int32_t lo = base.tin(top);
    const std::int32_t hi = base.tout(top);
    const CanonicalSp& bsp = base.sp();
    std::int64_t restored = 0;
    for (const Vertex v : base.subtree(dirty_top_)) {
      const std::int32_t t = base.tin(v);
      if (t >= lo && t < hi) continue;  // inside the new affected window
      const std::size_t vi = static_cast<std::size_t>(v);
      sp.hops[vi] = bsp.hops[vi];
      sp.wsum[vi] = bsp.wsum[vi];
      sp.parent[vi] = bsp.parent[vi];
      sp.parent_edge[vi] = bsp.parent_edge[vi];
      sp.first_hop[vi] = bsp.first_hop[vi];
      ++restored;
    }
    stats_.label_writes += restored;
  }

  const std::span<const Vertex> affected = base.subtree(top);
  replacement_dist_sweep(base, banned_edge, banned_vertex, affected, sweep_,
                         kInvalidEdge, kInvalidVertex, &stats_);
  const std::size_t reached = relabel(base, banned_edge, banned_vertex,
                                      affected, sweep_, by_level_, sp,
                                      &stats_);
  patch_derived(top, std::span<const Vertex>(by_level_).first(reached));
  dirty_top_ = top;
  FTB_DCHECK(derived_matches_labels(*tree_));
  return *tree_;
}

void PuncturedWorkspace::patch_derived(Vertex top,
                                       std::span<const Vertex> reached) {
  const BfsTree& base = *base_;
  BfsTree& t = *tree_;
  CanonicalSp& sp = t.sp_;
  const auto at = [](Vertex v) { return static_cast<std::size_t>(v); };
  // A = the base subtree of `top`, the T0 preorder window [t0, t1).
  const std::int32_t t0 = base.tin(top);
  const std::int32_t t1 = base.tout(top);
  const auto in_a = [&](Vertex u) {
    const std::int32_t x = base.tin(u);
    return x >= t0 && x < t1;
  };
  const std::span<const Vertex> affected = base.subtree(top);
  const std::int32_t cut = t1 - t0;
  const std::int32_t lost = cut - static_cast<std::int32_t>(reached.size());
  std::int64_t writes = 0;

  // 0. Undo what the previous patch changed and this one does not
  // rewrite: the records of its subtree outside A, and the lists it
  // relisted (the base lists are kept; appended lists are dropped).
  if (dirty_top_ != kInvalidVertex) {
    for (const Vertex v : base.subtree(dirty_top_)) {
      if (in_a(v)) continue;
      t.lower_[static_cast<std::size_t>(base.parent_edge(v))] = v;
      t.subtree_size_[at(v)] = base.subtree_size(v);
      t.child_range_[at(v)] = base.child_range_[at(v)];
      writes += 2;
    }
  }
  for (const Vertex q : relisted_) {
    t.child_range_[at(q)] = base.child_range_[at(q)];
  }
  writes += static_cast<std::int64_t>(relisted_.size());
  relisted_.clear();
  t.child_list_.resize(base.child_list_.size());

  // 1. A's own records. Its reachable vertices form a forest: children
  // lists go past the base lists (reached is (hops, id)-sorted, so every
  // list comes out id-sorted), subtree sizes bottom-up. A root is a vertex
  // whose new parent, its anchor, lies outside A.
  for (const Vertex v : affected) {
    t.lower_[static_cast<std::size_t>(base.parent_edge(v))] = kInvalidVertex;
    t.subtree_size_[at(v)] = 0;
    t.child_range_[at(v)] = {0, 0};
  }
  for (const Vertex v : reached) {
    t.lower_[static_cast<std::size_t>(sp.parent_edge[at(v)])] = v;
    t.subtree_size_[at(v)] = 1;
    const Vertex p = sp.parent[at(v)];
    if (in_a(p)) ++t.child_range_[at(p)].second;
  }
  std::int64_t cursor = static_cast<std::int64_t>(t.child_list_.size());
  for (const Vertex v : reached) {
    auto& [begin, end] = t.child_range_[at(v)];
    const std::int64_t count = end;
    begin = end = cursor;
    cursor += count;
  }
  t.child_list_.resize(static_cast<std::size_t>(cursor));
  roots_.clear();
  for (const Vertex v : reached) {
    const Vertex p = sp.parent[at(v)];
    if (in_a(p)) {
      t.child_list_[static_cast<std::size_t>(t.child_range_[at(p)].second++)] =
          v;
    } else {
      roots_.push_back(v);
    }
  }
  for (auto it = reached.rbegin(); it != reached.rend(); ++it) {
    const Vertex p = sp.parent[at(*it)];
    if (in_a(p)) t.subtree_size_[at(p)] += t.subtree_size_[at(*it)];
  }
  // One record and one tree-edge entry per vertex, one entry per new edge
  // and per child slot.
  writes += 2 * static_cast<std::int64_t>(affected.size()) +
            2 * static_cast<std::int64_t>(reached.size()) -
            static_cast<std::int64_t>(roots_.size());

  // 2. The lists that change outside A: top's base parent p0 loses top,
  // and every anchor gains its roots, merged into its base list by id. The
  // merge also places each root's preorder block right after the base
  // block of its previous base sibling, or right after the anchor when it
  // has none: its slot, a T0 position outside (t0, t1). Slots are kept
  // collapsed (positions past A shifted down by |A|), so t0 and t1, which
  // meet once A is cut out, compare equal.
  const Vertex p0 = base.parent(top);
  std::sort(roots_.begin(), roots_.end(), [&](Vertex a, Vertex b) {
    const Vertex pa = sp.parent[at(a)], pb = sp.parent[at(b)];
    return pa != pb ? pa < pb : a < b;
  });
  splices_.clear();
  const auto relist = [&](Vertex q, std::span<const Vertex> rs) {
    const auto begin = static_cast<std::int64_t>(t.child_list_.size());
    std::int32_t slot = base.tin(q) + 1;
    std::size_t k = 0;
    const auto place = [&] {
      t.child_list_.push_back(rs[k]);
      splices_.push_back(
          {slot <= t0 ? slot : slot - cut, base.depth(q), rs[k++], 0});
    };
    for (const Vertex c : base.children(q)) {
      if (c == top) continue;
      while (k < rs.size() && rs[k] < c) place();
      t.child_list_.push_back(c);
      slot = base.tout(c);
    }
    while (k < rs.size()) place();
    const auto end = static_cast<std::int64_t>(t.child_list_.size());
    t.child_range_[at(q)] = {begin, end};
    relisted_.push_back(q);
    writes += end - begin + 1;
  };
  bool p0_relisted = false;
  for (std::size_t i = 0; i < roots_.size();) {
    const Vertex q = sp.parent[at(roots_[i])];
    std::size_t j = i;
    while (j < roots_.size() && sp.parent[at(roots_[j])] == q) ++j;
    relist(q, std::span<const Vertex>(roots_).subspan(i, j - i));
    p0_relisted = p0_relisted || q == p0;
    i = j;
  }
  if (!p0_relisted) relist(p0, {});

  // 3. Subtree sizes on the base root paths of p0 and of the anchors, the
  // set K (collected as a union of paths): p0 loses |A|, each anchor gains
  // its roots' blocks, and every vertex passes its change up to its
  // parent, descendants (larger tin) first. The previous patch's K is
  // restored where neither this K nor A covers it.
  if (++mark_epoch_ == 0) {
    std::fill(mark_.begin(), mark_.end(), 0);
    mark_epoch_ = 1;
  }
  touched_.swap(prev_touched_);
  touched_.clear();
  const auto add_path = [&](Vertex v) {
    for (Vertex u = v; u != kInvalidVertex && mark_[at(u)] != mark_epoch_;
         u = base.parent(u)) {
      mark_[at(u)] = mark_epoch_;
      delta_[at(u)] = 0;
      touched_.push_back(u);
    }
  };
  add_path(p0);
  delta_[at(p0)] -= cut;
  for (const Vertex r : roots_) {
    const Vertex q = sp.parent[at(r)];
    add_path(q);
    delta_[at(q)] += t.subtree_size_[at(r)];
  }
  std::sort(touched_.begin(), touched_.end(),
            [&](Vertex a, Vertex b) { return base.tin(a) > base.tin(b); });
  for (const Vertex u : touched_) {
    const Vertex p = base.parent(u);
    if (p != kInvalidVertex) delta_[at(p)] += delta_[at(u)];
    t.subtree_size_[at(u)] = base.subtree_size(u) + delta_[at(u)];
  }
  for (const Vertex u : prev_touched_) {
    if (mark_[at(u)] == mark_epoch_ || in_a(u)) continue;  // rewritten
    t.subtree_size_[at(u)] = base.subtree_size(u);
    ++writes;
  }
  writes += static_cast<std::int64_t>(touched_.size());

  // 4. Preorder, tin and the tree-edge table (tout is tin + size). T_f's
  // sequence is T0's with A's block cut out and each root's block spliced
  // in at its slot (at one slot, deeper anchors first: the DFS closes them
  // first; then by id). So every base vertex outside A moves by a shift
  // that is constant between edits: a run. Only the runs whose shift
  // differs from the previous patch's (and the positions its A held) are
  // written, as block copies; the rest of the arrays already hold them.
  const std::int32_t nr0 = base.num_reachable();
  const std::int32_t nr = nr0 - lost;
  std::sort(splices_.begin(), splices_.end(),
            [](const Splice& a, const Splice& b) {
              if (a.slot != b.slot) return a.slot < b.slot;
              if (a.depth != b.depth) return a.depth > b.depth;
              return a.v < b.v;
            });
  // The new runs, from collapsed positions (A cut out) back to T0 ones;
  // only nonzero shifts are kept.
  runs_.swap(prev_runs_);
  runs_.clear();
  const auto add_runs = [&](std::int32_t ca, std::int32_t cb,
                            std::int32_t inserted) {
    const auto push = [&](std::int32_t a, std::int32_t b, std::int32_t k) {
      if (a < b && k != 0) runs_.push_back({a, b, k});
    };
    if (cb <= t0) {
      push(ca, cb, inserted);
    } else if (ca >= t0) {
      push(ca + cut, cb + cut, inserted - cut);
    } else {
      push(ca, t0, inserted);
      push(t1, cb + cut, inserted - cut);
    }
  };
  std::int32_t inserted = 0, run_from = 0;
  for (Splice& block : splices_) {
    add_runs(run_from, block.slot, inserted);
    run_from = block.slot;
    block.out = block.slot + inserted;
    inserted += t.subtree_size_[at(block.v)];
  }
  add_runs(run_from, nr0 - cut, inserted);

  t.preorder_.resize(static_cast<std::size_t>(nr));
  t.tree_edges_.resize(static_cast<std::size_t>(nr - 1));
  const auto write_run = [&](std::int32_t a, std::int32_t b, std::int32_t k) {
    FTB_DCHECK(a >= 1 && b + k <= nr);
    const auto pos = [](std::int32_t x) {
      return static_cast<std::ptrdiff_t>(x);
    };
    std::copy(base.preorder_.begin() + pos(a), base.preorder_.begin() + pos(b),
              t.preorder_.begin() + pos(a + k));
    std::copy(base.tree_edges_.begin() + pos(a - 1),
              base.tree_edges_.begin() + pos(b - 1),
              t.tree_edges_.begin() + pos(a + k - 1));
    for (std::int32_t x = a; x < b; ++x) {
      t.tin_[at(base.preorder_[at(x)])] = x + k;
    }
    writes += b - a;
  };
  // Walk both run lists over the elementary intervals between their
  // boundaries, those of the previous A and of the new one.
  bounds_.clear();
  for (const std::vector<Run>* rs : {&prev_runs_, &runs_}) {
    for (const Run& r : *rs) {
      bounds_.push_back(r.begin);
      bounds_.push_back(r.end);
    }
  }
  const std::int32_t pt0 = prev_cut_.first, pt1 = prev_cut_.second;
  for (const std::int32_t x : {pt0, pt1, t0, t1}) bounds_.push_back(x);
  std::sort(bounds_.begin(), bounds_.end());
  bounds_.erase(std::unique(bounds_.begin(), bounds_.end()), bounds_.end());
  std::size_t pi = 0, ni = 0;
  const auto shift_at = [](const std::vector<Run>& rs, std::size_t& i,
                           std::int32_t x) {
    while (i < rs.size() && rs[i].end <= x) ++i;
    return i < rs.size() && rs[i].begin <= x ? rs[i].shift : 0;
  };
  for (std::size_t i = 0; i + 1 < bounds_.size(); ++i) {
    const std::int32_t a = bounds_[i], b = bounds_[i + 1];
    if (a >= t0 && b <= t1) continue;  // A: written as blocks
    const std::int32_t was = shift_at(prev_runs_, pi, a);
    const std::int32_t now = shift_at(runs_, ni, a);
    if (now != was || (a >= pt0 && b <= pt1)) write_run(a, b, now);
  }
  prev_cut_ = {t0, t1};

  // Each root's block: a DFS inside A from its output position.
  for (const Splice& block : splices_) {
    std::int32_t out = block.out;
    stack_.push_back(block.v);
    while (!stack_.empty()) {
      const Vertex v = stack_.back();
      stack_.pop_back();
      t.preorder_[at(out)] = v;
      t.tin_[at(v)] = out;
      t.tree_edges_[at(out - 1)] = sp.parent_edge[at(v)];
      ++out;
      const auto [cb, ce] = t.child_range_[at(v)];
      for (std::int64_t c = ce; c-- > cb;) {
        stack_.push_back(t.child_list_[static_cast<std::size_t>(c)]);
      }
    }
  }
  for (const Vertex v : affected) {
    if (sp.hops[at(v)] >= kInfHops) t.tin_[at(v)] = -1;
  }
  t.num_reachable_ = nr;

  // 5. The finalization order: the same splice (shared with the
  // independent rebase), then the previous window's remainder restored.
  sp.order.resize(static_cast<std::size_t>(nr0));
  const auto [olo, oend] = splice_order(base, affected, reached, sp, sp.order,
                                        &stats_);
  const std::vector<Vertex>& border = base.sp().order;
  const auto restore_order = [&](std::size_t from, std::size_t to) {
    if (from >= to) return;
    std::copy(border.begin() + static_cast<std::ptrdiff_t>(from),
              border.begin() + static_cast<std::ptrdiff_t>(to),
              sp.order.begin() + static_cast<std::ptrdiff_t>(from));
    writes += static_cast<std::int64_t>(to - from);
  };
  restore_order(ord_dirty_.first, std::min(ord_dirty_.second, olo));
  restore_order(std::max(ord_dirty_.first, oend), ord_dirty_.second);
  ord_dirty_ = {olo, oend};
  sp.order.resize(static_cast<std::size_t>(t.num_reachable_));
  stats_.derived_writes += writes;
}

}  // namespace ftb
