// dist_sweep.hpp — the subtree-seeded replacement-distance sweep.
//
// Both replacement engines need dist(s, v, G \ {fault}) for every vertex v
// whose tree path π(s,v) uses the fault — i.e. the subtree hanging below a
// failing tree edge, or below a failing internal tree vertex. The naive
// realization is one full BFS of G per fault: Θ(n) traversals, the O(n·m)
// bottleneck of the whole construction.
//
// The sweep exploits the standard observation that every *other* vertex u
// keeps its tree distance: π(s,u) avoids the fault, and G\{fault} ⊆ G, so
// dist(s, u, G\{fault}) = depth(u). For the affected set A this turns the
// BFS into a bounded multi-source relaxation:
//
//   dist'(v) = min( c_out(v),  min_{(v,w) ∈ E(A)} dist'(w) + 1 )
//   c_out(v) = 1 + min{ depth(u) : (v,u) admissible, u ∉ A }
//
// (the final entry point of any replacement path into A is seeded by
// c_out; everything after it stays inside A). Processing keys ascending
// with a bucket queue gives exact distances in
// O( Σ_{v∈A} deg(v) + |A| ) per fault — summed over all faults that is
// O( Σ_v deg(v)·depth(v) ), typically orders of magnitude below O(n·m).
//
// Only distances are produced (no parents), which is exactly what the
// engines' tables store — so the output is trivially independent of
// processing order and bit-identical to the full-BFS rows.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "src/graph/bfs_tree.hpp"

namespace ftb {

/// Work accounting for the rebase seam: how many per-vertex label
/// assignments (full copies, undo restores, canonical relabels) and how
/// many Dial-sweep vertex visits a punctured-tree production performed.
/// The dual build's schedule referee compares these totals — the DFS
/// schedule's patch-and-undo must come in strictly below the independent
/// schedule's full per-site label copies.
struct SweepWorkStats {
  std::int64_t label_writes = 0;
  std::int64_t sweep_visits = 0;
  std::int64_t total() const { return label_writes + sweep_visits; }
};

/// Reusable per-thread arena for replacement_dist_sweep. Zero steady-state
/// allocations: affected marking is epoch-stamped, buckets retain capacity.
class ReplacementSweepScratch {
 public:
  /// dist(s, v, G \ {fault}) after a sweep; valid only for vertices of the
  /// `affected` span handed to that sweep (kInfHops when disconnected).
  std::int32_t dist(Vertex v) const {
    const std::size_t i = static_cast<std::size_t>(v);
    return stamp_[i] == epoch_ ? dist_[i] : kInfHops;
  }

 private:
  friend void replacement_dist_sweep(const BfsTree&, EdgeId, Vertex,
                                     std::span<const Vertex>,
                                     ReplacementSweepScratch&, EdgeId, Vertex,
                                     SweepWorkStats*);

  void prepare(std::size_t n);
  bool in_set(Vertex v) const {
    return stamp_[static_cast<std::size_t>(v)] == epoch_;
  }

  std::vector<std::uint32_t> stamp_;  // in affected set iff == epoch_
  std::uint32_t epoch_ = 0;
  std::vector<std::int32_t> dist_;                 // tentative keys
  std::vector<std::vector<Vertex>> buckets_;       // Dial queue, relative keys
};

/// Computes dist(s, v, G \ {fault}) for every v ∈ `affected`, where
/// `affected` is the preorder subtree slice below the fault
/// (tree.subtree(lower_endpoint(banned_edge)) or tree.subtree(banned_vertex))
/// and exactly one of banned_edge / banned_vertex identifies the fault (pass
/// kInvalidEdge / kInvalidVertex for the other). A banned vertex inside the
/// span is skipped. Results are read back through scratch.dist().
///
/// `ambient_edge` / `ambient_vertex` exclude one more graph element from
/// every step of the sweep: this is how the dual-failure pipeline reuses the
/// sweep over a punctured graph G \ {first failure} (the `tree` must then be
/// the canonical tree of that punctured graph, so depth() seeding stays
/// exact). Both default to "none", which is the single-fault sweep verbatim.
/// A failure PAIR (DualFaultOracle::dist) may pass `affected` as two
/// disjoint subtree slices, the shallower top first: keys are based at
/// depth(affected.front()). `work`, when given, accumulates the sweep's
/// vertex visits (seeding and non-stale pops, at most 2·|affected|).
void replacement_dist_sweep(const BfsTree& tree, EdgeId banned_edge,
                            Vertex banned_vertex,
                            std::span<const Vertex> affected,
                            ReplacementSweepScratch& scratch,
                            EdgeId ambient_edge = kInvalidEdge,
                            Vertex ambient_vertex = kInvalidVertex,
                            SweepWorkStats* work = nullptr);

/// Incremental punctured-tree rebase: the canonical tree of G \ {fault}
/// built from `base` (the canonical tree of G) by recomputing labels ONLY
/// for the subtree hanging below the fault. Exactly one of banned_edge
/// (a tree edge of `base`) / banned_vertex (a reachable non-source vertex)
/// identifies the fault.
///
/// Why this is exact: a vertex u outside the affected subtree keeps its
/// tree path π(s,u), which avoids the fault; the canonical path of G is
/// still present in G \ {fault} and stays (hops, Σw)-minimal among a
/// subset of its old competitors, so every label of u — hops, wsum,
/// parent, parent_edge, first_hop — is unchanged verbatim. Affected
/// vertices get their punctured hop distances from replacement_dist_sweep
/// (seeded by the unaffected boundary) and then the same canonical parent
/// rule as canonical_sp pass 2, processed in ascending level order. The
/// result is bit-identical to BfsTree(g, W, source, bans) at a cost
/// proportional to the affected subtree's volume plus O(n + m) for the
/// label copy and derived tree arrays (no graph traversal — the win over
/// a full rebuild is the BFS and the canonical relaxation, not the array
/// bookkeeping) — this is the sibling-prefix reuse the dual-failure
/// recursion leans on (one rebase per first-failure site instead of one
/// full canonical BFS of G each).
BfsTree rebase_punctured_tree(const BfsTree& base, EdgeId banned_edge,
                              Vertex banned_vertex,
                              SweepWorkStats* work = nullptr);

/// Per-thread punctured-tree workspace — the DFS-order ancestor-sweep
/// sharing seam of the dual build.
///
/// rebase_punctured_tree pays three O(n) terms per site that have nothing
/// to do with the fault's subtree: the full label copy `sp = base.sp()`,
/// the fresh order/derived-array allocations, and their deallocation. The
/// workspace amortizes all three across a DFS-ordered run of sites: it
/// binds to the base tree ONCE (one full label copy), then each puncture()
/// patches only the affected subtree's labels in place and rebuilds the
/// derived arrays into retained capacity.
///
/// The reuse invariant that makes the patch sound: outside the affected
/// subtree A_f every label of T_f equals T0 verbatim, so a workspace whose
/// labels are "T0 everywhere except the previously patched subtree" only
/// has to restore the STALE DIFFERENCE — the previous site's subtree minus
/// the new site's subtree (undo values come straight from the base tree;
/// no undo log is needed). Walking sites in T0 DFS order makes that
/// difference the ancestor→site path segment: a child site's subtree nests
/// inside its processed ancestor's, so the ancestor's patch is mostly
/// overwritten, not undone, and the per-site label traffic is O(vol(A_f))
/// instead of O(n). Produced trees are bit-identical to
/// rebase_punctured_tree (both run the one shared relabel-and-merge
/// implementation).
///
/// Exclusive ownership while in use: the dual build leases one per worker
/// from a FreeListPool. The tree returned by puncture() is valid until the
/// next puncture()/bind() on the same workspace.
class PuncturedWorkspace {
 public:
  /// Binds to `base` (one full O(n) label copy, counted in stats). A
  /// rebind to the SAME tree object is a no-op — that is what makes pooled
  /// reuse across work chunks of one build cheap.
  void bind(const BfsTree& base);

  /// The canonical tree of G \ {fault}, bit-identical to
  /// rebase_punctured_tree(base, banned_edge, banned_vertex). Same
  /// precondition: exactly one failed element, a tree edge or a reachable
  /// non-source vertex.
  const BfsTree& puncture(EdgeId banned_edge, Vertex banned_vertex);

  /// Cumulative rebase work this workspace performed (never reset).
  const SweepWorkStats& stats() const { return stats_; }

 private:
  const BfsTree* base_ = nullptr;
  std::optional<BfsTree> tree_;     // the reused punctured tree
  ReplacementSweepScratch sweep_;
  std::vector<Vertex> by_level_;    // phase 2 processing order
  std::vector<Vertex> order_;       // phase 3 merge buffer (swapped in)
  Vertex dirty_top_ = kInvalidVertex;  // root of the last patched subtree
  SweepWorkStats stats_;
};

}  // namespace ftb
