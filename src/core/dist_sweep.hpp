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
#include <utility>
#include <vector>

#include "src/graph/bfs_tree.hpp"

namespace ftb {

/// Work accounting for the rebase seam, one unit per array entry written:
/// label assignments (full copies, undo restores, canonical relabels),
/// Dial-sweep vertex visits, and derived-tree entries (children lists,
/// preorder slots with their tin and tree-edge slot, subtree sizes,
/// tree-edge table entries, finalization-order slots). A fresh tree's
/// derived pass counts n + m. The dual build's schedule referee compares
/// the totals — the DFS schedule's patch-and-undo must come in strictly
/// below the independent schedule's full per-site copies and derivations.
struct SweepWorkStats {
  std::int64_t label_writes = 0;
  std::int64_t sweep_visits = 0;
  std::int64_t derived_writes = 0;
  std::int64_t total() const {
    return label_writes + sweep_visits + derived_writes;
  }
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
/// result is bit-identical to BfsTree(g, W, source, bans) with no graph
/// traversal outside the subtree, but it still pays O(n + m) per call: a
/// full label copy and a fresh tree's derived arrays. That makes it the
/// independent-schedule referee of the dual build; PuncturedWorkspace is
/// the production path.
BfsTree rebase_punctured_tree(const BfsTree& base, EdgeId banned_edge,
                              Vertex banned_vertex,
                              SweepWorkStats* work = nullptr);

/// Per-thread punctured-tree workspace — the DFS-order ancestor-sweep
/// sharing seam of the dual build.
///
/// It binds to the base tree T0 ONCE (one full copy), then each puncture()
/// patches the one tree object in place into T_f, the canonical tree of
/// G \ {f}, and returns it. A_f, the base subtree below the fault, is the
/// only place labels change:
///   * Labels. Outside A_f every label of T_f equals T0 verbatim, so a
///     workspace whose labels are "T0 except the previously patched
///     subtree" only restores the previous subtree minus the new one (undo
///     values come from the base tree; no log is kept). In T0 DFS order
///     that difference is the ancestor→site path segment, so the label
///     traffic is O(|A_f|), not O(n).
///   * Children lists and subtree sizes. Lists change only for A_f's
///     vertices, for top's base parent and for the anchors (the vertices
///     outside A_f that A_f's new forest roots hang under); changed lists
///     are appended past the base lists. Sizes change only on A_f and on
///     the base root paths of top's parent and of the anchors.
///   * Tree-edge entries (is_tree_edge) change only at A_f's old and new
///     parent edges.
///   * Preorder, tin and tree_edges() are T0's sequences with A_f's block
///     cut out and each root's block spliced in, so every base vertex
///     outside A_f moves by a shift that is constant between edits (all
///     the way to the end when the fault disconnects vertices). Only the
///     positions whose shift differs from the previous puncture's are
///     rewritten, as block copies; tout is tin plus subtree size.
///     sp().order is spliced the same way, one binary search per edit.
/// What the previous puncture changed and this one does not rewrite is
/// restored from the base tree. Produced trees are bit-identical to BfsTree(g, W, s, bans) and to
/// rebase_punctured_tree (both run the one shared relabel and order
/// splice); Debug builds re-derive every patched tree from its labels and
/// compare.
///
/// Exclusive ownership while in use: the dual build leases one per worker
/// from a FreeListPool. The tree returned by puncture() is valid until the
/// next puncture()/bind() on the same workspace.
class PuncturedWorkspace {
 public:
  /// Binds to `base` (one full copy, counted in stats). A rebind to the
  /// SAME tree object is a no-op — that is what makes pooled reuse across
  /// work chunks of one build cheap.
  void bind(const BfsTree& base);

  /// The canonical tree of G \ {fault}, bit-identical to
  /// rebase_punctured_tree(base, banned_edge, banned_vertex). Same
  /// precondition: exactly one failed element, a tree edge or a reachable
  /// non-source vertex.
  const BfsTree& puncture(EdgeId banned_edge, Vertex banned_vertex);

  /// Cumulative rebase work this workspace performed (never reset).
  const SweepWorkStats& stats() const { return stats_; }

 private:
  /// A root's preorder block: inserted at collapsed T0 position `slot`
  /// (A cut out); blocks sharing a slot go deeper anchor first, then by id.
  /// `out` is the block's first position in T_f's preorder.
  struct Splice {
    std::int32_t slot;
    std::int32_t depth;  // the anchor's
    Vertex v;
    std::int32_t out;
  };
  /// Base preorder positions [begin, end) that sit `shift` positions later
  /// in the patched tree.
  struct Run {
    std::int32_t begin, end, shift;
  };

  /// Writes T_f's derived arrays over the previous puncture's, undoing
  /// what this one does not rewrite; `reached` is relabel()'s reachable
  /// prefix of by_level_. The previous tree-edge entries must already be
  /// cleared.
  void patch_derived(Vertex top, std::span<const Vertex> reached);

  const BfsTree* base_ = nullptr;
  std::optional<BfsTree> tree_;     // the reused punctured tree
  ReplacementSweepScratch sweep_;
  std::vector<Vertex> by_level_;    // relabel's processing order
  Vertex dirty_top_ = kInvalidVertex;  // root of the last patched subtree
  // The last patch's preorder runs with a nonzero shift and its A window;
  // the positions of sp().order it rewrote.
  std::vector<Run> runs_, prev_runs_;
  std::pair<std::int32_t, std::int32_t> prev_cut_{0, 0};
  std::vector<std::int32_t> bounds_;
  std::pair<std::size_t, std::size_t> ord_dirty_{0, 0};
  std::vector<Vertex> touched_;       // K of the last patch
  std::vector<Vertex> prev_touched_;  // K of the one before
  std::vector<Vertex> relisted_;      // vertices whose list was rewritten
  std::vector<std::uint32_t> mark_;   // K membership, epoch-stamped
  std::uint32_t mark_epoch_ = 0;
  std::vector<std::int32_t> delta_;   // subtree-size change on K
  std::vector<Vertex> roots_;
  std::vector<Splice> splices_;
  std::vector<Vertex> stack_;
  SweepWorkStats stats_;
};

}  // namespace ftb
