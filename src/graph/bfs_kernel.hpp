// bfs_kernel.hpp — the direction-optimizing BFS kernel and its
// zero-allocation scratch arenas.
//
// The replacement-path preprocessing performs Θ(n) full traversals per
// construction (one BFS of G\{e} per tree edge, one off-path canonical BFS
// per vertex). Two properties of that workload shape this kernel:
//
//  1. *Traversal cost.* A queue-based ("top-down") BFS touches every arc of
//     every frontier vertex. On low-diameter graphs most of those arcs lead
//     to already-visited vertices. The kernel therefore switches per level
//     between the classic top-down sliding queue and a "bottom-up" pass
//     (Beamer et al., SC'12): scan the *unvisited* vertices and let each one
//     claim the first frontier neighbor in its sorted adjacency, stopping at
//     the first hit. The switch uses the standard alpha/beta scout-count
//     heuristic on the frontier's out-degree sum.
//
//  2. *Per-call overhead.* The naive implementation pays four O(n)
//     `assign(n, …)` clears plus their allocations on every call — more than
//     the traversal itself once the sweep is hot. BfsScratch keeps dist /
//     parent / parent_edge / order / frontier-bitmap buffers alive across
//     calls and marks visited vertices with an epoch stamp, so a steady-state
//     call allocates nothing and clears nothing.
//
// Determinism contract (what every caller, test and structure proof relies
// on; both directions and the reference implementation produce bit-identical
// results):
//   * dist[v]   — hop distance, mode-independent by construction;
//   * order     — the source, then each level's vertices ascending by id;
//   * parent[v] — the minimum-id admissible neighbor of v in the previous
//                 level, parent_edge[v] the connecting edge. (Top-down
//                 realizes this by expanding the level-sorted frontier in
//                 order — the first discoverer is the minimum; bottom-up by
//                 taking the first admissible hit in the sorted adjacency.)
//
// canonical_sp_run is the fused single-pass variant of canonical_sp: the
// (hops, Σw)-relaxation happens inside the level expansion instead of a
// second O(m) sweep, with the same (wsum, parent id, edge id) tie-breaking
// as the two-pass reference. It is top-down only — the canonical rule needs
// *all* admissible predecessors of a vertex, so the bottom-up early exit
// does not apply.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "src/graph/canonical_bfs.hpp"
#include "src/graph/graph.hpp"

namespace ftb {

/// Per-run counters (cheap; maintained unconditionally).
struct BfsKernelStats {
  std::int32_t levels = 0;
  std::int32_t top_down_levels = 0;
  std::int32_t bottom_up_levels = 0;
};

/// Direction-switch policy. The defaults follow Beamer et al.: go bottom-up
/// when the frontier's out-degree sum exceeds 1/alpha of the unexplored
/// arcs; return top-down when the frontier shrinks below n/beta vertices.
struct BfsKernelConfig {
  double alpha = 15.0;
  double beta = 18.0;
  enum class Mode { kAuto, kTopDown, kBottomUp };
  Mode mode = Mode::kAuto;  // force a direction (tests / ablation)
};

class CanonicalSpScratch;

/// Reusable per-thread arena for bfs_run. Results are readable until the
/// next run on the same scratch; a steady-state run allocates nothing.
class BfsScratch {
 public:
  bool visited(Vertex v) const {
    return stamp_[static_cast<std::size_t>(v)] == epoch_;
  }
  std::int32_t dist(Vertex v) const {
    return visited(v) ? dist_[static_cast<std::size_t>(v)] : kInfHops;
  }
  Vertex parent(Vertex v) const {
    return visited(v) ? parent_[static_cast<std::size_t>(v)] : kInvalidVertex;
  }
  EdgeId parent_edge(Vertex v) const {
    return visited(v) ? parent_edge_[static_cast<std::size_t>(v)]
                      : kInvalidEdge;
  }
  /// Visited vertices: source first, then level by level ascending by id.
  std::span<const Vertex> order() const { return order_; }

  const BfsKernelStats& stats() const { return stats_; }

  /// Test hook: fast-forward the epoch counter to just before wraparound so
  /// the wrap path (full stamp reset) can be exercised.
  void debug_set_epoch_near_wrap();

 private:
  friend void bfs_run(const Graph&, Vertex, const BfsBans&, BfsScratch&,
                      const BfsKernelConfig&);
  friend void canonical_sp_run(const Graph&, const EdgeWeights&, Vertex,
                               const BfsBans&, CanonicalSpScratch&,
                               std::int32_t, bool);
  friend class CanonicalSpScratch;

  /// Bumps the epoch and (re)sizes the arrays; O(1) steady-state.
  void prepare(std::size_t n);
  /// Rewrites the freshly discovered segment [next_begin, order_.size())
  /// into ascending id order and clears its front_bits_ marks. Uses a
  /// bitmap scan for large segments, std::sort for small ones.
  void finalize_level_segment(std::size_t next_begin, std::size_t n);
  void mark(Vertex v, std::int32_t d, Vertex p, EdgeId pe) {
    const std::size_t i = static_cast<std::size_t>(v);
    stamp_[i] = epoch_;
    dist_[i] = d;
    parent_[i] = p;
    parent_edge_[i] = pe;
  }

  std::vector<std::uint32_t> stamp_;  // visited iff stamp_[v] == epoch_
  std::uint32_t epoch_ = 0;
  std::vector<std::int32_t> dist_;
  std::vector<Vertex> parent_;
  std::vector<EdgeId> parent_edge_;
  std::vector<Vertex> order_;
  std::vector<std::uint64_t> front_bits_;  // frontier bitmap (bottom-up)
  BfsKernelStats stats_;
};

/// Direction-optimizing BFS from `src` in G minus `bans`, writing into
/// `scratch`. See the determinism contract in the file comment.
void bfs_run(const Graph& g, Vertex src, const BfsBans& bans,
             BfsScratch& scratch, const BfsKernelConfig& cfg = {});

/// Reusable arena for canonical_sp_run. Accessors mirror CanonicalSp but
/// read straight from the arena (wsum/first_hop are valid only where
/// reachable, exactly like the materialized struct).
class CanonicalSpScratch {
 public:
  bool reachable(Vertex v) const { return bfs_.visited(v); }
  std::int32_t hops(Vertex v) const { return bfs_.dist(v); }
  std::uint64_t wsum(Vertex v) const {
    return wsum_[static_cast<std::size_t>(v)];
  }
  Vertex parent(Vertex v) const { return bfs_.parent(v); }
  EdgeId parent_edge(Vertex v) const { return bfs_.parent_edge(v); }
  Vertex first_hop(Vertex v) const {
    return first_hop_[static_cast<std::size_t>(v)];
  }
  /// True iff more than one minimal-(hops, wsum) path reaches v: some
  /// vertex on v's canonical path, v included, has two or more admissible
  /// arcs from the previous level that attain its wsum. When false, the
  /// canonical path is the only minimal one, so any rule that picks a
  /// minimal path — whatever its tie-break — picks this one. Only a run
  /// with `track_ties` sets the flags.
  bool tied(Vertex v) const {
    FTB_DCHECK(ties_valid_);
    return tie_[static_cast<std::size_t>(v)] != 0;
  }
  /// Reachable vertices: source first, then level by level ascending by id.
  std::span<const Vertex> order() const { return bfs_.order(); }

 private:
  friend void canonical_sp_run(const Graph&, const EdgeWeights&, Vertex,
                               const BfsBans&, CanonicalSpScratch&,
                               std::int32_t, bool);

  BfsScratch bfs_;
  std::vector<std::uint64_t> wsum_;
  std::vector<Vertex> first_hop_;
  std::vector<std::uint8_t> tie_;
  bool ties_valid_ = false;
};

/// Method-style views over the two canonical-SP realizations, so consumers
/// (the replacement engines) can share one generic body for the reference
/// and the scratch-kernel paths.
struct CanonicalSpRefView {
  const CanonicalSp* sp;
  bool reachable(Vertex v) const { return sp->reachable(v); }
  std::int32_t hops(Vertex v) const {
    return sp->hops[static_cast<std::size_t>(v)];
  }
  std::uint64_t wsum(Vertex v) const {
    return sp->wsum[static_cast<std::size_t>(v)];
  }
  Vertex parent(Vertex v) const {
    return sp->parent[static_cast<std::size_t>(v)];
  }
  EdgeId parent_edge(Vertex v) const {
    return sp->parent_edge[static_cast<std::size_t>(v)];
  }
  Vertex first_hop(Vertex v) const {
    return sp->first_hop[static_cast<std::size_t>(v)];
  }
};

struct CanonicalSpScratchView {
  const CanonicalSpScratch* sp;
  bool reachable(Vertex v) const { return sp->reachable(v); }
  std::int32_t hops(Vertex v) const { return sp->hops(v); }
  std::uint64_t wsum(Vertex v) const { return sp->wsum(v); }
  Vertex parent(Vertex v) const { return sp->parent(v); }
  EdgeId parent_edge(Vertex v) const { return sp->parent_edge(v); }
  Vertex first_hop(Vertex v) const { return sp->first_hop(v); }
};

/// Fused single-pass canonical ((hops, Σw)-lexicographic) shortest paths,
/// bit-identical to canonical_sp() but with zero steady-state allocations
/// and one arc sweep instead of two.
///
/// `depth_limit` truncates the traversal: labels (hops, wsum, parent,
/// parent_edge, first_hop) are complete and reference-identical for every
/// vertex with hops ≤ depth_limit; deeper vertices stay unreached. The
/// replacement engines cap at max_rep_dist − 1 — a detour label beyond that
/// can never be consumed (any candidate using one would need
/// j + hops > max_rep_dist, which no failing edge matches). `track_ties`
/// also sets the `tied` flags, on the same vertices.
void canonical_sp_run(const Graph& g, const EdgeWeights& weights, Vertex src,
                      const BfsBans& bans, CanonicalSpScratch& scratch,
                      std::int32_t depth_limit = kInfHops,
                      bool track_ties = false);

}  // namespace ftb
