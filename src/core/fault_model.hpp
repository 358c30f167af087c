// fault_model.hpp — the fault-model policy layer behind Phase S0.
//
// The paper's companion setting (Parter–Peleg ESA'13) treats edge and
// vertex faults with the same machinery, and every construction in this
// library consumes the same S0 artifacts either way: per-failure distance
// tables, the covered/uncovered classification, and the canonical
// divergence/detour metadata of the uncovered pairs. The two historical
// engines (ReplacementPathEngine for edge faults, VertexReplacementEngine
// for vertex faults) were hand-copied forks of one pipeline differing only
// in a handful of policy decisions. This header makes those decisions an
// explicit, compile-time policy:
//
//   * FaultId            — what fails (EdgeId vs Vertex);
//   * fault enumeration  — which tree sites seed a distance table (every
//                          tree edge, keyed by its lower endpoint, vs every
//                          internal tree vertex);
//   * table seeding      — how dist_sweep / the BFS kernel exclude the
//                          fault (banned edge vs banned-vertex mask);
//   * position range     — which path positions i of π(s,v) = u_0..u_k can
//                          fail (edges: i ∈ [0,k) for (u_i,u_{i+1});
//                          vertices: i ∈ [1,k) for u_i, excluding s and v);
//   * divergence range   — how close to the fault a canonical replacement
//                          path may diverge (edges: j ≤ i; vertices:
//                          j ≤ i−1, strictly above the failed vertex).
//
// FaultReplacementEngine<Model> (declared below, defined once in
// fault_model.cpp) is the single S0 engine; replacement.hpp and
// vertex_ftbfs.hpp alias it for the two models. Its distance plane is a
// ReplacementDistTable<Model> of its own, which is all the serving plane
// (api::Session, DualFaultOracle) holds. A future fault model —
// e.g. the dual-failure setting of the PAPERS.md follow-ups — is a new
// policy struct, not a fork. docs/architecture.md walks through the
// layering.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "src/core/structure.hpp"
#include "src/graph/bfs_tree.hpp"
#include "src/util/thread_pool.hpp"

namespace ftb {

/// An uncovered (new-ending) vertex-edge pair ⟨v,e⟩ ∈ UP with the canonical
/// replacement-path metadata the constructions consume.
struct UncoveredPair {
  Vertex v = kInvalidVertex;   // terminal
  EdgeId e = kInvalidEdge;     // failing edge, e ∈ π(s,v)
  std::int32_t edge_pos = 0;   // e = (u_i, u_{i+1}) with i = edge_pos
  std::int32_t rep_dist = 0;   // dist(s, v, G \ {e})
  Vertex diverge = kInvalidVertex;  // d(P) = u_{j*}
  std::int32_t diverge_depth = 0;   // j*
  EdgeId last_edge = kInvalidEdge;  // LastE(P_{v,e}) ∉ T0, an edge into v
  std::int32_t detour_len = 0;      // |D(P)| in edges
  // Detour vertex list [diverge, ..., v]: slice of the engine's arena.
  std::int64_t detour_begin = 0;
  std::int64_t detour_end = 0;
};

/// An uncovered vertex-fault pair ⟨v, x⟩: terminal v, failing vertex
/// x = u_i internal to π(s,v), whose canonical replacement path ends with
/// a new (non-tree) edge.
struct VertexFaultPair {
  Vertex v = kInvalidVertex;        // terminal
  Vertex x = kInvalidVertex;        // failing vertex, internal to π(s,v)
  std::int32_t x_pos = 0;           // x = u_i with i = x_pos (1 ≤ i ≤ k−1)
  std::int32_t rep_dist = 0;        // dist(s, v, G \ {x})
  Vertex diverge = kInvalidVertex;  // u_{j*}, j* ≤ i−1
  std::int32_t diverge_depth = 0;
  EdgeId last_edge = kInvalidEdge;  // new-ending last edge into v
  std::int32_t detour_len = 0;      // |D(P)| in edges
  // Detour vertex list [diverge, ..., v] (when collected).
  std::int64_t detour_begin = 0;
  std::int64_t detour_end = 0;
};

/// Policy for single EDGE failures (the paper's primary model).
struct EdgeFault {
  using FaultId = EdgeId;
  using Pair = UncoveredPair;
  static constexpr FaultClass kClass = FaultClass::kEdge;
  static constexpr FaultId kNoFault = kInvalidEdge;
  /// First path position that can fail: edge (u_0, u_1) has position 0.
  static constexpr std::int32_t kFirstPos = 0;
  /// A replacement path for the failure at position i diverges at
  /// j ≤ i − kDivergeGap.
  static constexpr std::int32_t kDivergeGap = 0;
  /// Whether the failed site vertex itself must be skipped when filling
  /// distance-table rows over the affected subtree.
  static constexpr bool kSkipFailedSite = false;

  // ---- fault enumeration over the tree ---------------------------------
  // Sites are keyed by non-source preorder vertices u; the edge model's
  // fault at site u is u's parent edge (a bijection onto the tree edges).
  static bool site_active(const BfsTree& t, Vertex u) {
    (void)t;
    (void)u;
    return true;
  }
  static FaultId site_fault(const BfsTree& t, Vertex u) {
    return t.parent_edge(u);
  }

  // ---- pair plumbing ----------------------------------------------------
  static FaultId fault_at(const BfsTree& t, std::span<const Vertex> path,
                          std::int32_t i) {
    return t.parent_edge(path[static_cast<std::size_t>(i) + 1]);
  }
  static FaultId fault_of(const Pair& p) { return p.e; }
  static std::int32_t pos_of(const Pair& p) { return p.edge_pos; }
  static void set_fault(Pair& p, FaultId f, std::int32_t pos) {
    p.e = f;
    p.edge_pos = pos;
  }

  // ---- query-side geometry ----------------------------------------------
  static void validate_query(const BfsTree& t, FaultId f) {
    (void)t;
    (void)f;
  }
  /// The fault destroys the terminal itself (only possible for vertices).
  static bool hits_terminal(Vertex v, FaultId f) {
    (void)v;
    (void)f;
    return false;
  }
  /// The vertex whose subtree's paths π(s,·) contain the fault (its lower
  /// endpoint), or kInvalidVertex for a non-tree edge.
  static Vertex path_anchor(const BfsTree& t, FaultId f) {
    return t.is_tree_edge(f) ? t.lower_endpoint(f) : kInvalidVertex;
  }
  /// True iff the fault lies on π(s,v) — i.e. v has a stored table row.
  static bool on_path(const BfsTree& t, FaultId f, Vertex v) {
    return t.is_tree_edge(f) && t.on_source_path(f, v);
  }
  /// Path position of the fault (valid when on_path).
  static std::int32_t fault_pos(const BfsTree& t, FaultId f) {
    return t.edge_depth(f) - 1;
  }

  // ---- traversal bans ----------------------------------------------------
  static void ban(FaultId f, BfsBans& bans, std::vector<std::uint8_t>& mask,
                  std::size_t n) {
    (void)mask;
    (void)n;
    bans.banned_edge = f;
  }
  static void unban(FaultId f, std::vector<std::uint8_t>& mask) {
    (void)f;
    (void)mask;
  }
  static EdgeId sweep_banned_edge(FaultId f) { return f; }
  static Vertex sweep_banned_vertex(FaultId f) {
    (void)f;
    return kInvalidVertex;
  }
};

/// Policy for single VERTEX failures (the companion ESA'13 setting).
struct VertexFault {
  using FaultId = Vertex;
  using Pair = VertexFaultPair;
  static constexpr FaultClass kClass = FaultClass::kVertex;
  static constexpr FaultId kNoFault = kInvalidVertex;
  /// Failing vertices are internal to π(s,v): positions i ∈ [1, k).
  static constexpr std::int32_t kFirstPos = 1;
  /// Divergence sits strictly above the failed vertex: j ≤ i − 1.
  static constexpr std::int32_t kDivergeGap = 1;
  /// subtree(x) contains x itself, whose own row does not exist.
  static constexpr bool kSkipFailedSite = true;

  // ---- fault enumeration over the tree ---------------------------------
  // Site u fails as itself; only internal vertices (with strict
  // descendants) seed a table.
  static bool site_active(const BfsTree& t, Vertex u) {
    return t.subtree_size(u) > 1;
  }
  static FaultId site_fault(const BfsTree& t, Vertex u) {
    (void)t;
    return u;
  }

  // ---- pair plumbing ----------------------------------------------------
  static FaultId fault_at(const BfsTree& t, std::span<const Vertex> path,
                          std::int32_t i) {
    (void)t;
    return path[static_cast<std::size_t>(i)];
  }
  static FaultId fault_of(const Pair& p) { return p.x; }
  static std::int32_t pos_of(const Pair& p) { return p.x_pos; }
  static void set_fault(Pair& p, FaultId f, std::int32_t pos) {
    p.x = f;
    p.x_pos = pos;
  }

  // ---- query-side geometry ----------------------------------------------
  static void validate_query(const BfsTree& t, FaultId f) {
    FTB_CHECK_MSG(f != t.source(), "the source never fails");
  }
  static bool hits_terminal(Vertex v, FaultId f) { return v == f; }
  static Vertex path_anchor(const BfsTree& t, FaultId f) {
    return t.reachable(f) ? f : kInvalidVertex;
  }
  static bool on_path(const BfsTree& t, FaultId f, Vertex v) {
    return t.reachable(f) && t.is_ancestor_or_equal(f, v);
  }
  static std::int32_t fault_pos(const BfsTree& t, FaultId f) {
    return t.depth(f);
  }

  // ---- traversal bans ----------------------------------------------------
  static void ban(FaultId f, BfsBans& bans, std::vector<std::uint8_t>& mask,
                  std::size_t n) {
    if (mask.size() < n) mask.assign(n, 0);
    mask[static_cast<std::size_t>(f)] = 1;
    bans.banned_vertex = &mask;
  }
  static void unban(FaultId f, std::vector<std::uint8_t>& mask) {
    mask[static_cast<std::size_t>(f)] = 0;
  }
  static EdgeId sweep_banned_edge(FaultId f) {
    (void)f;
    return kInvalidEdge;
  }
  static Vertex sweep_banned_vertex(FaultId f) { return f; }
};

/// One fault resolved for ReplacementDistTable::replacement_dist: its
/// path position and the preorder interval [tin, tout) of the subtree
/// whose paths π(s,v) contain it (empty when no path does). Queries
/// naming the same fault resolve it once; each then pays only for its own
/// vertex's reads.
struct ResolvedFault {
  std::int32_t fault = -1;
  std::int32_t tin = 0, tout = 0;
  std::int32_t row = 0;  // path position − the model's kFirstPos
};

/// The S0 distance plane alone: dist(s, v, G \ {fault}) for every vertex
/// v and every fault, with one replacement-distance computation per fault
/// site and rows stored only for the vertices below the fault (pairs with
/// the fault on π(s,v)). This is everything a served single-fault answer
/// reads; the covered/uncovered classification and the detours are inputs
/// to construction only and live in FaultReplacementEngine, which composes
/// one table. Immutable after construction.
template <class Model>
class ReplacementDistTable {
 public:
  using FaultId = typename Model::FaultId;

  struct Config {
    /// Worker pool; nullptr = ThreadPool::global().
    ThreadPool* pool = nullptr;
    /// Run the naive reference kernels (one full queue BFS per fault,
    /// materializing two-pass canonical SP per vertex) instead of the
    /// scratch-arena kernels. Differential-testing / bench baseline; the
    /// produced tables and pairs are bit-identical either way.
    bool reference_kernel = false;
    /// Distance tables via the subtree-seeded replacement sweep
    /// (dist_sweep.hpp) instead of one full kernel BFS per fault site.
    /// Ignored under reference_kernel.
    bool incremental_dist = true;
    /// Ambient first failure: the table then answers for the PUNCTURED
    /// graph G \ {ambient} — every row (and, in the engine, every covered
    /// test and canonical detour) excludes the ambient element on top of
    /// the model's own fault. At most one of the two may be set, and the
    /// `tree` handed to the constructor must be the canonical tree of the
    /// same punctured graph (BfsTree's bans overload). This is how the
    /// dual-failure pipeline (dual_fault.hpp) reuses the single-fault
    /// engine once per first failure. Defaults reproduce the single-fault
    /// engine bit-identically.
    EdgeId ambient_banned_edge = kInvalidEdge;
    Vertex ambient_banned_vertex = kInvalidVertex;
    /// Restrict the pair plane to these terminals (empty = every vertex,
    /// the full engine). The set must be closed under `tree`'s children
    /// relation — a subtree slice qualifies, and so does a T0-subtree
    /// handed to the rebased punctured tree (re-parented vertices stay
    /// below the fault) — since the covered test reads the tree-neighbor
    /// rows of every terminal. With a restriction the table allocates rows
    /// only for the terminals and their parents and runs sweeps only for
    /// fault sites with a restricted terminal in their subtree (their
    /// ancestors-or-selves), and the engine enumerates/classifies pairs
    /// only for the listed terminals, so a build costs the restricted
    /// set's tree volume (ancestor sweeps included) instead of the whole
    /// graph. uncovered_pairs() then holds exactly the full engine's pairs
    /// whose terminal is listed, and replacement_dist() is valid only for
    /// listed terminals. This is the incremental-rebase entry point of the
    /// dual-failure pipeline: per first-failure site it hands the engine
    /// the rebased punctured tree (rebase_punctured_tree) plus the affected
    /// subtree as the terminal set. The span is read during construction
    /// only.
    std::span<const Vertex> restrict_terminals = {};
  };

  explicit ReplacementDistTable(const BfsTree& tree)
      : ReplacementDistTable(tree, Config()) {}
  ReplacementDistTable(const BfsTree& tree, const Config& cfg);

  const BfsTree& tree() const { return *tree_; }

  /// dist(s, v | fault) for any vertex v and any fault. O(1):
  ///  * fault not on π(s,v)  → dist(s,v,G) (π survives);
  ///  * fault ∈ π(s,v)       → stored table row;
  ///  * disconnected / fault destroys v itself → kInfHops.
  /// Vertex model only: the source never fails (CheckError).
  std::int32_t replacement_dist(Vertex v, FaultId fault) const;
  /// The fault's share of replacement_dist(), for many queries on one
  /// fault; throws like it.
  ResolvedFault resolve(FaultId fault) const {
    Model::validate_query(*tree_, fault);
    ResolvedFault r;
    r.fault = fault;
    const Vertex a = Model::path_anchor(*tree_, fault);
    if (a != kInvalidVertex) {
      r.tin = tree_->tin(a);
      r.tout = tree_->tout(a);
      r.row = Model::fault_pos(*tree_, fault) - Model::kFirstPos;
    }
    return r;
  }
  /// replacement_dist(v, fault) for the fault resolve(fault) returned.
  /// Which side of the fault v lies on is selected, not branched on, so
  /// every v costs the same: a branch there mispredicts on about half the
  /// vertices of a fault high in the tree, which made a run of queries on
  /// such a fault cost up to twice as much as a run on a low one.
  std::int32_t replacement_dist(Vertex v, const ResolvedFault& f) const {
    if (!tree_->reachable(v)) return kInfHops;
    if (Model::hits_terminal(v, f.fault)) return kInfHops;
    // Only a vertex below some fault has rows; with none, none is below.
    if (rows_.empty()) return tree_->depth(v);
    const auto vi = static_cast<std::size_t>(v);
    const bool below = static_cast<std::uint32_t>(tree_->tin(v) - f.tin) <
                       static_cast<std::uint32_t>(f.tout - f.tin);
    const std::int32_t stored = rows_[static_cast<std::size_t>(
        below ? row_offset_[vi] + f.row : 0)];
    return below ? stored : tree_->depth(v);  // off the path, π(s,v) survives
  }

  /// Stored row: the fault at path position `pos` of π(s,v), which must
  /// lie in [Model::kFirstPos, depth(v)).
  std::int32_t row(Vertex v, std::int32_t pos) const {
    return rows_[static_cast<std::size_t>(
        row_offset_[static_cast<std::size_t>(v)] + (pos - Model::kFirstPos))];
  }

  /// Stored rows: every ⟨v, fault⟩ with fault ∈ π(s,v) (of the listed
  /// terminals and their parents, under a restriction).
  std::int64_t num_rows() const {
    return static_cast<std::int64_t>(rows_.size());
  }

 private:
  const BfsTree* tree_;
  // The fault at path position i of π(s,v) lives at
  // rows_[row_offset_[v] + i − Model::kFirstPos].
  std::vector<std::int64_t> row_offset_;  // per vertex
  std::vector<std::int32_t> rows_;        // Σ_v (depth(v) − kFirstPos) rows
};

/// The single S0 engine, generic over the fault model. Construct once per
/// (graph, source, weights); every construction reads from it.
///
/// Engine realization (see replacement.hpp's file comment and
/// docs/architecture.md § Detours for the equivalence argument; everything
/// below holds verbatim for both models with the policy hooks substituted):
///   * the distance plane is one ReplacementDistTable, built first;
///   * the covered test for ⟨v,fault⟩ reduces to: some T0-neighbor u of v,
///     not destroyed by the fault, with dist_f(u) + 1 = dist_f(v);
///   * for every divergence candidate u_j of a terminal with uncovered
///     pairs, the best detour length detlen(j) through the off-path graph
///     H_v = G \ (V(π(s,v)) \ {v}) and its canonical last edge; the
///     divergence point of the pair at position i is u_{j*} with
///     j* = min{ j ≤ i − kDivergeGap : j + detlen(j) = dist_f(v) }.
///     Siblings share H_v, so a sibling group whose per-terminal sweeps
///     would provably cost more is served by one capped sweep per
///     divergence vertex u_j (and a rank split of the parent's arcs for
///     j = k−1); any other terminal — and any group member whose label is
///     tied — by one capped canonical BFS from v in H_v.
/// The distance plane and the per-terminal sweeps run on the thread pool,
/// shared groups on the calling thread.
template <class Model>
class FaultReplacementEngine {
 public:
  using FaultId = typename Model::FaultId;
  using Pair = typename Model::Pair;

  /// The table's knobs (pool, kernels, ambient ban, terminal restriction)
  /// drive both planes.
  struct Config : ReplacementDistTable<Model>::Config {
    /// Record detour vertex lists (needed by the interference machinery of
    /// the ε algorithm and by replacement_path(); the ESA'13 baselines can
    /// skip them).
    bool collect_detours = true;
  };

  explicit FaultReplacementEngine(const BfsTree& tree)
      : FaultReplacementEngine(tree, Config()) {}
  FaultReplacementEngine(const BfsTree& tree, Config cfg);

  const BfsTree& tree() const { return table_.tree(); }
  const Graph& graph() const { return tree().graph(); }

  /// dist(s, v, G \ {fault}); see ReplacementDistTable::replacement_dist.
  std::int32_t replacement_dist(Vertex v, FaultId fault) const {
    return table_.replacement_dist(v, fault);
  }

  /// All uncovered pairs, grouped by terminal v and ordered by increasing
  /// fault position within each terminal.
  const std::vector<Pair>& uncovered_pairs() const { return pairs_; }

  /// Indices (into uncovered_pairs()) of v's pairs.
  std::span<const std::int32_t> uncovered_of(Vertex v) const;

  /// The detour D(P) = [diverge, ..., v] of an uncovered pair.
  /// Requires Config::collect_detours.
  std::span<const Vertex> detour(const Pair& p) const;

  /// True iff pair ⟨v,fault⟩ has a replacement path whose last edge is in
  /// T0 (the paper's G'(v) test). Preconditions: fault ∈ π(s,v), finite
  /// replacement distance.
  bool covered(Vertex v, FaultId fault) const;

  /// Reconstructs a full canonical replacement path [s, ..., v] for any
  /// pair with finite replacement distance. For uncovered pairs this is
  /// π(s, u_{j*}) ∘ D(P) from stored metadata (requires collect_detours);
  /// for covered pairs it runs a fresh canonical BFS in G'(v) minus the
  /// fault (O(m); intended for tests/queries).
  std::vector<Vertex> replacement_path(Vertex v, FaultId fault) const;

  struct Stats {
    std::int64_t pairs_total = 0;      // all ⟨v,fault⟩ with fault ∈ π(s,v)
    std::int64_t pairs_infinite = 0;   // disconnecting failures
    std::int64_t pairs_covered = 0;
    std::int64_t pairs_uncovered = 0;
    std::int64_t detour_vertices = 0;  // arena size
    // Detour work: every capped canonical sweep the detour phase ran.
    std::int64_t forward_sweeps = 0;    // one per terminal, from v
    std::int64_t shared_sweeps = 0;     // sibling groups', from u_j or p
    std::int64_t shared_terminals = 0;  // pairs taken from shared sweeps
    std::int64_t tie_fallbacks = 0;     // group members re-served forward
    double seconds_dist_tables = 0;
    double seconds_detours = 0;
  };
  const Stats& stats() const { return stats_; }

 private:
  void build_pairs(ThreadPool& pool);

  Config cfg_;
  Stats stats_;  // before table_: its initializer records the table time
  ReplacementDistTable<Model> table_;

  std::vector<Pair> pairs_;
  std::vector<std::int64_t> pairs_offset_;  // per vertex, into pair_ids_
  std::vector<std::int32_t> pair_ids_;      // pair indices grouped by v
  std::vector<Vertex> detour_arena_;
};

// The two instantiations of each live in fault_model.cpp.
extern template class ReplacementDistTable<EdgeFault>;
extern template class ReplacementDistTable<VertexFault>;
extern template class FaultReplacementEngine<EdgeFault>;
extern template class FaultReplacementEngine<VertexFault>;

}  // namespace ftb
