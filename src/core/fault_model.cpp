// fault_model.cpp — the single S0 engine body, instantiated once per fault
// model. This is the file the two historical engines (replacement.cpp and
// the engine half of vertex_ftbfs.cpp) collapsed into; the policy hooks in
// fault_model.hpp are the only thing that differs between the models.
#include "src/core/fault_model.hpp"

#include <algorithm>
#include <numeric>
#include <span>

#include "src/core/dist_sweep.hpp"
#include "src/graph/bfs_kernel.hpp"
#include "src/util/timer.hpp"

namespace ftb {

namespace {

/// Per-divergence-candidate detour summary (see build_pairs).
struct DetourCandidate {
  std::int32_t hops = kInfHops;      // detour length from u_j to v
  std::uint64_t wsum = 0;            // tie-break weight of the detour
  Vertex entry = kInvalidVertex;     // last vertex before v
  EdgeId last_edge = kInvalidEdge;   // edge (entry, v)
  Vertex via = kInvalidVertex;       // first off-path vertex (v for direct)
  EdgeId first_edge = kInvalidEdge;  // edge (u_j, via)

  bool valid() const { return hops < kInfHops; }

  /// Lexicographic (hops, wsum, entry, last_edge) order; fully
  /// deterministic even under weight collisions.
  bool better_than(const DetourCandidate& o) const {
    if (hops != o.hops) return hops < o.hops;
    if (wsum != o.wsum) return wsum < o.wsum;
    if (entry != o.entry) return entry < o.entry;
    return last_edge < o.last_edge;
  }
};

/// A restricted table's two vertex sets (see its constructor), per thread
/// and epoch-stamped: a vertex is in a set iff its stamp equals `epoch`, so
/// starting a table costs O(1) instead of two n-sized fills.
struct RestrictionMarks {
  std::vector<std::uint32_t> row, site;
  std::uint32_t epoch = 0;

  void reset(std::size_t n) {
    if (row.size() < n) {
      row.assign(n, 0);
      site.assign(n, 0);
      epoch = 0;
    }
    if (++epoch == 0) {
      std::fill(row.begin(), row.end(), 0);
      std::fill(site.begin(), site.end(), 0);
      epoch = 1;
    }
  }
};

/// Builds `cfg`'s table over `tree`, writing its wall time to `*seconds`.
template <class Model>
ReplacementDistTable<Model> timed_table(
    const BfsTree& tree,
    const typename ReplacementDistTable<Model>::Config& cfg, double* seconds) {
  Timer t;
  ReplacementDistTable<Model> table(tree, cfg);
  *seconds = t.seconds();
  return table;
}

}  // namespace

template <class Model>
ReplacementDistTable<Model>::ReplacementDistTable(const BfsTree& tree,
                                                  const Config& cfg)
    : tree_(&tree) {
  // Ambient-failure preconditions: at most one punctured element, and the
  // tree must actually be the canonical tree of that punctured graph —
  // otherwise every table row would answer for a different G'.
  FTB_CHECK_MSG(cfg.ambient_banned_edge == kInvalidEdge ||
                    cfg.ambient_banned_vertex == kInvalidVertex,
                "at most one ambient failure per engine");
  FTB_CHECK_MSG(cfg.ambient_banned_vertex == kInvalidVertex ||
                    !tree.reachable(cfg.ambient_banned_vertex),
                "ambient vertex is reachable — the tree is not the "
                "punctured graph's canonical tree");
  FTB_CHECK_MSG(cfg.ambient_banned_edge == kInvalidEdge ||
                    !tree.is_tree_edge(cfg.ambient_banned_edge),
                "ambient edge is a tree edge — the tree is not the "
                "punctured graph's canonical tree");
  ThreadPool& pool = cfg.pool != nullptr ? *cfg.pool : ThreadPool::global();
  const Graph& g = tree.graph();
  const std::size_t n = static_cast<std::size_t>(g.num_vertices());

  // Terminal restriction:
  //  * row set — vertices whose table rows the restricted classification
  //    reads: the terminals themselves plus their tree parents (children of
  //    a restricted terminal are restricted too — the span is a subtree
  //    slice). Everyone else gets a ZERO-row allocation, so the table costs
  //    the restriction's volume, not Σ_v depth(v).
  //  * site set — fault sites with a restricted terminal in their subtree
  //    (the terminals' ancestors-or-selves): the only sweeps whose rows
  //    anyone reads, collected by path walks below.
  // Both sets are marked on this thread's RestrictionMarks. The pool's
  // workers read them below through `marks`, which names this thread's
  // instance; it is not reused before this constructor returns.
  const bool restricted = !cfg.restrict_terminals.empty();
  thread_local RestrictionMarks thread_marks;
  RestrictionMarks* const marks = restricted ? &thread_marks : nullptr;
  std::vector<Vertex> row_vertices;  // restricted: exactly the row set
  std::vector<Vertex> sweep_sites;   // restricted: exactly the site set
  if (restricted) {
    marks->reset(n);
    const std::uint32_t epoch = marks->epoch;
    const auto need_row = [&](Vertex v) {
      std::uint32_t& stamp = marks->row[static_cast<std::size_t>(v)];
      if (stamp == epoch) return;
      stamp = epoch;
      row_vertices.push_back(v);
    };
    for (const Vertex v : cfg.restrict_terminals) {
      if (!tree_->reachable(v)) continue;
      need_row(v);
      const Vertex p = tree_->parent(v);
      if (p != kInvalidVertex) need_row(p);
      // Collect the terminal's tree path to the source, stopping at the
      // first vertex a previous walk already claimed: the union of the
      // walks is exactly the ancestor-or-equal closure of the terminals —
      // the only sweep sites whose rows anyone reads — and its total cost
      // is the closure's size, not an O(n) reverse-preorder sweep. That
      // keeps a restricted engine's site scan at the restriction's volume
      // (the pruned dual build constructs two engines per first-failure
      // site, so an O(n) scan here turns the whole build quadratic).
      for (Vertex u = v;
           u != kInvalidVertex &&
           marks->site[static_cast<std::size_t>(u)] != epoch;
           u = tree_->parent(u)) {
        marks->site[static_cast<std::size_t>(u)] = epoch;
        sweep_sites.push_back(u);
      }
    }
  }

  // Row v holds the failures of the positions [kFirstPos, depth(v)) of
  // π(s,v) — depth(v) rows for edge faults, depth(v)−1 for vertex faults
  // (the source and the terminal itself never seed a row).
  const auto row_count = [&](Vertex v) {
    const std::int32_t d = tree_->depth(v);
    return d >= kInfHops ? 0
                         : std::max<std::int32_t>(0, d - Model::kFirstPos);
  };
  row_offset_.assign(n + 1, 0);
  if (!restricted) {
    for (std::size_t v = 0; v < n; ++v) {
      row_offset_[v + 1] = row_count(static_cast<Vertex>(v));
    }
  } else {
    // Only the restriction's rows are allocated; everyone else keeps a
    // zero-row slot through the shared prefix-sum below.
    for (const Vertex v : row_vertices) {
      row_offset_[static_cast<std::size_t>(v) + 1] = row_count(v);
    }
  }
  for (std::size_t v = 0; v < n; ++v) row_offset_[v + 1] += row_offset_[v];
  rows_.assign(static_cast<std::size_t>(row_offset_[n]), kInfHops);

  // One replacement-distance computation per fault site; fill the row slot
  // of every vertex below the fault. Sites are the non-source preorder
  // vertices u: the edge model fails u's parent edge, the vertex model
  // fails u itself (skipping leaves, which have no strict descendants).
  // Rows of different faults write disjoint slots, so the loop is safely
  // parallel. The per-thread scratch arenas make a steady-state iteration
  // allocation-free.
  const std::span<const Vertex> sites =
      restricted ? std::span<const Vertex>(sweep_sites) : tree_->preorder();
  pool.parallel_for(sites.size(), [&](std::size_t idx) {
    const Vertex u = sites[idx];
    if (u == tree_->source()) return;
    if (!Model::site_active(*tree_, u)) return;
    const FaultId fault = Model::site_fault(*tree_, u);
    const std::int32_t row = tree_->depth(u) - 1;  // == pos − kFirstPos
    const auto affected = tree_->subtree(u);
    auto row_slot = [&](Vertex v) -> std::int32_t& {
      return rows_[static_cast<std::size_t>(
          row_offset_[static_cast<std::size_t>(v)] + row)];
    };
    // Vertices without an allocated row (restriction) must not be written.
    const auto has_row = [&](Vertex v) {
      return marks == nullptr ||
             marks->row[static_cast<std::size_t>(v)] == marks->epoch;
    };
    if (cfg.reference_kernel) {
      thread_local std::vector<std::uint8_t> mask;
      BfsBans bans;
      Model::ban(fault, bans, mask, n);
      bans.banned_edge2 = cfg.ambient_banned_edge;
      bans.banned_vertex_one = cfg.ambient_banned_vertex;
      const BfsResult res = plain_bfs_reference(g, tree_->source(), bans);
      for (const Vertex v : affected) {
        if (Model::kSkipFailedSite && v == u) continue;
        if (!has_row(v)) continue;
        row_slot(v) = res.dist[static_cast<std::size_t>(v)];
      }
      Model::unban(fault, mask);
    } else if (cfg.incremental_dist) {
      thread_local ReplacementSweepScratch sweep;
      replacement_dist_sweep(*tree_, Model::sweep_banned_edge(fault),
                             Model::sweep_banned_vertex(fault), affected,
                             sweep, cfg.ambient_banned_edge,
                             cfg.ambient_banned_vertex);
      for (const Vertex v : affected) {
        if (Model::kSkipFailedSite && v == u) continue;
        if (!has_row(v)) continue;
        row_slot(v) = sweep.dist(v);
      }
    } else {
      thread_local std::vector<std::uint8_t> mask;
      thread_local BfsScratch scratch;
      BfsBans bans;
      Model::ban(fault, bans, mask, n);
      bans.banned_edge2 = cfg.ambient_banned_edge;
      bans.banned_vertex_one = cfg.ambient_banned_vertex;
      bfs_run(g, tree_->source(), bans, scratch);
      for (const Vertex v : affected) {
        if (Model::kSkipFailedSite && v == u) continue;
        if (!has_row(v)) continue;
        row_slot(v) = scratch.dist(v);
      }
      Model::unban(fault, mask);
    }
  });
}

template <class Model>
std::int32_t ReplacementDistTable<Model>::replacement_dist(
    Vertex v, FaultId fault) const {
  Model::validate_query(*tree_, fault);
  if (!tree_->reachable(v)) return kInfHops;
  if (Model::hits_terminal(v, fault)) return kInfHops;
  if (!Model::on_path(*tree_, fault, v)) {
    return tree_->depth(v);  // π(s,v) survives the failure
  }
  return row(v, Model::fault_pos(*tree_, fault));
}

template <class Model>
FaultReplacementEngine<Model>::FaultReplacementEngine(const BfsTree& tree,
                                                      Config cfg)
    : cfg_(cfg),
      table_(timed_table<Model>(tree, cfg_, &stats_.seconds_dist_tables)) {
  stats_.pairs_total = table_.num_rows();
  ThreadPool& pool = cfg_.pool != nullptr ? *cfg_.pool : ThreadPool::global();
  Timer t;
  build_pairs(pool);
  stats_.seconds_detours = t.seconds();
}

namespace {

/// Shared per-vertex computation result before flattening.
template <class Pair>
struct VertexPairs {
  std::vector<Pair> pairs;             // ordered by fault position
  std::vector<Vertex> detour_storage;  // concatenated detours
  std::int64_t covered = 0;
  std::int64_t infinite = 0;
};

}  // namespace

template <class Model>
void FaultReplacementEngine<Model>::build_pairs(ThreadPool& pool) {
  const Graph& g = graph();
  const EdgeWeights& W = tree().weights();
  const std::size_t n = static_cast<std::size_t>(g.num_vertices());

  // Restricted engines size every per-terminal structure by the
  // restriction, not by n — the pruned dual build constructs two engines
  // per first-failure site, so any O(n) term here multiplies into an
  // O(n²) floor for the whole build.
  const std::span<const Vertex> restricted = cfg_.restrict_terminals;
  const bool restrict_mode = !restricted.empty();
  const std::size_t terminal_count = restrict_mode ? restricted.size() : n;

  std::vector<VertexPairs<Pair>> per_vertex(terminal_count);

  // Pre-classification: covered / infinite tests touch only the phase-1
  // distance tables, so they run before (and usually instead of) the
  // per-vertex off-path BFS — a vertex whose pairs are all covered or
  // disconnecting skips the O(n + m) canonical traversal entirely.
  auto classify = [&](Vertex v, std::int32_t k, VertexPairs<Pair>& out,
                      std::vector<std::int32_t>& uncovered_pos) {
    uncovered_pos.clear();
    for (std::int32_t i = Model::kFirstPos; i < k; ++i) {
      const std::int32_t rd = table_.row(v, i);
      if (rd >= kInfHops) {
        ++out.infinite;
        continue;
      }
      // Covered test: some surviving T0-neighbor u of v with
      // dist_f(u) + 1 == dist_f(v). The parent row exists (and the parent
      // survives) exactly when the fault sits strictly above position k−1
      // — for edges that means the fault is not v's parent edge, for
      // vertices that it is not the parent itself.
      bool is_covered = false;
      const Vertex parent = tree().parent(v);
      if (parent != kInvalidVertex && i + 1 < k) {
        if (table_.row(parent, i) + 1 == rd) is_covered = true;
      }
      if (!is_covered) {
        for (const Vertex c : tree().children(v)) {
          if (table_.row(c, i) + 1 == rd) {
            is_covered = true;
            break;
          }
        }
      }
      if (is_covered) {
        ++out.covered;
      } else {
        uncovered_pos.push_back(i);
      }
    }
  };

  // The per-vertex detour body, generic over the canonical-SP view
  // (reference or scratch kernel) so both code paths share one
  // implementation.
  auto process = [&](Vertex v, VertexPairs<Pair>& out,
                     const std::vector<Vertex>& path,
                     const std::vector<std::uint8_t>& banned,
                     const std::vector<std::int32_t>& uncovered_pos,
                     const auto& dv) {
    // detlen(j): cheapest detour from u_j to v through off-path space,
    // excluding the tree edge (u_{k-1}, v) (which can only be proposed when
    // it is itself the failing edge; see DESIGN.md — and which is
    // unreachable anyway for vertex faults, where j ≤ i−1 ≤ k−2).
    // Candidates are only ever consumed at divergence depths ≤
    // max_diverge(deepest uncovered position).
    const std::int32_t jmax = uncovered_pos.back() - Model::kDivergeGap;
    const EdgeId parent_e = tree().parent_edge(v);
    thread_local std::vector<DetourCandidate> det;
    det.assign(static_cast<std::size_t>(jmax) + 1, DetourCandidate{});
    for (std::int32_t j = 0; j <= jmax; ++j) {
      DetourCandidate& best = det[static_cast<std::size_t>(j)];
      const Vertex uj = path[static_cast<std::size_t>(j)];
      for (const Arc& a : g.neighbors(uj)) {
        // Punctured-graph mode: the ambient element exists in G's CSR but
        // not in G', so its arcs are never detour candidates.
        if (a.edge == cfg_.ambient_banned_edge) continue;
        if (a.to == cfg_.ambient_banned_vertex) continue;
        DetourCandidate cand;
        if (a.to == v) {
          if (a.edge == parent_e) continue;  // never a detour edge
          cand.hops = 1;
          cand.wsum = W[a.edge];
          cand.entry = uj;
          cand.last_edge = a.edge;
          cand.via = v;
          cand.first_edge = a.edge;
        } else {
          if (banned[static_cast<std::size_t>(a.to)]) continue;  // on path
          if (!dv.reachable(a.to)) continue;
          cand.hops = 1 + dv.hops(a.to);
          cand.wsum = W[a.edge] + dv.wsum(a.to);
          // dv is rooted at v, so first_hop(a.to) is the vertex adjacent to
          // v on the canonical v→a.to path — i.e. the entry point of the
          // reversed detour, and its parent edge is the edge into v.
          cand.entry = dv.first_hop(a.to);
          cand.last_edge = dv.parent_edge(cand.entry);
          cand.via = a.to;
          cand.first_edge = a.edge;
        }
        if (!best.valid() || cand.better_than(best)) best = cand;
      }
    }

    // Positions ascending for the deterministic pair order (classification
    // already filtered the covered / disconnecting ones).
    for (const std::int32_t i : uncovered_pos) {
      const std::int32_t rd = table_.row(v, i);

      // New-ending pair: divergence point as close to s as possible.
      std::int32_t jstar = -1;
      for (std::int32_t j = 0; j <= i - Model::kDivergeGap; ++j) {
        const DetourCandidate& c = det[static_cast<std::size_t>(j)];
        if (c.valid() && j + c.hops == rd) {
          jstar = j;
          break;
        }
      }
      FTB_CHECK_MSG(jstar >= 0,
                    "engine invariant violated: no divergence point matches "
                    "replacement distance (v="
                        << v << ", pos=" << i << ", rd=" << rd << ")");
      const DetourCandidate& c = det[static_cast<std::size_t>(jstar)];

      Pair p;
      p.v = v;
      Model::set_fault(p, Model::fault_at(tree(), path, i), i);
      p.rep_dist = rd;
      p.diverge = path[static_cast<std::size_t>(jstar)];
      p.diverge_depth = jstar;
      p.last_edge = c.last_edge;
      p.detour_len = c.hops;
      FTB_DCHECK(p.last_edge != kInvalidEdge);

      if (cfg_.collect_detours) {
        p.detour_begin = static_cast<std::int64_t>(out.detour_storage.size());
        out.detour_storage.push_back(p.diverge);
        if (c.via == v) {
          out.detour_storage.push_back(v);
        } else {
          for (Vertex w = c.via; w != v; w = dv.parent(w)) {
            out.detour_storage.push_back(w);
          }
          out.detour_storage.push_back(v);
        }
        p.detour_end = static_cast<std::int64_t>(out.detour_storage.size());
        FTB_DCHECK(p.detour_end - p.detour_begin ==
                   static_cast<std::int64_t>(p.detour_len) + 1);
      }
      out.pairs.push_back(p);
    }
  };

  // Terminal restriction: only the listed terminals get classified and
  // (when uncovered) pay an off-path traversal; per_vertex is indexed by
  // position in the restriction (or by vertex id when unrestricted) and
  // the flatten below re-establishes ascending vertex id.
  pool.parallel_for(terminal_count, [&](std::size_t ti) {
    const Vertex v = restrict_mode ? restricted[ti] : static_cast<Vertex>(ti);
    const std::int32_t k = tree().depth(v);
    // No failing positions: source/too-shallow or unreachable terminals.
    if (k <= Model::kFirstPos || k >= kInfHops) return;
    VertexPairs<Pair>& out = per_vertex[ti];

    // π(s,v) = u_0..u_k into a reusable buffer.
    thread_local std::vector<Vertex> path;
    path.clear();
    for (Vertex u = v; u != kInvalidVertex; u = tree().parent(u)) {
      path.push_back(u);
    }
    std::reverse(path.begin(), path.end());

    thread_local std::vector<std::int32_t> uncovered_pos;
    if (!cfg_.reference_kernel) {
      classify(v, k, out, uncovered_pos);
      if (uncovered_pos.empty()) return;  // no off-path BFS needed
    }

    // Off-path graph H_v = G \ (V(π(s,v)) \ {v}). The mask is reused
    // across calls; only the O(k) touched entries are reset below.
    thread_local std::vector<std::uint8_t> banned;
    if (banned.size() < n) banned.assign(n, 0);
    for (std::int32_t j = 0; j < k; ++j) {
      banned[static_cast<std::size_t>(path[static_cast<std::size_t>(j)])] = 1;
    }
    BfsBans bans;
    bans.banned_vertex = &banned;
    bans.banned_edge2 = cfg_.ambient_banned_edge;
    bans.banned_vertex_one = cfg_.ambient_banned_vertex;

    if (cfg_.reference_kernel) {
      // Seed pipeline order: one unconditional off-path BFS per vertex.
      const CanonicalSp dv = canonical_sp(g, W, v, bans);
      classify(v, k, out, uncovered_pos);
      if (!uncovered_pos.empty()) {
        process(v, out, path, banned, uncovered_pos, CanonicalSpRefView{&dv});
      }
    } else {
      // Detour labels beyond max_rd − 1 hops can never match a failing
      // fault's replacement distance, so the off-path traversal is capped
      // there (see canonical_sp_run).
      std::int32_t max_rd = 0;
      for (const std::int32_t i : uncovered_pos) {
        max_rd = std::max(max_rd, table_.row(v, i));
      }
      thread_local CanonicalSpScratch sps;
      canonical_sp_run(g, W, v, bans, sps, max_rd - 1);
      process(v, out, path, banned, uncovered_pos,
              CanonicalSpScratchView{&sps});
    }

    // Reset the thread-local mask for the next vertex on this thread.
    for (std::int32_t j = 0; j < k; ++j) {
      banned[static_cast<std::size_t>(path[static_cast<std::size_t>(j)])] = 0;
    }
  });

  // Deterministic flatten: vertices in ascending id order, pairs already
  // position-ordered within each vertex. A restricted engine visits only
  // its terminals (sorted into id order here — the restriction span is a
  // preorder slice, not id-sorted); the per-vertex CSR then costs one
  // prefix-sum over plain ints instead of an O(n) vector-of-vectors walk.
  std::vector<std::uint32_t> flatten_order;
  if (restrict_mode) {
    flatten_order.resize(terminal_count);
    std::iota(flatten_order.begin(), flatten_order.end(), 0u);
    std::sort(flatten_order.begin(), flatten_order.end(),
              [&](std::uint32_t a, std::uint32_t b) {
                return restricted[a] < restricted[b];
              });
  }
  pairs_.clear();
  pair_ids_.clear();
  detour_arena_.clear();
  pairs_offset_.assign(n + 1, 0);
  for (std::size_t t = 0; t < terminal_count; ++t) {
    const std::size_t slot = restrict_mode ? flatten_order[t] : t;
    const std::size_t vi = static_cast<std::size_t>(
        restrict_mode ? restricted[slot] : static_cast<Vertex>(t));
    const VertexPairs<Pair>& src = per_vertex[slot];
    stats_.pairs_covered += src.covered;
    stats_.pairs_infinite += src.infinite;
    const std::int64_t arena_base =
        static_cast<std::int64_t>(detour_arena_.size());
    for (Pair p : src.pairs) {
      p.detour_begin += arena_base;
      p.detour_end += arena_base;
      pair_ids_.push_back(static_cast<std::int32_t>(pairs_.size()));
      pairs_.push_back(p);
    }
    detour_arena_.insert(detour_arena_.end(), src.detour_storage.begin(),
                         src.detour_storage.end());
    pairs_offset_[vi + 1] = static_cast<std::int64_t>(src.pairs.size());
  }
  for (std::size_t vi = 0; vi < n; ++vi) {
    pairs_offset_[vi + 1] += pairs_offset_[vi];
  }
  stats_.pairs_uncovered = static_cast<std::int64_t>(pairs_.size());
  stats_.detour_vertices = static_cast<std::int64_t>(detour_arena_.size());
}

template <class Model>
std::span<const std::int32_t> FaultReplacementEngine<Model>::uncovered_of(
    Vertex v) const {
  const std::size_t vi = static_cast<std::size_t>(v);
  return {pair_ids_.data() + pairs_offset_[vi],
          pair_ids_.data() + pairs_offset_[vi + 1]};
}

template <class Model>
std::span<const Vertex> FaultReplacementEngine<Model>::detour(
    const Pair& p) const {
  FTB_CHECK_MSG(cfg_.collect_detours, "detours were not collected");
  return {detour_arena_.data() + p.detour_begin,
          detour_arena_.data() + p.detour_end};
}

template <class Model>
bool FaultReplacementEngine<Model>::covered(Vertex v, FaultId fault) const {
  FTB_CHECK(tree().reachable(v) && !Model::hits_terminal(v, fault) &&
            Model::on_path(tree(), fault, v));
  const std::int32_t pos = Model::fault_pos(tree(), fault);
  const std::int32_t rd = table_.row(v, pos);
  FTB_CHECK_MSG(rd < kInfHops, "covered() on a disconnecting failure");
  const std::int32_t k = tree().depth(v);
  const Vertex parent = tree().parent(v);
  if (parent != kInvalidVertex && pos + 1 < k) {
    if (table_.row(parent, pos) + 1 == rd) return true;
  }
  for (const Vertex c : tree().children(v)) {
    if (table_.row(c, pos) + 1 == rd) return true;
  }
  return false;
}

template <class Model>
std::vector<Vertex> FaultReplacementEngine<Model>::replacement_path(
    Vertex v, FaultId fault) const {
  Model::validate_query(tree(), fault);
  FTB_CHECK(tree().reachable(v) && !Model::hits_terminal(v, fault));
  if (!Model::on_path(tree(), fault, v)) {
    return tree().path_from_source(v);  // π(s,v) is itself a replacement path
  }
  const std::int32_t rd = replacement_dist(v, fault);
  FTB_CHECK_MSG(rd < kInfHops, "no replacement path: failure disconnects v");

  // Uncovered pair? Use the stored canonical metadata.
  for (const std::int32_t id : uncovered_of(v)) {
    const Pair& p = pairs_[static_cast<std::size_t>(id)];
    if (Model::fault_of(p) != fault) continue;
    std::vector<Vertex> out = tree().path_from_source(p.diverge);
    const auto det = detour(p);
    out.insert(out.end(), det.begin() + 1, det.end());
    return out;
  }

  // Covered pair: canonical shortest path in G'(v) minus the fault, where
  // G'(v) keeps only v's tree edges among v's incident edges.
  const Graph& g = graph();
  std::vector<std::uint8_t> edge_mask(static_cast<std::size_t>(g.num_edges()),
                                      0);
  for (const Arc& a : g.neighbors(v)) {
    const bool tree_incident =
        a.edge == tree().parent_edge(v) ||
        (tree().is_tree_edge(a.edge) && tree().lower_endpoint(a.edge) == a.to);
    if (!tree_incident) edge_mask[static_cast<std::size_t>(a.edge)] = 1;
  }
  BfsBans bans;
  bans.banned_edge_mask = &edge_mask;
  std::vector<std::uint8_t> vertex_mask;
  Model::ban(fault, bans, vertex_mask,
             static_cast<std::size_t>(g.num_vertices()));
  bans.banned_edge2 = cfg_.ambient_banned_edge;
  bans.banned_vertex_one = cfg_.ambient_banned_vertex;
  const CanonicalSp sp =
      canonical_sp(g, tree().weights(), tree().source(), bans);
  FTB_CHECK_MSG(sp.reachable(v) && sp.hops[static_cast<std::size_t>(v)] == rd,
                "covered pair reconstruction does not match the G'(v) test");
  return sp.path_from_source(v);
}

template class ReplacementDistTable<EdgeFault>;
template class ReplacementDistTable<VertexFault>;
template class FaultReplacementEngine<EdgeFault>;
template class FaultReplacementEngine<VertexFault>;

}  // namespace ftb
