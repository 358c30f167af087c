// fault_model.cpp — the single S0 engine body, instantiated once per fault
// model. This is the file the two historical engines (replacement.cpp and
// the engine half of vertex_ftbfs.cpp) collapsed into; the policy hooks in
// fault_model.hpp are the only thing that differs between the models.
#include "src/core/fault_model.hpp"

#include <algorithm>
#include <bit>
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
  // A lower bound on its forward sweep's arcs, kept only while the
  // terminal is heavy and waits for the sharing rule (0: already served).
  std::int64_t forward_cost = 0;
  // Detour work, summed into Stats by the flatten.
  std::int32_t forward_sweeps = 0;
  std::int32_t shared_sweeps = 0;  // a sibling group's, on its first member
  bool grouped = false;            // member of a group served by shared sweeps
  bool tie_fallback = false;       // ... but re-served by a forward sweep
};

/// Per-thread buffers of the detour phase, reused across terminals and
/// groups so a steady-state terminal allocates nothing.
struct DetourScratch {
  std::vector<Vertex> path;           // π(s,·) of the item at hand
  std::vector<std::uint8_t> banned;   // off-path mask, all-zero between items
  std::vector<std::uint8_t> arc_ban;  // root-split arc mask, all-zero too
  CanonicalSpScratch sps;
  std::vector<Arc> root_arcs;         // p's arcs into H, in adjacency order
};

DetourScratch& detour_scratch() {
  thread_local DetourScratch s;
  return s;
}

/// ⌈log2 d⌉: the bits that tell d adjacency ranks apart.
std::int32_t rank_bits(std::size_t d) {
  return d <= 1 ? 0 : static_cast<std::int32_t>(std::bit_width(d - 1));
}

/// A group member that still needs its detour from p = u_{k−1} (edge model
/// only: the failure of its own tree edge (p, v)), with the best detour
/// the root-split sweeps offered so far.
struct RootSplitBest {
  std::size_t member = 0;  // index into the group
  std::size_t rank = 0;    // rank of v's arc among p's arcs into H
  std::int32_t hops = kInfHops;
  std::uint64_t wsum = 0;
  Vertex root = kInvalidVertex;  // first vertex after p
  EdgeId last_edge = kInvalidEdge;
  bool tie = false;
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
  const auto terminal = [&](std::size_t ti) {
    return restrict_mode ? restricted[ti] : static_cast<Vertex>(ti);
  };

  std::vector<VertexPairs<Pair>> per_vertex(terminal_count);

  // π(s,v) = u_0..u_k.
  const auto source_path = [&](Vertex v, std::vector<Vertex>& path) {
    path.clear();
    for (Vertex u = v; u != kInvalidVertex; u = tree().parent(u)) {
      path.push_back(u);
    }
    std::reverse(path.begin(), path.end());
  };

  // Off-path graph H = G \ V(π(s,p)) for the terminals below p = u_{k−1}:
  // `above` lists u_0..u_{k−1}. The mask is reused across calls; only the
  // O(k) touched entries are set and reset.
  const auto set_bans = [&](std::vector<std::uint8_t>& banned,
                            std::span<const Vertex> above,
                            std::uint8_t value) {
    if (banned.size() < n) banned.assign(n, 0);
    for (const Vertex u : above) banned[static_cast<std::size_t>(u)] = value;
  };
  const auto off_path_bans = [&](const std::vector<std::uint8_t>& banned) {
    BfsBans bans;
    bans.banned_vertex = &banned;
    bans.banned_edge2 = cfg_.ambient_banned_edge;
    bans.banned_vertex_one = cfg_.ambient_banned_vertex;
    return bans;
  };

  // Classification: covered / infinite tests touch only the phase-1
  // distance tables, so they run before (and usually instead of) any
  // off-path traversal. Every uncovered position becomes a pair whose
  // divergence fields the detour phase fills in, ascending by position.
  auto classify = [&](Vertex v, std::span<const Vertex> path,
                      VertexPairs<Pair>& out) {
    const std::int32_t k = static_cast<std::int32_t>(path.size()) - 1;
    const Vertex parent = tree().parent(v);
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
        continue;
      }
      Pair p;
      p.v = v;
      Model::set_fault(p, Model::fault_at(tree(), path, i), i);
      p.rep_dist = rd;
      out.pairs.push_back(p);
    }
  };

  // The per-terminal detour body, generic over the canonical-SP view
  // (reference or scratch kernel) so both code paths share one
  // implementation. `dv` is rooted at v in H.
  auto process = [&](Vertex v, VertexPairs<Pair>& out,
                     std::span<const Vertex> path,
                     const std::vector<std::uint8_t>& banned, const auto& dv) {
    // detlen(j): cheapest detour from u_j to v through off-path space,
    // excluding the tree edge (u_{k-1}, v) (which can only be proposed when
    // it is itself the failing edge; see docs/architecture.md — and which
    // is unreachable anyway for vertex faults, where j ≤ i−1 ≤ k−2).
    // Candidates are only ever consumed at divergence depths ≤
    // max_diverge(deepest uncovered position).
    const std::int32_t jmax = Model::pos_of(out.pairs.back()) -
                              Model::kDivergeGap;
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

    for (Pair& p : out.pairs) {
      const std::int32_t i = Model::pos_of(p);
      const std::int32_t rd = p.rep_dist;

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
    }
  };

  if (cfg_.reference_kernel) {
    // Seed pipeline order: one unconditional off-path BFS per terminal,
    // then classification. The referee of the shared sweeps below.
    pool.parallel_for(terminal_count, [&](std::size_t ti) {
      const Vertex v = terminal(ti);
      const std::int32_t k = tree().depth(v);
      // No failing positions: source/too-shallow or unreachable terminals.
      if (k <= Model::kFirstPos || k >= kInfHops) return;
      VertexPairs<Pair>& out = per_vertex[ti];
      DetourScratch& sc = detour_scratch();
      source_path(v, sc.path);
      const std::span<const Vertex> above(sc.path.data(), sc.path.size() - 1);
      set_bans(sc.banned, above, 1);
      const CanonicalSp dv = canonical_sp(g, W, v, off_path_bans(sc.banned));
      ++out.forward_sweeps;
      classify(v, sc.path, out);
      if (!out.pairs.empty()) {
        process(v, out, sc.path, sc.banned, CanonicalSpRefView{&dv});
      }
      set_bans(sc.banned, above, 0);
    });
  } else {
    // A lower bound on the arcs v's forward sweep scans: v's own, then —
    // when its cap max rd − 1 lets the sweep expand level 1 — those of
    // every neighbour in H. The sharing rule below sums it per group.
    const std::int64_t two_m = 2 * static_cast<std::int64_t>(g.num_edges());
    // Detour labels beyond max rd − 1 hops can never match a failing
    // fault's replacement distance, so forward sweeps are capped there (see
    // canonical_sp_run).
    const auto max_rep_dist = [](const VertexPairs<Pair>& out) {
      std::int32_t max_rd = 0;
      for (const Pair& pr : out.pairs) max_rd = std::max(max_rd, pr.rep_dist);
      return max_rd;
    };
    const auto forward_cost = [&](Vertex v, const VertexPairs<Pair>& out) {
      std::int64_t cost = g.degree(v);
      if (max_rep_dist(out) - 1 < 2) return cost;
      const Vertex p = tree().parent(v);
      for (const Arc& a : g.neighbors(v)) {
        if (a.edge == cfg_.ambient_banned_edge) continue;
        if (a.to == cfg_.ambient_banned_vertex) continue;
        if (tree().reachable(a.to) && tree().is_ancestor_or_equal(a.to, p)) {
          continue;  // on π(s,p)
        }
        cost += g.degree(a.to);
      }
      return cost;
    };

    // Forward sweep: one canonical BFS from v in H, for v alone.
    const auto forward = [&](std::size_t ti) {
      const Vertex v = terminal(ti);
      VertexPairs<Pair>& out = per_vertex[ti];
      DetourScratch& sc = detour_scratch();
      source_path(v, sc.path);
      const std::span<const Vertex> above(sc.path.data(), sc.path.size() - 1);
      set_bans(sc.banned, above, 1);
      canonical_sp_run(g, W, v, off_path_bans(sc.banned), sc.sps,
                       max_rep_dist(out) - 1);
      ++out.forward_sweeps;
      process(v, out, sc.path, sc.banned, CanonicalSpScratchView{&sc.sps});
      set_bans(sc.banned, above, 0);
    };

    // Classify every terminal, and serve it by its forward sweep at once
    // unless it is heavy: a group of siblings below p can only pay for
    // shared sweeps (at least one, of up to 2m arcs) if some member's
    // forward_cost exceeds 2m / |group| ≥ 2m / |children(p)|. Heavy
    // terminals wait for the grouping below; an engine without any runs
    // in this one pass.
    pool.parallel_for(terminal_count, [&](std::size_t ti) {
      const Vertex v = terminal(ti);
      const std::int32_t k = tree().depth(v);
      // No failing positions: source/too-shallow or unreachable terminals.
      if (k <= Model::kFirstPos || k >= kInfHops) return;
      DetourScratch& sc = detour_scratch();
      source_path(v, sc.path);
      VertexPairs<Pair>& out = per_vertex[ti];
      classify(v, sc.path, out);
      if (out.pairs.empty()) return;
      // An only child is never heavy: forward_cost ≤ 2m.
      const auto siblings = static_cast<std::int64_t>(
          tree().children(tree().parent(v)).size());
      if (siblings >= 2) {
        const std::int64_t cost = forward_cost(v, out);
        if (cost * siblings > two_m) {
          out.forward_cost = cost;
          return;
        }
      }
      forward(ti);
    });

    // Shared sweeps for the siblings below p = u_{k−1}, which share π(s,p)
    // and so H. For j < k−1, det[j] of every sibling is its label in one
    // capped sweep from u_j; for j = k−1 (edge model: the failure of v's
    // own tree edge) a sibling's detour may not start with (p, v), so
    // p's arcs into H are split by the bits of their adjacency rank: the
    // sweeps (b, ¬bit_b(rank v)) admit every arc but v's own, each at
    // least once. A label equals the forward rule's det[j] whenever the
    // minimal-(hops, wsum) path is unique; a sibling whose consumed label
    // is tied is re-served by a forward sweep (docs/architecture.md §
    // Detours).
    const auto serve_group = [&](std::span<const std::uint32_t> group) {
      DetourScratch& sc = detour_scratch();
      const Vertex p = tree().parent(terminal(group[0]));
      source_path(p, sc.path);  // u_0..u_{k−1}
      const std::int32_t k = static_cast<std::int32_t>(sc.path.size());
      set_bans(sc.banned, sc.path, 1);
      const BfsBans bans = off_path_bans(sc.banned);
      std::int32_t sweeps = 0;
      // Detour slots: a member's pair owns rep_dist + 1 entries of its
      // storage from detour_begin on — room for any detour it can take
      // (hops = rep_dist − j) — so every sweep writes in place and a member
      // costs one allocation; the end compacts the slots.
      if (cfg_.collect_detours) {
        for (const std::uint32_t ti : group) {
          VertexPairs<Pair>& out = per_vertex[ti];
          std::int64_t size = 0;
          for (Pair& pr : out.pairs) {
            pr.detour_begin = size;
            size += pr.rep_dist + 1;
          }
          out.detour_storage.resize(static_cast<std::size_t>(size));
        }
      }
      // The sweep's canonical path into v, [u_j, ..., v], into pr's slot.
      const auto record_detour = [&](Vertex v, std::vector<Vertex>& storage,
                                     Pair& pr) {
        if (!cfg_.collect_detours) return;
        pr.detour_end = pr.detour_begin + sc.sps.hops(v) + 1;
        auto at = static_cast<std::size_t>(pr.detour_end);
        for (Vertex w = v; w != kInvalidVertex; w = sc.sps.parent(w)) {
          storage[--at] = w;
        }
      };
      const auto unresolved = [](const Pair& pr) {
        return pr.diverge == kInvalidVertex;
      };

      // Divergence depths ascending, so a pair is taken at the first j
      // whose label matches — the forward rule's j*. A pair that may
      // diverge at j (pos − kDivergeGap ≥ j) may also diverge at every
      // smaller depth, so once no pair can use j, none can use a deeper one.
      for (std::int32_t j = 0; j < k - 1; ++j) {
        std::int32_t cap = -1;
        for (const std::uint32_t ti : group) {
          const VertexPairs<Pair>& out = per_vertex[ti];
          if (out.tie_fallback) continue;
          for (const Pair& pr : out.pairs) {
            if (unresolved(pr) &&
                Model::pos_of(pr) - Model::kDivergeGap >= j) {
              cap = std::max(cap, pr.rep_dist - j);
            }
          }
        }
        if (cap < 0) break;
        const Vertex uj = sc.path[static_cast<std::size_t>(j)];
        sc.banned[static_cast<std::size_t>(uj)] = 0;
        canonical_sp_run(g, W, uj, bans, sc.sps, cap, /*track_ties=*/true);
        sc.banned[static_cast<std::size_t>(uj)] = 1;
        ++sweeps;
        for (const std::uint32_t ti : group) {
          VertexPairs<Pair>& out = per_vertex[ti];
          const Vertex v = terminal(ti);
          if (out.tie_fallback || !sc.sps.reachable(v)) continue;
          const std::int32_t hops = sc.sps.hops(v);
          for (Pair& pr : out.pairs) {
            if (!unresolved(pr) ||
                Model::pos_of(pr) - Model::kDivergeGap < j ||
                j + hops != pr.rep_dist) {
              continue;
            }
            if (sc.sps.tied(v)) {
              out.tie_fallback = true;
              break;
            }
            pr.diverge = uj;
            pr.diverge_depth = j;
            pr.last_edge = sc.sps.parent_edge(v);
            pr.detour_len = hops;
            record_detour(v, out.detour_storage, pr);
          }
        }
      }

      if constexpr (Model::kDivergeGap == 0) {
        // Root split at j = k−1: only the failure of (p, v), the last
        // position, can still be open.
        thread_local std::vector<RootSplitBest> need;
        need.clear();
        std::int32_t cap = -1;
        for (std::size_t mi = 0; mi < group.size(); ++mi) {
          const VertexPairs<Pair>& out = per_vertex[group[mi]];
          const Pair& last = out.pairs.back();
          if (out.tie_fallback || !unresolved(last) ||
              Model::pos_of(last) != k - 1) {
            continue;
          }
          need.push_back({.member = mi});
          cap = std::max(cap, last.rep_dist - (k - 1));
        }
        if (!need.empty()) {
          sc.root_arcs.clear();
          for (const Arc& a : g.neighbors(p)) {
            if (sc.banned[static_cast<std::size_t>(a.to)] != 0) continue;
            if (a.edge == cfg_.ambient_banned_edge) continue;
            if (a.to == cfg_.ambient_banned_vertex) continue;
            sc.root_arcs.push_back(a);
          }
          // Adjacency is sorted by neighbor id and simple, so v's arc is
          // found by id.
          for (RootSplitBest& b : need) {
            const Vertex v = terminal(group[b.member]);
            const auto it = std::lower_bound(
                sc.root_arcs.begin(), sc.root_arcs.end(), v,
                [](const Arc& a, Vertex x) { return a.to < x; });
            FTB_DCHECK(it != sc.root_arcs.end() &&
                       it->edge == tree().parent_edge(v));
            b.rank = static_cast<std::size_t>(it - sc.root_arcs.begin());
          }
          if (sc.arc_ban.size() < static_cast<std::size_t>(g.num_edges())) {
            sc.arc_ban.assign(static_cast<std::size_t>(g.num_edges()), 0);
          }
          BfsBans split = bans;
          split.banned_edge_mask = &sc.arc_ban;
          const std::size_t pi = static_cast<std::size_t>(p);
          const std::int32_t bits = rank_bits(sc.root_arcs.size());
          for (std::int32_t b = 0; b < bits; ++b) {
            for (const std::size_t h : {0u, 1u}) {
              for (std::size_t r = 0; r < sc.root_arcs.size(); ++r) {
                sc.arc_ban[static_cast<std::size_t>(sc.root_arcs[r].edge)] =
                    ((r >> b) & 1) != h;
              }
              sc.banned[pi] = 0;
              canonical_sp_run(g, W, p, split, sc.sps, cap,
                               /*track_ties=*/true);
              sc.banned[pi] = 1;
              ++sweeps;
              for (RootSplitBest& best : need) {
                if (((best.rank >> b) & 1) == h) continue;  // v's own arc
                VertexPairs<Pair>& out = per_vertex[group[best.member]];
                const Vertex v = terminal(group[best.member]);
                if (!sc.sps.reachable(v)) continue;
                const std::int32_t hops = sc.sps.hops(v);
                const std::uint64_t wsum = sc.sps.wsum(v);
                if (hops < best.hops ||
                    (hops == best.hops && wsum < best.wsum)) {
                  best.hops = hops;
                  best.wsum = wsum;
                  best.root = sc.sps.first_hop(v);
                  best.last_edge = sc.sps.parent_edge(v);
                  best.tie = sc.sps.tied(v);
                  // Only a detour that can match has a use (and a slot
                  // that fits it); a shorter one cannot exist.
                  if (k - 1 + hops == out.pairs.back().rep_dist) {
                    record_detour(v, out.detour_storage, out.pairs.back());
                  }
                } else if (hops == best.hops && wsum == best.wsum) {
                  // Equal labels over different first vertices are two
                  // minimal paths as well.
                  best.tie = best.tie || sc.sps.tied(v) ||
                             sc.sps.first_hop(v) != best.root;
                }
              }
            }
          }
          for (const Arc& a : sc.root_arcs) {
            sc.arc_ban[static_cast<std::size_t>(a.edge)] = 0;
          }
          for (const RootSplitBest& best : need) {
            VertexPairs<Pair>& out = per_vertex[group[best.member]];
            Pair& pr = out.pairs.back();
            if (best.tie || best.hops >= kInfHops ||
                k - 1 + best.hops != pr.rep_dist) {
              out.tie_fallback = true;
              continue;
            }
            pr.diverge = p;
            pr.diverge_depth = k - 1;
            pr.last_edge = best.last_edge;
            pr.detour_len = best.hops;
          }
        }
      }
      set_bans(sc.banned, sc.path, 0);
      per_vertex[group[0]].shared_sweeps = sweeps;

      // A member left with an open or tied pair (the forward rule then
      // raises the engine invariant, if it is open) is re-served by its own
      // forward sweep. The others' slots close up into the forward rule's
      // layout: detours back to back in position order.
      for (const std::uint32_t ti : group) {
        VertexPairs<Pair>& out = per_vertex[ti];
        if (!out.tie_fallback &&
            std::any_of(out.pairs.begin(), out.pairs.end(), unresolved)) {
          out.tie_fallback = true;
        }
        if (out.tie_fallback) {
          out.detour_storage.clear();
          forward(ti);
          continue;
        }
        if (!cfg_.collect_detours) continue;
        std::int64_t at = 0;
        for (Pair& pr : out.pairs) {
          const std::int64_t len = pr.detour_end - pr.detour_begin;
          std::copy(out.detour_storage.begin() + pr.detour_begin,
                    out.detour_storage.begin() + pr.detour_end,
                    out.detour_storage.begin() + at);
          pr.detour_begin = at;
          pr.detour_end = at += len;
        }
        out.detour_storage.resize(static_cast<std::size_t>(at));
      }
    };

    // The sharing rule: share a group only when its forward sweeps' lower
    // bound, the sum of its members' forward_cost, exceeds its shared
    // sweeps' upper bound of 2m arcs each — one per divergence depth below
    // k−1 that a member may use, plus the root split's 2⌈log2 deg(p)⌉
    // (deg(p) bounds |N_H(p)|).
    const auto sharing_pays = [&](std::span<const std::uint32_t> group) {
      const Vertex p = tree().parent(terminal(group[0]));
      const std::int32_t k = tree().depth(p) + 1;
      std::int32_t jmax = 0;
      std::int64_t forward_bound = 0;
      for (const std::uint32_t ti : group) {
        jmax = std::max(jmax, Model::pos_of(per_vertex[ti].pairs.back()) -
                                  Model::kDivergeGap);
        forward_bound += per_vertex[ti].forward_cost;
      }
      std::int64_t sweeps = std::min(jmax, k - 2) + 1;
      if (jmax == k - 1) sweeps += 2 * rank_bits(g.degree(p));
      return forward_bound > sweeps * two_m;
    };

    // The heavy terminals, keyed (parent, index) and sorted so each sibling
    // group is one run. A group of two or more needs at least one shared
    // sweep (k ≥ 2 gives one for j = 0; k = 1 the root split, p then having
    // two or more arcs), so none can pay unless the heavy terminals' costs
    // together exceed 2m. Members of the groups the rule selects are marked
    // `grouped`; every other heavy terminal gets its forward sweep.
    std::vector<std::uint64_t> heavy;
    std::int64_t heavy_cost = 0;
    for (std::size_t ti = 0; ti < terminal_count; ++ti) {
      if (per_vertex[ti].forward_cost == 0) continue;
      heavy.push_back(
          static_cast<std::uint64_t>(tree().parent(terminal(ti))) << 32 | ti);
      heavy_cost += per_vertex[ti].forward_cost;
    }
    std::vector<std::uint32_t> siblings;
    std::vector<std::span<const std::uint32_t>> groups;
    if (heavy_cost > two_m) {
      std::sort(heavy.begin(), heavy.end());
      siblings.resize(heavy.size());
      for (std::size_t i = 0; i < heavy.size(); ++i) {
        siblings[i] = static_cast<std::uint32_t>(heavy[i]);
      }
      for (std::size_t begin = 0; begin < heavy.size();) {
        std::size_t end = begin + 1;
        while (end < heavy.size() && heavy[end] >> 32 == heavy[begin] >> 32) {
          ++end;
        }
        const std::span<const std::uint32_t> group(siblings.data() + begin,
                                                   end - begin);
        if (group.size() >= 2 && sharing_pays(group)) {
          for (const std::uint32_t ti : group) per_vertex[ti].grouped = true;
          groups.push_back(group);
        }
        begin = end;
      }
    }
    pool.parallel_for(heavy.size(), [&](std::size_t i) {
      const auto ti = static_cast<std::uint32_t>(heavy[i]);
      if (!per_vertex[ti].grouped) forward(ti);
    });
    // Shared groups run on the calling thread. A group's detours are one
    // thread's allocations either way; on the caller they land in the heap
    // the flatten below reuses, instead of leaving a group-sized free block
    // in whichever worker's arena served it, build after build (seen as
    // +40 % peak RSS on the lower-bound graph's repeated builds).
    for (const auto group : groups) serve_group(group);
  }

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
    stats_.forward_sweeps += src.forward_sweeps;
    stats_.shared_sweeps += src.shared_sweeps;
    stats_.shared_terminals += src.grouped && !src.tie_fallback ? 1 : 0;
    stats_.tie_fallbacks += src.tie_fallback ? 1 : 0;
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
