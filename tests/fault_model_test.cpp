// fault_model_test.cpp — the unified S0 engine across fault models, on the
// seeded property harness (tests/property_test_util.hpp).
//
// Differential guarantees the refactor is held to:
//   * FaultReplacementEngine<EdgeFault> under the scratch kernels is
//     bit-identical — every pair field, every detour vertex, every table
//     row — to the reference-kernel pipeline (the pre-refactor engine's
//     independent realization) on every harness case;
//   * the same holds for FaultReplacementEngine<VertexFault>;
//   * rebase_punctured_tree is bit-identical to the full punctured
//     canonical rebuild on EVERY first-failure site, and the
//     restrict_terminals engine emits exactly the full engine's pairs for
//     the restricted terminals — the two legs the pruned dual pipeline
//     stands on;
//   * a standalone ReplacementDistTable answers every (v, fault) exactly
//     like the full engine and brute-force BFS, under every table knob;
//   * vertex-fault engine answers agree with literal BFS on the deployed
//     H \ {x} and on G \ {x} exhaustively at small n.
// Failing property cases print their one-command reproduction via
// FTB_PROPERTY_TRACE.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <type_traits>

#include "src/api/ftbfs_api.hpp"
#include "src/core/dist_sweep.hpp"
#include "src/core/dual_fault.hpp"
#include "src/core/ftbfs.hpp"
#include "src/core/vertex_ftbfs.hpp"
#include "src/util/rng.hpp"
#include "tests/property_test_util.hpp"
#include "tests/test_util.hpp"

namespace ftb {
namespace {

/// Builds `cfg`'s engine twice — scratch kernels with shared detour sweeps,
/// and the reference kernels — and asserts byte-identity: every pair field
/// (arena offsets included), every detour vertex, every pair count. Leaves
/// the scratch engine's stats in `os` for the callers' work-counter checks.
template <class Model>
void expect_matches_reference(
    const BfsTree& tree, typename FaultReplacementEngine<Model>::Config cfg,
    typename FaultReplacementEngine<Model>::Stats& os) {
  const FaultReplacementEngine<Model> opt(tree, cfg);
  cfg.reference_kernel = true;
  const FaultReplacementEngine<Model> ref(tree, cfg);

  const auto& rp = ref.uncovered_pairs();
  const auto& op = opt.uncovered_pairs();
  EXPECT_EQ(rp.size(), op.size());
  for (std::size_t i = 0; i < std::min(rp.size(), op.size()); ++i) {
    ASSERT_EQ(rp[i].v, op[i].v) << i;
    ASSERT_EQ(Model::fault_of(rp[i]), Model::fault_of(op[i])) << i;
    ASSERT_EQ(Model::pos_of(rp[i]), Model::pos_of(op[i])) << i;
    ASSERT_EQ(rp[i].rep_dist, op[i].rep_dist) << i;
    ASSERT_EQ(rp[i].diverge, op[i].diverge) << i;
    ASSERT_EQ(rp[i].diverge_depth, op[i].diverge_depth) << i;
    ASSERT_EQ(rp[i].last_edge, op[i].last_edge) << i;
    ASSERT_EQ(rp[i].detour_len, op[i].detour_len) << i;
    ASSERT_EQ(rp[i].detour_begin, op[i].detour_begin) << i;
    ASSERT_EQ(rp[i].detour_end, op[i].detour_end) << i;
    if (cfg.collect_detours) {
      const auto rd = ref.detour(rp[i]);
      const auto od = opt.detour(op[i]);
      ASSERT_TRUE(std::equal(rd.begin(), rd.end(), od.begin(), od.end()))
          << i;
    }
  }
  const auto& rs = ref.stats();
  os = opt.stats();
  EXPECT_EQ(rs.pairs_total, os.pairs_total);
  EXPECT_EQ(rs.pairs_covered, os.pairs_covered);
  EXPECT_EQ(rs.pairs_uncovered, os.pairs_uncovered);
  EXPECT_EQ(rs.pairs_infinite, os.pairs_infinite);
  EXPECT_EQ(rs.detour_vertices, os.detour_vertices);
  // The referee runs one sweep per terminal and shares none.
  EXPECT_EQ(rs.shared_sweeps, 0);
  EXPECT_EQ(rs.shared_terminals, 0);
  // Every terminal with pairs is served once: by its group's shared
  // sweeps, or by a forward sweep of its own (tie fallbacks included).
  std::vector<Vertex> terminals;
  for (const auto& p : op) {
    if (terminals.empty() || terminals.back() != p.v) terminals.push_back(p.v);
  }
  EXPECT_EQ(os.shared_terminals + os.forward_sweeps,
            static_cast<std::int64_t>(terminals.size()));
  EXPECT_LE(os.tie_fallbacks, os.forward_sweeps);
  EXPECT_EQ(os.shared_sweeps == 0, os.shared_terminals + os.tie_fallbacks == 0);
}

template <class Model>
void expect_engines_bit_identical(const BfsTree& tree) {
  // Both kernel paths of the optimized engine.
  for (const bool incremental : {true, false}) {
    typename FaultReplacementEngine<Model>::Config cfg;
    cfg.incremental_dist = incremental;
    typename FaultReplacementEngine<Model>::Stats st;
    expect_matches_reference<Model>(tree, cfg, st);
  }
}

/// The property sweep both parametrized suites draw from: the harness's
/// four families plus the structured classics of test_util (star, clique,
/// grid, …) folded in as extra cases so the engine keeps its old coverage.
std::vector<test::PropertyCase>& sweep_cases() {
  static std::vector<test::PropertyCase>* cases = [] {
    auto* out = new std::vector<test::PropertyCase>(
        test::property_cases(44, 2));
    for (auto& fc : test::small_families(test::property_base_seed())) {
      test::PropertyCase pc;
      pc.family = test::GraphFamily::kDenseRandom;  // tag only; name wins
      pc.n = fc.graph.num_vertices();
      pc.seed = test::property_base_seed();
      pc.base_seed = test::property_base_seed();
      pc.source = fc.source;
      pc.graph = std::move(fc.graph);
      pc.label = fc.name;
      out->push_back(std::move(pc));
    }
    return out;
  }();
  return *cases;
}

class FaultModelFamilyTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FaultModelFamilyTest, EdgeEngineBitIdenticalToReference) {
  const test::PropertyCase& pc = sweep_cases()[GetParam()];
  FTB_PROPERTY_TRACE(pc, "fault_model_test");
  const EdgeWeights w = EdgeWeights::uniform_random(pc.graph, 42);
  const BfsTree tree(pc.graph, w, pc.source);
  expect_engines_bit_identical<EdgeFault>(tree);
}

TEST_P(FaultModelFamilyTest, VertexEngineBitIdenticalToReference) {
  const test::PropertyCase& pc = sweep_cases()[GetParam()];
  FTB_PROPERTY_TRACE(pc, "fault_model_test");
  const EdgeWeights w = EdgeWeights::uniform_random(pc.graph, 42);
  const BfsTree tree(pc.graph, w, pc.source);
  expect_engines_bit_identical<VertexFault>(tree);
}

TEST_P(FaultModelFamilyTest, EdgeTablesBitIdenticalAcrossKernels) {
  const test::PropertyCase& pc = sweep_cases()[GetParam()];
  FTB_PROPERTY_TRACE(pc, "fault_model_test");
  const EdgeWeights w = EdgeWeights::uniform_random(pc.graph, 43);
  const BfsTree tree(pc.graph, w, pc.source);
  ReplacementPathEngine::Config ref_cfg;
  ref_cfg.reference_kernel = true;
  const ReplacementPathEngine ref(tree, ref_cfg);
  const ReplacementPathEngine opt(tree);
  for (Vertex v = 0; v < pc.graph.num_vertices(); ++v) {
    if (!tree.reachable(v)) continue;
    for (const EdgeId e : tree.tree_edges()) {
      if (!tree.on_source_path(e, v)) continue;
      ASSERT_EQ(ref.replacement_dist(v, e), opt.replacement_dist(v, e))
          << "v=" << v << " e=" << e;
    }
  }
}

TEST_P(FaultModelFamilyTest, RebasedPuncturedTreeBitIdenticalToFullRebuild) {
  // The prefix-reuse leg: for EVERY first-failure site, the incremental
  // rebase must reproduce the full punctured canonical tree bit for bit —
  // labels, tree edges, preorder intervals, finalization order.
  const test::PropertyCase& pc = sweep_cases()[GetParam()];
  FTB_PROPERTY_TRACE(pc, "fault_model_test");
  const EdgeWeights w = EdgeWeights::uniform_random(pc.graph, 45);
  const BfsTree base(pc.graph, w, pc.source);

  const auto check_site = [&](EdgeId fe, Vertex fv) {
    BfsBans bans;
    bans.banned_edge = fe;
    bans.banned_vertex_one = fv;
    const BfsTree full(pc.graph, w, pc.source, bans);
    const BfsTree rebased = rebase_punctured_tree(base, fe, fv);
    ASSERT_EQ(rebased.tree_edges(), full.tree_edges())
        << "fe=" << fe << " fv=" << fv;
    ASSERT_EQ(rebased.sp().hops, full.sp().hops);
    ASSERT_EQ(rebased.sp().wsum, full.sp().wsum);
    ASSERT_EQ(rebased.sp().parent, full.sp().parent);
    ASSERT_EQ(rebased.sp().parent_edge, full.sp().parent_edge);
    ASSERT_EQ(rebased.sp().first_hop, full.sp().first_hop);
    ASSERT_EQ(rebased.sp().order, full.sp().order);
    for (Vertex v = 0; v < pc.graph.num_vertices(); ++v) {
      if (!full.reachable(v)) continue;
      ASSERT_EQ(rebased.tin(v), full.tin(v));
      ASSERT_EQ(rebased.tout(v), full.tout(v));
      ASSERT_EQ(rebased.subtree_size(v), full.subtree_size(v));
    }
  };
  // Every site on small trees; a deterministic stride on big ones keeps
  // the sweep O(40 full rebuilds) per case while still touching every
  // depth band.
  const auto& edges = base.tree_edges();
  const std::size_t estride = std::max<std::size_t>(1, edges.size() / 20);
  for (std::size_t i = 0; i < edges.size(); i += estride) {
    check_site(edges[i], kInvalidVertex);
  }
  std::vector<Vertex> vsites;
  for (const Vertex u : base.preorder()) {
    if (u != base.source() && base.subtree_size(u) > 1) vsites.push_back(u);
  }
  const std::size_t vstride = std::max<std::size_t>(1, vsites.size() / 20);
  for (std::size_t i = 0; i < vsites.size(); i += vstride) {
    check_site(kInvalidEdge, vsites[i]);
  }
}

TEST_P(FaultModelFamilyTest, RestrictedEngineMatchesFullEngineOnTerminals) {
  // The segment-pruning leg: an engine restricted to a subtree's terminals
  // must emit exactly the full engine's pairs for those terminals and
  // agree on every replacement distance it still answers for.
  const test::PropertyCase& pc = sweep_cases()[GetParam()];
  FTB_PROPERTY_TRACE(pc, "fault_model_test");
  const EdgeWeights w = EdgeWeights::uniform_random(pc.graph, 46);
  const BfsTree tree(pc.graph, w, pc.source);
  if (tree.tree_edges().empty()) return;
  // A representative site: the deepest tree edge's subtree plus the
  // root-child subtree (small and large restriction).
  std::vector<Vertex> tops;
  tops.push_back(tree.lower_endpoint(tree.tree_edges().back()));
  tops.push_back(tree.lower_endpoint(tree.tree_edges().front()));
  for (const Vertex top : tops) {
    const std::span<const Vertex> terminals = tree.subtree(top);
    const auto run = [&](auto model_tag) {
      using Model = decltype(model_tag);
      typename FaultReplacementEngine<Model>::Config full_cfg, rcfg;
      const FaultReplacementEngine<Model> full(tree, full_cfg);
      rcfg.restrict_terminals = terminals;
      const FaultReplacementEngine<Model> restricted(tree, rcfg);
      // Expected: the full engine's pairs whose terminal lies in the span.
      std::vector<typename Model::Pair> want;
      for (const auto& p : full.uncovered_pairs()) {
        if (tree.is_ancestor_or_equal(top, p.v)) want.push_back(p);
      }
      const auto& got = restricted.uncovered_pairs();
      ASSERT_EQ(got.size(), want.size()) << "top=" << top;
      for (std::size_t i = 0; i < got.size(); ++i) {
        ASSERT_EQ(got[i].v, want[i].v) << i;
        ASSERT_EQ(Model::fault_of(got[i]), Model::fault_of(want[i])) << i;
        ASSERT_EQ(got[i].rep_dist, want[i].rep_dist) << i;
        ASSERT_EQ(got[i].last_edge, want[i].last_edge) << i;
        ASSERT_EQ(got[i].diverge, want[i].diverge) << i;
        const auto fd = full.detour(want[i]);
        const auto rd = restricted.detour(got[i]);
        ASSERT_TRUE(std::equal(fd.begin(), fd.end(), rd.begin(), rd.end()))
            << i;
      }
    };
    run(EdgeFault{});
    run(VertexFault{});
  }
}

INSTANTIATE_TEST_SUITE_P(
    Families, FaultModelFamilyTest,
    ::testing::Range<std::size_t>(0, sweep_cases().size()),
    [](const auto& pinfo) { return sweep_cases()[pinfo.param].name(); });

// ---- shared detour sweeps --------------------------------------------------
//
// In the paper's lower-bound graph (Theorem 5.1) every X_i vertex is a
// child of v*_i, so the X block is one sibling group whose per-terminal
// sweeps each cross the X×Z biclique: the engine serves it with shared
// sweeps, and the reference kernels referee every pair.

// At ε = 1/2 the graph is one copy whose X block is its bulk, and the rule
// shares it. At ε = 1/3 each of the k ≥ 6 copies holds about 1/k of m, so a
// block's forward sweeps cost less than shared sweeps over all of G and the
// rule leaves every block forward.
struct LbCase {
  Vertex n;
  double eps;
  bool shares;
};
const LbCase kLbCases[] = {{300, 1.0 / 3, false}, {700, 1.0 / 3, false},
                           {300, 0.5, true},      {700, 0.5, true},
                           {1200, 0.5, true}};

template <class Model>
void expect_lb_groups_shared(bool equal_weights) {
  for (const LbCase& c : kLbCases) {
    const lb::SingleSourceLb lbg = lb::build_single_source(c.n, c.eps);
    SCOPED_TRACE("n=" + std::to_string(c.n) + " eps=" + std::to_string(c.eps));
    EdgeWeights w = EdgeWeights::uniform_random(lbg.graph, 51);
    if (equal_weights) std::fill(w.w.begin(), w.w.end(), 1);
    const BfsTree tree(lbg.graph, w, lbg.source);
    typename FaultReplacementEngine<Model>::Stats st;
    expect_matches_reference<Model>(tree, {}, st);
    if (!c.shares) {
      EXPECT_EQ(st.shared_sweeps, 0);
      continue;
    }
    EXPECT_GT(st.shared_sweeps, 0);
    // The X block: |X| members, each a forward sweep that is now shared.
    std::size_t block = 0;
    for (const lb::LbCopy& copy : lbg.copies) block += copy.x.size();
    if (equal_weights) {
      // Every root-split label in the X block is tied (many x' and z give
      // equal paths), so no member keeps its shared answer.
      EXPECT_EQ(st.shared_terminals, 0);
      EXPECT_GT(st.tie_fallbacks, static_cast<std::int64_t>(block) / 2);
    } else {
      EXPECT_GE(st.shared_terminals, static_cast<std::int64_t>(block));
      EXPECT_EQ(st.tie_fallbacks, 0);
      EXPECT_LT(st.forward_sweeps + st.shared_sweeps,
                static_cast<std::int64_t>(block) / 4);
    }
  }
}

TEST(SharedDetourSweeps, LowerBoundGraphEdgeModelMatchesReference) {
  expect_lb_groups_shared<EdgeFault>(false);
}

TEST(SharedDetourSweeps, LowerBoundGraphVertexModelMatchesReference) {
  expect_lb_groups_shared<VertexFault>(false);
}

TEST(SharedDetourSweeps, EqualWeightsFallBackAndStillMatch) {
  expect_lb_groups_shared<EdgeFault>(true);
}

TEST(SharedDetourSweeps, TieBelowTheParentFallsBack) {
  // s = 0 has two equal detours to z, s–2–5–z and s–3–4–z, and z is
  // adjacent to the whole block X = children of p = 1. With equal weights
  // every member's detour from s is tied at z, and the two tie-breaks
  // disagree: the forward rule keeps the first arc out of s (via 2), the
  // shared sweep from s keeps z's lower parent (4, via 3). Only the tie
  // fallback keeps the output identical.
  constexpr Vertex kZ = 6, kFirstX = 7, kBlock = 200;
  GraphBuilder b(kFirstX + kBlock);
  b.add_edge(0, 1);
  for (const auto& [u, v] :
       {std::pair{0, 2}, {2, 5}, {5, kZ}, {0, 3}, {3, 4}, {4, kZ}}) {
    b.add_edge(u, v);
  }
  for (Vertex x = kFirstX; x < kFirstX + kBlock; ++x) {
    b.add_edge(1, x);
    b.add_edge(kZ, x);
  }
  const Graph g = b.build();
  EdgeWeights w;
  w.w.assign(static_cast<std::size_t>(g.num_edges()), 1);
  const BfsTree tree(g, w, 0);
  FaultReplacementEngine<EdgeFault>::Stats st;
  expect_matches_reference<EdgeFault>(tree, {}, st);
  EXPECT_GT(st.shared_sweeps, 0);
  EXPECT_EQ(st.shared_terminals, 0);
  EXPECT_EQ(st.tie_fallbacks, kBlock);
}

TEST(SharedDetourSweeps, RestrictedPuncturedEnginesMatchReference) {
  // The dual pipeline's engines: a punctured tree, the ambient first
  // failure banned, and the terminals restricted to its T0 subtree. Cutting
  // a costly π edge hangs the X block under a side path's z, where it is
  // again one sibling group.
  const lb::SingleSourceLb lbg = lb::build_single_source(700, 0.5);
  const Graph& g = lbg.graph;
  const EdgeWeights w = EdgeWeights::uniform_random(g, 52);
  const BfsTree tree(g, w, lbg.source);
  std::int64_t shared = 0;
  for (const EdgeId f : lbg.pi_edges) {
    BfsBans bans;
    bans.banned_edge = f;
    const BfsTree punctured(g, w, lbg.source, bans);
    const auto run = [&](auto model_tag) {
      using Model = decltype(model_tag);
      typename FaultReplacementEngine<Model>::Config cfg;
      cfg.ambient_banned_edge = f;
      cfg.restrict_terminals = tree.subtree(tree.lower_endpoint(f));
      typename FaultReplacementEngine<Model>::Stats st;
      expect_matches_reference<Model>(punctured, cfg, st);
      shared += st.shared_terminals;
      cfg.collect_detours = false;
      expect_matches_reference<Model>(punctured, cfg, st);
    };
    run(EdgeFault{});
    run(VertexFault{});
  }
  EXPECT_GT(shared, 0);
}

TEST(SharedDetourSweeps, RmatGroupsStayForward) {
  // Hub-sourced R-MAT: sibling groups are many but their forward sweeps
  // are cheap next to a full pass over m, so the rule shares none — in the
  // full engines and in the dual pipeline's restricted ones alike.
  const Graph g = gen::rmat_connected(10, 4 << 10, 1);
  const EdgeWeights w = EdgeWeights::uniform_random(g, 53);
  for (const Vertex s : test::hub_sources(g, 2)) {
    const BfsTree tree(g, w, s);
    FaultReplacementEngine<EdgeFault>::Stats st;
    expect_matches_reference<EdgeFault>(tree, {}, st);
    EXPECT_EQ(st.shared_sweeps, 0);
    EXPECT_EQ(st.shared_terminals, 0);
    EXPECT_GT(st.forward_sweeps, 0);

    const auto& tree_edges = tree.tree_edges();
    for (std::size_t i = 0; i < tree_edges.size(); i += 37) {
      const EdgeId f = tree_edges[i];
      BfsBans bans;
      bans.banned_edge = f;
      const BfsTree punctured(g, w, s, bans);
      FaultReplacementEngine<EdgeFault>::Config cfg;
      cfg.ambient_banned_edge = f;
      cfg.restrict_terminals = tree.subtree(tree.lower_endpoint(f));
      expect_matches_reference<EdgeFault>(punctured, cfg, st);
      EXPECT_EQ(st.shared_sweeps, 0) << "f=" << f;
    }
  }
}

// ---- the punctured-tree workspace -----------------------------------------

/// Every label and every derived accessor of `got` against `want`, over all
/// vertices and edges.
void expect_same_tree(const BfsTree& got, const BfsTree& want,
                      const std::string& where) {
  const Graph& g = want.graph();
  ASSERT_EQ(got.sp().hops, want.sp().hops) << where;
  ASSERT_EQ(got.sp().wsum, want.sp().wsum) << where;
  ASSERT_EQ(got.sp().parent, want.sp().parent) << where;
  ASSERT_EQ(got.sp().parent_edge, want.sp().parent_edge) << where;
  ASSERT_EQ(got.sp().first_hop, want.sp().first_hop) << where;
  ASSERT_EQ(got.sp().order, want.sp().order) << where;
  ASSERT_EQ(got.num_reachable(), want.num_reachable()) << where;
  ASSERT_TRUE(std::ranges::equal(got.preorder(), want.preorder())) << where;
  ASSERT_EQ(got.tree_edges(), want.tree_edges()) << where;
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    ASSERT_EQ(got.tin(v), want.tin(v)) << where << " v=" << v;
    ASSERT_EQ(got.tout(v), want.tout(v)) << where << " v=" << v;
    ASSERT_EQ(got.subtree_size(v), want.subtree_size(v))
        << where << " v=" << v;
    ASSERT_TRUE(std::ranges::equal(got.children(v), want.children(v)))
        << where << " v=" << v;
  }
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    ASSERT_EQ(got.is_tree_edge(e), want.is_tree_edge(e))
        << where << " e=" << e;
    if (want.is_tree_edge(e)) {
      ASSERT_EQ(got.lower_endpoint(e), want.lower_endpoint(e))
          << where << " e=" << e;
    }
  }
}

TEST(PuncturedWorkspace, EveryPunctureMatchesFullRebuild) {
  // The workspace patches one tree in place per site and undoes the
  // previous patch from the base tree. Every produced tree must equal a
  // from-scratch build on the punctured graph, first in T0 DFS order (the
  // dual build's schedule: nested subtrees, partial undo), then in a seeded
  // shuffled order, so that undo runs across unrelated subtrees. The
  // sites are counted by what the fault cuts off: nothing; exactly the
  // vertex site's own top (the rest of A_f hangs back on); more (a bridge
  // or a cut vertex). An edge site loses all of A_f or none of it, since
  // A_f stays connected through its tree edges.
  std::int64_t kept_all = 0, lost_top_only = 0, lost_more = 0;
  for (const test::FamilyCase& fc : test::diff_families()) {
    const EdgeWeights w = EdgeWeights::uniform_random(fc.graph, 47);
    const BfsTree base(fc.graph, w, fc.source);
    struct Site {
      EdgeId e;
      Vertex v;
    };
    std::vector<Site> sites;  // T0 DFS order, the edge into u before u
    for (const Vertex u : base.preorder()) {
      if (u == base.source()) continue;
      sites.push_back({base.parent_edge(u), kInvalidVertex});
      sites.push_back({kInvalidEdge, u});
    }
    std::vector<Site> shuffled = sites;
    Rng rng(0xD1CE);
    for (std::size_t i = shuffled.size(); i > 1; --i) {
      std::swap(shuffled[i - 1], shuffled[rng.next_below(i)]);
    }
    PuncturedWorkspace ws;
    ws.bind(base);
    for (const std::vector<Site>* order : {&sites, &shuffled}) {
      for (const Site& s : *order) {
        BfsBans bans;
        bans.banned_edge = s.e;
        bans.banned_vertex_one = s.v;
        const BfsTree want(fc.graph, w, fc.source, bans);
        const BfsTree& got = ws.puncture(s.e, s.v);
        const std::int32_t lost = base.num_reachable() - want.num_reachable();
        kept_all += lost == 0 ? 1 : 0;
        lost_top_only += s.v != kInvalidVertex && lost == 1 &&
                                 base.subtree_size(s.v) > 1
                             ? 1
                             : 0;
        lost_more += lost > 1 ? 1 : 0;
        expect_same_tree(got, want,
                         fc.name + " e=" + std::to_string(s.e) +
                             " v=" + std::to_string(s.v));
        if (HasFatalFailure()) return;
      }
    }
  }
  EXPECT_GT(kept_all, 0);
  EXPECT_GT(lost_top_only, 0);
  EXPECT_GT(lost_more, 0);
}

// ---- the distance plane on its own ---------------------------------------

/// One configuration the standalone distance table is differenced under.
struct TableCell {
  const char* name = "default";
  bool reference_kernel = false;
  bool ambient_edge = false;      // puncture the deepest vertex's parent edge
  bool ambient_vertex = false;    // puncture the deepest vertex's parent
  bool restrict_subtree = false;  // the source's first child's subtree only
};

/// Every (v, fault) answer of a standalone ReplacementDistTable equals the
/// full engine's under the same config and a brute-force BFS on G minus
/// the fault and the ambient element. Terminals: every vertex, or the
/// listed ones under a restriction. Adds the kInfHops answers of reachable
/// terminals to `*inf` and the unreachable terminals to `*unreachable`.
template <class Model>
void expect_table_matches_engine(const Graph& g, const EdgeWeights& w,
                                 Vertex source, const TableCell& cell,
                                 std::int64_t* inf, std::int64_t* unreachable) {
  const Vertex n = g.num_vertices();
  BfsBans ambient;
  if (cell.ambient_edge || cell.ambient_vertex) {
    const BfsTree t0(g, w, source);
    Vertex deepest = source;
    for (Vertex v = 0; v < n; ++v) {
      if (t0.reachable(v) && t0.depth(v) > t0.depth(deepest)) deepest = v;
    }
    if (cell.ambient_edge && deepest != source) {
      ambient.banned_edge = t0.parent_edge(deepest);
    }
    if (cell.ambient_vertex && t0.depth(deepest) >= 2) {
      ambient.banned_vertex_one = t0.parent(deepest);
    }
    ASSERT_TRUE(ambient.banned_edge != kInvalidEdge ||
                ambient.banned_vertex_one != kInvalidVertex);
  }
  const BfsTree tree(g, w, source, ambient);

  typename FaultReplacementEngine<Model>::Config cfg;
  cfg.reference_kernel = cell.reference_kernel;
  cfg.ambient_banned_edge = ambient.banned_edge;
  cfg.ambient_banned_vertex = ambient.banned_vertex_one;
  std::vector<Vertex> terminals;
  if (cell.restrict_subtree) {
    ASSERT_FALSE(tree.children(source).empty());
    cfg.restrict_terminals = tree.subtree(tree.children(source).front());
    terminals.assign(cfg.restrict_terminals.begin(),
                     cfg.restrict_terminals.end());
  } else {
    for (Vertex v = 0; v < n; ++v) terminals.push_back(v);
  }
  const ReplacementDistTable<Model> table(tree, cfg);
  const FaultReplacementEngine<Model> engine(tree, cfg);
  EXPECT_EQ(table.num_rows(), engine.stats().pairs_total);

  std::vector<typename Model::FaultId> faults;
  if constexpr (std::is_same_v<Model, EdgeFault>) {
    for (EdgeId e = 0; e < g.num_edges(); ++e) faults.push_back(e);
  } else {
    for (Vertex x = 0; x < n; ++x) {
      if (x != source) faults.push_back(x);  // the source never fails
    }
  }
  std::vector<std::uint8_t> mask;
  for (const auto f : faults) {
    BfsBans bans;
    Model::ban(f, bans, mask, static_cast<std::size_t>(n));
    bans.banned_edge2 = ambient.banned_edge;
    bans.banned_vertex_one = ambient.banned_vertex_one;
    const BfsResult truth = plain_bfs_reference(g, source, bans);
    Model::unban(f, mask);
    for (const Vertex v : terminals) {
      const std::int32_t got = table.replacement_dist(v, f);
      ASSERT_EQ(got, engine.replacement_dist(v, f)) << "v=" << v << " f=" << f;
      ASSERT_EQ(got, truth.dist[static_cast<std::size_t>(v)])
          << "v=" << v << " f=" << f;
      if (!tree.reachable(v)) {
        ++*unreachable;
      } else if (got == kInfHops) {
        ++*inf;
      }
    }
  }
}

TEST(ReplacementDistTableTest, MatchesFullEngineAndBruteForce) {
  const TableCell cells[] = {
      {},
      {.name = "reference_kernel", .reference_kernel = true},
      {.name = "ambient_edge", .ambient_edge = true},
      {.name = "ambient_vertex", .ambient_vertex = true},
      {.name = "restrict_subtree", .restrict_subtree = true},
  };
  std::int64_t inf = 0;
  std::int64_t unreachable = 0;
  for (const auto& fc : test::diff_families()) {
    const EdgeWeights w = EdgeWeights::uniform_random(fc.graph, 47);
    for (const TableCell& cell : cells) {
      SCOPED_TRACE(fc.name + "/" + cell.name);
      expect_table_matches_engine<EdgeFault>(fc.graph, w, fc.source, cell,
                                             &inf, &unreachable);
      expect_table_matches_engine<VertexFault>(fc.graph, w, fc.source, cell,
                                               &inf, &unreachable);
    }
  }
  // The sweep really exercised disconnecting failures and vertices the
  // ambient element cut off (the lollipop's tail supplies both).
  EXPECT_GT(inf, 0);
  EXPECT_GT(unreachable, 0);
}

// ---- vertex-fault serving stack ------------------------------------------

TEST(VertexStructureOracleTest, MatchesLiteralBfsExhaustively) {
  for (const auto& fc : test::property_cases(18, 1)) {
    FTB_PROPERTY_TRACE(fc, "fault_model_test");
    const VertexFtBfsOptions opts;  // default weight seed
    const FtBfsStructure h =
        detail::build_vertex_ftbfs_impl(fc.graph, fc.source, opts);
    ASSERT_EQ(h.fault_class(), FaultClass::kVertex);
    const EdgeWeights w =
        EdgeWeights::uniform_random(fc.graph, opts.weight_seed);
    const BfsTree tree(fc.graph, w, fc.source);
    const VertexReplacementEngine engine(tree);
    const std::size_t n = static_cast<std::size_t>(fc.graph.num_vertices());
    for (Vertex x = 0; x < fc.graph.num_vertices(); ++x) {
      if (x == fc.source) continue;
      // Literal BFS in H \ {x} — the deployed artifact — and in G \ {x}.
      std::vector<std::uint8_t> banned(n, 0);
      banned[static_cast<std::size_t>(x)] = 1;
      BfsBans bans;
      bans.banned_vertex = &banned;
      const BfsResult in_g = plain_bfs(fc.graph, fc.source, bans);
      bans.banned_edge_mask = &h.complement_mask();
      const BfsResult brute = plain_bfs(fc.graph, fc.source, bans);
      for (Vertex v = 0; v < fc.graph.num_vertices(); ++v) {
        if (v == x) continue;
        ASSERT_EQ(engine.replacement_dist(v, x),
                  brute.dist[static_cast<std::size_t>(v)])
            << " v=" << v << " x=" << x;
        ASSERT_EQ(engine.replacement_dist(v, x),
                  in_g.dist[static_cast<std::size_t>(v)]);
      }
    }
  }
}

TEST(VertexStructureOracleTest, SourceFailureRefused) {
  const Graph g = gen::cycle_graph(8);
  const VertexFtBfsOptions opts;
  const FtBfsStructure h = detail::build_vertex_ftbfs_impl(g, 0, opts);
  const EdgeWeights w = EdgeWeights::uniform_random(g, opts.weight_seed);
  const BfsTree tree(g, w, 0);
  const VertexReplacementEngine engine(tree);
  ASSERT_EQ(h.source(), tree.source());
  EXPECT_THROW(engine.replacement_dist(3, 0), CheckError);
}

TEST(VertexOracleTest, PathQueriesAreValidReplacementPaths) {
  for (const auto& fc : test::property_cases(20, 1)) {
    FTB_PROPERTY_TRACE(fc, "fault_model_test");
    const EdgeWeights w = EdgeWeights::uniform_random(fc.graph, 44);
    const BfsTree tree(fc.graph, w, fc.source);
    const VertexReplacementEngine engine(tree);  // detours collected
    for (const VertexFaultPair& p : engine.uncovered_pairs()) {
      const std::vector<Vertex> path = engine.replacement_path(p.v, p.x);
      ASSERT_EQ(path.front(), fc.source);
      ASSERT_EQ(path.back(), p.v);
      ASSERT_EQ(static_cast<std::int32_t>(path.size()) - 1, p.rep_dist);
      for (std::size_t i = 0; i < path.size(); ++i) {
        ASSERT_NE(path[i], p.x) << "path re-touches the failed vertex";
        if (i + 1 < path.size()) {
          ASSERT_NE(fc.graph.find_edge(path[i], path[i + 1]), kInvalidEdge);
        }
      }
      const EdgeId last =
          fc.graph.find_edge(path[path.size() - 2], path.back());
      ASSERT_EQ(last, p.last_edge);
    }
  }
}

TEST(VertexEngineTest, CoveredTestMatchesLiteralGPrime) {
  for (const auto& fc : test::property_cases(20, 1)) {
    FTB_PROPERTY_TRACE(fc, "fault_model_test");
    const EdgeWeights w = EdgeWeights::uniform_random(fc.graph, 45);
    const BfsTree tree(fc.graph, w, fc.source);
    const VertexReplacementEngine engine(tree);
    const std::size_t n = static_cast<std::size_t>(fc.graph.num_vertices());
    for (Vertex v = 0; v < fc.graph.num_vertices(); ++v) {
      if (!tree.reachable(v) || tree.depth(v) < 2) continue;
      // Literal G'(v): ban v's non-tree incident edges.
      std::vector<std::uint8_t> mask(
          static_cast<std::size_t>(fc.graph.num_edges()), 0);
      for (const Arc& a : fc.graph.neighbors(v)) {
        const bool tree_incident =
            a.edge == tree.parent_edge(v) ||
            (tree.is_tree_edge(a.edge) && tree.lower_endpoint(a.edge) == a.to);
        if (!tree_incident) mask[static_cast<std::size_t>(a.edge)] = 1;
      }
      const std::vector<Vertex> path = tree.path_from_source(v);
      for (std::size_t i = 1; i + 1 < path.size(); ++i) {
        const Vertex x = path[i];
        const std::int32_t rd = engine.replacement_dist(v, x);
        if (rd >= kInfHops) continue;
        std::vector<std::uint8_t> banned(n, 0);
        banned[static_cast<std::size_t>(x)] = 1;
        BfsBans bans;
        bans.banned_edge_mask = &mask;
        bans.banned_vertex = &banned;
        const BfsResult gp = plain_bfs(fc.graph, fc.source, bans);
        const bool covered_brute =
            gp.dist[static_cast<std::size_t>(v)] == rd;
        ASSERT_EQ(engine.covered(v, x), covered_brute)
            << " v=" << v << " x=" << x;
      }
    }
  }
}

TEST(FaultClassTest, TagsAndParsingRoundTrip) {
  for (const FaultClass fc :
       {FaultClass::kEdge, FaultClass::kVertex, FaultClass::kEither,
        FaultClass::kDual}) {
    EXPECT_EQ(parse_fault_class(to_string(fc)), fc);
  }
  EXPECT_THROW(parse_fault_class("meteor"), CheckError);

  const Graph g = gen::gnm(24, 80, 9);
  // Each single-fault model tags its structure with its own class
  // (kEither is the single-failure union pre-dual releases called "dual").
  for (const FaultClass model :
       {FaultClass::kEdge, FaultClass::kVertex, FaultClass::kEither}) {
    EXPECT_EQ(api::build(g, {.fault_model = model}).structure.fault_class(),
              model);
  }
}

}  // namespace
}  // namespace ftb
