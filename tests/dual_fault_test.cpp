// dual_fault_test.cpp — the dual-failure differential suite, on the seeded
// property harness (tests/property_test_util.hpp).
//
// Every answer the dual pipeline can serve — structure BFS, oracle fast
// paths, batched Session queries, reloaded v4 artifacts — is pinned
// bit-identical against brute-force two-failure BFS AND against the
// unpruned PR 4 referee (api::detail::Referees::unpruned_dual) on the
// harness's four graph families (dense random, sparse random, long path,
// grid: the adversarial shapes differ in where replacement paths can run):
// exhaustive pairs at small n, seeded property sampling at larger n. A
// failing case prints its one-command reproduction via FTB_PROPERTY_TRACE.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <tuple>

#include "src/api/ftbfs_api.hpp"
#include "src/core/dual_fault.hpp"
#include "src/core/replacement.hpp"
#include "src/core/vertex_ftbfs.hpp"
#include "src/graph/generators.hpp"
#include "src/io/structure_io.hpp"
#include "src/sim/failure_sim.hpp"
#include "tests/legacy_artifact.hpp"
#include "tests/property_test_util.hpp"
#include "tests/test_util.hpp"

namespace ftb {
namespace {

/// The full failure universe of (g, source): every edge, every non-source
/// vertex — the same enumeration verify_dual_structure uses.
std::vector<DualSite> universe_of(const Graph& g, Vertex s) {
  std::vector<DualSite> u;
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    u.push_back(DualSite{FaultClass::kEdge, e});
  }
  for (Vertex x = 0; x < g.num_vertices(); ++x) {
    if (x != s) u.push_back(DualSite{FaultClass::kVertex, x});
  }
  return u;
}

TEST(DualFault, PrunedStructureMatchesBruteForceOnEveryPair) {
  for (const auto& pc : test::property_cases(28, 2)) {
    FTB_PROPERTY_TRACE(pc, "dual_fault_test");
    api::BuildSpec spec;
    spec.fault_model = FaultClass::kDual;
    spec.sources = {pc.source};
    const api::BuildResult res = api::build(pc.graph, spec);
    EXPECT_EQ(res.structure.fault_class(), FaultClass::kDual);
    EXPECT_EQ(res.structure.num_reinforced(), 0);
    ASSERT_EQ(res.dual_tables.size(), 1u);
    // Exhaustive: every unordered failure pair, every vertex.
    EXPECT_EQ(verify_dual_structure(res.structure, /*max_pairs=*/-1), 0);
  }
}

TEST(DualFault, PrunedIsSubsetOfUnprunedRefereeAndServesIdentically) {
  for (const auto& pc : test::property_cases(36, 2)) {
    FTB_PROPERTY_TRACE(pc, "dual_fault_test");
    api::BuildSpec spec;
    spec.fault_model = FaultClass::kDual;
    spec.sources = {pc.source};
    const api::BuildResult pruned = api::build(pc.graph, spec);
    const api::BuildResult referee =
        api::detail::build(pc.graph, spec, {.unpruned_dual = true});

    // Containment: the pruned H drops edges of the PR 4 recursion, never
    // adds any — and per-site subsets shrink the same way.
    const auto& pe = pruned.structure.edges();
    const auto& ue = referee.structure.edges();
    EXPECT_TRUE(std::includes(ue.begin(), ue.end(), pe.begin(), pe.end()));
    EXPECT_LE(pruned.structure.num_edges(), referee.structure.num_edges());
    const DualSiteTable& pt = pruned.dual_tables.front();
    const DualSiteTable& ut = referee.dual_tables.front();
    ASSERT_EQ(pt.sites.size(), ut.sites.size());
    EXPECT_LE(pt.edge_pool.size(), ut.edge_pool.size());

    // Differential serving: both sessions answer a seeded pair batch
    // bit-identically (and the structure sweep referees both below).
    const api::Session a = api::Session::deploy(pc.graph, pruned);
    const api::Session b = api::Session::deploy(pc.graph, referee);
    test::FaultSampler sampler(pc.graph, pc.source, pc.seed ^ 0xFA17);
    std::vector<api::Query> batch;
    for (const auto& [x, y] : sampler.sample_pairs(60)) {
      for (Vertex v = 0; v < pc.graph.num_vertices(); v += 2) {
        api::Query q;
        q.v = v;
        q.kind = x.kind;
        q.fault = x.id;
        q.kind2 = y.kind;
        q.fault2 = y.id;
        batch.push_back(q);
      }
    }
    const api::QueryResponse ra = a.query(batch);
    const api::QueryResponse rb = b.query(batch);
    ASSERT_EQ(ra.results.size(), rb.results.size());
    for (std::size_t i = 0; i < ra.results.size(); ++i) {
      ASSERT_EQ(ra.results[i].dist, rb.results[i].dist) << "query " << i;
      ASSERT_EQ(ra.results[i].outcome, rb.results[i].outcome) << "query " << i;
    }
  }
}

TEST(DualFault, PrunedPropertySamplingAtLargeN) {
  // Seeded property sampling at sizes where exhaustive pairs are too
  // expensive: the pruned structure still honors the dual contract, and
  // stays within the unpruned referee's size budget (the size-regression
  // referee of verify_dual_structure).
  for (const auto& pc : test::property_cases(120, 1)) {
    FTB_PROPERTY_TRACE(pc, "dual_fault_test");
    api::BuildSpec spec;
    spec.fault_model = FaultClass::kDual;
    spec.sources = {pc.source};
    const api::BuildResult pruned = api::build(pc.graph, spec);
    const api::BuildResult referee =
        api::detail::build(pc.graph, spec, {.unpruned_dual = true});
    EXPECT_EQ(verify_dual_structure(pruned.structure, /*max_pairs=*/300,
                                    /*seed=*/pc.seed, /*pool=*/nullptr,
                                    /*edges_budget=*/
                                    referee.structure.num_edges()),
              0);
  }
}

TEST(DualFault, PrunedReferenceKernelBuildsIdenticalStructure) {
  // The pruned pipeline under the naive reference kernels (restricted
  // engines + rebased trees included) must emit the same structure and
  // tables as the optimized kernels.
  for (const auto& pc : test::property_cases(26, 1)) {
    FTB_PROPERTY_TRACE(pc, "dual_fault_test");
    api::BuildSpec spec;
    spec.fault_model = FaultClass::kDual;
    spec.sources = {pc.source};
    const api::BuildResult opt = api::build(pc.graph, spec);
    const api::BuildResult ref =
        api::detail::build(pc.graph, spec, {.reference_kernel = true});
    EXPECT_EQ(opt.structure.edges(), ref.structure.edges());
    ASSERT_EQ(opt.dual_tables.size(), ref.dual_tables.size());
    EXPECT_EQ(opt.dual_tables.front().offsets, ref.dual_tables.front().offsets);
    EXPECT_EQ(opt.dual_tables.front().edge_pool,
              ref.dual_tables.front().edge_pool);
  }
}

TEST(DualFault, EdgeBudgetRefereeTripsOnOversizedStructure) {
  const Graph g = test::make_family_graph(test::GraphFamily::kDenseRandom,
                                          24, 11);
  api::BuildSpec spec;
  spec.fault_model = FaultClass::kDual;
  const api::BuildResult res = api::build(g, spec);
  const std::int64_t edges = res.structure.num_edges();
  // At its own size the structure passes; one edge under, the budget check
  // alone trips — no distance checks are charged for it.
  EXPECT_EQ(verify_dual_structure(res.structure, /*max_pairs=*/10, /*seed=*/1,
                                  nullptr, /*edges_budget=*/edges),
            0);
  EXPECT_EQ(verify_dual_structure(res.structure, /*max_pairs=*/10, /*seed=*/1,
                                  nullptr, /*edges_budget=*/edges - 1),
            1);
}

TEST(DualFault, SessionServesEveryPairBitIdenticalToBruteForce) {
  for (const auto& pc : test::property_cases(30, 1)) {
    FTB_PROPERTY_TRACE(pc, "dual_fault_test");
    const Graph& g = pc.graph;
    api::BuildSpec spec;
    spec.fault_model = FaultClass::kDual;
    spec.sources = {pc.source};
    const api::Session session = api::Session::open(g, spec);

    const auto universe = universe_of(g, pc.source);
    // Stride the universe so the suite stays fast but still mixes every
    // classification: tree/non-tree edges, internal/leaf vertices.
    const std::size_t stride = universe.size() > 60 ? 5 : 1;
    std::vector<std::pair<DualSite, DualSite>> pairs;
    for (std::size_t i = 0; i < universe.size(); i += stride) {
      for (std::size_t j = i; j < universe.size(); j += stride) {
        pairs.emplace_back(universe[i], universe[j]);
      }
    }
    std::vector<api::Query> batch;
    for (const auto& [a, b] : pairs) {
      for (Vertex v = 0; v < g.num_vertices(); ++v) {
        api::Query q;
        q.v = v;
        q.kind = a.kind;
        q.fault = a.id;
        q.kind2 = b.kind;
        q.fault2 = b.id;
        batch.push_back(q);
      }
    }
    const api::QueryResponse resp = session.query(batch);
    EXPECT_EQ(resp.refused, 0);
    EXPECT_EQ(resp.in_model, static_cast<std::int64_t>(batch.size()));
    EXPECT_LE(resp.pair_traversals, static_cast<std::int64_t>(pairs.size()));

    BfsScratch truth;
    std::size_t qi = 0;
    for (const auto& [a, b] : pairs) {
      dual_bruteforce_bfs(g, pc.source, a, b, truth);
      for (Vertex v = 0; v < g.num_vertices(); ++v, ++qi) {
        const bool destroyed = (a.kind == FaultClass::kVertex && a.id == v) ||
                               (b.kind == FaultClass::kVertex && b.id == v);
        const std::int32_t want = destroyed ? kInfHops : truth.dist(v);
        ASSERT_EQ(resp.results[qi].dist, want)
            << " v=" << v << " f1=(" << static_cast<int>(a.kind)
            << "," << a.id << ") f2=(" << static_cast<int>(b.kind) << ","
            << b.id << ")";
      }
    }
  }
}

TEST(DualFault, OracleFastPathsAreExactAndTraversalFree) {
  const Graph g = gen::random_connected(40, 110, 13);
  api::BuildSpec spec;
  spec.fault_model = FaultClass::kDual;
  const api::BuildResult res = api::build(g, spec);

  const EdgeWeights w = EdgeWeights::uniform_random(g, spec.weight_seed);
  const BfsTree tree(g, w, 0);
  const ReplacementDistTable<EdgeFault> ed(tree);
  const ReplacementDistTable<VertexFault> vd(tree);
  const DualFaultOracle oracle(tree, ed, vd, res.dual_tables.front());
  DualQueryArena arena;

  // (a) a doubled element degenerates to the single-fault tables;
  // (b) two off-tree elements (non-tree edge + leaf vertex) reduce to
  //     tree depths;
  // (c) a sited first element with a second edge outside H_f reuses the
  //     single-fault answer.
  EdgeId nontree = kInvalidEdge;
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    if (!tree.is_tree_edge(e)) {
      nontree = e;
      break;
    }
  }
  ASSERT_NE(nontree, kInvalidEdge);
  Vertex leaf = kInvalidVertex;
  for (Vertex x = 1; x < g.num_vertices(); ++x) {
    if (tree.reachable(x) && tree.subtree_size(x) == 1) {
      leaf = x;
      break;
    }
  }
  ASSERT_NE(leaf, kInvalidVertex);
  const DualSiteTable& t = res.dual_tables.front();
  std::pair<DualSite, DualSite> offsite_pair = {DualSite{FaultClass::kEdge,
                                                         nontree},
                                                DualSite{FaultClass::kVertex,
                                                         leaf}};
  // A (site, off-structure edge) pair, if the graph has an edge outside
  // the (dense) dual structure.
  std::vector<std::pair<DualSite, DualSite>> cases = {
      {DualSite{FaultClass::kEdge, tree.tree_edges().front()},
       DualSite{FaultClass::kEdge, tree.tree_edges().front()}},
      {DualSite{FaultClass::kVertex, leaf},
       DualSite{FaultClass::kVertex, leaf}},
      offsite_pair,
  };
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    if (!res.structure.contains(e)) {
      cases.push_back({DualSite{FaultClass::kEdge, tree.tree_edges().front()},
                       DualSite{FaultClass::kEdge, e}});
      break;
    }
  }
  (void)t;
  BfsScratch truth;
  for (const auto& [a, b] : cases) {
    ASSERT_TRUE(oracle.reducible(a, b));
    std::int64_t traversals = 0;
    dual_bruteforce_bfs(g, 0, a, b, truth);
    for (Vertex v = 0; v < g.num_vertices(); ++v) {
      const bool destroyed = (a.kind == FaultClass::kVertex && a.id == v) ||
                             (b.kind == FaultClass::kVertex && b.id == v);
      EXPECT_EQ(oracle.dist(v, a, b, arena, &traversals),
                destroyed ? kInfHops : truth.dist(v))
          << "v=" << v;
    }
    EXPECT_EQ(traversals, 0);  // the fast paths never traverse
  }
  // Reducible pairs touch neither cache counter: no traversal ran, none
  // was reused.
  EXPECT_EQ(arena.cache_hits(), 0);
  EXPECT_EQ(arena.cache_misses(), 0);
}

TEST(DualFault, OracleArenaCountsHitsMissesAndEvictions) {
  // The DualQueryArena is a one-slot subtree-sweep cache: repeats of one
  // non-reducible pair are hits, a different pair evicts the held sweep (a
  // miss), and reducible pairs bypass the cache entirely.
  const auto pc = test::property_cases(40, 1).front();
  FTB_PROPERTY_TRACE(pc, "dual_fault_test");
  const Graph& g = pc.graph;
  api::BuildSpec spec;
  spec.fault_model = FaultClass::kDual;
  spec.sources = {pc.source};
  const api::BuildResult res = api::build(g, spec);

  const EdgeWeights w = EdgeWeights::uniform_random(g, spec.weight_seed);
  const BfsTree tree(g, w, pc.source);
  const ReplacementDistTable<EdgeFault> ed(tree);
  const ReplacementDistTable<VertexFault> vd(tree);
  const DualFaultOracle oracle(tree, ed, vd, res.dual_tables.front());
  DualQueryArena arena;

  // Two distinct non-reducible pairs: adjacent tree edges always share a
  // π(s,·), so (tree edge, tree edge) pairs are never reducible.
  ASSERT_GE(tree.tree_edges().size(), 3u);
  const DualSite e0{FaultClass::kEdge, tree.tree_edges()[0]};
  const DualSite e1{FaultClass::kEdge, tree.tree_edges()[1]};
  const DualSite e2{FaultClass::kEdge, tree.tree_edges()[2]};
  ASSERT_FALSE(oracle.reducible(e0, e1));
  ASSERT_FALSE(oracle.reducible(e1, e2));

  // First touch: one miss, then every same-pair query hits.
  std::int64_t traversals = 0;
  BfsScratch truth;
  dual_bruteforce_bfs(g, pc.source, e0, e1, truth);
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    ASSERT_EQ(oracle.dist(v, e0, e1, arena, &traversals), truth.dist(v));
  }
  EXPECT_EQ(arena.cache_misses(), 1);
  EXPECT_EQ(arena.cache_hits(),
            static_cast<std::int64_t>(g.num_vertices()) - 1);
  EXPECT_EQ(traversals, 1);

  // The unordered spelling of the held pair is still a hit.
  ASSERT_EQ(oracle.dist(0, e1, e0, arena, &traversals),
            oracle.dist(0, e0, e1, arena, &traversals));
  EXPECT_EQ(arena.cache_misses(), 1);

  // A pair storm alternating two pairs evicts the one-slot cache every
  // time: each switch is a fresh miss, answers stay exact throughout.
  BfsScratch truth2;
  dual_bruteforce_bfs(g, pc.source, e1, e2, truth2);
  const std::int64_t misses_before = arena.cache_misses();
  for (int round = 0; round < 4; ++round) {
    // The arena holds {e0, e1} entering the storm, so leading with
    // {e1, e2} makes every round an eviction.
    const bool second = round % 2 == 0;
    const DualSite a = second ? e1 : e0;
    const DualSite b = second ? e2 : e1;
    BfsScratch& want = second ? truth2 : truth;
    ASSERT_EQ(oracle.dist(1, a, b, arena, nullptr), want.dist(1));
  }
  EXPECT_EQ(arena.cache_misses(), misses_before + 4);

  // Reducible traffic in between does not disturb the held traversal.
  EdgeId off_structure = kInvalidEdge;
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    if (!res.structure.contains(e)) {  // in no subset, on no tree
      off_structure = e;
      break;
    }
  }
  const std::int64_t hits_before = arena.cache_hits();
  if (off_structure != kInvalidEdge) {
    const DualSite off{FaultClass::kEdge, off_structure};
    ASSERT_TRUE(oracle.reducible(e1, off));
    (void)oracle.dist(2, e1, off, arena, nullptr);
    EXPECT_EQ(arena.cache_misses(), misses_before + 4);
  }
  // The storm ended on {e0, e1}; that pair is still held.
  ASSERT_EQ(oracle.dist(3, e0, e1, arena, nullptr), truth.dist(3));
  EXPECT_EQ(arena.cache_hits(), hits_before + 1);
}

/// One source's serving stack, assembled the way Session::deploy does.
struct OracleRig {
  OracleRig(const Graph& g, Vertex s, const DualSiteTable& tables,
            std::uint64_t weight_seed)
      : w(EdgeWeights::uniform_random(g, weight_seed)),
        tree(g, w, s),
        ed(tree),
        vd(tree),
        oracle(tree, ed, vd, tables) {}
  EdgeWeights w;
  BfsTree tree;
  ReplacementDistTable<EdgeFault> ed;
  ReplacementDistTable<VertexFault> vd;
  DualFaultOracle oracle;
};

/// Pins oracle.dist for the pair {a, b} against brute force at every
/// vertex, asked in both argument orders.
void expect_pair_exact(const OracleRig& rig, DualQueryArena& arena,
                       DualSite a, DualSite b, const std::string& what) {
  const Graph& g = rig.tree.graph();
  BfsScratch truth;
  dual_bruteforce_bfs(g, rig.tree.source(), a, b, truth);
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    const bool destroyed = (a.kind == FaultClass::kVertex && a.id == v) ||
                           (b.kind == FaultClass::kVertex && b.id == v);
    const std::int32_t want = destroyed ? kInfHops : truth.dist(v);
    ASSERT_EQ(rig.oracle.dist(v, a, b, arena), want) << what << " v=" << v;
    ASSERT_EQ(rig.oracle.dist(v, b, a, arena), want) << what << " v=" << v;
  }
}

DualSite edge_site(EdgeId e) { return DualSite{FaultClass::kEdge, e}; }
DualSite vertex_site(Vertex x) { return DualSite{FaultClass::kVertex, x}; }

TEST(DualFault, SubtreeSweepServesEveryRegionShape) {
  // A non-reducible pair is answered by one sweep over the affected region
  // A = sub(f1) ∪ sub(f2), every v ∉ A read off its T0 depth. Pin every
  // way A is formed against brute force: nested subtrees, disjoint ones
  // (the deeper top first and second by id), a sited vertex as the top of
  // A, a non-sited leaf vertex inside A, a non-tree edge of C_f, the two
  // largest root subtrees (A is most of the graph), and — on a
  // disconnected graph — vertices unreachable in T0. One arena serves
  // every shape, so the cache also turns over between region shapes.
  std::vector<test::FamilyCase> cases = test::diff_families();
  {
    const Graph base = gen::random_connected(24, 50, 5);
    const Vertex n = base.num_vertices();
    GraphBuilder b(n + 4);  // + a triangle and an isolated vertex
    for (EdgeId e = 0; e < base.num_edges(); ++e) {
      b.add_edge(base.edge(e).first, base.edge(e).second);
    }
    b.add_edge(n, n + 1);
    b.add_edge(n + 1, n + 2);
    b.add_edge(n + 2, n);
    cases.push_back({"disconnected", b.build(), 0});
  }
  std::set<std::string> seen;
  for (const test::FamilyCase& fc : cases) {
    SCOPED_TRACE(fc.name);
    const Graph& g = fc.graph;
    api::BuildSpec spec;
    spec.fault_model = FaultClass::kDual;
    spec.sources = {fc.source};
    const api::BuildResult res = api::build(g, spec);
    const DualSiteTable& tables = res.dual_tables.front();
    const OracleRig rig(g, fc.source, tables, spec.weight_seed);
    const BfsTree& tree = rig.tree;
    if (fc.name == "disconnected") {
      ASSERT_LT(tree.num_reachable(), g.num_vertices());
    }

    std::vector<std::tuple<std::string, DualSite, DualSite>> shapes;
    const auto add = [&](const std::string& name, DualSite a, DualSite b) {
      for (const auto& [have, x, y] : shapes) {
        if (have == name) return;  // first instance of each shape only
      }
      shapes.emplace_back(name, a, b);
    };
    const Vertex s = tree.source();
    for (const Vertex c : tree.preorder()) {
      if (c == s) continue;
      if (!tree.children(c).empty()) {
        const EdgeId below = tree.parent_edge(tree.children(c).front());
        add("nested", edge_site(tree.parent_edge(c)), edge_site(below));
        add("sited vertex top, nested edge", vertex_site(c),
            edge_site(below));
        add("sited vertex top, own parent edge", vertex_site(c),
            edge_site(tree.parent_edge(c)));
      } else if (tree.parent(c) != s) {
        add("non-sited leaf inside A",
            edge_site(tree.parent_edge(tree.parent(c))), vertex_site(c));
      }
      for (const Vertex d : tree.preorder()) {
        if (d == s || tree.depth(d) <= tree.depth(c) ||
            tree.is_ancestor_or_equal(c, d)) {
          continue;
        }
        const EdgeId ec = tree.parent_edge(c), ed = tree.parent_edge(d);
        add(ed < ec ? "disjoint, deeper top first"
                    : "disjoint, deeper top second",
            edge_site(ec), edge_site(ed));
      }
    }
    for (std::size_t i = 0; i < tables.num_sites(); ++i) {
      for (const EdgeId e : tables.subset(i)) {
        if (!tree.is_tree_edge(e)) {
          add("non-tree edge of C_f", tables.sites[i], edge_site(e));
        }
      }
    }
    // The two largest root subtrees: A is most of the graph, and the
    // larger top is internal, so the vertex spelling is sited too.
    std::vector<Vertex> kids(tree.children(s).begin(), tree.children(s).end());
    ASSERT_GE(kids.size(), 2u);
    std::sort(kids.begin(), kids.end(), [&](Vertex x, Vertex y) {
      return tree.subtree_size(x) > tree.subtree_size(y);
    });
    add("both root children (edges)", edge_site(tree.parent_edge(kids[0])),
        edge_site(tree.parent_edge(kids[1])));
    add("both root children (vertices)", vertex_site(kids[0]),
        vertex_site(kids[1]));

    DualQueryArena arena;
    for (const auto& [name, a, b] : shapes) {
      seen.insert(name);
      ASSERT_FALSE(rig.oracle.reducible(a, b)) << name;
      expect_pair_exact(rig, arena, a, b, name);
    }
    // One sweep per shape; every other answer was a cache hit.
    EXPECT_EQ(arena.cache_misses(), static_cast<std::int64_t>(shapes.size()));
  }
  EXPECT_EQ(seen.size(), 9u);  // every shape met on some graph
}

TEST(DualFault, SubtreeSweepVisitsScaleWithTheRegionNotTheGraph) {
  // The work counter covers every vertex the sweep touches (seeding plus
  // settled pops), at most 2·|A| per sweep: a pair of leaf parent edges
  // costs a handful of visits on a 600-vertex graph, and cache hits cost
  // none.
  const Graph g = gen::random_connected(600, 1500, 41);
  api::BuildSpec spec;
  spec.fault_model = FaultClass::kDual;
  const api::BuildResult res = api::build(g, spec);
  const OracleRig rig(g, 0, res.dual_tables.front(), spec.weight_seed);
  const BfsTree& tree = rig.tree;
  std::vector<Vertex> leaves;
  for (const Vertex x : tree.preorder()) {
    if (x != 0 && tree.subtree_size(x) == 1) leaves.push_back(x);
  }
  ASSERT_GE(leaves.size(), 2u);
  const std::span<const Vertex> kids = tree.children(0);
  ASSERT_GE(kids.size(), 2u);
  const std::int64_t root_region =
      tree.subtree_size(kids[0]) + tree.subtree_size(kids[1]);
  const struct {
    const char* name;
    DualSite a, b;
    std::int64_t region;
  } pairs[] = {
      {"leaf pair", edge_site(tree.parent_edge(leaves.front())),
       edge_site(tree.parent_edge(leaves.back())), 2},
      {"root-child pair", edge_site(tree.parent_edge(kids[0])),
       edge_site(tree.parent_edge(kids[1])), root_region},
  };
  DualQueryArena arena;
  for (const auto& p : pairs) {
    const std::int64_t before = arena.sweep_visits();
    const std::int64_t misses = arena.cache_misses();
    expect_pair_exact(rig, arena, p.a, p.b, p.name);
    EXPECT_EQ(arena.cache_misses(), misses + 1) << p.name;
    const std::int64_t visits = arena.sweep_visits() - before;
    EXPECT_GT(visits, 0) << p.name;
    EXPECT_LE(visits, 2 * p.region) << p.name;
  }
}

TEST(DualFault, PairSweepCacheIsKeyedOnTheSource) {
  // The arena's one-slot cache holds one sweep over ONE oracle's tree: the
  // same pair asked for another source must evict it, never hit. Asked
  // directly on one shared arena and through one inline Session batch.
  const Graph g = gen::random_connected(32, 70, 23);
  api::BuildSpec spec;
  spec.fault_model = FaultClass::kDual;
  spec.sources = {0, 17};
  const api::BuildResult res = api::build(g, spec);
  ASSERT_EQ(res.dual_tables.size(), 2u);
  const OracleRig r0(g, 0, res.dual_tables[0], spec.weight_seed);
  const OracleRig r1(g, 17, res.dual_tables[1], spec.weight_seed);
  std::vector<EdgeId> shared;  // tree edges of both trees: sited for both
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    if (r0.tree.is_tree_edge(e) && r1.tree.is_tree_edge(e)) {
      shared.push_back(e);
    }
  }
  ASSERT_GE(shared.size(), 4u);
  std::vector<std::pair<DualSite, DualSite>> pairs;
  for (std::size_t i = 0; i + 1 < shared.size(); i += 2) {
    pairs.emplace_back(edge_site(shared[i]), edge_site(shared[i + 1]));
  }

  DualQueryArena arena;
  for (const auto& [a, b] : pairs) {
    expect_pair_exact(r0, arena, a, b, "source 0");
    expect_pair_exact(r1, arena, a, b, "source 17");
  }
  EXPECT_EQ(arena.cache_misses(), 2 * static_cast<std::int64_t>(pairs.size()));

  const api::Session session = api::Session::deploy(g, res);
  std::vector<api::Query> batch;
  for (const auto& [a, b] : pairs) {
    for (std::int32_t si = 0; si < 2; ++si) {
      for (Vertex v = 0; v < g.num_vertices(); ++v) {
        api::Query q;
        q.v = v;
        q.kind = a.kind;
        q.fault = a.id;
        q.kind2 = b.kind;
        q.fault2 = b.id;
        q.source_index = si;
        batch.push_back(q);
      }
    }
  }
  // Every query joins a pair group, so the batch's work is its size; below
  // api::kShardWork the groups drain on the caller thread through ONE
  // arena, which must then evict between the two sources.
  ASSERT_LT(batch.size(), static_cast<std::size_t>(api::kShardWork));
  const api::QueryResponse resp = session.query(batch);
  EXPECT_EQ(resp.pair_traversals, 2 * static_cast<std::int64_t>(pairs.size()));
  BfsScratch truth;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const api::Query& q = batch[i];
    const Vertex src = spec.sources[static_cast<std::size_t>(q.source_index)];
    dual_bruteforce_bfs(g, src, DualSite{q.kind, q.fault},
                        DualSite{q.kind2, q.fault2}, truth);
    ASSERT_EQ(resp.results[i].dist, truth.dist(q.v)) << "query " << i;
  }
}

TEST(DualFault, SavedSessionReloadsAndServesIdentically) {
  const Graph g = gen::random_connected(36, 80, 19);
  api::BuildSpec spec;
  spec.fault_model = FaultClass::kDual;
  const api::Session original = api::Session::open(g, spec);

  const std::string path = ::testing::TempDir() + "/dual_session.ftbfs";
  original.save_v5(path);

  // The artifact is a v5 file with its pair tables.
  {
    std::ifstream f(path);
    std::string first;
    std::getline(f, first);
    EXPECT_EQ(first, "ftbfs-structure 5");
    std::stringstream rest;
    rest << f.rdbuf();
    EXPECT_NE(rest.str().find("fault-model dual"), std::string::npos);
    EXPECT_NE(rest.str().find("pair-tables 1"), std::string::npos);
  }

  std::vector<Vertex> sources;
  std::vector<DualSiteTable> tables;
  const FtBfsStructure reloaded_h =
      io::load_structure(g, path, &sources, &tables);
  EXPECT_EQ(reloaded_h.fault_class(), FaultClass::kDual);
  ASSERT_EQ(tables.size(), 1u);

  const api::Session reloaded = api::Session::load(g, path);
  std::remove(path.c_str());

  const auto universe = universe_of(g, 0);
  std::vector<api::Query> batch;
  for (std::size_t i = 0; i < universe.size(); i += 3) {
    for (std::size_t j = i; j < universe.size(); j += 7) {
      for (Vertex v = 0; v < g.num_vertices(); v += 2) {
        api::Query q;
        q.v = v;
        q.kind = universe[i].kind;
        q.fault = universe[i].id;
        q.kind2 = universe[j].kind;
        q.fault2 = universe[j].id;
        batch.push_back(q);
      }
    }
  }
  const api::QueryResponse a = original.query(batch);
  const api::QueryResponse b = reloaded.query(batch);
  ASSERT_EQ(a.results.size(), b.results.size());
  for (std::size_t i = 0; i < a.results.size(); ++i) {
    EXPECT_EQ(a.results[i].dist, b.results[i].dist) << i;
    EXPECT_EQ(a.results[i].outcome, b.results[i].outcome) << i;
  }
}

TEST(DualFault, ArtifactWithoutTablesIsRebuiltOnLoad) {
  const Graph g = gen::grid_graph(5, 5);
  api::BuildSpec spec;
  spec.fault_model = FaultClass::kDual;
  const api::Session original = api::Session::open(g, spec);

  // A legacy v4 artifact WITHOUT pair tables (pair-tables 0) still loads;
  // the session rebuilds the tables deterministically from the weight seed.
  std::ostringstream os;
  io::write_structure_v5(original.structure(), original.sources(), {}, os);
  const std::string v4 = test::legacy_from_v5(os.str(), 4);
  EXPECT_NE(v4.find("pair-tables 0"), std::string::npos);
  const std::string path = ::testing::TempDir() + "/dual_no_tables.ftbfs";
  {
    std::ofstream f(path);
    f << v4;
  }
  const api::Session reloaded = api::Session::load(g, path);
  std::remove(path.c_str());

  api::Query q;
  q.v = g.num_vertices() - 1;
  q.kind = FaultClass::kEdge;
  q.fault = original.structure().tree_edges().front();
  q.kind2 = FaultClass::kVertex;
  q.fault2 = 1;
  const api::QueryResult ra = original.query_one(q);
  const api::QueryResult rb = reloaded.query_one(q);
  EXPECT_EQ(ra.outcome, api::QueryOutcome::kInModel);
  EXPECT_EQ(ra.dist, rb.dist);
}

TEST(DualFault, MultiSourceDualServesEverySource) {
  const Graph g = gen::random_connected(32, 70, 23);
  api::BuildSpec spec;
  spec.fault_model = FaultClass::kDual;
  spec.sources = {0, 17};
  const api::Session session = api::Session::open(g, spec);
  ASSERT_EQ(session.sources().size(), 2u);

  // Per-source contract: the union structure re-anchored at each source
  // still matches brute force on sampled pairs.
  for (const Vertex s : spec.sources) {
    const FtBfsStructure view(g, s, session.structure().edges(), {},
                              session.structure().tree_edges(),
                              FaultClass::kDual);
    EXPECT_EQ(verify_dual_structure(view, /*max_pairs=*/400, /*seed=*/5), 0)
        << "source " << s;
  }

  // And the batched plane answers for both source indices.
  const auto universe = universe_of(g, kInvalidVertex);  // all vertices
  std::vector<api::Query> batch;
  for (std::int32_t si = 0; si < 2; ++si) {
    const Vertex src = spec.sources[static_cast<std::size_t>(si)];
    for (std::size_t i = 0; i < universe.size(); i += 6) {
      for (std::size_t j = i; j < universe.size(); j += 9) {
        if ((universe[i].kind == FaultClass::kVertex &&
             universe[i].id == src) ||
            (universe[j].kind == FaultClass::kVertex &&
             universe[j].id == src)) {
          continue;  // the asking source never fails
        }
        for (Vertex v = 0; v < g.num_vertices(); v += 3) {
          api::Query q;
          q.v = v;
          q.kind = universe[i].kind;
          q.fault = universe[i].id;
          q.kind2 = universe[j].kind;
          q.fault2 = universe[j].id;
          q.source_index = si;
          batch.push_back(q);
        }
      }
    }
  }
  const api::QueryResponse resp = session.query(batch);
  EXPECT_EQ(resp.refused, 0);
  BfsScratch truth;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const api::Query& q = batch[i];
    const Vertex src = spec.sources[static_cast<std::size_t>(q.source_index)];
    dual_bruteforce_bfs(g, src, DualSite{q.kind, q.fault},
                        DualSite{q.kind2, q.fault2}, truth);
    const bool destroyed =
        (q.kind == FaultClass::kVertex && q.fault == q.v) ||
        (q.kind2 == FaultClass::kVertex && q.fault2 == q.v);
    ASSERT_EQ(resp.results[i].dist, destroyed ? kInfHops : truth.dist(q.v))
        << i;
  }
}

TEST(DualFault, PairRefusalAndWhatIfRules) {
  const Graph g = gen::random_connected(30, 70, 29);
  // A pair containing the asking source is refused even on a dual session.
  api::BuildSpec dual_spec;
  dual_spec.fault_model = FaultClass::kDual;
  const api::Session dual_session = api::Session::open(g, dual_spec);
  api::Query q;
  q.v = 5;
  q.kind = FaultClass::kVertex;
  q.fault = 0;  // the source
  q.kind2 = FaultClass::kEdge;
  q.fault2 = 0;
  q.allow_what_if = true;
  EXPECT_EQ(dual_session.query_one(q).outcome, api::QueryOutcome::kRefused);

  // On a single-fault session a pair is out of model: refused without
  // allow_what_if, answered by literal BFS on H minus both with it.
  api::BuildSpec edge_spec;
  edge_spec.eps = 0.3;
  const api::Session edge_session = api::Session::open(g, edge_spec);
  api::Query p;
  p.v = 7;
  p.kind = FaultClass::kEdge;
  p.fault = 1;
  p.kind2 = FaultClass::kVertex;
  p.fault2 = 3;
  EXPECT_EQ(edge_session.query_one(p).outcome, api::QueryOutcome::kRefused);
  p.allow_what_if = true;
  const api::QueryResult r = edge_session.query_one(p);
  EXPECT_EQ(r.outcome, api::QueryOutcome::kWhatIf);
  // Referee: literal BFS on H minus the pair.
  const FtBfsStructure& h = edge_session.structure();
  std::vector<std::uint8_t> mask(static_cast<std::size_t>(g.num_vertices()),
                                 0);
  mask[3] = 1;
  BfsBans bans;
  bans.banned_edge_mask = &h.complement_mask();
  bans.banned_edge = 1;
  bans.banned_vertex = &mask;
  BfsScratch scratch;
  bfs_run(g, 0, bans, scratch);
  EXPECT_EQ(r.dist, scratch.dist(7));
}

TEST(DualFault, DualDrillsReportZeroViolations) {
  const Graph g = gen::random_connected(36, 90, 31);
  api::BuildSpec spec;
  spec.fault_model = FaultClass::kDual;
  const api::Session session = api::Session::open(g, spec);

  // Structure-side build-then-verify drill.
  const DrillReport structural =
      run_failure_drill(session.structure(), FaultClass::kDual, 200, 3);
  EXPECT_EQ(structural.violations, 0) << structural.to_string();
  EXPECT_DOUBLE_EQ(structural.max_stretch, 1.0);

  // Session-served drill: same storm, same verdict.
  const DrillReport served =
      run_failure_drill(session, FaultClass::kDual, 200, 3);
  EXPECT_EQ(served.violations, 0) << served.to_string();
  EXPECT_EQ(served.drills, structural.drills);
  EXPECT_EQ(served.reachable_queries, structural.reachable_queries);
}

TEST(DualFault, ScalarLanesRefereeIsByteIdenticalOnStructuresAndAnswers) {
  // The bit-parallel kernel batches the unpruned referee's per-site
  // punctured rebuilds (per-lane BfsBans carrying each site's failure) and
  // the multi-source tree builds. Against the scalar-lane referee — crossed
  // with unpruned_dual — the structure, the pair tables, AND the batched
  // session answers must agree byte for byte.
  for (const auto& pc : test::property_cases(30, 1)) {
    FTB_PROPERTY_TRACE(pc, "dual_fault_test");
    for (const bool unpruned : {false, true}) {
      api::BuildSpec spec;
      spec.fault_model = FaultClass::kDual;
      spec.sources = {pc.source};
      const api::BuildResult ra =
          api::detail::build(pc.graph, spec, {.unpruned_dual = unpruned});
      const api::BuildResult rb = api::detail::build(
          pc.graph, spec, {.scalar_lanes = true, .unpruned_dual = unpruned});
      EXPECT_EQ(ra.structure.edges(), rb.structure.edges())
          << pc.name() << " unpruned=" << unpruned;
      EXPECT_EQ(ra.structure.tree_edges(), rb.structure.tree_edges())
          << pc.name() << " unpruned=" << unpruned;
      ASSERT_EQ(ra.dual_tables.size(), rb.dual_tables.size());
      const DualSiteTable& ta = ra.dual_tables.front();
      const DualSiteTable& tb = rb.dual_tables.front();
      EXPECT_TRUE(ta.sites == tb.sites)
          << pc.name() << " unpruned=" << unpruned;
      EXPECT_EQ(ta.offsets, tb.offsets)
          << pc.name() << " unpruned=" << unpruned;
      EXPECT_EQ(ta.edge_pool, tb.edge_pool)
          << pc.name() << " unpruned=" << unpruned;

      const api::Session sa = api::Session::deploy(pc.graph, ra);
      const api::Session sb = api::Session::deploy(pc.graph, rb);
      test::FaultSampler sampler(pc.graph, pc.source, pc.seed ^ 0xB17A);
      std::vector<api::Query> batch;
      for (const auto& [x, y] : sampler.sample_pairs(40)) {
        for (Vertex v = 0; v < pc.graph.num_vertices(); v += 3) {
          api::Query q;
          q.v = v;
          q.kind = x.kind;
          q.fault = x.id;
          q.kind2 = y.kind;
          q.fault2 = y.id;
          batch.push_back(q);
        }
      }
      const api::QueryResponse qa = sa.query(batch);
      const api::QueryResponse qb = sb.query(batch);
      ASSERT_EQ(qa.results.size(), qb.results.size());
      for (std::size_t i = 0; i < qa.results.size(); ++i) {
        ASSERT_EQ(qa.results[i].dist, qb.results[i].dist)
            << pc.name() << " unpruned=" << unpruned << " query " << i;
        ASSERT_EQ(qa.results[i].outcome, qb.results[i].outcome)
            << pc.name() << " unpruned=" << unpruned << " query " << i;
      }
    }
  }
}

TEST(DualFault, MultiSourceDualScalarLanesRefereeIsByteIdentical) {
  // The multi-source dual path crosses both fused seams at once: fused
  // per-source canonical builds AND the per-source pair-table rebuilds.
  const Graph g = gen::random_connected(32, 70, 23);
  api::BuildSpec spec;
  spec.fault_model = FaultClass::kDual;
  spec.sources = {0, 9, 17};
  const api::BuildResult ra = api::build(g, spec);
  const api::BuildResult rb =
      api::detail::build(g, spec, {.scalar_lanes = true});
  EXPECT_EQ(ra.structure.edges(), rb.structure.edges());
  ASSERT_EQ(ra.dual_tables.size(), rb.dual_tables.size());
  for (std::size_t s = 0; s < ra.dual_tables.size(); ++s) {
    EXPECT_TRUE(ra.dual_tables[s].sites == rb.dual_tables[s].sites) << s;
    EXPECT_EQ(ra.dual_tables[s].offsets, rb.dual_tables[s].offsets) << s;
    EXPECT_EQ(ra.dual_tables[s].edge_pool, rb.dual_tables[s].edge_pool) << s;
  }
}

/// Byte-level equality of the pair tables / site-dist rows — the referee
/// the DFS-schedule tests pin both schedules against.
bool same_tables(const DualSiteTable& a, const DualSiteTable& b) {
  return a.sites == b.sites && a.offsets == b.offsets &&
         a.edge_pool == b.edge_pool;
}
bool same_site_dist(const DualSiteDistTable& a, const DualSiteDistTable& b) {
  return a.site_offsets == b.site_offsets && a.parent_edge == b.parent_edge &&
         a.tf_depth == b.tf_depth && a.row_offsets == b.row_offsets &&
         a.rows == b.rows;
}

TEST(DualFault, DfsScheduleIsByteIdenticalToIndependentRebase) {
  // The DFS-order ancestor-sweep schedule reuses each site's nearest
  // processed ancestor's workspace state; the independent schedule rebases
  // every site from T0 in isolation. On all four property families the
  // structure, pair tables AND site-dist rows must agree byte for byte,
  // and the DFS schedule's rebase-seam work must be strictly lower (it
  // pays subtree-volume patches where the referee pays a full O(n) label
  // copy per site).
  for (const auto& pc : test::property_cases(34, 2)) {
    FTB_PROPERTY_TRACE(pc, "dual_fault_test");
    DualFtBfsOptions dfs;
    dfs.site_dist_oracle = true;
    dfs.dfs_schedule = true;
    DualFtBfsOptions ind = dfs;
    ind.dfs_schedule = false;
    const DualBuildResult a =
        detail::build_dual_failure_ftbfs_impl(pc.graph, pc.source, dfs);
    const DualBuildResult b =
        detail::build_dual_failure_ftbfs_impl(pc.graph, pc.source, ind);
    EXPECT_EQ(a.structure.edges(), b.structure.edges()) << pc.name();
    EXPECT_EQ(a.structure.tree_edges(), b.structure.tree_edges()) << pc.name();
    EXPECT_TRUE(same_tables(a.tables, b.tables)) << pc.name();
    EXPECT_TRUE(same_site_dist(a.site_dist, b.site_dist)) << pc.name();
    EXPECT_LT(a.sweep_work.total(), b.sweep_work.total()) << pc.name();
  }
}

TEST(DualFault, DfsScheduleOnDegenerateTrees) {
  // Path: T0 is one chain, so DFS order visits sites root-downward and
  // consecutive sites share all but one path edge of ancestor state. Star:
  // every site's affected subtree is a leaf (or the whole fan for the
  // center vertex), the smallest possible patches. Both extremes must stay
  // byte-identical across schedules.
  for (const Graph& g : {gen::path_graph(64), gen::star_graph(64)}) {
    DualFtBfsOptions dfs;
    dfs.site_dist_oracle = true;
    dfs.dfs_schedule = true;
    DualFtBfsOptions ind = dfs;
    ind.dfs_schedule = false;
    const DualBuildResult a = detail::build_dual_failure_ftbfs_impl(g, 0, dfs);
    const DualBuildResult b = detail::build_dual_failure_ftbfs_impl(g, 0, ind);
    EXPECT_EQ(a.structure.edges(), b.structure.edges());
    EXPECT_TRUE(same_tables(a.tables, b.tables));
    EXPECT_TRUE(same_site_dist(a.site_dist, b.site_dist));
    EXPECT_LT(a.sweep_work.total(), b.sweep_work.total());
    // The structures still honor the dual contract on every pair.
    EXPECT_EQ(verify_dual_structure(a.structure, /*max_pairs=*/-1), 0);
  }
}

TEST(DualFault, DualDfsScheduleKnobThroughFacade) {
  // The facade knob (BuildSpec::dual_dfs_schedule) reaches the pruned
  // build: structures, tables, and batched session answers are identical
  // with the schedule on or off.
  const Graph g = gen::random_connected(36, 90, 19);
  api::BuildSpec on;
  on.fault_model = FaultClass::kDual;
  on.sources = {0};
  api::BuildSpec off = on;
  off.dual_dfs_schedule = false;
  const api::BuildResult ra = api::build(g, on);
  const api::BuildResult rb = api::build(g, off);
  EXPECT_EQ(ra.structure.edges(), rb.structure.edges());
  ASSERT_EQ(ra.dual_tables.size(), rb.dual_tables.size());
  EXPECT_TRUE(same_tables(ra.dual_tables.front(), rb.dual_tables.front()));

  const api::Session sa = api::Session::deploy(g, ra);
  const api::Session sb = api::Session::deploy(g, rb);
  test::FaultSampler sampler(g, 0, 0xD5F5);
  std::vector<api::Query> batch;
  for (const auto& [x, y] : sampler.sample_pairs(40)) {
    for (Vertex v = 0; v < g.num_vertices(); v += 3) {
      api::Query q;
      q.v = v;
      q.kind = x.kind;
      q.fault = x.id;
      q.kind2 = y.kind;
      q.fault2 = y.id;
      batch.push_back(q);
    }
  }
  const api::QueryResponse qa = sa.query(batch);
  const api::QueryResponse qb = sb.query(batch);
  ASSERT_EQ(qa.results.size(), qb.results.size());
  for (std::size_t i = 0; i < qa.results.size(); ++i) {
    ASSERT_EQ(qa.results[i].dist, qb.results[i].dist) << "query " << i;
    ASSERT_EQ(qa.results[i].outcome, qb.results[i].outcome) << "query " << i;
  }
}

TEST(DualFault, ConcurrentDualBuildStormIsDeterministic) {
  // Several threads build the same dual structure simultaneously — both
  // schedules, site-dist on — all through the shared global pool (nested
  // parallel_for, pooled workspaces). Every result must equal the
  // reference build byte for byte; TSan watches this under the
  // concurrency ctest label.
  const Graph g = gen::random_connected(48, 140, 11);
  DualFtBfsOptions ref_opts;
  ref_opts.site_dist_oracle = true;
  const DualBuildResult ref =
      detail::build_dual_failure_ftbfs_impl(g, 0, ref_opts);
  constexpr int kThreads = 4;
  constexpr int kRounds = 3;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < kRounds; ++round) {
        DualFtBfsOptions opts;
        opts.site_dist_oracle = true;
        opts.dfs_schedule = (t + round) % 2 == 0;
        const DualBuildResult r =
            detail::build_dual_failure_ftbfs_impl(g, 0, opts);
        if (r.structure.edges() != ref.structure.edges() ||
            !same_tables(r.tables, ref.tables) ||
            !same_site_dist(r.site_dist, ref.site_dist)) {
          mismatches++;
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(mismatches.load(), 0);
}

TEST(DualFault, WrongWeightSeedIsRefusedAtLoad) {
  const Graph g = gen::random_connected(30, 80, 37);
  api::BuildSpec spec;
  spec.fault_model = FaultClass::kDual;
  spec.weight_seed = 1234;
  const api::Session session = api::Session::open(g, spec);
  const std::string path = ::testing::TempDir() + "/dual_seed.ftbfs";
  session.save_v5(path);
  api::SessionConfig cfg;
  cfg.weight_seed = 1235;
  EXPECT_THROW(api::Session::load(g, path, cfg), CheckError);
  cfg.weight_seed = 1234;
  EXPECT_NO_THROW(api::Session::load(g, path, cfg));
  std::remove(path.c_str());
}

}  // namespace
}  // namespace ftb
