// structure_oracle_test.cpp — O(1) deployed-structure queries vs BFS.
#include <gtest/gtest.h>

#include "src/core/epsilon_ftbfs.hpp"
#include "src/core/structure_oracle.hpp"
#include "src/graph/generators.hpp"

namespace ftb {
namespace {

struct Fixture {
  Graph g;
  EdgeWeights w;
  BfsTree tree;
  ReplacementPathEngine engine;
  EpsilonResult res;
  StructureOracle oracle;

  explicit Fixture(Graph graph, double eps, std::uint64_t seed)
      : g(std::move(graph)),
        w(EdgeWeights::uniform_random(g, seed)),
        tree(g, w, 0),
        engine(tree),
        res([&] {
          EpsilonOptions opts;
          opts.eps = eps;
          opts.weight_seed = seed;
          return detail::build_epsilon_ftbfs_impl(g, 0, opts);
        }()),
        oracle(res.structure, engine) {}
};

TEST(StructureOracle, MatchesLiteralBfsOnEveryFaultProneEdge) {
  Fixture fx(gen::gnm(36, 150, 21), 0.25, 21);
  for (EdgeId e = 0; e < fx.g.num_edges(); ++e) {
    if (fx.res.structure.is_reinforced(e)) continue;
    const auto bfs = fx.res.structure.distances_avoiding(e);
    for (Vertex v = 0; v < fx.g.num_vertices(); ++v) {
      ASSERT_EQ(fx.oracle.query(v, e), bfs[static_cast<std::size_t>(v)])
          << "v=" << v << " e=" << e;
    }
  }
}

TEST(StructureOracle, RefusesReinforcedFailures) {
  // Force a structure with reinforcement: deep LB-style workload at tiny ε.
  Fixture fx(gen::lollipop(12, 8), 0.05, 23);
  bool found_reinforced = false;
  for (const EdgeId e : fx.res.structure.reinforced()) {
    found_reinforced = true;
    EXPECT_THROW(fx.oracle.query(0, e), CheckError);
    // query_unchecked still answers (BFS fallback).
    const auto bfs = fx.res.structure.distances_avoiding(e);
    for (Vertex v = 0; v < std::min<Vertex>(fx.g.num_vertices(), 8); ++v) {
      EXPECT_EQ(fx.oracle.query_unchecked(v, e),
                bfs[static_cast<std::size_t>(v)]);
    }
  }
  // The lollipop tail edges are bridges — no reinforcement needed there;
  // accept either outcome but exercise the unchecked path regardless.
  if (!found_reinforced) {
    EXPECT_GE(fx.res.structure.num_reinforced(), 0);
  }
}

TEST(StructureOracle, UncheckedScratchCacheStaysExact) {
  // query_unchecked caches one literal BFS per distinct failed edge on a
  // member scratch; alternating failures and sweeping vertices must keep
  // returning exactly what a fresh BFS reports.
  Fixture fx(gen::lollipop(12, 8), 0.05, 27);
  std::vector<EdgeId> probe = fx.res.structure.reinforced();
  if (probe.size() > 3) probe.resize(3);
  if (probe.empty()) return;  // nothing reinforced at this seed — vacuous
  for (int round = 0; round < 2; ++round) {
    for (const EdgeId e : probe) {
      const auto fresh = fx.res.structure.distances_avoiding(e);
      for (Vertex v = 0; v < fx.g.num_vertices(); ++v) {
        ASSERT_EQ(fx.oracle.query_unchecked(v, e),
                  fresh[static_cast<std::size_t>(v)])
            << "round=" << round << " v=" << v << " e=" << e;
      }
    }
  }
}

TEST(StructureOracle, RejectsMismatchedEngines) {
  const Graph g = gen::gnm(30, 120, 25);
  const EdgeWeights w1 = EdgeWeights::uniform_random(g, 1);
  const BfsTree t1(g, w1, 0);
  const ReplacementPathEngine e1(t1);
  EpsilonOptions opts;
  opts.eps = 0.25;
  opts.weight_seed = 999;  // different tree with high probability
  const EpsilonResult res = detail::build_epsilon_ftbfs_impl(g, 0, opts);
  // Either the trees coincide (fine) or construction must throw.
  std::vector<EdgeId> a = res.structure.tree_edges();
  std::vector<EdgeId> b = t1.tree_edges();
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  if (a != b) {
    EXPECT_THROW(StructureOracle(res.structure, e1), CheckError);
  }
  // Different source always throws.
  EpsilonOptions o2;
  o2.eps = 0.25;
  o2.weight_seed = 1;
  const EpsilonResult res2 = detail::build_epsilon_ftbfs_impl(g, 5, o2);
  EXPECT_THROW(StructureOracle(res2.structure, e1), CheckError);
}

}  // namespace
}  // namespace ftb
