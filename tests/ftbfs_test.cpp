// ftbfs_test.cpp — the ESA'13 baseline: full protection, no reinforcement,
// O(n^{3/2}) size.
#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "src/api/ftbfs_api.hpp"
#include "src/core/replacement.hpp"

#include "src/core/ftbfs.hpp"
#include "src/core/verifier.hpp"
#include "tests/test_util.hpp"

namespace ftb {
namespace {

class FtBfsFamilyTest : public ::testing::TestWithParam<std::string> {};

test::FamilyCase find_family(const std::string& name) {
  for (auto& fc : test::small_families()) {
    if (fc.name == name) return std::move(fc);
  }
  ADD_FAILURE() << "unknown family " << name;
  return {"", gen::path_graph(2), 0};
}

std::vector<std::string> family_names() {
  std::vector<std::string> names;
  for (const auto& fc : test::small_families()) names.push_back(fc.name);
  return names;
}

TEST_P(FtBfsFamilyTest, EveryEdgeFailurePreservesAllDistances) {
  const test::FamilyCase fc = find_family(GetParam());
  const FtBfsStructure h =
      api::build(fc.graph, {.sources = {fc.source}, .eps = 1}).structure;
  EXPECT_EQ(h.num_reinforced(), 0);
  VerifyOptions vo;
  vo.check_nontree_failures = true;  // paranoid: every edge of G
  const VerifyReport rep = verify_structure(h, vo);
  EXPECT_TRUE(rep.ok) << rep.to_string();
}

TEST_P(FtBfsFamilyTest, SizeWithinTheoremEnvelope) {
  const test::FamilyCase fc = find_family(GetParam());
  const FtBfsStructure h =
      api::build(fc.graph, {.sources = {fc.source}, .eps = 1}).structure;
  const double n = static_cast<double>(fc.graph.num_vertices());
  // Theorem of [14]: O(n^{3/2}); constant 4 is generous at these sizes.
  EXPECT_LE(static_cast<double>(h.num_edges()), 4.0 * std::pow(n, 1.5))
      << h.summary();
}

TEST_P(FtBfsFamilyTest, ContainsItsTree) {
  const test::FamilyCase fc = find_family(GetParam());
  const FtBfsStructure h =
      api::build(fc.graph, {.sources = {fc.source}, .eps = 1}).structure;
  for (const EdgeId e : h.tree_edges()) {
    EXPECT_TRUE(h.contains(e));
  }
}

TEST_P(FtBfsFamilyTest, DeterministicGivenSeed) {
  // The engine-reuse overload on the canonical tree of one weight seed.
  const auto baseline = [](const test::FamilyCase& fc) {
    const EdgeWeights w = EdgeWeights::uniform_random(fc.graph, 1234);
    const BfsTree tree(fc.graph, w, fc.source);
    ReplacementPathEngine::Config cfg;
    cfg.collect_detours = false;
    return build_ftbfs(ReplacementPathEngine(tree, cfg));
  };
  const test::FamilyCase fc1 = find_family(GetParam());
  const test::FamilyCase fc2 = find_family(GetParam());
  EXPECT_EQ(baseline(fc1).edges(), baseline(fc2).edges());
}

INSTANTIATE_TEST_SUITE_P(Families, FtBfsFamilyTest,
                         ::testing::ValuesIn(family_names()),
                         [](const auto& pinfo) { return pinfo.param; });

TEST(FtBfs, TreeInputNeedsNoBackup) {
  // On a tree there are no replacement paths at all: H == T0.
  const Graph g = gen::binary_tree(31);
  const FtBfsStructure h = api::build(g, {.eps = 1}).structure;
  EXPECT_EQ(h.num_edges(), 30);
  EXPECT_EQ(h.num_backup(), 30);
}

TEST(FtBfs, CompleteGraphKeepsOneDetourEdgePerVertex) {
  // In K_n from any source: depth-1 everywhere; failing the tree edge (s,v)
  // reroutes via any other vertex; exactly one new last edge per vertex is
  // retained, so |H| ≤ 2(n-1).
  const Graph g = gen::complete_graph(12);
  const FtBfsStructure h = api::build(g, {.eps = 1}).structure;
  EXPECT_LE(h.num_edges(), 2 * (12 - 1));
  EXPECT_EQ(h.num_reinforced(), 0);
}


TEST(FtBfs, PerTerminalNewEndingLastEdgesAreSqrtBounded) {
  // The ESA'13 counting argument (Claim 4.6 machinery): a terminal with q
  // distinct new-ending last edges owns q pairwise-disjoint detours of
  // lengths >= 1, 2, ..., q, so q(q-1)/2 <= n and q <= 1 + sqrt(2n).
  for (auto& fc : test::small_families()) {
    const std::string name = fc.name;
    const EdgeWeights w = EdgeWeights::uniform_random(fc.graph, 7);
    const BfsTree tree(fc.graph, w, fc.source);
    const ReplacementPathEngine engine(tree);
    const double n = static_cast<double>(fc.graph.num_vertices());
    const double limit = 1.0 + std::sqrt(2.0 * n) + 1e-9;
    for (Vertex v = 0; v < fc.graph.num_vertices(); ++v) {
      std::set<EdgeId> distinct;
      for (const std::int32_t id : engine.uncovered_of(v)) {
        distinct.insert(engine.uncovered_pairs()
                            [static_cast<std::size_t>(id)].last_edge);
      }
      ASSERT_LE(static_cast<double>(distinct.size()), limit)
          << name << " v=" << v;
    }
  }
}

TEST(FtBfs, ReinforcedTreeStructureIsAllReinforced) {
  const Graph g = gen::erdos_renyi(30, 0.2, 9);
  const FtBfsStructure h = api::build(g, {.eps = 0}).structure;
  EXPECT_EQ(h.num_backup(), 0);
  EXPECT_EQ(h.num_edges(), h.num_reinforced());
  const VerifyReport rep = verify_structure(h);
  EXPECT_TRUE(rep.ok) << rep.to_string();  // nothing fault-prone to check
}

}  // namespace
}  // namespace ftb
