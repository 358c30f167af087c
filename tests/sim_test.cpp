// sim_test.cpp — failure drills report clean SLAs on correct structures
// and catch broken ones.
#include <gtest/gtest.h>

#include "src/api/ftbfs_api.hpp"
#include "src/core/epsilon_ftbfs.hpp"
#include "src/core/ftbfs.hpp"
#include "src/core/vertex_ftbfs.hpp"
#include "src/graph/generators.hpp"
#include "src/sim/failure_sim.hpp"

namespace ftb {
namespace {

TEST(FailureSim, CorrectStructureHasNoViolations) {
  const Graph g = gen::gnm(40, 180, 61);
  const FtBfsStructure h = api::build(g, {.eps = 1}).structure;
  const DrillReport rep = run_failure_drill(h, 100, 1);
  EXPECT_EQ(rep.violations, 0) << rep.to_string();
  EXPECT_DOUBLE_EQ(rep.max_stretch, 1.0);
  EXPECT_GT(rep.drills, 0);
  EXPECT_GT(rep.reachable_queries, 0);
}

TEST(FailureSim, EpsilonStructureSurvivesDrills) {
  const Graph g = gen::random_connected(60, 160, 63);
  EpsilonOptions opts;
  opts.eps = 0.3;
  const EpsilonResult res = detail::build_epsilon_ftbfs_impl(g, 0, opts);
  const DrillReport rep = run_failure_drill(res.structure, 200, 2);
  EXPECT_EQ(rep.violations, 0) << rep.to_string();
  EXPECT_DOUBLE_EQ(rep.max_stretch, 1.0);
}

TEST(FailureSim, ReinforcedEdgesAreNeverDrilled) {
  const Graph g = gen::gnm(30, 120, 65);
  EpsilonOptions opts;
  opts.eps = 0.2;
  const EpsilonResult res = detail::build_epsilon_ftbfs_impl(g, 0, opts);
  // Ask for more drills than there are fault-prone edges: the simulator
  // must cap at exactly m - r.
  const DrillReport rep =
      run_failure_drill(res.structure, g.num_edges() * 2, 3);
  EXPECT_EQ(rep.drills,
            g.num_edges() - res.structure.num_reinforced());
}

TEST(FailureSim, DetectsBrokenStructure) {
  // A bare tree over the intro example misses the clique reroutes.
  const Graph g = gen::intro_example(16);
  const EdgeWeights w = EdgeWeights::uniform_random(g, 4);
  const BfsTree tree(g, w, 0);
  const FtBfsStructure bare(g, 0, tree.tree_edges(), {}, tree.tree_edges());
  const DrillReport rep = run_failure_drill(bare, g.num_edges(), 5);
  EXPECT_GT(rep.violations, 0);
  EXPECT_GT(rep.max_stretch, 1.0);
}

TEST(FailureSim, DeterministicGivenSeed) {
  const Graph g = gen::gnm(30, 120, 67);
  const FtBfsStructure h = api::build(g, {.eps = 1}).structure;
  const DrillReport a = run_failure_drill(h, 50, 11);
  const DrillReport b = run_failure_drill(h, 50, 11);
  EXPECT_EQ(a.to_string(), b.to_string());
}

TEST(FailureSim, VertexDrillCleanOnVertexStructure) {
  const Graph g = gen::gnm(40, 180, 69);
  const FtBfsStructure h =
      api::build(g, {.fault_model = FaultClass::kVertex}).structure;
  const DrillReport rep = run_vertex_failure_drill(h, 100, 1);
  EXPECT_EQ(rep.violations, 0) << rep.to_string();
  EXPECT_DOUBLE_EQ(rep.max_stretch, 1.0);
  EXPECT_GT(rep.drills, 0);
  // All n−1 routers are fault-prone; asking for more caps there.
  const DrillReport all = run_vertex_failure_drill(h, g.num_vertices() * 2, 2);
  EXPECT_EQ(all.drills, g.num_vertices() - 1);
}

TEST(FailureSim, VertexDrillDetectsBareTree) {
  const Graph g = gen::erdos_renyi(36, 0.25, 71);
  const EdgeWeights w = EdgeWeights::uniform_random(g, 6);
  const BfsTree tree(g, w, 0);
  const FtBfsStructure bare(g, 0, tree.tree_edges(), {}, tree.tree_edges());
  const DrillReport rep =
      run_vertex_failure_drill(bare, g.num_vertices(), 7);
  EXPECT_GT(rep.violations, 0);
}

TEST(FailureSim, FaultClassDispatchMatchesDirectCalls) {
  const Graph g = gen::gnm(32, 140, 73);
  const FtBfsStructure eh = api::build(g, {.eps = 1}).structure;
  EXPECT_EQ(run_failure_drill(eh, FaultClass::kEdge, 40, 9).to_string(),
            run_failure_drill(eh, 40, 9).to_string());
  const FtBfsStructure vh =
      api::build(g, {.fault_model = FaultClass::kVertex}).structure;
  EXPECT_EQ(run_failure_drill(vh, FaultClass::kVertex, 40, 9).to_string(),
            run_vertex_failure_drill(vh, 40, 9).to_string());
}

TEST(FailureSim, EitherDrillRunsBothStorms) {
  const Graph g = gen::gnm(32, 140, 75);
  const FtBfsStructure dual =
      api::build(g, {.fault_model = FaultClass::kEither}).structure;
  const DrillReport edge_rep = run_failure_drill(dual, 1000, 3);
  const DrillReport vrep = run_vertex_failure_drill(dual, 1000, 3);
  const DrillReport both =
      run_failure_drill(dual, FaultClass::kEither, 1000, 3);
  EXPECT_EQ(both.drills, edge_rep.drills + vrep.drills);
  EXPECT_EQ(both.violations, 0) << both.to_string();
  EXPECT_DOUBLE_EQ(both.max_stretch, 1.0);
}

TEST(FailureSim, BridgeFailuresCountAsDisconnections) {
  const Graph g = gen::path_graph(10);
  const FtBfsStructure h = api::build(g, {.eps = 1}).structure;
  const DrillReport rep = run_failure_drill(h, 9, 13);
  EXPECT_GT(rep.disconnections, 0);
  EXPECT_EQ(rep.violations, 0);  // disconnections in G too — no violation
}

}  // namespace
}  // namespace ftb
