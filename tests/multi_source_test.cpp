// multi_source_test.cpp — the FT-MBFS union construction. The family
// sweep runs on the seeded property harness (tests/property_test_util.hpp)
// so a failing case prints its FTBFS_PROPERTY_SEED reproduction.
#include <gtest/gtest.h>

#include "src/api/ftbfs_api.hpp"
#include "src/core/multi_source.hpp"
#include "src/core/vertex_ftbfs.hpp"
#include "src/graph/generators.hpp"
#include "src/graph/lower_bound.hpp"
#include "tests/property_test_util.hpp"

namespace ftb {
namespace {

TEST(MultiSource, ContractHoldsForEverySource) {
  const Graph g = gen::gnm(40, 150, 77);
  const std::vector<Vertex> sources{0, 7, 23};
  const api::BuildResult ms = api::build(g, {.sources = sources, .eps = 0.3});
  EXPECT_EQ(verify_multi_source(ms.structure, sources), 0);
}

TEST(MultiSource, PropertySweepContractHoldsOnEveryFamily) {
  // Three spread sources per seeded family case, both union flavors.
  for (const test::PropertyCase& pc : test::property_cases(30, 1)) {
    FTB_PROPERTY_TRACE(pc, "multi_source_test");
    const Vertex n = pc.graph.num_vertices();
    ASSERT_GE(n, 9);
    const std::vector<Vertex> sources{0, n / 3, (2 * n) / 3};
    const api::BuildResult ms =
        api::build(pc.graph, {.sources = sources, .eps = 0.3});
    EXPECT_EQ(verify_multi_source(ms.structure, sources), 0) << pc.name();
    const api::BuildResult vms = api::build(
        pc.graph, {.fault_model = FaultClass::kVertex, .sources = sources});
    EXPECT_EQ(verify_vertex_multi_source(vms.structure, sources), 0)
        << pc.name();
  }
}

TEST(MultiSource, ContractHoldsAtEndpointEps) {
  const Graph g = gen::random_connected(36, 60, 5);
  const std::vector<Vertex> sources{0, 18};
  for (const double eps : {0.0, 0.5, 1.0}) {
    const api::BuildResult ms =
        api::build(g, {.sources = sources, .eps = eps});
    EXPECT_EQ(verify_multi_source(ms.structure, sources), 0) << "eps=" << eps;
  }
}

TEST(MultiSource, UnionDominatesEverySingleSource) {
  const Graph g = gen::gnm(36, 140, 81);
  const std::vector<Vertex> sources{0, 5, 11};
  EpsilonOptions opts;
  opts.eps = 0.25;
  const api::BuildResult ms =
      api::build(g, {.sources = sources, .eps = opts.eps});
  for (const Vertex s : sources) {
    const EpsilonResult single = detail::build_epsilon_ftbfs_impl(g, s, opts);
    EXPECT_GE(ms.structure.num_edges(), single.structure.num_edges());
    for (const EdgeId e : single.structure.edges()) {
      EXPECT_TRUE(ms.structure.contains(e));
    }
  }
}

TEST(MultiSource, PerSourceStatsAligned) {
  const Graph g = gen::gnm(30, 100, 83);
  const std::vector<Vertex> sources{2, 9};
  const api::BuildResult ms = api::build(g, {.sources = sources, .eps = 0.3});
  ASSERT_EQ(ms.per_source.size(), sources.size());
  for (const auto& st : ms.per_source) {
    EXPECT_EQ(st.n, g.num_vertices());
    EXPECT_GE(st.structure_edges, g.num_vertices() - 1);
  }
}

TEST(MultiSource, WorksOnTheTheorem54Graph) {
  const auto lb = lb::build_multi_source(400, 2, 0.3);
  const api::BuildResult ms =
      api::build(lb.graph, {.sources = lb.sources, .eps = 0.3});
  // Spot-verify (cap failures for runtime).
  EXPECT_EQ(
      verify_multi_source(ms.structure, lb.sources, /*max_failures=*/150), 0);
  // Certified bound holds for the union as well.
  EXPECT_GE(ms.structure.num_backup(),
            lb.certified_min_backup(ms.structure.num_reinforced()));
}

TEST(MultiSource, SingleSourceDegeneratesToEpsilonFtBfs) {
  // The facade's union of one is the raw single-source ε pipeline.
  const Graph g = gen::gnm(30, 110, 85);
  EpsilonOptions opts;
  opts.eps = 0.3;
  const api::BuildResult ms = api::build(g, {.sources = {4}, .eps = opts.eps});
  const EpsilonResult single = detail::build_epsilon_ftbfs_impl(g, 4, opts);
  EXPECT_EQ(ms.structure.edges(), single.structure.edges());
  EXPECT_EQ(ms.structure.reinforced(), single.structure.reinforced());
}

TEST(MultiSource, EmptySourcesRejected) {
  const Graph g = gen::path_graph(4);
  EXPECT_THROW(api::build(g, {.sources = {}}), CheckError);
  EXPECT_THROW(
      api::build(g, {.fault_model = FaultClass::kVertex, .sources = {}}),
      CheckError);
}

TEST(MultiSource, VertexUnionContractHoldsForEverySource) {
  const Graph g = gen::gnm(40, 150, 87);
  const std::vector<Vertex> sources{0, 7, 23};
  const api::BuildResult ms =
      api::build(g, {.fault_model = FaultClass::kVertex, .sources = sources});
  EXPECT_EQ(ms.structure.fault_class(), FaultClass::kVertex);
  EXPECT_EQ(verify_vertex_multi_source(ms.structure, sources), 0);
}

TEST(MultiSource, VertexUnionDominatesEverySingleSource) {
  const Graph g = gen::gnm(36, 140, 89);
  const std::vector<Vertex> sources{0, 5, 11};
  const api::BuildResult ms =
      api::build(g, {.fault_model = FaultClass::kVertex, .sources = sources});
  for (const Vertex s : sources) {
    const FtBfsStructure single =
        api::build(g, {.fault_model = FaultClass::kVertex, .sources = {s}})
            .structure;
    for (const EdgeId e : single.edges()) {
      EXPECT_TRUE(ms.structure.contains(e));
    }
  }
}

TEST(MultiSource, BitParallelKnobIsByteIdenticalAcrossUnions) {
  // The fused multi-source kernel vs σ scalar canonical builds (the
  // scalar-lanes referee): every union flavor must emit the same structure
  // byte for byte either way, across the property harness's adversarial
  // families.
  const api::detail::Referees scalar{.scalar_lanes = true};
  for (const test::PropertyCase& pc : test::property_cases(30, 1)) {
    FTB_PROPERTY_TRACE(pc, "multi_source_test");
    const Vertex n = pc.graph.num_vertices();
    const std::vector<Vertex> sources{0, n / 3, (2 * n) / 3};

    const api::BuildSpec eps_spec{.sources = sources, .eps = 0.3};
    const api::BuildResult ea = api::build(pc.graph, eps_spec);
    const api::BuildResult eb = api::detail::build(pc.graph, eps_spec, scalar);
    EXPECT_EQ(ea.structure.edges(), eb.structure.edges()) << pc.name();
    EXPECT_EQ(ea.structure.reinforced(), eb.structure.reinforced())
        << pc.name();
    EXPECT_EQ(ea.structure.tree_edges(), eb.structure.tree_edges())
        << pc.name();
    ASSERT_EQ(ea.per_source.size(), eb.per_source.size()) << pc.name();
    for (std::size_t i = 0; i < ea.per_source.size(); ++i) {
      EXPECT_EQ(ea.per_source[i].structure_edges,
                eb.per_source[i].structure_edges)
          << pc.name() << " source " << i;
    }

    const api::BuildSpec v_spec{.fault_model = FaultClass::kVertex,
                                .sources = sources};
    const api::BuildResult va = api::build(pc.graph, v_spec);
    const api::BuildResult vb = api::detail::build(pc.graph, v_spec, scalar);
    EXPECT_EQ(va.structure.edges(), vb.structure.edges()) << pc.name();
    EXPECT_EQ(va.structure.tree_edges(), vb.structure.tree_edges())
        << pc.name();

    const api::BuildSpec m_spec{.fault_model = FaultClass::kEither,
                                .sources = sources};
    const api::BuildResult ma = api::build(pc.graph, m_spec);
    const api::BuildResult mb = api::detail::build(pc.graph, m_spec, scalar);
    EXPECT_EQ(ma.structure.edges(), mb.structure.edges()) << pc.name();
    EXPECT_EQ(ma.structure.tree_edges(), mb.structure.tree_edges())
        << pc.name();
  }
}

TEST(MultiSource, VertexSingleSourceDegeneratesToBaseline) {
  // The facade's union of one is the raw single-source vertex pipeline.
  const Graph g = gen::gnm(30, 110, 91);
  const api::BuildResult ms =
      api::build(g, {.fault_model = FaultClass::kVertex, .sources = {4}});
  const FtBfsStructure single = detail::build_vertex_ftbfs_impl(g, 4, {});
  EXPECT_EQ(ms.structure.edges(), single.edges());
  EXPECT_EQ(ms.structure.tree_edges(), single.tree_edges());
}

}  // namespace
}  // namespace ftb
