// structure_io_test.cpp — structure round trips and validation.
#include <gtest/gtest.h>

#include <span>
#include <sstream>
#include <string>

#include "src/api/ftbfs_api.hpp"
#include "src/core/dual_fault.hpp"
#include "src/core/epsilon_ftbfs.hpp"
#include "src/core/ftbfs.hpp"
#include "src/core/verifier.hpp"
#include "src/core/vertex_ftbfs.hpp"
#include "src/graph/generators.hpp"
#include "src/io/structure_io.hpp"
#include "tests/legacy_artifact.hpp"

namespace ftb {
namespace {

/// The v5 text artifact of `h` over `sources` (default: its anchor alone).
std::string v5_bytes(const FtBfsStructure& h,
                     std::span<const Vertex> sources = {},
                     std::span<const DualSiteTable> tables = {}) {
  const Vertex anchor[] = {h.source()};
  std::ostringstream os;
  io::write_structure_v5(h, sources.empty() ? anchor : sources, tables, os);
  return os.str();
}

TEST(StructureIo, RoundTripPreservesThePartition) {
  const Graph g = gen::gnm(40, 170, 3);
  EpsilonOptions opts;
  opts.eps = 0.2;
  const EpsilonResult res = detail::build_epsilon_ftbfs_impl(g, 0, opts);
  std::stringstream ss(v5_bytes(res.structure));
  const FtBfsStructure back = io::read_structure(g, ss);
  EXPECT_EQ(back.edges(), res.structure.edges());
  EXPECT_EQ(back.reinforced(), res.structure.reinforced());
  EXPECT_EQ(back.tree_edges(), res.structure.tree_edges());
  EXPECT_EQ(back.source(), res.structure.source());
}

TEST(StructureIo, ReloadedStructureStillVerifies) {
  const Graph g = gen::random_connected(50, 150, 5);
  const FtBfsStructure h = api::build(g, {.eps = 1}).structure;
  std::stringstream ss(v5_bytes(h));
  const FtBfsStructure back = io::read_structure(g, ss);
  EXPECT_TRUE(verify_structure(back).ok);
}

TEST(StructureIo, FileRoundTrip) {
  const Graph g = gen::grid_graph(6, 6);
  const FtBfsStructure h = api::build(g, {.eps = 1}).structure;
  const std::string path = ::testing::TempDir() + "/ftbfs_structure_test.ftbfs";
  const Vertex anchor[] = {h.source()};
  io::save_structure_v5(h, anchor, {}, path);
  const FtBfsStructure back = io::load_structure(g, path);
  EXPECT_EQ(back.edges(), h.edges());
  std::remove(path.c_str());
}

TEST(StructureIo, RejectsWrongGraph) {
  const Graph g = gen::gnm(30, 120, 7);
  const FtBfsStructure h = api::build(g, {.eps = 1}).structure;
  std::stringstream ss(v5_bytes(h));
  const Graph other = gen::path_graph(30);  // same n, different edges
  EXPECT_THROW(io::read_structure(other, ss), CheckError);
}

TEST(StructureIo, RejectsWrongVertexCount) {
  const Graph g = gen::gnm(30, 120, 9);
  const FtBfsStructure h = api::build(g, {.eps = 1}).structure;
  std::stringstream ss(v5_bytes(h));
  const Graph other = gen::gnm(31, 120, 9);
  EXPECT_THROW(io::read_structure(other, ss), CheckError);
}

TEST(StructureIo, FaultModelTagRoundTrips) {
  const Graph g = gen::gnm(36, 150, 11);
  for (const FaultClass model :
       {FaultClass::kVertex, FaultClass::kEither, FaultClass::kEdge}) {
    const FtBfsStructure h =
        api::build(g, {.fault_model = model, .eps = 1}).structure;
    ASSERT_EQ(h.fault_class(), model);
    std::stringstream ss(v5_bytes(h));
    const FtBfsStructure back = io::read_structure(g, ss);
    EXPECT_EQ(back.fault_class(), model);
    EXPECT_EQ(back.edges(), h.edges());
    EXPECT_EQ(back.tree_edges(), h.tree_edges());
  }
}

TEST(StructureIo, EveryDocumentedVersionRoundTrips) {
  // docs/file_formats.md names versions 1–5. The writer emits v5 only;
  // v1–v4 are read-only, so their artifacts are the v5 bytes re-framed in
  // the legacy grammar, and each must load back to the built structure.
  const Graph g = gen::random_connected(30, 70, 21);
  {  // v1 and v2 — single-source artifact (v1 has no fault-model line).
    const FtBfsStructure h = api::build(g, {.eps = 1}).structure;
    for (const int version : {1, 2}) {
      const std::string bytes = test::legacy_from_v5(v5_bytes(h), version);
      EXPECT_EQ(bytes.rfind("ftbfs-structure " + std::to_string(version) +
                                "\n",
                            0),
                0u);
      EXPECT_EQ(bytes.find("sources"), std::string::npos);
      std::stringstream ss(bytes);
      const FtBfsStructure back = io::read_structure(g, ss);
      EXPECT_EQ(back.fault_class(), FaultClass::kEdge);
      EXPECT_EQ(back.edges(), h.edges());
      EXPECT_EQ(back.reinforced(), h.reinforced());
      EXPECT_EQ(back.tree_edges(), h.tree_edges());
    }
  }
  {  // v3 — multi-source artifact keeps its source set.
    const api::BuildResult ms = api::build(g, {.sources = {0, 9}, .eps = 0.4});
    std::stringstream ss(
        test::legacy_from_v5(v5_bytes(ms.structure, ms.sources), 3));
    EXPECT_EQ(ss.str().rfind("ftbfs-structure 3\n", 0), 0u);
    std::vector<Vertex> sources;
    const FtBfsStructure back = io::read_structure(g, ss, &sources);
    EXPECT_EQ(sources, ms.sources);
    EXPECT_EQ(back.edges(), ms.structure.edges());
    EXPECT_EQ(back.reinforced(), ms.structure.reinforced());
  }
  {  // v4 — dual-failure artifact keeps its pair tables verbatim.
    const DualBuildResult r =
        detail::build_dual_failure_ftbfs_impl(g, 0, {});
    const Vertex anchor[] = {0};
    std::stringstream ss(test::legacy_from_v5(
        v5_bytes(r.structure, anchor, {&r.tables, 1}), 4));
    EXPECT_EQ(ss.str().rfind("ftbfs-structure 4\n", 0), 0u);
    std::vector<Vertex> sources;
    std::vector<DualSiteTable> tables;
    const FtBfsStructure back = io::read_structure(g, ss, &sources, &tables);
    EXPECT_EQ(back.fault_class(), FaultClass::kDual);
    EXPECT_EQ(back.edges(), r.structure.edges());
    ASSERT_EQ(tables.size(), 1u);
    EXPECT_EQ(tables[0].sites, r.tables.sites);
    EXPECT_EQ(tables[0].offsets, r.tables.offsets);
    EXPECT_EQ(tables[0].edge_pool, r.tables.edge_pool);
  }
}

TEST(StructureIo, Version1FilesLoadAsEdgeModel) {
  // A v1 artifact (no fault-model line) predates the tag and must keep
  // loading — defaulting to the edge model.
  const Graph g = gen::path_graph(4);
  std::stringstream ss(
      "ftbfs-structure 1\n"
      "# legacy artifact\n"
      "4 3 0\n"
      "0 1 2\n"
      "1 2 2\n"
      "2 3 3\n");
  const FtBfsStructure h = io::read_structure(g, ss);
  EXPECT_EQ(h.fault_class(), FaultClass::kEdge);
  EXPECT_EQ(h.num_edges(), 3);
  EXPECT_EQ(h.num_reinforced(), 1);
}

TEST(StructureIo, PreV4DualTagLoadsAsEither) {
  // v2/v3 artifacts used "dual" for the one-failure-of-either-kind union;
  // the tag keeps meaning that there. Only v4 artifacts mean two
  // simultaneous failures by it (docs/file_formats.md).
  const Graph g = gen::path_graph(4);
  std::stringstream ss(
      "ftbfs-structure 2\n"
      "fault-model dual\n"
      "4 3 0\n"
      "0 1 2\n"
      "1 2 2\n"
      "2 3 2\n");
  EXPECT_EQ(io::read_structure(g, ss).fault_class(), FaultClass::kEither);
}

TEST(StructureIo, RejectsBadFaultModelTag) {
  const Graph g = gen::path_graph(4);
  std::stringstream ss(
      "ftbfs-structure 2\n"
      "fault-model meteor\n"
      "4 0 0\n");
  EXPECT_THROW(io::read_structure(g, ss), CheckError);
}

TEST(StructureIo, RejectsMalformedInput) {
  const Graph g = gen::path_graph(4);
  {
    std::stringstream ss("not a structure\n");
    EXPECT_THROW(io::read_structure(g, ss), CheckError);
  }
  {
    std::stringstream ss("ftbfs-structure 9\n4 0 0\n");
    EXPECT_THROW(io::read_structure(g, ss), CheckError);
  }
  {
    std::stringstream ss("ftbfs-structure 1\n4 2 0\n0 1 2\n");  // truncated
    EXPECT_THROW(io::read_structure(g, ss), CheckError);
  }
}

}  // namespace
}  // namespace ftb
