// api_build_test.cpp — the facade-vs-referee differential suite.
//
// ftb::api::build(graph, BuildSpec) must be byte-identical to the same build
// under each byte-identical differential referee (api::detail::build with
// the reference kernels, then with scalar σ-lanes) in every (fault model ×
// source count) cell: same edges, same reinforced set, same tree edges, same
// fault tag, same ε telemetry and dual pair tables — and equal, in every
// cell, to a golden CRC of its v5 artifact bytes. Plus the shared "invalid
// BuildSpec" validation shape and the Session save/load round trip
// (structure_io v3 keeps the multi-source set).
#include <gtest/gtest.h>

#include <cstdio>
#include <functional>
#include <limits>
#include <map>
#include <sstream>

#include "src/api/ftbfs_api.hpp"
#include "src/core/vertex_ftbfs.hpp"
#include "src/graph/generators.hpp"
#include "src/io/structure_io.hpp"
#include "src/util/crc32c.hpp"
#include "tests/test_util.hpp"

namespace ftb {
namespace {

void expect_identical(const api::BuildResult& a, const api::BuildResult& b,
                      const std::string& what) {
  EXPECT_EQ(a.structure.edges(), b.structure.edges()) << what;
  EXPECT_EQ(a.structure.reinforced(), b.structure.reinforced()) << what;
  EXPECT_EQ(a.structure.tree_edges(), b.structure.tree_edges()) << what;
  EXPECT_EQ(a.structure.fault_class(), b.structure.fault_class()) << what;
  EXPECT_EQ(a.structure.source(), b.structure.source()) << what;
  EXPECT_EQ(a.sources, b.sources) << what;
  ASSERT_EQ(a.per_source.size(), b.per_source.size()) << what;
  for (std::size_t i = 0; i < a.per_source.size(); ++i) {
    EXPECT_EQ(a.per_source[i].structure_edges, b.per_source[i].structure_edges)
        << what;
    EXPECT_EQ(a.per_source[i].reinforced, b.per_source[i].reinforced) << what;
  }
  ASSERT_EQ(a.dual_tables.size(), b.dual_tables.size()) << what;
  for (std::size_t i = 0; i < a.dual_tables.size(); ++i) {
    EXPECT_TRUE(a.dual_tables[i].sites == b.dual_tables[i].sites) << what;
    EXPECT_EQ(a.dual_tables[i].offsets, b.dual_tables[i].offsets) << what;
    EXPECT_EQ(a.dual_tables[i].edge_pool, b.dual_tables[i].edge_pool) << what;
  }
}

TEST(ApiBuild, FacadeMatchesByteIdenticalRefereesInEveryCell) {
  const std::pair<const char*, api::detail::Referees> referees[] = {
      {"reference_kernel", {.reference_kernel = true}},
      {"scalar_lanes", {.scalar_lanes = true}},
  };
  for (const auto& fc : test::diff_families()) {
    const Vertex n = fc.graph.num_vertices();
    for (const FaultClass model : {FaultClass::kEdge, FaultClass::kVertex,
                                   FaultClass::kEither, FaultClass::kDual}) {
      for (const std::vector<Vertex>& sources :
           {std::vector<Vertex>{fc.source},
            std::vector<Vertex>{fc.source, n / 2, n - 1}}) {
        // ε only moves the edge model; sweep both tradeoff ends, the S1/S2
        // interior and the ESA'13 baseline branch there.
        const std::vector<double> eps_values =
            model == FaultClass::kEdge
                ? std::vector<double>{0.0, 0.25, 0.45, 0.6, 1.0}
                : std::vector<double>{0.25};
        for (const double eps : eps_values) {
          const api::BuildSpec spec{
              .fault_model = model, .sources = sources, .eps = eps};
          const api::BuildResult got = api::build(fc.graph, spec);
          for (const auto& [name, referee] : referees) {
            expect_identical(
                got, api::detail::build(fc.graph, spec, referee),
                fc.name + " " + to_string(model) + " sigma=" +
                    std::to_string(sources.size()) + " eps=" +
                    std::to_string(eps) + " vs " + name);
          }
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Golden pin: the facade's artifact bytes in every cell, as constants.
//
// The referee differential above compares two builds that share the
// dispatch code; this pin compares against fixed values, so any change to
// the build's output in any (family × model × σ × ε) cell shows up here.

/// "<CRC-32C of the v5 artifact> [<structure_edges>/<reinforced> per
/// source]" — the v5 bytes cover the edge partition, fault tag, source set,
/// pair tables and site-dist rows.
std::string pin_of(const api::BuildResult& r) {
  std::ostringstream artifact;
  io::write_structure_v5(r.structure, r.sources, r.dual_tables,
                         r.dual_site_dist, artifact);
  std::ostringstream pin;
  pin << std::hex << crc32c(artifact.str()) << std::dec;
  for (const EpsilonStats& st : r.per_source) {
    pin << ' ' << st.structure_edges << '/' << st.reinforced;
  }
  return pin.str();
}

TEST(ApiBuild, FacadeOutputIsPinnedInEveryCell) {
  const std::map<std::string, std::string> pinned = {
      {"grid6x7 edge sigma=1 eps=0", "8ead1849 41/41"},
      {"grid6x7 edge sigma=1 eps=0.25", "362c38c0 71/0"},
      {"grid6x7 edge sigma=1 eps=0.45", "362c38c0 71/0"},
      {"grid6x7 edge sigma=1 eps=0.6", "362c38c0 71/0"},
      {"grid6x7 edge sigma=1 eps=1", "362c38c0 71/0"},
      {"grid6x7 edge sigma=3 eps=0", "7af54b1b 41/41 41/41 41/41"},
      {"grid6x7 edge sigma=3 eps=0.25", "38cf888c 71/0 71/0 71/0"},
      {"grid6x7 edge sigma=3 eps=0.45", "38cf888c 71/0 71/0 71/0"},
      {"grid6x7 edge sigma=3 eps=0.6", "38cf888c 71/0 71/0 71/0"},
      {"grid6x7 edge sigma=3 eps=1", "38cf888c 71/0 71/0 71/0"},
      {"grid6x7 vertex sigma=1 eps=0.25", "e7e0a6c"},
      {"grid6x7 vertex sigma=3 eps=0.25", "6878f31d"},
      {"grid6x7 either sigma=1 eps=0.25", "b52b1d77"},
      {"grid6x7 either sigma=3 eps=0.25", "50a2c6c2"},
      {"grid6x7 dual sigma=1 eps=0.25", "61b810f9"},
      {"grid6x7 dual sigma=3 eps=0.25", "888c760b"},
      {"gnm50 edge sigma=1 eps=0", "3ac8e846 49/49"},
      {"gnm50 edge sigma=1 eps=0.25", "f5494990 92/0"},
      {"gnm50 edge sigma=1 eps=0.45", "f5494990 92/0"},
      {"gnm50 edge sigma=1 eps=0.6", "f5494990 92/0"},
      {"gnm50 edge sigma=1 eps=1", "f5494990 92/0"},
      {"gnm50 edge sigma=3 eps=0", "2849a9ae 49/49 49/49 49/49"},
      {"gnm50 edge sigma=3 eps=0.25", "5ddd9e02 92/0 92/0 93/0"},
      {"gnm50 edge sigma=3 eps=0.45", "5ddd9e02 92/0 92/0 93/0"},
      {"gnm50 edge sigma=3 eps=0.6", "5ddd9e02 92/0 92/0 93/0"},
      {"gnm50 edge sigma=3 eps=1", "5ddd9e02 92/0 92/0 93/0"},
      {"gnm50 vertex sigma=1 eps=0.25", "94f3046"},
      {"gnm50 vertex sigma=3 eps=0.25", "5fd89f0d"},
      {"gnm50 either sigma=1 eps=0.25", "135565b4"},
      {"gnm50 either sigma=3 eps=0.25", "afb13caf"},
      {"gnm50 dual sigma=1 eps=0.25", "c3d2a071"},
      {"gnm50 dual sigma=3 eps=0.25", "92923236"},
      {"conn64 edge sigma=1 eps=0", "3b915f4e 63/63"},
      {"conn64 edge sigma=1 eps=0.25", "e403c7e4 117/0"},
      {"conn64 edge sigma=1 eps=0.45", "e403c7e4 117/0"},
      {"conn64 edge sigma=1 eps=0.6", "e403c7e4 117/0"},
      {"conn64 edge sigma=1 eps=1", "e403c7e4 117/0"},
      {"conn64 edge sigma=3 eps=0", "af8686b5 63/63 63/63 63/63"},
      {"conn64 edge sigma=3 eps=0.25", "52d12f17 117/0 112/0 114/0"},
      {"conn64 edge sigma=3 eps=0.45", "52d12f17 117/0 112/0 114/0"},
      {"conn64 edge sigma=3 eps=0.6", "52d12f17 117/0 112/0 114/0"},
      {"conn64 edge sigma=3 eps=1", "52d12f17 117/0 112/0 114/0"},
      {"conn64 vertex sigma=1 eps=0.25", "7429e07"},
      {"conn64 vertex sigma=3 eps=0.25", "ef9ff497"},
      {"conn64 either sigma=1 eps=0.25", "61ce7635"},
      {"conn64 either sigma=3 eps=0.25", "eae4a34e"},
      {"conn64 dual sigma=1 eps=0.25", "65d14b8d"},
      {"conn64 dual sigma=3 eps=0.25", "69c7a947"},
      {"lollipop edge sigma=1 eps=0", "22d3fc90 19/19"},
      {"lollipop edge sigma=1 eps=0.25", "a32d9189 29/0"},
      {"lollipop edge sigma=1 eps=0.45", "a32d9189 29/0"},
      {"lollipop edge sigma=1 eps=0.6", "a32d9189 29/0"},
      {"lollipop edge sigma=1 eps=1", "a32d9189 29/0"},
      {"lollipop edge sigma=3 eps=0", "a3e9c7c9 19/19 19/19 19/19"},
      {"lollipop edge sigma=3 eps=0.25", "d00c0247 29/0 29/0 29/0"},
      {"lollipop edge sigma=3 eps=0.45", "d00c0247 29/0 29/0 29/0"},
      {"lollipop edge sigma=3 eps=0.6", "d00c0247 29/0 29/0 29/0"},
      {"lollipop edge sigma=3 eps=1", "d00c0247 29/0 29/0 29/0"},
      {"lollipop vertex sigma=1 eps=0.25", "947888c3"},
      {"lollipop vertex sigma=3 eps=0.25", "2939aa6d"},
      {"lollipop either sigma=1 eps=0.25", "6589eaa7"},
      {"lollipop either sigma=3 eps=0.25", "fc8b95cc"},
      {"lollipop dual sigma=1 eps=0.25", "d77b597"},
      {"lollipop dual sigma=3 eps=0.25", "cf2a2552"},
      {"conn64 dual sigma=3 site_dist", "767b9c86"},
  };
  std::size_t cells = 0;
  const auto check = [&](const std::string& cell, const api::BuildSpec& spec,
                         const Graph& g) {
    ++cells;
    const std::string got = pin_of(api::build(g, spec));
    const auto it = pinned.find(cell);
    if (it == pinned.end()) {
      ADD_FAILURE() << "unpinned cell {\"" << cell << "\", \"" << got
                    << "\"},";
      return;
    }
    EXPECT_EQ(it->second, got) << cell;
  };
  for (const auto& fc : test::diff_families()) {
    const Vertex n = fc.graph.num_vertices();
    for (const FaultClass model : {FaultClass::kEdge, FaultClass::kVertex,
                                   FaultClass::kEither, FaultClass::kDual}) {
      for (const std::vector<Vertex>& sources :
           {std::vector<Vertex>{fc.source},
            std::vector<Vertex>{fc.source, n / 2, n - 1}}) {
        const std::vector<double> eps_values =
            model == FaultClass::kEdge
                ? std::vector<double>{0.0, 0.25, 0.45, 0.6, 1.0}
                : std::vector<double>{0.25};
        for (const double eps : eps_values) {
          std::ostringstream cell;
          cell << fc.name << ' ' << to_string(model)
               << " sigma=" << sources.size() << " eps=" << eps;
          check(cell.str(),
                {.fault_model = model, .sources = sources, .eps = eps},
                fc.graph);
        }
      }
    }
  }
  const test::FamilyCase fc = test::diff_families()[2];
  const Vertex n = fc.graph.num_vertices();
  check(fc.name + " dual sigma=3 site_dist",
        {.fault_model = FaultClass::kDual,
         .sources = {fc.source, n / 2, n - 1},
         .site_dist_oracle = true},
        fc.graph);
  EXPECT_EQ(cells, pinned.size());
}

TEST(ApiBuild, FacadeOutputIsPinnedAtScale) {
  // The golden table above stops at n = 64, where every detour bucket of the
  // interference index is tiny. These two edge-model cells run the ε
  // pipeline on buckets of thousands of pairs: the paper's lower-bound graph
  // and a hub-sourced R-MAT with two sources.
  const lb::SingleSourceLb lbg = lb::build_single_source(512, 0.5);
  EXPECT_EQ(pin_of(api::build(lbg.graph, {.sources = {lbg.source},
                                          .eps = 0.1})),
            "a0f30b56 2169/2");
  const Graph rmat = gen::rmat_connected(10, 4 << 10, 1);
  EXPECT_EQ(pin_of(api::build(rmat, {.sources = test::hub_sources(rmat, 2),
                                     .eps = 0.25})),
            "b51c153f 1775/0 1785/0");
}

// ---------------------------------------------------------------------------
// Validation: one CheckError message shape everywhere.

void expect_invalid_spec(const Graph& g, const api::BuildSpec& spec) {
  try {
    api::build(g, spec);
    FAIL() << "expected CheckError";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("invalid BuildSpec"),
              std::string::npos)
        << e.what();
  }
}

TEST(ApiBuildValidation, RejectsBadEpsilon) {
  const Graph g = gen::grid_graph(4, 4);
  for (const double bad :
       {std::numeric_limits<double>::quiet_NaN(),
        std::numeric_limits<double>::infinity(), -0.1, 1.5}) {
    api::BuildSpec spec;
    spec.eps = bad;
    expect_invalid_spec(g, spec);
  }
}

TEST(ApiBuildValidation, RejectsBadSourceSets) {
  const Graph g = gen::grid_graph(4, 4);
  {
    api::BuildSpec spec;
    spec.sources = {};
    expect_invalid_spec(g, spec);
  }
  {
    api::BuildSpec spec;
    spec.sources = {0, 99};  // out of range
    expect_invalid_spec(g, spec);
  }
  {
    api::BuildSpec spec;
    spec.sources = {0, 3, 0};  // duplicate
    expect_invalid_spec(g, spec);
  }
}

TEST(ApiBuildValidation, RejectsSiteDistOracleOffTheDualModel) {
  // The site-local oracle indexes dual pair tables; every other model has
  // none, so asking for it is refused rather than silently dropped.
  const Graph g = gen::grid_graph(4, 4);
  for (const FaultClass model :
       {FaultClass::kEdge, FaultClass::kVertex, FaultClass::kEither}) {
    expect_invalid_spec(g, {.fault_model = model, .site_dist_oracle = true});
  }
  EXPECT_NO_THROW(api::build(
      g, {.fault_model = FaultClass::kDual, .site_dist_oracle = true}));
}

TEST(ApiBuildValidation, PipelineImplsShareTheMessageShape) {
  // The detail::*_impl pipelines validate through validate.hpp, so a bad
  // input reads the same whether it arrives through the facade or not.
  const Graph g = gen::grid_graph(4, 4);
  const auto expect_invalid = [](const std::function<void()>& call) {
    try {
      call();
      FAIL() << "expected CheckError";
    } catch (const CheckError& e) {
      EXPECT_NE(std::string(e.what()).find("invalid BuildSpec"),
                std::string::npos)
          << e.what();
    }
  };
  EpsilonOptions nan_eps;
  nan_eps.eps = std::numeric_limits<double>::quiet_NaN();
  expect_invalid([&] { detail::build_epsilon_ftbfs_impl(g, 0, nan_eps); });
  expect_invalid([&] { detail::build_vertex_ftbfs_impl(g, -1, {}); });
}

// ---------------------------------------------------------------------------
// Session save / load round trip (structure_io v5).

TEST(ApiSessionIo, MultiSourceRoundTripKeepsSources) {
  const Graph g = gen::random_connected(50, 120, 17);
  api::BuildSpec spec;
  spec.sources = {2, 31, 44};
  spec.eps = 0.3;
  const api::Session session = api::Session::open(g, spec);

  std::ostringstream os;
  io::write_structure_v5(session.structure(), session.sources(), {}, os);
  std::istringstream is(os.str());
  std::vector<Vertex> sources;
  const FtBfsStructure reloaded = io::read_structure(g, is, &sources);
  EXPECT_EQ(sources, spec.sources);
  EXPECT_EQ(reloaded.edges(), session.structure().edges());
  EXPECT_EQ(reloaded.reinforced(), session.structure().reinforced());
  EXPECT_EQ(reloaded.fault_class(), session.structure().fault_class());
}

TEST(ApiSessionIo, SavedSessionReloadsAndAnswersIdentically) {
  const Graph g = gen::random_connected(48, 130, 19);
  api::BuildSpec spec;
  spec.sources = {0, 20};
  spec.eps = 0.35;
  const api::Session original = api::Session::open(g, spec);

  const std::string path = ::testing::TempDir() + "/api_session_io.ftbfs";
  original.save_v5(path);
  const api::Session reloaded = api::Session::load(g, path);
  std::remove(path.c_str());

  EXPECT_EQ(reloaded.sources().size(), original.sources().size());
  std::vector<api::Query> batch;
  for (const EdgeId e : original.structure().tree_edges()) {
    for (Vertex v = 0; v < g.num_vertices(); v += 7) {
      for (std::int32_t si = 0; si < 2; ++si) {
        api::Query q;
        q.v = v;
        q.fault = e;
        q.source_index = si;
        q.allow_what_if = true;
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

TEST(ApiSessionIo, LoadWithWrongWeightSeedIsRefused) {
  const Graph g = gen::random_connected(40, 110, 23);
  api::BuildSpec spec;
  spec.eps = 0.3;
  spec.weight_seed = 77;
  const api::Session session = api::Session::open(g, spec);
  const std::string path = ::testing::TempDir() + "/api_session_seed.ftbfs";
  session.save_v5(path);
  api::SessionConfig cfg;
  cfg.weight_seed = 78;  // different tie-breaking → different tree
  EXPECT_THROW(api::Session::load(g, path, cfg), CheckError);
  cfg.weight_seed = 77;
  EXPECT_NO_THROW(api::Session::load(g, path, cfg));
  std::remove(path.c_str());
}

}  // namespace
}  // namespace ftb
