// interference_test.cpp — the (≁)-interference adjacency against brute
// force, π-intersection flags, and the I1/I2 partition. The family sweep
// runs on the seeded property harness (tests/property_test_util.hpp) so a
// failing case prints its FTBFS_PROPERTY_SEED reproduction.
#include <gtest/gtest.h>

#include <set>
#include <unordered_map>

#include "src/core/interference.hpp"
#include "tests/property_test_util.hpp"
#include "tests/test_util.hpp"

namespace ftb {
namespace {

struct Fixture {
  Graph g;
  Vertex source;
  EdgeWeights w;
  BfsTree tree;
  ReplacementPathEngine engine;
  LcaIndex lca;
  InterferenceIndex ifx;

  Fixture(Graph graph, Vertex src)
      : g(std::move(graph)),
        source(src),
        w(EdgeWeights::uniform_random(g, 51)),
        tree(g, w, source),
        engine(tree),
        lca(tree),
        ifx(engine, lca) {}
};

/// Brute-force Eq. (1): detours share a vertex internal to both.
bool brute_interfere(const ReplacementPathEngine& engine,
                     const UncoveredPair& a, const UncoveredPair& b) {
  const auto da = engine.detour(a);
  const auto db = engine.detour(b);
  std::set<Vertex> ia(da.begin() + 1, da.end() - 1);
  for (std::size_t i = 1; i + 1 < db.size(); ++i) {
    if (ia.count(db[i])) return true;
  }
  return false;
}

TEST(Interference, AdjacencyMatchesBruteForce) {
  for (const auto& pc : test::property_cases(26, 2)) {
    FTB_PROPERTY_TRACE(pc, "interference_test");
    Fixture fx(pc.graph, pc.source);
    const auto& pairs = fx.engine.uncovered_pairs();
    const std::size_t np = pairs.size();
    if (np > 260) continue;  // brute force is O(np² · |D|)
    for (std::size_t p = 0; p < np; ++p) {
      std::set<std::int32_t> adj(
          fx.ifx.neighbors(static_cast<std::int32_t>(p)).begin(),
          fx.ifx.neighbors(static_cast<std::int32_t>(p)).end());
      for (std::size_t q = 0; q < np; ++q) {
        if (p == q) continue;
        const UncoveredPair& A = pairs[p];
        const UncoveredPair& B = pairs[q];
        const bool expected = A.v != B.v &&
                              !fx.tree.edges_related(A.e, B.e) &&
                              brute_interfere(fx.engine, A, B);
        ASSERT_EQ(adj.count(static_cast<std::int32_t>(q)) == 1, expected)
            << pc.name() << " p=" << p << " q=" << q;
      }
    }
  }
}

TEST(Interference, AdjacencyIsSymmetric) {
  for (const auto& pc : test::property_cases(26, 2)) {
    FTB_PROPERTY_TRACE(pc, "interference_test");
    Fixture fx(pc.graph, pc.source);
    const std::int64_t np = fx.ifx.num_pairs();
    for (std::int32_t p = 0; p < np; ++p) {
      for (const std::int32_t q : fx.ifx.neighbors(p)) {
        const auto back = fx.ifx.neighbors(q);
        ASSERT_TRUE(std::find(back.begin(), back.end(), p) != back.end())
            << pc.name() << ": " << p << "→" << q << " not mirrored";
      }
    }
  }
}

TEST(Interference, PiFlagsMatchRecomputation) {
  for (const auto& pc : test::property_cases(26, 2)) {
    FTB_PROPERTY_TRACE(pc, "interference_test");
    Fixture fx(pc.graph, pc.source);
    const std::int64_t np = fx.ifx.num_pairs();
    for (std::int32_t p = 0; p < np; ++p) {
      const auto nbrs = fx.ifx.neighbors(p);
      const auto flags = fx.ifx.pi_intersects_flags(p);
      ASSERT_EQ(nbrs.size(), flags.size());
      for (std::size_t i = 0; i < nbrs.size(); ++i) {
        ASSERT_EQ(flags[i] != 0, fx.ifx.pi_intersects(p, nbrs[i]))
            << pc.name();
      }
    }
  }
}

TEST(Interference, I1I2Partition) {
  for (const auto& pc : test::property_cases(26, 2)) {
    FTB_PROPERTY_TRACE(pc, "interference_test");
    Fixture fx(pc.graph, pc.source);
    const auto i1 = fx.ifx.i1();
    const auto i2 = fx.ifx.i2();
    ASSERT_EQ(static_cast<std::int64_t>(i1.size() + i2.size()),
              fx.ifx.num_pairs())
        << pc.name();
    for (const std::int32_t p : i1) {
      ASSERT_FALSE(fx.ifx.neighbors(p).empty()) << pc.name();
    }
    for (const std::int32_t p : i2) {
      ASSERT_TRUE(fx.ifx.neighbors(p).empty()) << pc.name();
    }
  }
}

TEST(Interference, PiIntersectionDefinition) {
  // Recheck pi_intersects against the literal definition: D(P) touches
  // π(LCA(v,t), t) \ {LCA}.
  for (const auto& pc : test::property_cases(16, 1)) {
    FTB_PROPERTY_TRACE(pc, "interference_test");
    Fixture fx(pc.graph, pc.source);
    const auto& pairs = fx.engine.uncovered_pairs();
    const std::int64_t np = fx.ifx.num_pairs();
    for (std::int32_t p = 0; p < np; ++p) {
      for (const std::int32_t q : fx.ifx.neighbors(p)) {
        const UncoveredPair& P = pairs[static_cast<std::size_t>(p)];
        const UncoveredPair& Q = pairs[static_cast<std::size_t>(q)];
        const Vertex w = [&] {
          Vertex a = P.v, b = Q.v;
          while (fx.tree.depth(a) > fx.tree.depth(b)) a = fx.tree.parent(a);
          while (fx.tree.depth(b) > fx.tree.depth(a)) b = fx.tree.parent(b);
          while (a != b) {
            a = fx.tree.parent(a);
            b = fx.tree.parent(b);
          }
          return a;
        }();
        std::set<Vertex> target_path;  // π(LCA, t] vertices
        for (Vertex u = Q.v; u != w; u = fx.tree.parent(u)) {
          target_path.insert(u);
        }
        bool expected = false;
        for (const Vertex z : fx.engine.detour(P)) {
          if (target_path.count(z)) expected = true;
        }
        ASSERT_EQ(fx.ifx.pi_intersects(p, q), expected);
      }
    }
  }
}

/// The quadratic co-occurrence builder the index replaced, kept verbatim as
/// a referee: every pair of every (truncated) bucket is tested, rows are
/// sorted and deduplicated afterwards.
struct QuadraticReferee {
  std::vector<std::vector<std::int32_t>> adj;
  std::int64_t index_vertices = 0;
  std::int64_t truncated_buckets = 0;

  QuadraticReferee(const ReplacementPathEngine& engine,
                   InterferenceIndex::Config cfg) {
    const auto& pairs = engine.uncovered_pairs();
    const std::size_t np = pairs.size();
    const BfsTree& tree = engine.tree();

    std::unordered_map<Vertex, std::vector<std::int32_t>> buckets;
    buckets.reserve(np * 2);
    for (std::size_t p = 0; p < np; ++p) {
      const auto det = engine.detour(pairs[p]);
      for (std::size_t z = 1; z + 1 < det.size(); ++z) {
        buckets[det[z]].push_back(static_cast<std::int32_t>(p));
      }
    }
    index_vertices = static_cast<std::int64_t>(buckets.size());

    adj.assign(np, {});
    for (auto& [z, bucket] : buckets) {
      if (static_cast<std::int32_t>(bucket.size()) > cfg.max_bucket) {
        ++truncated_buckets;
        bucket.resize(static_cast<std::size_t>(cfg.max_bucket));
      }
      for (std::size_t a = 0; a < bucket.size(); ++a) {
        const std::int32_t pa = bucket[a];
        const UncoveredPair& A = pairs[static_cast<std::size_t>(pa)];
        for (std::size_t b = a + 1; b < bucket.size(); ++b) {
          const std::int32_t pb = bucket[b];
          const UncoveredPair& B = pairs[static_cast<std::size_t>(pb)];
          if (A.v == B.v) continue;                    // same terminal
          if (tree.edges_related(A.e, B.e)) continue;  // e ∼ e'
          adj[static_cast<std::size_t>(pa)].push_back(pb);
          adj[static_cast<std::size_t>(pb)].push_back(pa);
        }
      }
    }
    for (auto& v : adj) {
      std::sort(v.begin(), v.end());
      v.erase(std::unique(v.begin(), v.end()), v.end());
    }
  }
};

TEST(Interference, MatchesQuadraticRefereeAtScale) {
  // Buckets of hundreds to thousands of pairs, where the output-sensitive
  // partner enumeration differs most from the all-pairs scan; the small
  // max_bucket values pin the truncation path on every graph.
  std::vector<test::FamilyCase> cases;
  {
    auto lbg = lb::build_single_source(512, 0.5);
    cases.push_back({"lb512_e50", std::move(lbg.graph), lbg.source});
  }
  {
    auto lbg = lb::build_single_source(1024, 1.0 / 3);
    cases.push_back({"lb1024_e33", std::move(lbg.graph), lbg.source});
  }
  {
    Graph rmat = gen::rmat_connected(10, 4 << 10, 1);
    const Vertex hub = test::hub_sources(rmat, 1).front();
    cases.push_back({"rmat10_hub", std::move(rmat), hub});
  }
  cases.push_back({"grid24x24", gen::grid_graph(24, 24), 0});

  for (const auto& fc : cases) {
    const EdgeWeights w = EdgeWeights::uniform_random(fc.graph, 51);
    const BfsTree tree(fc.graph, w, fc.source);
    const ReplacementPathEngine engine(tree);
    const LcaIndex lca(tree);
    for (const std::int32_t max_bucket :
         {InterferenceIndex::Config().max_bucket, 2, 3, 8}) {
      const std::string what =
          fc.name + " max_bucket=" + std::to_string(max_bucket);
      const InterferenceIndex::Config cfg{.max_bucket = max_bucket};
      const InterferenceIndex ifx(engine, lca, cfg);
      const QuadraticReferee ref(engine, cfg);
      ASSERT_EQ(ifx.num_pairs(), static_cast<std::int64_t>(ref.adj.size()))
          << what;
      EXPECT_EQ(ifx.stats().index_vertices, ref.index_vertices) << what;
      EXPECT_EQ(ifx.stats().truncated_buckets, ref.truncated_buckets) << what;
      std::int64_t entries = 0;
      for (std::int32_t p = 0; p < ifx.num_pairs(); ++p) {
        const auto row = ifx.neighbors(p);
        const auto flags = ifx.pi_intersects_flags(p);
        ASSERT_TRUE(std::equal(row.begin(), row.end(), ref.adj[p].begin(),
                               ref.adj[p].end()))
            << what << " row " << p;
        for (std::size_t i = 0; i < row.size(); ++i) {
          ASSERT_EQ(flags[i] != 0, ifx.pi_intersects(p, row[i]))
              << what << " p=" << p << " q=" << row[i];
        }
        entries += static_cast<std::int64_t>(row.size());
      }
      EXPECT_EQ(ifx.stats().adjacency_entries, entries) << what;
      if (max_bucket == 2) {
        EXPECT_GT(ifx.stats().truncated_buckets, 0) << what;
      }
    }
  }
}

TEST(Interference, NoInterferenceOnSparseTrees) {
  // A tree has no uncovered pairs at all, hence an empty index.
  Fixture fx(gen::binary_tree(31), 0);
  EXPECT_EQ(fx.ifx.num_pairs(), 0);
  EXPECT_TRUE(fx.ifx.i1().empty());
  EXPECT_TRUE(fx.ifx.i2().empty());
}

TEST(Interference, StatsPopulated) {
  Fixture fx(gen::gnm(40, 160, 91), 0);
  if (fx.ifx.num_pairs() > 0) {
    EXPECT_GE(fx.ifx.stats().index_vertices, 0);
    EXPECT_EQ(fx.ifx.stats().truncated_buckets, 0);
  }
}

}  // namespace
}  // namespace ftb
