// api_session_test.cpp — the batched, thread-safe query plane.
//
// Three claims under test:
//   1. classification — every query lands in the documented outcome cell
//      (in-model O(1) hit / what-if BFS / refused);
//   2. answers — bit-identical to the serial ground truth: the
//      replacement-distance tables for in-model faults, literal BFS in
//      H \ {fault} for reinforced what-ifs and everything else;
//   3. thread safety — many threads hammering one Session with mixed
//      batches get exactly the serial answers (this test carries the
//      `concurrency` ctest label and runs under the TSan CI job).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <functional>
#include <set>
#include <sstream>
#include <thread>
#include <tuple>

#include "src/api/ftbfs_api.hpp"
#include "src/core/replacement.hpp"
#include "src/core/vertex_ftbfs.hpp"
#include "src/sim/failure_sim.hpp"
#include "src/graph/bfs_tree.hpp"
#include "src/graph/generators.hpp"
#include "src/graph/lower_bound.hpp"
#include "src/util/fault_inject.hpp"
#include "src/util/rng.hpp"
#include "tests/test_util.hpp"

namespace ftb {
namespace {

using api::Query;
using api::QueryOutcome;
using api::QueryResponse;

/// Serial ground truth for any query the session can answer: one literal
/// BFS in H \ {fault}.
std::int32_t serial_truth(const api::Session& session, const Query& q) {
  const Graph& g = session.graph();
  const FtBfsStructure& h = session.structure();
  const Vertex src =
      session.sources()[static_cast<std::size_t>(q.source_index)];
  std::vector<std::int32_t> dist;
  if (q.kind == FaultClass::kEdge) {
    BfsBans bans;
    bans.banned_edge_mask = &h.complement_mask();
    bans.banned_edge = q.fault;
    BfsScratch scratch;
    bfs_run(g, src, bans, scratch);
    return scratch.dist(q.v);
  }
  if (q.v == q.fault) return kInfHops;
  std::vector<std::uint8_t> mask(static_cast<std::size_t>(g.num_vertices()),
                                 0);
  mask[static_cast<std::size_t>(q.fault)] = 1;
  BfsBans bans;
  bans.banned_vertex = &mask;
  bans.banned_edge_mask = &h.complement_mask();
  BfsScratch scratch;
  bfs_run(g, src, bans, scratch);
  return scratch.dist(q.v);
}

TEST(ApiSession, InModelAnswersMatchLegacyOracle) {
  const Graph g = gen::lollipop(14, 9);
  api::BuildSpec spec;
  spec.eps = 0.05;  // deep tail → reinforcement exists at this ε
  const api::Session session = api::Session::open(g, spec);
  const FtBfsStructure& h = session.structure();

  const EdgeWeights w = EdgeWeights::uniform_random(g, spec.weight_seed);
  const BfsTree tree(g, w, 0);
  const ReplacementDistTable<EdgeFault> table(tree);

  std::vector<Query> batch;
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    for (Vertex v = 0; v < g.num_vertices(); ++v) {
      Query q;
      q.v = v;
      q.fault = e;
      q.allow_what_if = true;
      batch.push_back(q);
    }
  }
  const QueryResponse resp = session.query(batch);
  ASSERT_EQ(resp.results.size(), batch.size());
  // Serial answers for both cells: the O(1) table in-model, a literal BFS
  // in H \ {e} (one per reinforced edge; the batch is fault-major) for the
  // reinforced what-ifs.
  EdgeId bfs_fault = kInvalidEdge;
  std::vector<std::int32_t> bfs;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const Query& q = batch[i];
    const bool reinforced = h.is_reinforced(q.fault);
    EXPECT_EQ(resp.results[i].outcome, reinforced ? QueryOutcome::kWhatIf
                                                  : QueryOutcome::kInModel);
    if (reinforced && bfs_fault != q.fault) {
      bfs = h.distances_avoiding(q.fault);
      bfs_fault = q.fault;
    }
    const std::int32_t truth = reinforced
                                   ? bfs[static_cast<std::size_t>(q.v)]
                                   : table.replacement_dist(q.v, q.fault);
    EXPECT_EQ(resp.results[i].dist, truth)
        << "v=" << q.v << " e=" << q.fault;
  }
  EXPECT_EQ(resp.in_model + resp.what_if, static_cast<std::int64_t>(
                                              batch.size()));
  EXPECT_EQ(resp.refused, 0);
}

TEST(ApiSession, RefusalAndWhatIfCells) {
  // The deep adversarial family genuinely reinforces at small ε (the same
  // fixture epsilon_ftbfs_test's tradeoff-monotonicity test relies on).
  const auto lbg = lb::build_single_source(300, 0.5);
  const Graph& g = lbg.graph;
  api::BuildSpec spec;
  spec.sources = {lbg.source};
  spec.eps = 0.05;
  const api::Session session = api::Session::open(g, spec);
  const FtBfsStructure& h = session.structure();
  ASSERT_GT(h.num_reinforced(), 0) << "fixture must reinforce something";
  const EdgeId reinforced = h.reinforced().front();

  {  // reinforced edge without allow_what_if → refused, never thrown
    Query q;
    q.v = 5;
    q.fault = reinforced;
    const auto r = session.query_one(q);
    EXPECT_EQ(r.outcome, QueryOutcome::kRefused);
    EXPECT_EQ(r.dist, kInfHops);
  }
  {  // vertex fault on an edge-model session: what-if only
    Query q;
    q.v = 5;
    q.kind = FaultClass::kVertex;
    q.fault = lbg.source == 3 ? 4 : 3;
    EXPECT_EQ(session.query_one(q).outcome, QueryOutcome::kRefused);
    q.allow_what_if = true;
    const auto r = session.query_one(q);
    EXPECT_EQ(r.outcome, QueryOutcome::kWhatIf);
    EXPECT_EQ(r.dist, serial_truth(session, q));
  }
  {  // the source never fails, not even as a what-if
    Query q;
    q.v = 5;
    q.kind = FaultClass::kVertex;
    q.fault = lbg.source;
    q.allow_what_if = true;
    EXPECT_EQ(session.query_one(q).outcome, QueryOutcome::kRefused);
  }
  {  // malformed queries throw, they are not statuses
    Query q;
    q.v = g.num_vertices();
    q.fault = 0;
    EXPECT_THROW(session.query_one(q), CheckError);
    std::vector<Query> batch(1, q);
    EXPECT_THROW(session.query(batch), CheckError);
  }
}

TEST(ApiSession, VertexSessionMatchesVertexOracle) {
  const Graph g = gen::random_connected(40, 100, 9);
  api::BuildSpec spec;
  spec.fault_model = FaultClass::kVertex;
  const api::Session session = api::Session::open(g, spec);

  const EdgeWeights w = EdgeWeights::uniform_random(g, spec.weight_seed);
  const BfsTree tree(g, w, 0);
  const ReplacementDistTable<VertexFault> table(tree);

  std::vector<Query> batch;
  for (Vertex x = 1; x < g.num_vertices(); ++x) {
    for (Vertex v = 0; v < g.num_vertices(); ++v) {
      Query q;
      q.v = v;
      q.kind = FaultClass::kVertex;
      q.fault = x;
      batch.push_back(q);
    }
  }
  const QueryResponse resp = session.query(batch);
  for (std::size_t i = 0; i < batch.size(); ++i) {
    ASSERT_EQ(resp.results[i].outcome, QueryOutcome::kInModel);
    EXPECT_EQ(resp.results[i].dist,
              table.replacement_dist(batch[i].v, batch[i].fault))
        << "v=" << batch[i].v << " x=" << batch[i].fault;
  }
}

/// One build served three ways — Session::deploy, and Session::load of its
/// v5 and of its v6 artifact. Every query over all (v, tree-edge fault)
/// and (v, vertex fault) cells of every source classifies alike in the
/// three sessions, and every in-model answer equals a FULL engine's
/// replacement_dist (pair plane and all), which the sessions' distance
/// tables never build.
void expect_sessions_match_full_engines(const Graph& g,
                                        const api::BuildSpec& spec,
                                        const std::string& tag) {
  const api::Session deployed = api::Session::open(g, spec);
  const std::string base = ::testing::TempDir() + "/api_session_" + tag;
  deployed.save_v5(base + ".v5");
  deployed.save_v6(base + ".v6");
  const api::Session sessions[] = {deployed,
                                   api::Session::load(g, base + ".v5"),
                                   api::Session::load(g, base + ".v6")};
  std::remove((base + ".v5").c_str());
  std::remove((base + ".v6").c_str());

  const bool covers_edge = spec.fault_model != FaultClass::kVertex;
  const bool covers_vertex = spec.fault_model != FaultClass::kEdge;
  const EdgeWeights w = EdgeWeights::uniform_random(g, spec.weight_seed);
  const Vertex n = g.num_vertices();
  std::int64_t in_model = 0;
  std::vector<Query> batch(static_cast<std::size_t>(n));
  // Plain comparisons first, the gtest assertion only on a mismatch: the
  // sweep is millions of cells and runs under the sanitizer jobs too.
  const auto check = [&](const std::string& what, const auto& truth) {
    const QueryResponse want = sessions[0].query(batch);
    for (std::size_t k = 1; k < std::size(sessions); ++k) {
      const QueryResponse got = sessions[k].query(batch);
      for (std::size_t i = 0; i < batch.size(); ++i) {
        const api::QueryResult& a = got.results[i];
        const api::QueryResult& b = want.results[i];
        if (a.outcome != b.outcome || a.dist != b.dist) {
          ASSERT_EQ(a.outcome, b.outcome)
              << what << " session=" << k << " v=" << i;
          ASSERT_EQ(a.dist, b.dist) << what << " session=" << k << " v=" << i;
        }
      }
    }
    for (std::size_t i = 0; i < batch.size(); ++i) {
      if (want.results[i].outcome != QueryOutcome::kInModel) continue;
      ++in_model;
      const std::int32_t expect = truth(batch[i].v);
      if (want.results[i].dist != expect) {
        ASSERT_EQ(want.results[i].dist, expect) << what << " v=" << i;
      }
    }
  };
  for (std::size_t si = 0; si < spec.sources.size(); ++si) {
    const BfsTree tree(g, w, spec.sources[si]);
    for (Vertex v = 0; v < n; ++v) {
      Query& q = batch[static_cast<std::size_t>(v)];
      q.v = v;
      q.source_index = static_cast<std::int32_t>(si);
    }
    if (covers_edge) {
      const ReplacementPathEngine engine(tree);
      // Another source's tree edge is off this source's tree: π(s,v)
      // survives it, so its cells are the failure-free depths.
      for (const EdgeId e : tree.tree_edges()) {
        for (Query& q : batch) {
          q.kind = FaultClass::kEdge;
          q.fault = e;
        }
        check(tag + " si=" + std::to_string(si) + " e=" + std::to_string(e),
              [&](Vertex v) { return engine.replacement_dist(v, e); });
        if (::testing::Test::HasFatalFailure()) return;
      }
    }
    if (covers_vertex) {
      const VertexReplacementEngine engine(tree);
      for (Vertex x = 0; x < n; ++x) {
        for (Query& q : batch) {
          q.kind = FaultClass::kVertex;
          q.fault = x;
        }
        // The querying source never fails: the sessions refuse it, so
        // the engine is never asked.
        check(tag + " si=" + std::to_string(si) + " x=" + std::to_string(x),
              [&](Vertex v) { return engine.replacement_dist(v, x); });
        if (::testing::Test::HasFatalFailure()) return;
      }
    }
  }
  EXPECT_GT(in_model, 0) << tag;
}

TEST(ApiSession, LoadedSessionsServeFullEngineDistances) {
  // The eps_adversarial shape at n = 512: the lower-bound graph with
  // ε_G = 1/2, built at ε = 0.1.
  const auto lbg = lb::build_single_source(512, 0.5);
  // A hub-sourced R-MAT graph, σ = 2.
  const Graph rmat = gen::rmat_connected(10, 4 << 10, 3);
  struct Case {
    std::string name;
    const Graph* g;
    std::vector<Vertex> sources;
    double eps;
  };
  const Case cases[] = {
      {"lb512", &lbg.graph, {lbg.source}, 0.1},
      {"rmat10", &rmat, test::hub_sources(rmat, 2), 0.25},
  };
  for (const Case& c : cases) {
    for (const FaultClass model :
         {FaultClass::kEdge, FaultClass::kVertex, FaultClass::kEither}) {
      api::BuildSpec spec;
      spec.fault_model = model;
      spec.sources = c.sources;
      spec.eps = c.eps;
      expect_sessions_match_full_engines(
          *c.g, spec, c.name + "_" + to_string(model));
      if (HasFatalFailure()) return;
    }
  }
}

TEST(ApiSession, DualSessionAnswersBothKindsInModel) {
  const Graph g = gen::random_connected(36, 90, 5);
  api::BuildSpec spec;
  spec.fault_model = FaultClass::kDual;
  const api::Session session = api::Session::open(g, spec);

  std::vector<Query> batch;
  for (Vertex v = 0; v < g.num_vertices(); v += 3) {
    Query qe;
    qe.v = v;
    qe.fault = 0;
    batch.push_back(qe);
    Query qv;
    qv.v = v;
    qv.kind = FaultClass::kVertex;
    qv.fault = std::max<Vertex>(1, v);
    batch.push_back(qv);
  }
  const QueryResponse resp = session.query(batch);
  for (std::size_t i = 0; i < batch.size(); ++i) {
    EXPECT_EQ(resp.results[i].outcome, QueryOutcome::kInModel) << i;
    EXPECT_EQ(resp.results[i].dist, serial_truth(session, batch[i])) << i;
  }
}

TEST(ApiSession, MultiSourceServesEverySource) {
  const Graph g = gen::random_connected(50, 130, 29);
  api::BuildSpec spec;
  spec.sources = {0, 23, 41};
  spec.eps = 0.3;
  const api::Session session = api::Session::open(g, spec);

  std::vector<Query> batch;
  for (const EdgeId e : session.structure().tree_edges()) {
    for (Vertex v = 0; v < g.num_vertices(); v += 5) {
      for (std::int32_t si = 0; si < 3; ++si) {
        Query q;
        q.v = v;
        q.fault = e;
        q.source_index = si;
        q.allow_what_if = true;
        batch.push_back(q);
      }
    }
  }
  const QueryResponse resp = session.query(batch);
  for (std::size_t i = 0; i < batch.size(); ++i) {
    // The FT-MBFS contract: the structure answer equals the surviving-
    // graph answer for every source and every in-model failure — and the
    // what-if cell is the literal structure BFS by definition.
    if (resp.results[i].outcome == QueryOutcome::kInModel ||
        resp.results[i].outcome == QueryOutcome::kWhatIf) {
      EXPECT_EQ(resp.results[i].dist, serial_truth(session, batch[i]))
          << "i=" << i;
    }
  }
  EXPECT_EQ(resp.refused, 0);
}

TEST(ApiSession, AnotherSourceMayFailInModel) {
  // The per-source FT-MBFS vertex contract forbids failing only the
  // QUERYING source (x ∉ {s} per s ∈ S): another data center going down
  // is a perfectly in-model event for the rest. Regression test — the
  // plane used to refuse any source vertex, which crashed the
  // session-served vertex drill on multi-source deployments.
  const Graph g = gen::random_connected(45, 110, 33);
  api::BuildSpec spec;
  spec.fault_model = FaultClass::kVertex;
  spec.sources = {0, 17, 30};
  const api::Session session = api::Session::open(g, spec);

  Query q;
  q.v = 5;
  q.kind = FaultClass::kVertex;
  q.fault = 17;  // sources[1] fails...
  q.source_index = 0;  // ...queried from sources[0]: in-model
  const auto r = session.query_one(q);
  EXPECT_EQ(r.outcome, QueryOutcome::kInModel);
  EXPECT_EQ(r.dist, serial_truth(session, q));
  q.source_index = 1;  // the querying source itself: refused
  EXPECT_EQ(session.query_one(q).outcome, QueryOutcome::kRefused);

  // And the drill that used to trip FTB_CHECK(resp.refused == 0): same
  // storm, same verdict as the structure-served drill.
  const DrillReport via_session =
      run_failure_drill(session, FaultClass::kVertex, 40, 11);
  const DrillReport via_structure =
      run_failure_drill(session.structure(), FaultClass::kVertex, 40, 11);
  EXPECT_EQ(via_session.drills, via_structure.drills);
  EXPECT_EQ(via_session.violations, via_structure.violations);
  EXPECT_EQ(via_session.reachable_queries, via_structure.reachable_queries);
  EXPECT_EQ(via_session.violations, 0);
}

TEST(ApiSession, InModelRunsMatchSerialTruth) {
  // Session::query answers a run of single-failure queries that differ
  // only in their vertex in one pass, off one resolution of the failure.
  // Each run here names every vertex (below, beside and above the failure,
  // and the failed vertex itself), and consecutive runs differ in exactly
  // one of kind, source, fault, second fault and what-if permission: all
  // but the last must end a run, and the last must not change an answer.
  const Graph g = gen::random_connected(40, 90, 17);
  for (const FaultClass model :
       {FaultClass::kEither, FaultClass::kEdge, FaultClass::kDual}) {
    api::BuildSpec spec;
    spec.fault_model = model;
    spec.sources = {0, 21};
    spec.eps = 0.3;  // the edge session reinforces edges: what-if runs
    const api::Session session = api::Session::open(g, spec);
    std::vector<Query> batch;
    const auto push_run = [&](FaultClass kind, std::int32_t fault,
                              std::int32_t si, bool what_if,
                              std::int32_t fault2 = -1) {
      for (Vertex v = 0; v < g.num_vertices(); ++v) {
        Query q;
        q.v = v;
        q.kind = kind;
        q.fault = fault;
        q.fault2 = fault2;
        q.source_index = si;
        q.allow_what_if = what_if;
        batch.push_back(q);
      }
    };
    for (std::int32_t f = 0; f < g.num_vertices(); ++f) {
      push_run(FaultClass::kEdge, f, 0, false);
      push_run(FaultClass::kEdge, f, 0, true);     // what-if permission
      push_run(FaultClass::kVertex, f, 0, true);   // kind
      push_run(FaultClass::kVertex, f, 1, true);   // source
      push_run(FaultClass::kEdge, f, 1, true);     // kind
      push_run(FaultClass::kEdge, f + 1, 1, true);  // fault
      push_run(FaultClass::kEdge, f + 1, 1, true, f + 7);  // second fault
    }
    const std::string tag = model == FaultClass::kEither ? "either"
                            : model == FaultClass::kEdge ? "edge"
                                                         : "dual";
    const QueryResponse resp = session.query(batch);
    std::int64_t in_model = 0;
    for (std::size_t i = 0; i < batch.size(); ++i) {
      const api::QueryResult want = session.query_one(batch[i]);
      ASSERT_EQ(resp.results[i].outcome, want.outcome) << tag << " i=" << i;
      ASSERT_EQ(resp.results[i].dist, want.dist) << tag << " i=" << i;
      if (want.outcome != QueryOutcome::kInModel) continue;
      ++in_model;
      if (batch[i].fault2 < 0) {
        ASSERT_EQ(want.dist, serial_truth(session, batch[i]))
            << tag << " i=" << i;
      }
    }
    EXPECT_EQ(resp.in_model, in_model) << tag;
    EXPECT_GT(in_model, 0) << tag;
    EXPECT_EQ(resp.in_model + resp.what_if + resp.refused,
              static_cast<std::int64_t>(batch.size()))
        << tag;

    // A malformed query throws from a batch as from query_one, inside a
    // run or not: each field out of range in turn.
    const auto n = g.num_vertices();
    const auto m = static_cast<std::int32_t>(g.num_edges());
    const std::vector<std::function<void(Query&)>> breaks = {
        [](Query& q) { q.v = -1; },
        [&](Query& q) { q.v = n; },
        [](Query& q) { q.source_index = -1; },
        [](Query& q) { q.source_index = 2; },
        [](Query& q) { q.fault = -1; },
        [&](Query& q) { q.fault = m; },
        [&](Query& q) { q.kind = FaultClass::kVertex; q.fault = n; },
        [](Query& q) { q.kind = FaultClass::kDual; },
        [&](Query& q) { q.fault2 = m; },
        [](Query& q) { q.kind2 = FaultClass::kDual; q.fault2 = 0; },
    };
    for (std::size_t k = 0; k < breaks.size(); ++k) {
      std::vector<Query> bad(batch.begin(), batch.begin() + 8);
      breaks[k](bad[5]);
      EXPECT_THROW(session.query_one(bad[5]), CheckError) << tag << " k=" << k;
      EXPECT_THROW(session.query(bad), CheckError) << tag << " k=" << k;
      EXPECT_THROW(session.query({&bad[5], 1}), CheckError)
          << tag << " k=" << k;
    }
  }
}

// ---------------------------------------------------------------------------
// The serving-plane additions: the site-local dual oracle (zero-traversal
// pair answers), the surfaced arena-cache counters, and the batch rule
// (api::kShardWork) — all bit-identical to the serial referee.

/// A storm of dual-pair queries (edge×edge over consecutive tree edges,
/// plus edge×vertex mixes) across every destination stride.
std::vector<Query> pair_storm(const api::Session& session, Vertex v_stride) {
  const Graph& g = session.graph();
  const auto& tree_edges = session.structure().tree_edges();
  std::vector<Query> batch;
  for (std::size_t i = 0; i + 1 < tree_edges.size(); i += 2) {
    for (Vertex v = 0; v < g.num_vertices(); v += v_stride) {
      Query q;
      q.v = v;
      q.kind = FaultClass::kEdge;
      q.fault = tree_edges[i];
      q.kind2 = FaultClass::kEdge;
      q.fault2 = tree_edges[i + 1];
      batch.push_back(q);
      Query mixed = q;
      mixed.kind2 = FaultClass::kVertex;
      mixed.fault2 = std::max<Vertex>(1, v);
      batch.push_back(mixed);
    }
  }
  return batch;
}

TEST(ApiSession, SiteDistOracleServesPairStormsTraversalFree) {
  // The tentpole contract: with the site-local oracle attached, every
  // in-model dual pair answers O(1) from the precomputed tables — zero
  // traversals, bit-identical to the traversing plane.
  const Graph g = gen::random_connected(36, 90, 5);
  api::BuildSpec spec;
  spec.fault_model = FaultClass::kDual;
  const api::Session plain = api::Session::open(g, spec);
  spec.site_dist_oracle = true;
  const api::Session fast = api::Session::open(g, spec);

  const std::vector<Query> batch = pair_storm(fast, 3);
  const QueryResponse want = plain.query(batch);
  ASSERT_GT(want.pair_traversals, 0) << "fixture must have traversing pairs";

  const QueryResponse got = fast.query(batch);
  ASSERT_EQ(got.results.size(), want.results.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    EXPECT_EQ(got.results[i].dist, want.results[i].dist) << "i=" << i;
    EXPECT_EQ(got.results[i].outcome, want.results[i].outcome) << "i=" << i;
  }
  EXPECT_EQ(got.pair_traversals, 0);
  EXPECT_GT(got.site_oracle_hits, 0);
  EXPECT_EQ(got.pair_cache_misses, 0);

  // query_one rides the same O(1) plane.
  for (std::size_t i = 0; i < batch.size(); i += 7) {
    EXPECT_EQ(fast.query_one(batch[i]).dist, want.results[i].dist);
  }

  const api::FsckReport rep = fast.fsck();
  EXPECT_TRUE(rep.ok);
  EXPECT_FALSE(rep.degraded);
}

TEST(ApiSession, PairCacheCountersSurface) {
  // The leased-arena traversal cache is observable: a batch that repeats
  // one non-reducible pair across many destinations pays one traversal
  // (one miss) and hits for the rest.
  const Graph g = gen::random_connected(36, 90, 5);
  api::BuildSpec spec;
  spec.fault_model = FaultClass::kDual;
  const api::Session session = api::Session::open(g, spec);
  const auto& tree_edges = session.structure().tree_edges();

  for (std::size_t i = 0; i + 1 < tree_edges.size(); i += 2) {
    std::vector<Query> batch;
    for (Vertex v = 0; v < g.num_vertices(); ++v) {
      Query q;
      q.v = v;
      q.kind = FaultClass::kEdge;
      q.fault = tree_edges[i];
      q.kind2 = FaultClass::kEdge;
      q.fault2 = tree_edges[i + 1];
      batch.push_back(q);
    }
    const QueryResponse resp = session.query(batch);
    // Reducible pairs (and pairs whose storm touches the cache once)
    // don't witness the hit counter — scan on until one does.
    if (resp.pair_traversals == 0 || resp.pair_cache_hits == 0) continue;
    EXPECT_GT(resp.pair_cache_misses, 0);
    EXPECT_EQ(resp.site_oracle_hits, 0);
    return;
  }
  FAIL() << "no cache-churning pair in the fixture";
}

TEST(ApiSession, SiteDistOracleSurvivesSaveLoadAndRebuilds) {
  const Graph g = gen::grid_graph(5, 5);
  api::BuildSpec spec;
  spec.fault_model = FaultClass::kDual;
  spec.site_dist_oracle = true;
  const api::Session built = api::Session::open(g, spec);

  const std::vector<Query> batch = pair_storm(built, 2);
  const QueryResponse want = built.query(batch);
  EXPECT_EQ(want.pair_traversals, 0);
  EXPECT_GT(want.site_oracle_hits, 0);

  const std::string path =
      ::testing::TempDir() + "/api_session_site_dist.ftbfs";
  built.save_v5(path);
  {
    // The shipped site-dist section reattaches on a plain load: still
    // traversal-free, still bit-identical, not degraded.
    const api::Session loaded = api::Session::load(g, path);
    EXPECT_FALSE(loaded.degraded());
    const QueryResponse got = loaded.query(batch);
    EXPECT_EQ(got.pair_traversals, 0);
    EXPECT_GT(got.site_oracle_hits, 0);
    for (std::size_t i = 0; i < batch.size(); ++i) {
      EXPECT_EQ(got.results[i].dist, want.results[i].dist) << "i=" << i;
      EXPECT_EQ(got.results[i].outcome, want.results[i].outcome) << "i=" << i;
    }
  }
  {
    // An artifact WITHOUT the section + SessionConfig::site_dist_oracle:
    // the tables are rebuilt from the graph — an accelerator rebuild, not
    // a degradation.
    api::BuildSpec plain_spec;
    plain_spec.fault_model = FaultClass::kDual;
    const api::Session plain = api::Session::open(g, plain_spec);
    plain.save_v5(path);
    api::SessionConfig cfg;
    cfg.site_dist_oracle = true;
    const api::Session rebuilt = api::Session::load(g, path, cfg);
    EXPECT_FALSE(rebuilt.degraded());
    const QueryResponse got = rebuilt.query(batch);
    EXPECT_EQ(got.pair_traversals, 0);
    EXPECT_GT(got.site_oracle_hits, 0);
    for (std::size_t i = 0; i < batch.size(); ++i) {
      EXPECT_EQ(got.results[i].dist, want.results[i].dist) << "i=" << i;
    }
  }
  {
    // Corrupt site-dist payload bit: the tolerant load drops the
    // accelerator, keeps the pair tables, serves the same answers by
    // traversal — degraded speed, never degraded service.
    built.save_v5(path);
    std::ifstream in(path, std::ios::binary);
    std::stringstream buf;
    buf << in.rdbuf();
    std::string bytes = buf.str();
    const std::size_t hdr = bytes.find("section site-dist ");
    ASSERT_NE(hdr, std::string::npos);
    const std::size_t payload = bytes.find('\n', hdr) + 1;
    bytes[payload + 24] ^= 0x08;
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out << bytes;
    }
    const api::Session survivor = api::Session::load(g, path);
    EXPECT_FALSE(survivor.degraded());
    const QueryResponse got = survivor.query(batch);
    for (std::size_t i = 0; i < batch.size(); ++i) {
      EXPECT_EQ(got.results[i].dist, want.results[i].dist) << "i=" << i;
      EXPECT_EQ(got.results[i].outcome, QueryOutcome::kInModel) << "i=" << i;
    }
    // The queries are not degraded, but the artifact is damaged: fsck
    // reports DEGRADED and names the dropped section in its notes.
    const api::FsckReport rep = survivor.fsck();
    EXPECT_TRUE(rep.ok);
    EXPECT_TRUE(rep.degraded);
    EXPECT_FALSE(rep.notes.empty());
  }
  std::remove(path.c_str());
}

/// `base` cycled to exactly n queries.
std::vector<Query> tile(const std::vector<Query>& base, std::size_t n) {
  std::vector<Query> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) out.push_back(base[i % base.size()]);
  return out;
}

/// The batch rule of Session::query (api::kShardWork), recomputed from the
/// outside. A zero-budget run marks exactly the traversal-group members
/// (kBudgetExhausted); they are keyed like the session's groups — source
/// plus unordered fault pair — and each group's work is its member count,
/// plus n when it is a what-if (anything but a dual session's pair).
bool shards(const api::Session& session, std::span<const Query> batch) {
  api::BatchOptions starved;
  starved.max_traversals = 0;
  const QueryResponse resp = session.query(batch, starved);
  std::set<std::tuple<std::int32_t, DualSite, DualSite>> groups;
  std::int64_t work = 0;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    if (resp.results[i].outcome != QueryOutcome::kBudgetExhausted) continue;
    const Query& q = batch[i];
    DualSite a{q.kind, q.fault};
    DualSite b = q.fault2 >= 0 ? DualSite{q.kind2, q.fault2} : DualSite{};
    if (b.id >= 0 && b < a) std::swap(a, b);
    const bool pair_sweep =
        q.fault2 >= 0 && session.fault_model() == FaultClass::kDual;
    if (groups.emplace(q.source_index, a, b).second && !pair_sweep) {
      work += session.graph().num_vertices();
    }
    ++work;
  }
  return groups.size() >= 2 && work >= api::kShardWork;
}

/// Every answer and outcome of `batch` against query_one.
void expect_matches_query_one(const api::Session& session,
                              const std::vector<Query>& batch,
                              const std::string& tag) {
  const QueryResponse resp = session.query(batch);
  ASSERT_EQ(resp.results.size(), batch.size()) << tag;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const api::QueryResult want = session.query_one(batch[i]);
    ASSERT_EQ(resp.results[i].dist, want.dist) << tag << " i=" << i;
    ASSERT_EQ(resp.results[i].outcome, want.outcome) << tag << " i=" << i;
  }
}

/// The single in-model queries of a session: every (v, edge) cell.
std::vector<Query> o1_singles(const api::Session& session) {
  std::vector<Query> out;
  const Graph& g = session.graph();
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    for (Vertex v = 0; v < g.num_vertices(); v += 5) {
      Query q;
      q.v = v;
      q.fault = e;
      out.push_back(q);
    }
  }
  return out;
}

TEST(ApiSession, BatchRuleBoundaryBitIdentical) {
  // Session::query's one batch rule: O(1) answers are served on the caller
  // thread at every batch size; traversal groups shard only when there are
  // at least two and their work reaches api::kShardWork. Answers must not
  // know which side of the rule a batch falls on.
  const Graph g = gen::random_connected(36, 90, 41);
  api::BuildSpec spec;
  spec.fault_model = FaultClass::kDual;
  const api::Session session = api::Session::open(g, spec);
  const auto work = static_cast<std::size_t>(api::kShardWork);

  const std::vector<Query> singles = o1_singles(session);
  for (const std::size_t n : {1u, 64u, 4096u, 32768u}) {
    const std::vector<Query> batch = tile(singles, n);
    EXPECT_FALSE(shards(session, batch));
    expect_matches_query_one(session, batch, "all-O(1) n=" + std::to_string(n));
  }

  // Every pair query of a dual session without the site-local oracle
  // joins a subtree-sweep group, so a pair-only batch's work is its size.
  const std::vector<Query> pairs = pair_storm(session, 4);
  // One group stays inline however much work it carries.
  const std::vector<Query> one_group = tile({pairs.front()}, 2 * work);
  EXPECT_FALSE(shards(session, one_group));
  expect_matches_query_one(session, one_group, "one group");

  const std::vector<Query> below = tile(pairs, work - 1);
  EXPECT_FALSE(shards(session, below));
  expect_matches_query_one(session, below, "below the rule");
  // O(1) answers add no work: a below-rule group set stays inline however
  // many of them ride along.
  std::vector<Query> below_mixed = below;
  below_mixed.insert(below_mixed.end(), singles.begin(), singles.end());
  EXPECT_FALSE(shards(session, below_mixed));
  expect_matches_query_one(session, below_mixed, "below the rule + O(1)");

  const std::vector<Query> at = tile(pairs, work);
  EXPECT_TRUE(shards(session, at));
  expect_matches_query_one(session, at, "at the rule");
  std::vector<Query> above = tile(pairs, 3 * work);
  above.insert(above.end(), singles.begin(), singles.end());
  EXPECT_TRUE(shards(session, above));
  expect_matches_query_one(session, above, "above the rule + O(1)");

  // kBudgetExhausted interplay is path-independent at budget 0: every
  // traversal group exhausts, every O(1) answer is still served — whether
  // the groups would have run on the caller thread or across the pool.
  std::vector<Query> inline_shape = one_group;
  std::vector<Query> sharded_shape = tile(pairs, 2 * work);
  inline_shape.insert(inline_shape.end(), singles.begin(), singles.end());
  sharded_shape.insert(sharded_shape.end(), singles.begin(), singles.end());
  ASSERT_FALSE(shards(session, inline_shape));
  ASSERT_TRUE(shards(session, sharded_shape));
  api::BatchOptions starved;
  starved.max_traversals = 0;
  const QueryResponse ri = session.query(inline_shape, starved);
  const QueryResponse rs = session.query(sharded_shape, starved);
  EXPECT_EQ(ri.budget_exhausted, static_cast<std::int64_t>(2 * work));
  EXPECT_EQ(ri.budget_exhausted, rs.budget_exhausted);
  EXPECT_EQ(ri.in_model, static_cast<std::int64_t>(singles.size()));
  EXPECT_EQ(ri.in_model, rs.in_model);
  for (std::size_t i = 0; i < inline_shape.size(); ++i) {
    const bool o1 = i >= 2 * work;
    const api::QueryResult want =
        o1 ? session.query_one(inline_shape[i])
           : api::QueryResult{kInfHops, QueryOutcome::kBudgetExhausted};
    EXPECT_EQ(ri.results[i].dist, want.dist) << "i=" << i;
    EXPECT_EQ(ri.results[i].outcome, want.outcome) << "i=" << i;
    EXPECT_EQ(rs.results[i].dist, want.dist) << "i=" << i;
    EXPECT_EQ(rs.results[i].outcome, want.outcome) << "i=" << i;
  }
}

TEST(ApiSession, BatchRuleBoundaryOnDegradedSessions) {
  // The rule is pure strategy on degraded sessions too: recomputed tables,
  // kDegraded tags, identical distances on both group paths.
  const Graph g = gen::grid_graph(5, 5);
  api::BuildSpec spec;
  spec.fault_model = FaultClass::kDual;
  const api::Session fresh = api::Session::open(g, spec);
  const std::string path =
      ::testing::TempDir() + "/api_session_rule_degraded.ftbfs";
  fresh.save_v5(path);
  {
    std::ifstream in(path, std::ios::binary);
    std::stringstream buf;
    buf << in.rdbuf();
    std::string bytes = buf.str();
    const std::size_t hdr = bytes.find("section pair-tables ");
    ASSERT_NE(hdr, std::string::npos);
    const std::size_t payload = bytes.find('\n', hdr) + 1;
    bytes[payload + 40] ^= 0x10;
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << bytes;
  }
  const api::Session session = api::Session::load(g, path);
  ASSERT_TRUE(session.degraded());

  const std::vector<Query> pairs = pair_storm(session, 2);
  const auto work = static_cast<std::size_t>(api::kShardWork);
  for (const std::size_t n : {pairs.size(), work - 1, work}) {
    const std::vector<Query> batch = tile(pairs, n);
    EXPECT_EQ(shards(session, batch), n >= work) << "n=" << n;
    expect_matches_query_one(session, batch, "n=" + std::to_string(n));
    const QueryResponse resp = session.query(batch);
    EXPECT_EQ(resp.degraded, static_cast<std::int64_t>(n));
  }
  std::remove(path.c_str());
}

#if FTB_FAULT_INJECTION_ENABLED
#define FTB_REQUIRE_INJECTION()
#else
#define FTB_REQUIRE_INJECTION() \
  GTEST_SKIP() << "fault-injection points compile away in Release builds"
#endif

TEST(ApiSession, BatchRuleDispatchIsDeterministic) {
  // The rule itself, with no clock: every ThreadPool task passes the
  // pool_task injection point, so at rate 0 (counts, never fires) the
  // change in its check count is the number of tasks a batch dispatched.
  FTB_REQUIRE_INJECTION();
  struct Disarm {
    ~Disarm() { fault::Injector::instance().disarm(); }
  } disarm;
  auto& inj = fault::Injector::instance();
  const auto dispatched = [&](const api::Session& session,
                              const std::vector<Query>& batch) {
    inj.configure(1, 0.0, 1u << static_cast<unsigned>(fault::Point::kPoolTask));
    const QueryResponse resp = session.query(batch);
    EXPECT_EQ(resp.results.size(), batch.size());
    return inj.checks(fault::Point::kPoolTask);
  };
  const auto work = static_cast<std::size_t>(api::kShardWork);

  const Graph g = gen::random_connected(36, 90, 41);
  api::BuildSpec dual;
  dual.fault_model = FaultClass::kDual;
  const api::Session session = api::Session::open(g, dual);
  EXPECT_EQ(dispatched(session, tile(o1_singles(session), 32768)), 0u);
  const std::vector<Query> pairs = pair_storm(session, 4);
  std::set<std::pair<std::int32_t, DualSite>> keys;  // one per group
  for (const Query& q : pairs) {
    keys.emplace(q.fault, DualSite{q.kind2, q.fault2});
  }
  ASSERT_LT(pairs.size(), work);  // both tiles below hold every group
  EXPECT_EQ(dispatched(session, tile(pairs, work - 1)), 0u);
  EXPECT_EQ(dispatched(session, tile(pairs, work)), keys.size());

  // What-if groups weigh n each: two vertex what-ifs on an edge session
  // sit exactly one unit either side of the rule.
  const Graph big = gen::random_connected(100, 250, 7);
  const api::Session edge = api::Session::open(big, api::BuildSpec{});
  std::vector<Query> what_ifs(2);
  for (std::size_t k = 0; k < what_ifs.size(); ++k) {
    what_ifs[k].v = static_cast<Vertex>(40 + k);
    what_ifs[k].kind = FaultClass::kVertex;
    what_ifs[k].fault = static_cast<Vertex>(1 + k);
    what_ifs[k].allow_what_if = true;
  }
  const std::size_t members = work - 2 * 100;
  EXPECT_EQ(dispatched(edge, tile(what_ifs, members - 1)), 0u);
  EXPECT_EQ(dispatched(edge, tile(what_ifs, members)), 2u);
}

// ---------------------------------------------------------------------------
// Concurrency: many threads × one Session, answers bit-identical to the
// serial plane. Runs under TSan in CI (ctest -L concurrency).

TEST(ApiSessionConcurrency, ManyThreadsMixedBatchesMatchSerial) {
  // Fixture with every outcome cell populated: the deep adversarial family
  // reinforces at ε = 0.05, so the pool mixes in-model edge hits,
  // reinforced-edge what-ifs, vertex what-ifs and refusals.
  const auto lbg = lb::build_single_source(300, 0.5);
  const Graph& g = lbg.graph;
  api::BuildSpec spec;
  spec.sources = {lbg.source};
  spec.eps = 0.05;
  const api::Session session = api::Session::open(g, spec);
  const FtBfsStructure& h = session.structure();
  ASSERT_GT(h.num_reinforced(), 0);

  std::vector<Query> all;
  for (EdgeId e = 0; e < g.num_edges(); e += 5) {
    for (Vertex v = 0; v < g.num_vertices(); v += 7) {
      Query q;
      q.v = v;
      q.fault = e;
      q.allow_what_if = (e % 2) == 0;
      all.push_back(q);
    }
  }
  for (const EdgeId e : h.reinforced()) {  // both what-if and refused cells
    for (Vertex v = 0; v < g.num_vertices(); v += 3) {
      Query q;
      q.v = v;
      q.fault = e;
      q.allow_what_if = (v % 2) == 0;
      all.push_back(q);
    }
  }
  for (Vertex x = 1; x < g.num_vertices(); x += 23) {
    for (Vertex v = 0; v < g.num_vertices(); v += 11) {
      Query q;
      q.v = v;
      q.kind = FaultClass::kVertex;
      q.fault = x;
      q.allow_what_if = true;
      all.push_back(q);
    }
  }

  // Serial expectations once, up front.
  std::vector<api::QueryResult> expected;
  expected.reserve(all.size());
  for (const Query& q : all) expected.push_back(session.query_one(q));

  // Rounds alternate both sides of the batch rule: the whole pool shards
  // its what-if groups across the ThreadPool, while a chunk this small
  // stays below api::kShardWork (each of its groups weighs at most n + 1)
  // and drains on the caller thread.
  ASSERT_TRUE(shards(session, all));
  const std::size_t chunk = static_cast<std::size_t>(
      (api::kShardWork - 1) / (g.num_vertices() + 1));
  ASSERT_GE(chunk, 2u);

  constexpr int kThreads = 8;
  constexpr int kRounds = 6;
  std::vector<std::string> failures(kThreads);
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      Rng rng(static_cast<std::uint64_t>(1000 + t));
      for (int round = 0; round < kRounds; ++round) {
        // Each round: a random shuffle of the pool, so threads disagree
        // about order and what-if grouping.
        std::vector<std::uint32_t> order(all.size());
        for (std::uint32_t i = 0; i < order.size(); ++i) order[i] = i;
        rng.shuffle(order);
        const std::size_t step = (round % 2 == 1) ? order.size() : chunk;
        for (std::size_t lo = 0; lo < order.size(); lo += step) {
          const std::size_t hi = std::min(lo + step, order.size());
          std::vector<Query> batch;
          batch.reserve(hi - lo);
          for (std::size_t k = lo; k < hi; ++k) batch.push_back(all[order[k]]);
          const QueryResponse resp = session.query(batch);
          for (std::size_t k = lo; k < hi; ++k) {
            const api::QueryResult& want = expected[order[k]];
            const api::QueryResult& got = resp.results[k - lo];
            if (got.dist != want.dist || got.outcome != want.outcome) {
              failures[static_cast<std::size_t>(t)] =
                  "thread " + std::to_string(t) + " round " +
                  std::to_string(round) + " query " +
                  std::to_string(order[k]);
              return;
            }
          }
        }
      }
    });
  }
  for (auto& w : workers) w.join();
  for (const std::string& f : failures) EXPECT_EQ(f, "");
}

TEST(ApiSessionConcurrency, DualPairStormManyThreadsMatchSerial) {
  // The dual plane's shared state — pair grouping, leased DualQueryArenas
  // with their site-complement masks, the oracle's O(1) reductions — must
  // hold under concurrent mixed batches exactly like the single-fault
  // plane. Runs under TSan via the concurrency label.
  const Graph g = gen::random_connected(36, 90, 41);
  api::BuildSpec spec;
  spec.fault_model = FaultClass::kDual;
  const api::Session session = api::Session::open(g, spec);

  std::vector<Query> all;
  for (EdgeId e = 0; e < g.num_edges(); e += 3) {
    for (Vertex x = 1; x < g.num_vertices(); x += 5) {
      for (Vertex v = 0; v < g.num_vertices(); v += 4) {
        Query q;
        q.v = v;
        q.kind = FaultClass::kEdge;
        q.fault = e;
        q.kind2 = FaultClass::kVertex;
        q.fault2 = x;
        all.push_back(q);
        // Mix in the single-fault planes of the same session.
        Query single;
        single.v = v;
        single.kind = FaultClass::kVertex;
        single.fault = x;
        all.push_back(single);
      }
    }
  }

  std::vector<api::QueryResult> expected;
  expected.reserve(all.size());
  for (const Query& q : all) expected.push_back(session.query_one(q));

  constexpr int kThreads = 8;
  constexpr int kRounds = 4;
  std::vector<std::string> failures(kThreads);
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      Rng rng(static_cast<std::uint64_t>(7000 + t));
      for (int round = 0; round < kRounds; ++round) {
        std::vector<std::uint32_t> order(all.size());
        for (std::uint32_t i = 0; i < order.size(); ++i) order[i] = i;
        rng.shuffle(order);
        std::vector<Query> batch;
        batch.reserve(order.size());
        for (const std::uint32_t i : order) batch.push_back(all[i]);
        const QueryResponse resp = session.query(batch);
        for (std::size_t k = 0; k < order.size(); ++k) {
          const api::QueryResult& want = expected[order[k]];
          const api::QueryResult& got = resp.results[k];
          if (got.dist != want.dist || got.outcome != want.outcome) {
            failures[static_cast<std::size_t>(t)] =
                "thread " + std::to_string(t) + " round " +
                std::to_string(round) + " query " + std::to_string(order[k]);
            return;
          }
        }
      }
    });
  }
  for (auto& w : workers) w.join();
  for (const std::string& f : failures) EXPECT_EQ(f, "");
}

TEST(ApiSessionConcurrency, DegradedSessionServesConcurrentStorms) {
  // The chaos scenario under TSan: a session reloaded from a corrupted v5
  // artifact (pair tables dropped, recomputed from the graph, outcomes
  // tagged kDegraded) is hammered by many threads; every answer must be
  // bit-identical to the serial pass over the same degraded session, and
  // to the distances of a clean fresh session. Degradation must change
  // the tag, never the data plane's thread safety.
  const Graph g = gen::grid_graph(5, 5);
  api::BuildSpec spec;
  spec.fault_model = FaultClass::kDual;
  const api::Session fresh = api::Session::open(g, spec);
  const std::string path =
      ::testing::TempDir() + "/api_session_degraded.ftbfs";
  fresh.save_v5(path);
  {
    // Flip one bit in the pair-table payload so the tolerant reload
    // degrades (CRC-32C catches every single-bit error).
    std::ifstream in(path, std::ios::binary);
    std::stringstream buf;
    buf << in.rdbuf();
    std::string bytes = buf.str();
    const std::size_t hdr = bytes.find("section pair-tables ");
    ASSERT_NE(hdr, std::string::npos);
    const std::size_t payload = bytes.find('\n', hdr) + 1;
    bytes[payload + 40] ^= 0x10;
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << bytes;
  }
  const api::Session session = api::Session::load(g, path);
  ASSERT_TRUE(session.degraded());

  std::vector<Query> all;
  for (EdgeId e = 0; e < g.num_edges(); e += 4) {
    for (Vertex x = 1; x < g.num_vertices(); x += 6) {
      for (Vertex v = 0; v < g.num_vertices(); v += 5) {
        Query q;
        q.v = v;
        q.kind = FaultClass::kEdge;
        q.fault = e;
        q.kind2 = FaultClass::kVertex;
        q.fault2 = x;
        all.push_back(q);
      }
    }
  }

  std::vector<api::QueryResult> expected;
  expected.reserve(all.size());
  for (const Query& q : all) {
    const api::QueryResult serial = session.query_one(q);
    // Degraded tag, clean-session distance.
    EXPECT_EQ(serial.outcome, QueryOutcome::kDegraded);
    EXPECT_EQ(serial.dist, fresh.query_one(q).dist);
    expected.push_back(serial);
  }

  constexpr int kThreads = 8;
  constexpr int kRounds = 3;
  std::vector<std::string> failures(kThreads);
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      Rng rng(static_cast<std::uint64_t>(9100 + t));
      for (int round = 0; round < kRounds; ++round) {
        std::vector<std::uint32_t> order(all.size());
        for (std::uint32_t i = 0; i < order.size(); ++i) order[i] = i;
        rng.shuffle(order);
        std::vector<Query> batch;
        batch.reserve(order.size());
        for (const std::uint32_t i : order) batch.push_back(all[i]);
        const QueryResponse resp = session.query(batch);
        for (std::size_t k = 0; k < order.size(); ++k) {
          const api::QueryResult& want = expected[order[k]];
          const api::QueryResult& got = resp.results[k];
          if (got.dist != want.dist || got.outcome != want.outcome) {
            failures[static_cast<std::size_t>(t)] =
                "thread " + std::to_string(t) + " round " +
                std::to_string(round) + " query " + std::to_string(order[k]);
            return;
          }
        }
      }
    });
  }
  for (auto& w : workers) w.join();
  for (const std::string& f : failures) EXPECT_EQ(f, "");
  std::remove(path.c_str());
}

TEST(ApiSessionConcurrency, PrunedDualArenaCacheChurnsUnderConcurrentStorms) {
  // DualFaultOracle caching under the PRUNED structure, concurrently: the
  // leased one-slot DualQueryArenas evict on every pair switch, so a storm
  // of alternating non-reducible pairs from many threads churns the arena
  // pool's cached traversals while reducible pairs bypass the cache — all
  // answers must stay bit-identical to the serial referee. Runs under TSan
  // via the concurrency label (the dual ctest label pulls it into the ASan
  // job too).
  const Graph g = gen::random_connected(40, 110, 53);
  api::BuildSpec spec;
  spec.fault_model = FaultClass::kDual;
  const api::Session session = api::Session::open(g, spec);
  const FtBfsStructure& h = session.structure();

  // An alternating storm of sited pairs (every query a fresh pair — the
  // eviction-heavy shape) interleaved with reducible pairs (doubled
  // elements and off-structure second edges — the cache-bypassing shape).
  EdgeId off_structure = kInvalidEdge;
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    if (!h.contains(e)) {
      off_structure = e;
      break;
    }
  }
  const auto& tree_edges = h.tree_edges();
  std::vector<Query> all;
  for (std::size_t i = 0; i + 1 < tree_edges.size(); i += 2) {
    for (Vertex v = 0; v < g.num_vertices(); v += 5) {
      Query pair;
      pair.v = v;
      pair.kind = FaultClass::kEdge;
      pair.fault = tree_edges[i];
      pair.kind2 = FaultClass::kEdge;
      pair.fault2 = tree_edges[i + 1];
      all.push_back(pair);
      Query doubled = pair;
      doubled.fault2 = doubled.fault;
      all.push_back(doubled);
      if (off_structure != kInvalidEdge) {
        Query reducible = pair;
        reducible.fault2 = off_structure;
        all.push_back(reducible);
      }
    }
  }

  std::vector<api::QueryResult> expected;
  expected.reserve(all.size());
  for (const Query& q : all) expected.push_back(session.query_one(q));

  constexpr int kThreads = 8;
  std::vector<std::string> failures(kThreads);
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      Rng rng(static_cast<std::uint64_t>(9100 + t));
      for (int round = 0; round < 3; ++round) {
        std::vector<std::uint32_t> order(all.size());
        for (std::uint32_t i = 0; i < order.size(); ++i) order[i] = i;
        rng.shuffle(order);
        std::vector<Query> batch;
        batch.reserve(order.size());
        for (const std::uint32_t i : order) batch.push_back(all[i]);
        const QueryResponse resp = session.query(batch);
        for (std::size_t k = 0; k < order.size(); ++k) {
          if (resp.results[k].dist != expected[order[k]].dist ||
              resp.results[k].outcome != expected[order[k]].outcome) {
            failures[static_cast<std::size_t>(t)] =
                "thread " + std::to_string(t) + " round " +
                std::to_string(round) + " query " + std::to_string(order[k]);
            return;
          }
        }
      }
    });
  }
  for (auto& w : workers) w.join();
  for (const std::string& f : failures) EXPECT_EQ(f, "");
}

TEST(ApiSessionConcurrency, TwoSourcePairStormKeysArenasOnTheSource) {
  // The same non-reducible pair asked for two sources must never be served
  // from an arena still holding the other source's sweep. Threads storm a
  // two-source dual session with both spellings, as tiny below-rule batches
  // (one caller-thread arena across both sources) and above-rule ones
  // (pooled arenas reused across sources); every answer is pinned to brute
  // force.
  const Graph g = gen::random_connected(32, 70, 23);
  api::BuildSpec spec;
  spec.fault_model = FaultClass::kDual;
  spec.sources = {0, 17};
  const api::Session session = api::Session::open(g, spec);
  const EdgeWeights w = EdgeWeights::uniform_random(g, spec.weight_seed);
  const BfsTree t0(g, w, 0);
  const BfsTree t1(g, w, 17);
  std::vector<EdgeId> shared;  // tree edges of both trees: sited for both
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    if (t0.is_tree_edge(e) && t1.is_tree_edge(e)) shared.push_back(e);
  }
  ASSERT_GE(shared.size(), 4u);

  std::vector<Query> all;
  std::vector<std::int32_t> expected;
  BfsScratch truth;
  for (std::size_t i = 0; i + 1 < shared.size(); i += 2) {
    for (std::int32_t si = 0; si < 2; ++si) {
      const DualSite a{FaultClass::kEdge, shared[i]};
      const DualSite b{FaultClass::kEdge, shared[i + 1]};
      dual_bruteforce_bfs(g, spec.sources[static_cast<std::size_t>(si)], a, b,
                          truth);
      for (Vertex v = 0; v < g.num_vertices(); v += 3) {
        Query q;
        q.v = v;
        q.kind = a.kind;
        q.fault = a.id;
        q.kind2 = b.kind;
        q.fault2 = b.id;
        q.source_index = si;
        all.push_back(q);
        expected.push_back(truth.dist(v));
      }
    }
  }

  // Every query is a pair-group member, so a batch's work is its size:
  // 16-query batches stay below api::kShardWork, and odd rounds send the
  // storm cycled past it, which shards.
  const std::size_t big = static_cast<std::size_t>(api::kShardWork);
  ASSERT_TRUE(shards(session, tile(all, big)));

  constexpr int kThreads = 6;
  std::vector<std::string> failures(kThreads);
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      Rng rng(static_cast<std::uint64_t>(7300 + t));
      for (int round = 0; round < 4; ++round) {
        std::vector<std::uint32_t> order(all.size());
        for (std::uint32_t i = 0; i < order.size(); ++i) order[i] = i;
        rng.shuffle(order);
        const bool sharded = round % 2 == 1;
        for (std::size_t k = 0; sharded && order.size() < big; ++k) {
          order.push_back(order[k]);
        }
        const std::size_t step = sharded ? order.size() : 16;
        for (std::size_t lo = 0; lo < order.size(); lo += step) {
          const std::size_t hi = std::min(lo + step, order.size());
          std::vector<Query> batch;
          batch.reserve(hi - lo);
          for (std::size_t k = lo; k < hi; ++k) {
            batch.push_back(all[order[k]]);
          }
          const QueryResponse resp = session.query(batch);
          for (std::size_t k = lo; k < hi; ++k) {
            if (resp.results[k - lo].dist != expected[order[k]]) {
              failures[static_cast<std::size_t>(t)] =
                  "thread " + std::to_string(t) + " round " +
                  std::to_string(round) + " query " +
                  std::to_string(order[k]);
              return;
            }
          }
        }
      }
    });
  }
  for (auto& th : workers) th.join();
  for (const std::string& f : failures) EXPECT_EQ(f, "");
}

TEST(ApiSessionConcurrency, ArenaFreeListStormAcrossTheBatchRule) {
  // The lock-free arena freelist under fire: threads alternate tiny
  // below-rule batches (caller-thread lease/release churn) with the storm
  // cycled past api::kShardWork (pool threads leasing concurrently), and
  // send every batch to a site-dist oracle session too, whose pairs are all
  // O(1). Every answer bit-identical to the serial referee; TSan (ctest -L
  // concurrency) watches the freelist.
  const Graph g = gen::random_connected(32, 80, 17);
  api::BuildSpec spec;
  spec.fault_model = FaultClass::kDual;
  const api::Session plain = api::Session::open(g, spec);
  spec.site_dist_oracle = true;
  const api::Session oracle = api::Session::open(g, spec);

  std::vector<Query> all = pair_storm(plain, 2);
  for (Vertex v = 0; v < g.num_vertices(); ++v) {  // O(1) singles ride along
    Query q;
    q.v = v;
    q.kind = FaultClass::kVertex;
    q.fault = std::max<Vertex>(1, v);
    q.allow_what_if = true;
    all.push_back(q);
  }

  std::vector<api::QueryResult> expected;
  expected.reserve(all.size());
  for (const Query& q : all) expected.push_back(plain.query_one(q));
  // The singles add no group work, so cycle to twice the rule.
  const std::size_t big = 2 * static_cast<std::size_t>(api::kShardWork);
  ASSERT_TRUE(shards(plain, tile(all, big)));
  ASSERT_FALSE(shards(oracle, tile(all, big)));

  constexpr int kThreads = 8;
  constexpr int kRounds = 4;
  std::vector<std::string> failures(kThreads);
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      Rng rng(static_cast<std::uint64_t>(4200 + t));
      for (int round = 0; round < kRounds; ++round) {
        std::vector<std::uint32_t> order(all.size());
        for (std::uint32_t i = 0; i < order.size(); ++i) order[i] = i;
        rng.shuffle(order);
        // Odd rounds: one batch of the storm cycled past the rule. Even
        // rounds: a stream of tiny batches (size ≤ 8), each leasing and
        // releasing scratch + arenas on the caller thread.
        const bool sharded = round % 2 == 1;
        for (std::size_t k = 0; sharded && order.size() < big; ++k) {
          order.push_back(order[k]);
        }
        const std::size_t step = sharded ? order.size() : 8;
        for (std::size_t lo = 0; lo < order.size(); lo += step) {
          const std::size_t hi = std::min(lo + step, order.size());
          std::vector<Query> batch;
          batch.reserve(hi - lo);
          for (std::size_t k = lo; k < hi; ++k)
            batch.push_back(all[order[k]]);
          for (const api::Session* s : {&plain, &oracle}) {
            const QueryResponse resp = s->query(batch);
            for (std::size_t k = lo; k < hi; ++k) {
              const api::QueryResult& want = expected[order[k]];
              const api::QueryResult& got = resp.results[k - lo];
              if (got.dist != want.dist || got.outcome != want.outcome) {
                failures[static_cast<std::size_t>(t)] =
                    "thread " + std::to_string(t) + " round " +
                    std::to_string(round) + " query " +
                    std::to_string(order[k]);
                return;
              }
            }
          }
        }
      }
    });
  }
  for (auto& w : workers) w.join();
  for (const std::string& f : failures) EXPECT_EQ(f, "");
}

TEST(ApiSessionConcurrency, SigmaWideMultiSourceSessionStorm) {
  // σ = 64 sources: one fused kernel sweep builds every tree (a full lane
  // word), and the session is then stormed from competing threads across
  // all 64 source indices. The session built under the scalar-lane referee
  // is the differential — identical structure, identical served answers —
  // and the TSan job runs this under -L concurrency.
  const Graph g = gen::random_connected(96, 300, 41);
  std::vector<Vertex> sources;
  for (std::size_t k = 0; k < 64; ++k) {
    sources.push_back(static_cast<Vertex>((k * 96) / 64));
  }
  api::BuildSpec spec;
  spec.eps = 0.3;
  spec.sources = sources;
  const api::Session fused = api::Session::open(g, spec);
  const api::Session scalar = api::Session::deploy(
      g, api::detail::build(g, spec, {.scalar_lanes = true}));
  ASSERT_EQ(fused.sources().size(), 64u);
  EXPECT_EQ(fused.structure().edges(), scalar.structure().edges());
  EXPECT_EQ(fused.structure().tree_edges(), scalar.structure().tree_edges());

  // A mixed batch touching every source index.
  Rng rng(4141);
  std::vector<Query> batch;
  for (std::int32_t si = 0; si < 64; ++si) {
    for (int k = 0; k < 6; ++k) {
      Query q;
      q.v = static_cast<Vertex>(
          rng.next_below(static_cast<std::uint64_t>(g.num_vertices())));
      q.kind = FaultClass::kEdge;
      q.fault = static_cast<EdgeId>(
          rng.next_below(static_cast<std::uint64_t>(g.num_edges())));
      q.source_index = si;
      q.allow_what_if = true;
      batch.push_back(q);
    }
  }
  const QueryResponse want = fused.query(batch);
  // Spot-referee a stride of the batch against the serial ground truth.
  for (std::size_t i = 0; i < batch.size(); i += 16) {
    ASSERT_EQ(want.results[i].dist, serial_truth(fused, batch[i])) << i;
  }

  std::atomic<int> mismatches{0};
  auto storm = [&](const api::Session& s) {
    for (int round = 0; round < 3; ++round) {
      const QueryResponse got = s.query(batch);
      for (std::size_t i = 0; i < batch.size(); ++i) {
        if (got.results[i].dist != want.results[i].dist ||
            got.results[i].outcome != want.results[i].outcome) {
          mismatches.fetch_add(1);
          return;
        }
      }
    }
  };
  std::vector<std::thread> threads;
  for (int t = 0; t < 3; ++t) {
    threads.emplace_back(storm, std::cref(fused));
    threads.emplace_back(storm, std::cref(scalar));
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(mismatches.load(), 0);
}

TEST(ApiSessionConcurrency, ConcurrentSessionsShareTheGlobalPool) {
  // Two independent sessions, queried from competing threads, both backed
  // by the global ThreadPool: results must stay exact.
  const Graph g1 = gen::grid_graph(7, 7);
  const Graph g2 = gen::random_connected(40, 90, 3);
  api::BuildSpec spec1;
  spec1.eps = 0.25;
  api::BuildSpec spec2;
  spec2.fault_model = FaultClass::kVertex;
  const api::Session s1 = api::Session::open(g1, spec1);
  const api::Session s2 = api::Session::open(g2, spec2);

  auto make_batch = [](const api::Session& s, FaultClass kind) {
    std::vector<Query> batch;
    const Graph& g = s.graph();
    const std::int32_t faults = kind == FaultClass::kEdge
                                    ? static_cast<std::int32_t>(g.num_edges())
                                    : g.num_vertices();
    for (std::int32_t f = kind == FaultClass::kEdge ? 0 : 1; f < faults;
         f += 2) {
      for (Vertex v = 0; v < g.num_vertices(); v += 4) {
        Query q;
        q.v = v;
        q.kind = kind;
        q.fault = f;
        q.allow_what_if = true;
        batch.push_back(q);
      }
    }
    return batch;
  };
  const std::vector<Query> b1 = make_batch(s1, FaultClass::kEdge);
  const std::vector<Query> b2 = make_batch(s2, FaultClass::kVertex);
  const QueryResponse want1 = s1.query(b1);
  const QueryResponse want2 = s2.query(b2);

  std::atomic<int> mismatches{0};
  auto run = [&](const api::Session& s, const std::vector<Query>& b,
                 const QueryResponse& want) {
    for (int round = 0; round < 4; ++round) {
      const QueryResponse got = s.query(b);
      for (std::size_t i = 0; i < b.size(); ++i) {
        if (got.results[i].dist != want.results[i].dist) {
          mismatches.fetch_add(1);
          return;
        }
      }
    }
  };
  std::thread t1(run, std::cref(s1), std::cref(b1), std::cref(want1));
  std::thread t2(run, std::cref(s2), std::cref(b2), std::cref(want2));
  std::thread t3(run, std::cref(s1), std::cref(b1), std::cref(want1));
  std::thread t4(run, std::cref(s2), std::cref(b2), std::cref(want2));
  t1.join();
  t2.join();
  t3.join();
  t4.join();
  EXPECT_EQ(mismatches.load(), 0);
}

}  // namespace
}  // namespace ftb
