// session_fsck_test.cpp — the graceful-degradation plane: fsck's audit on
// clean and degraded sessions, the seeded property that a session reloaded
// from a corrupted pair-table artifact serves the full query mix with
// answers BIT-IDENTICAL to a fresh build (outcomes downgraded to
// kDegraded), per-batch traversal budgets/deadlines, and the end-to-end
// chaos drill.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "src/api/ftbfs_api.hpp"
#include "src/graph/generators.hpp"
#include "src/sim/failure_sim.hpp"
#include "src/util/rng.hpp"
#include "tests/property_test_util.hpp"

namespace ftb {
namespace {

using api::BatchOptions;
using api::BuildSpec;
using api::Query;
using api::QueryOutcome;
using api::QueryResponse;
using api::Session;
using api::SessionConfig;

std::string slurp(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  std::ostringstream os;
  os << f.rdbuf();
  return os.str();
}

/// Flips one seeded bit inside the artifact's pair-table payload — the
/// corruption every test below degrades through. False when the artifact
/// carries no pair-table section.
bool corrupt_pair_table_payload(const std::string& path, Rng& rng) {
  std::string bytes = slurp(path);
  const std::size_t hdr = bytes.find("section pair-tables ");
  if (hdr == std::string::npos) return false;
  const std::size_t payload = bytes.find('\n', hdr);
  if (payload == std::string::npos || payload + 1 >= bytes.size()) {
    return false;
  }
  const std::size_t pos =
      payload + 1 + rng.next_below(bytes.size() - (payload + 1));
  bytes[pos] = static_cast<char>(static_cast<unsigned char>(bytes[pos]) ^
                                 (1u << rng.next_below(8)));
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  f << bytes;
  return f.good();
}

/// The query mix of the degradation property: pairs (the degraded plane),
/// single faults (never degraded — engines are always graph-rebuilt) and
/// one refusal (the source itself failing).
std::vector<Query> mixed_batch(const Graph& g, Vertex source,
                               std::uint64_t seed) {
  test::FaultSampler sampler(g, source, seed);
  Rng rng(seed ^ 0x5E55'1011ULL);
  std::vector<Query> batch;
  for (int i = 0; i < 40; ++i) {
    const auto [a, b] = sampler.next_pair();
    Query q;
    q.v = static_cast<Vertex>(
        rng.next_below(static_cast<std::uint64_t>(g.num_vertices())));
    q.kind = a.kind;
    q.fault = a.id;
    q.kind2 = b.kind;
    q.fault2 = b.id;
    q.allow_what_if = true;
    batch.push_back(q);
  }
  for (int i = 0; i < 20; ++i) {
    const DualSite f = sampler.next_site();
    Query q;
    q.v = static_cast<Vertex>(
        rng.next_below(static_cast<std::uint64_t>(g.num_vertices())));
    q.kind = f.kind;
    q.fault = f.id;
    q.allow_what_if = true;
    batch.push_back(q);
  }
  Query refused;
  refused.v = 0;
  refused.kind = FaultClass::kVertex;
  refused.fault = source;  // the asking source never fails
  batch.push_back(refused);
  return batch;
}

TEST(SessionFsck, CleanDualSessionPasses) {
  const Graph g = gen::grid_graph(5, 5);
  BuildSpec spec;
  spec.fault_model = FaultClass::kDual;
  const Session session = Session::open(g, spec);
  const api::FsckReport rep = session.fsck();
  EXPECT_TRUE(rep.ok) << rep.to_string();
  EXPECT_FALSE(rep.degraded);
  EXPECT_GT(rep.checks, 0);
  EXPECT_TRUE(rep.errors.empty());
  EXPECT_FALSE(session.degraded());
  EXPECT_EQ(rep.to_string().rfind("fsck: ok", 0), 0u);
}

TEST(SessionFsck, CleanMultiSourceEdgeSessionPasses) {
  const Graph g = gen::random_connected(30, 80, 11);
  BuildSpec spec;
  spec.sources = {0, 7, 19};
  const Session session = Session::open(g, spec);
  const api::FsckReport rep = session.fsck();
  EXPECT_TRUE(rep.ok) << rep.to_string();
  EXPECT_FALSE(rep.degraded);
  EXPECT_GT(rep.checks, 0);
}

TEST(SessionFsck, ReloadedV5ArtifactPassesFsck) {
  const Graph g = gen::grid_graph(5, 5);
  BuildSpec spec;
  spec.fault_model = FaultClass::kDual;
  const Session session = Session::open(g, spec);
  const std::string path = ::testing::TempDir() + "/fsck_roundtrip.ftbfs";
  session.save_v5(path);
  const Session reloaded = Session::load(g, path);
  EXPECT_FALSE(reloaded.degraded());
  const api::FsckReport rep = reloaded.fsck();
  EXPECT_TRUE(rep.ok) << rep.to_string();
  EXPECT_FALSE(rep.degraded);
  std::remove(path.c_str());
}

TEST(SessionFsck, StrictLoadRefusesCorruptArtifact) {
  const Graph g = gen::grid_graph(5, 5);
  BuildSpec spec;
  spec.fault_model = FaultClass::kDual;
  const Session session = Session::open(g, spec);
  const std::string path = ::testing::TempDir() + "/fsck_strict.ftbfs";
  session.save_v5(path);
  Rng rng(7);
  ASSERT_TRUE(corrupt_pair_table_payload(path, rng));
  SessionConfig cfg;
  cfg.tolerate_corruption = false;
  EXPECT_THROW(Session::load(g, path, cfg), CheckError);
  std::remove(path.c_str());
}

TEST(SessionFsck, TruncatedSiteDistSectionIsDegraded) {
  // An artifact cut inside its site-dist section: the tolerant load drops
  // the accelerator and serves every query as before (kInModel, same
  // answers), but the shipped artifact is damaged, so fsck says DEGRADED.
  const Graph g = gen::grid_graph(5, 5);
  BuildSpec spec;
  spec.fault_model = FaultClass::kDual;
  spec.site_dist_oracle = true;
  const Session built = Session::open(g, spec);
  const std::string path = ::testing::TempDir() + "/fsck_site_dist.ftbfs";
  built.save_v5(path);
  std::string bytes = slurp(path);
  const std::size_t hdr = bytes.find("section site-dist ");
  ASSERT_NE(hdr, std::string::npos);
  bytes.resize(hdr + (bytes.size() - hdr) / 2);
  {
    std::ofstream f(path, std::ios::binary | std::ios::trunc);
    f << bytes;
  }
  const Session cut = Session::load(g, path);
  EXPECT_FALSE(cut.degraded());
  const api::FsckReport rep = cut.fsck();
  EXPECT_TRUE(rep.ok) << rep.to_string();
  EXPECT_TRUE(rep.degraded);
  EXPECT_FALSE(rep.notes.empty());
  EXPECT_EQ(rep.to_string().rfind("fsck: DEGRADED", 0), 0u);

  const std::vector<Query> batch = mixed_batch(g, 0, 0x517E'D157ULL);
  const QueryResponse want = built.query(batch);
  const QueryResponse got = cut.query(batch);
  ASSERT_EQ(want.results.size(), got.results.size());
  for (std::size_t i = 0; i < want.results.size(); ++i) {
    EXPECT_EQ(got.results[i].dist, want.results[i].dist) << "query " << i;
    EXPECT_EQ(got.results[i].outcome, want.results[i].outcome)
        << "query " << i;
  }
  EXPECT_EQ(got.degraded, 0);

  SessionConfig strict;
  strict.tolerate_corruption = false;
  EXPECT_THROW(Session::load(g, path, strict), CheckError);
  std::remove(path.c_str());
}

// The tentpole property: a session degraded by artifact corruption serves
// the FULL query mix with answers bit-identical to a fresh build; only the
// outcome tag changes (kInModel pairs → kDegraded).
TEST(SessionFsck, DegradedSessionServesBitIdenticalAnswers) {
  const auto cases = test::property_cases(20, 1);
  int case_no = 0;
  for (const test::PropertyCase& pc : cases) {
    FTB_PROPERTY_TRACE(pc, "session_fsck_test");
    BuildSpec spec;
    spec.fault_model = FaultClass::kDual;
    spec.sources = {pc.source};
    const Session fresh = Session::open(pc.graph, spec);

    const std::string path = ::testing::TempDir() + "/fsck_degraded_" +
                             std::to_string(case_no++) + ".ftbfs";
    fresh.save_v5(path);
    Rng rng(pc.seed ^ 0xC0'44U);
    ASSERT_TRUE(corrupt_pair_table_payload(path, rng));

    const Session degraded = Session::load(pc.graph, path);
    EXPECT_TRUE(degraded.degraded());
    const api::FsckReport rep = degraded.fsck();
    EXPECT_TRUE(rep.ok) << rep.to_string();
    EXPECT_TRUE(rep.degraded);
    EXPECT_FALSE(rep.notes.empty());
    EXPECT_EQ(rep.to_string().rfind("fsck: DEGRADED", 0), 0u);

    const std::vector<Query> batch =
        mixed_batch(pc.graph, pc.source, pc.seed ^ 0xBA7C4ULL);
    const QueryResponse a = fresh.query(batch);
    const QueryResponse b = degraded.query(batch);
    ASSERT_EQ(a.results.size(), b.results.size());
    for (std::size_t i = 0; i < a.results.size(); ++i) {
      EXPECT_EQ(a.results[i].dist, b.results[i].dist)
          << "query " << i << " answered differently when degraded";
      const bool same = a.results[i].outcome == b.results[i].outcome;
      const bool downgraded =
          a.results[i].outcome == QueryOutcome::kInModel &&
          b.results[i].outcome == QueryOutcome::kDegraded;
      EXPECT_TRUE(same || downgraded)
          << "query " << i << ": outcome "
          << static_cast<int>(a.results[i].outcome) << " became "
          << static_cast<int>(b.results[i].outcome);
    }
    // The mix exercised every plane: degraded pairs, clean single faults,
    // a refusal.
    EXPECT_EQ(a.degraded, 0);
    EXPECT_GT(b.degraded, 0);
    EXPECT_GT(b.in_model, 0);
    EXPECT_EQ(b.refused, 1);
    std::remove(path.c_str());
  }
}

// ---------------------------------------------------------------------------
// Per-batch service limits.

std::vector<Query> pair_only_batch(const Graph& g, Vertex source,
                                   std::uint64_t seed, int count) {
  test::FaultSampler sampler(g, source, seed);
  std::vector<Query> batch;
  for (int i = 0; i < count; ++i) {
    const auto [a, b] = sampler.next_pair();
    Query q;
    q.v = static_cast<Vertex>((i * 7 + 1) % g.num_vertices());
    q.kind = a.kind;
    q.fault = a.id;
    q.kind2 = b.kind;
    q.fault2 = b.id;
    batch.push_back(q);
  }
  return batch;
}

TEST(SessionBudget, ZeroBudgetExhaustsEveryTraversalGroup) {
  const Graph g = gen::grid_graph(5, 5);
  BuildSpec spec;
  spec.fault_model = FaultClass::kDual;
  const Session session = Session::open(g, spec);
  std::vector<Query> batch = pair_only_batch(g, 0, 99, 24);
  // Plus single-fault queries: O(1) in-model lookups never exhaust.
  for (EdgeId e = 0; e < 6; ++e) {
    Query q;
    q.v = static_cast<Vertex>(g.num_vertices() - 1);
    q.kind = FaultClass::kEdge;
    q.fault = e;
    batch.push_back(q);
  }
  BatchOptions opts;
  opts.max_traversals = 0;
  const QueryResponse resp = session.query(batch, opts);
  EXPECT_EQ(resp.budget_exhausted, 24);
  EXPECT_EQ(resp.in_model, 6);
  EXPECT_EQ(resp.pair_traversals, 0);
  for (std::size_t i = 0; i < 24; ++i) {
    EXPECT_EQ(resp.results[i].outcome, QueryOutcome::kBudgetExhausted);
    EXPECT_EQ(resp.results[i].dist, kInfHops);
  }
  // The same batch unbudgeted answers everything.
  const QueryResponse full = session.query(batch);
  EXPECT_EQ(full.budget_exhausted, 0);
  for (std::size_t i = 24; i < batch.size(); ++i) {
    EXPECT_EQ(resp.results[i].dist, full.results[i].dist)
        << "in-model lookup " << i << " changed under a zero budget";
  }
}

TEST(SessionBudget, PositiveBudgetBoundsPaidTraversals) {
  const Graph g = gen::grid_graph(5, 5);
  BuildSpec spec;
  spec.fault_model = FaultClass::kDual;
  const Session session = Session::open(g, spec);
  const std::vector<Query> batch = pair_only_batch(g, 0, 31, 16);
  BatchOptions opts;
  opts.max_traversals = 2;
  const QueryResponse resp = session.query(batch, opts);
  // The budget bounds work actually paid for; which groups win is
  // scheduling-dependent, but nothing beyond the cap ever runs.
  EXPECT_LE(resp.pair_traversals, 2);
  EXPECT_EQ(resp.in_model + resp.budget_exhausted,
            static_cast<std::int64_t>(batch.size()));
  for (const api::QueryResult& r : resp.results) {
    if (r.outcome == QueryOutcome::kBudgetExhausted) {
      EXPECT_EQ(r.dist, kInfHops);
    }
  }
}

TEST(SessionBudget, TinyDeadlineExhaustsTraversalGroups) {
  const Graph g = gen::grid_graph(5, 5);
  BuildSpec spec;
  spec.fault_model = FaultClass::kDual;
  const Session session = Session::open(g, spec);
  const std::vector<Query> batch = pair_only_batch(g, 0, 5150, 12);
  BatchOptions opts;
  opts.deadline_seconds = 1e-9;  // expired before any group starts
  const QueryResponse resp = session.query(batch, opts);
  EXPECT_EQ(resp.budget_exhausted, static_cast<std::int64_t>(batch.size()));
}

TEST(SessionBudget, DefaultOptionsMatchUnbudgetedQuery) {
  const Graph g = gen::grid_graph(5, 5);
  BuildSpec spec;
  spec.fault_model = FaultClass::kDual;
  const Session session = Session::open(g, spec);
  const std::vector<Query> batch = pair_only_batch(g, 0, 404, 10);
  const QueryResponse a = session.query(batch);
  const QueryResponse b = session.query(batch, BatchOptions{});
  ASSERT_EQ(a.results.size(), b.results.size());
  for (std::size_t i = 0; i < a.results.size(); ++i) {
    EXPECT_EQ(a.results[i].dist, b.results[i].dist);
    EXPECT_EQ(a.results[i].outcome, b.results[i].outcome);
  }
  EXPECT_EQ(a.budget_exhausted, 0);
  EXPECT_EQ(b.budget_exhausted, 0);
}

// ---------------------------------------------------------------------------
// The end-to-end chaos drill (corrupt → reload degraded → fsck → serve →
// verify against fresh session and brute force).

TEST(ChaosDrill, HealthyAcrossSeeds) {
  const Graph g = gen::grid_graph(5, 5);
  BuildSpec spec;
  spec.fault_model = FaultClass::kDual;
  for (const std::uint64_t seed : {1ULL, 2ULL}) {
    const std::string path = ::testing::TempDir() + "/chaos_drill_" +
                             std::to_string(seed) + ".ftbfs";
    const ChaosDrillReport rep =
        run_chaos_drill(g, spec, path, /*num_failures=*/30, seed);
    EXPECT_TRUE(rep.healthy()) << rep.to_string();
    EXPECT_TRUE(rep.artifact_corrupted);
    EXPECT_TRUE(rep.reload_degraded);
    EXPECT_EQ(rep.dropped_sections, 1);
    EXPECT_TRUE(rep.fsck_ok);
    EXPECT_GT(rep.fsck_checks, 0);
    EXPECT_GT(rep.compared_queries, 0);
    EXPECT_EQ(rep.mismatches, 0);
    EXPECT_EQ(rep.drill.violations, 0);
    std::remove(path.c_str());
  }
}

TEST(ChaosDrill, RequiresTheDualModel) {
  const Graph g = gen::grid_graph(4, 4);
  BuildSpec spec;  // edge model: no pair-table section to corrupt
  const std::string path = ::testing::TempDir() + "/chaos_nondual.ftbfs";
  EXPECT_THROW(run_chaos_drill(g, spec, path, 5, 1), CheckError);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace ftb
