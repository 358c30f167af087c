// bench_replacement_paths — Experiment E10 (engine micro-throughput; the
// replacement-path machinery of refs [9]/[17] as realized here).
//
// Isolates the engine's sub-phases: per-tree-edge BFS (distance tables,
// alone and inside the full engine), per-vertex off-path detour BFS, oracle
// queries, the interference index build, and the dual pair answer.
#include <benchmark/benchmark.h>

#include <algorithm>

#include "bench/bench_util.hpp"
#include "src/api/ftbfs_api.hpp"
#include "src/core/interference.hpp"
#include "src/core/replacement.hpp"
#include "src/graph/bfs_kernel.hpp"
#include "src/graph/lca.hpp"

using namespace ftb;

namespace {

void BM_DistTablesOnly(benchmark::State& state) {
  const Vertex n = static_cast<Vertex>(state.range(0));
  const Graph g = bench::dense_random(n, 11);
  const EdgeWeights w = EdgeWeights::uniform_random(g, 11);
  const BfsTree tree(g, w, 0);
  for (auto _ : state) {
    // The distance plane alone (what a Session builds): no covered test,
    // no off-path detour BFS. Report per-failure BFS throughput.
    const ReplacementDistTable<EdgeFault> table(tree);
    benchmark::DoNotOptimize(table.num_rows());
  }
  state.counters["failures/s"] = benchmark::Counter(
      static_cast<double>(tree.tree_edges().size()),
      benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK(BM_DistTablesOnly)->Arg(256)->Arg(512)->Arg(1024)
    ->Unit(benchmark::kMillisecond);

void BM_DistTablesReferenceKernel(benchmark::State& state) {
  const Vertex n = static_cast<Vertex>(state.range(0));
  const Graph g = bench::dense_random(n, 11);
  const EdgeWeights w = EdgeWeights::uniform_random(g, 11);
  const BfsTree tree(g, w, 0);
  ReplacementDistTable<EdgeFault>::Config cfg;
  cfg.reference_kernel = true;
  for (auto _ : state) {
    const ReplacementDistTable<EdgeFault> table(tree, cfg);
    benchmark::DoNotOptimize(table.num_rows());
  }
  state.counters["failures/s"] = benchmark::Counter(
      static_cast<double>(tree.tree_edges().size()),
      benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK(BM_DistTablesReferenceKernel)->Arg(256)->Arg(512)->Arg(1024)
    ->Unit(benchmark::kMillisecond);

// The serving plane's build cost on the lower-bound graph (n, ε_G =
// 1/inv_eps): the full engine without detours (tables + covered test +
// off-path BFS per uncovered terminal) against the distance tables alone.
void BM_LbFullEngine(benchmark::State& state) {
  const auto lbg = lb::build_single_source(
      static_cast<Vertex>(state.range(0)),
      1.0 / static_cast<double>(state.range(1)));
  const EdgeWeights w = EdgeWeights::uniform_random(lbg.graph, 17);
  const BfsTree tree(lbg.graph, w, lbg.source);
  ReplacementPathEngine::Config cfg;
  cfg.collect_detours = false;
  for (auto _ : state) {
    const ReplacementPathEngine engine(tree, cfg);
    benchmark::DoNotOptimize(engine.stats().pairs_uncovered);
  }
}
BENCHMARK(BM_LbFullEngine)
    ->ArgNames({"n", "inv_eps"})
    ->Args({2048, 2})
    ->Unit(benchmark::kMillisecond);

void BM_LbTablesOnly(benchmark::State& state) {
  const auto lbg = lb::build_single_source(
      static_cast<Vertex>(state.range(0)),
      1.0 / static_cast<double>(state.range(1)));
  const EdgeWeights w = EdgeWeights::uniform_random(lbg.graph, 17);
  const BfsTree tree(lbg.graph, w, lbg.source);
  for (auto _ : state) {
    const ReplacementDistTable<EdgeFault> table(tree);
    benchmark::DoNotOptimize(table.num_rows());
  }
}
BENCHMARK(BM_LbTablesOnly)
    ->ArgNames({"n", "inv_eps"})
    ->Args({2048, 2})
    ->Unit(benchmark::kMillisecond);

// Single-traversal micro throughput: the wrapper (materializing BfsResult),
// the raw kernel on a reused scratch, and the naive reference.
void BM_SingleBfsReference(benchmark::State& state) {
  const Vertex n = static_cast<Vertex>(state.range(0));
  const Graph g = bench::dense_random(n, 29);
  for (auto _ : state) {
    const BfsResult r = plain_bfs_reference(g, 0);
    benchmark::DoNotOptimize(r.order.size());
  }
}
BENCHMARK(BM_SingleBfsReference)->Arg(1024)->Arg(4096)
    ->Unit(benchmark::kMicrosecond);

void BM_SingleBfsKernel(benchmark::State& state) {
  const Vertex n = static_cast<Vertex>(state.range(0));
  const Graph g = bench::dense_random(n, 29);
  BfsScratch scratch;
  for (auto _ : state) {
    bfs_run(g, 0, {}, scratch);
    benchmark::DoNotOptimize(scratch.order().size());
  }
}
BENCHMARK(BM_SingleBfsKernel)->Arg(1024)->Arg(4096)
    ->Unit(benchmark::kMicrosecond);

void BM_CanonicalSpReference(benchmark::State& state) {
  const Vertex n = static_cast<Vertex>(state.range(0));
  const Graph g = bench::dense_random(n, 31);
  const EdgeWeights w = EdgeWeights::uniform_random(g, 31);
  for (auto _ : state) {
    const CanonicalSp sp = canonical_sp(g, w, 0);
    benchmark::DoNotOptimize(sp.order.size());
  }
}
BENCHMARK(BM_CanonicalSpReference)->Arg(1024)->Arg(4096)
    ->Unit(benchmark::kMicrosecond);

void BM_CanonicalSpKernel(benchmark::State& state) {
  const Vertex n = static_cast<Vertex>(state.range(0));
  const Graph g = bench::dense_random(n, 31);
  const EdgeWeights w = EdgeWeights::uniform_random(g, 31);
  CanonicalSpScratch scratch;
  for (auto _ : state) {
    canonical_sp_run(g, w, 0, {}, scratch);
    benchmark::DoNotOptimize(scratch.order().size());
  }
}
BENCHMARK(BM_CanonicalSpKernel)->Arg(1024)->Arg(4096)
    ->Unit(benchmark::kMicrosecond);

void BM_OracleQueries(benchmark::State& state) {
  const Vertex n = static_cast<Vertex>(state.range(0));
  const Graph g = bench::dense_random(n, 13);
  const EdgeWeights w = EdgeWeights::uniform_random(g, 13);
  const BfsTree tree(g, w, 0);
  const ReplacementPathEngine engine(tree);
  std::uint64_t x = 0;
  Rng rng(17);
  std::vector<std::pair<Vertex, EdgeId>> queries;
  for (int i = 0; i < 4096; ++i) {
    queries.emplace_back(
        static_cast<Vertex>(rng.next_below(static_cast<std::uint64_t>(n))),
        static_cast<EdgeId>(
            rng.next_below(static_cast<std::uint64_t>(g.num_edges()))));
  }
  for (auto _ : state) {
    for (const auto& [v, e] : queries) {
      x += static_cast<std::uint64_t>(engine.replacement_dist(v, e));
    }
    benchmark::DoNotOptimize(x);
  }
  state.counters["queries/s"] = benchmark::Counter(
      static_cast<double>(queries.size()),
      benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK(BM_OracleQueries)->Arg(512)->Arg(1024)
    ->Unit(benchmark::kMicrosecond);

/// Lower-bound family of ε_G = 1/inv_eps: 1/3 is the deep family, 1/2 at
/// n = 2048 is the shape of the eps_adversarial benchmark workload.
void BM_InterferenceIndex(benchmark::State& state) {
  const Vertex n = static_cast<Vertex>(state.range(0));
  const auto lbg =
      lb::build_single_source(n, 1.0 / static_cast<double>(state.range(1)));
  const EdgeWeights w = EdgeWeights::uniform_random(lbg.graph, 19);
  const BfsTree tree(lbg.graph, w, lbg.source);
  const ReplacementPathEngine engine(tree);
  const LcaIndex lca(tree);
  std::int64_t entries = 0;
  for (auto _ : state) {
    InterferenceIndex ifx(engine, lca);
    entries = ifx.stats().adjacency_entries;
    benchmark::DoNotOptimize(ifx.num_pairs());
  }
  state.counters["pairs"] =
      static_cast<double>(engine.stats().pairs_uncovered);
  state.counters["entries"] = static_cast<double>(entries);
}
BENCHMARK(BM_InterferenceIndex)
    ->ArgNames({"n", "inv_eps"})
    ->Args({512, 3})
    ->Args({1024, 3})
    ->Args({2048, 3})
    ->Args({2048, 2})
    ->Unit(benchmark::kMillisecond);

void BM_PathReconstruction(benchmark::State& state) {
  const Vertex n = static_cast<Vertex>(state.range(0));
  const auto lbg = lb::build_single_source(n, 0.4);
  const EdgeWeights w = EdgeWeights::uniform_random(lbg.graph, 23);
  const BfsTree tree(lbg.graph, w, lbg.source);
  const ReplacementPathEngine engine(tree);
  const auto& pairs = engine.uncovered_pairs();
  if (pairs.empty()) {
    state.SkipWithError("no uncovered pairs");
    return;
  }
  std::size_t i = 0;
  for (auto _ : state) {
    const auto& p = pairs[i++ % pairs.size()];
    const auto path = engine.replacement_path(p.v, p.e);
    benchmark::DoNotOptimize(path.size());
  }
}
BENCHMARK(BM_PathReconstruction)->Arg(512)->Arg(1024)
    ->Unit(benchmark::kMicrosecond);

/// One non-reducible dual pair answer on the dual_rmat benchmark shape
/// (R-MAT scale 12, m = 4·2^12, sourced at the highest-degree vertex).
/// Legs: 0 = a pair of leaf parent edges and 1 = a pair of root-child
/// parent edges, each answered by DualFaultOracle::dist with the arena's
/// one-slot cache evicted every iteration (two pairs alternate), so every
/// answer pays one subtree sweep; 2 = the same root-child pairs answered
/// by the site-dist oracle's O(depth) walk (BuildSpec::site_dist_oracle).
/// `region` is |A| = |sub(f1) ∪ sub(f2)|, `visits` the sweep visits per
/// answer, `table_bytes` the site-dist table the walk reads.
void BM_DualPairAnswer(benchmark::State& state) {
  const int leg = static_cast<int>(state.range(0));
  const Graph g = gen::rmat_connected(12, 4 << 12, 1);
  Vertex hub = 0;
  for (Vertex x = 1; x < g.num_vertices(); ++x) {
    if (g.degree(x) > g.degree(hub)) hub = x;
  }
  api::BuildSpec spec;
  spec.fault_model = FaultClass::kDual;
  spec.sources = {hub};
  spec.site_dist_oracle = leg == 2;
  const api::BuildResult res = api::build(g, spec);
  const EdgeWeights w = EdgeWeights::uniform_random(g, spec.weight_seed);
  const BfsTree tree(g, w, hub);
  const ReplacementDistTable<EdgeFault> ed(tree);
  const ReplacementDistTable<VertexFault> vd(tree);
  DualFaultOracle oracle(tree, ed, vd, res.dual_tables.front());
  if (leg == 2) oracle.attach_site_dist(&res.dual_site_dist.front());

  // Two pairs of subtree tops, alternated so the one-slot cache misses.
  std::vector<Vertex> tops;
  if (leg == 0) {
    for (const Vertex x : tree.preorder()) {
      if (x != hub && tree.subtree_size(x) == 1) tops.push_back(x);
    }
  } else {
    tops.assign(tree.children(hub).begin(), tree.children(hub).end());
    std::sort(tops.begin(), tops.end(), [&](Vertex a, Vertex b) {
      return tree.subtree_size(a) > tree.subtree_size(b);
    });
  }
  if (tops.size() < 4) {
    state.SkipWithError("fewer than four subtree tops");
    return;
  }
  const auto site = [&](Vertex top) {
    return DualSite{FaultClass::kEdge, tree.parent_edge(top)};
  };
  const DualSite pairs[2][2] = {{site(tops[0]), site(tops[1])},
                                {site(tops[2]), site(tops[3])}};
  // Deepest vertex of each pair's region: the longest site-dist walk.
  Vertex probe[2];
  for (int p = 0; p < 2; ++p) {
    probe[p] = tops[2 * p];
    for (const Vertex x : tree.subtree(tops[2 * p])) {
      if (tree.depth(x) > tree.depth(probe[p])) probe[p] = x;
    }
  }
  DualQueryArena arena;
  std::int64_t x = 0;
  int p = 0;
  for (auto _ : state) {
    x += oracle.dist(probe[p], pairs[p][0], pairs[p][1], arena);
    p ^= 1;
  }
  benchmark::DoNotOptimize(x);
  state.counters["region"] = static_cast<double>(
      tree.subtree_size(tops[0]) + tree.subtree_size(tops[1]));
  state.counters["visits"] = benchmark::Counter(
      static_cast<double>(arena.sweep_visits()),
      benchmark::Counter::kAvgIterations);
  if (leg == 2) {  // what the walk costs in memory
    const DualSiteDistTable& sd = res.dual_site_dist.front();
    state.counters["table_bytes"] = static_cast<double>(
        4 * (sd.rows.size() + sd.parent_edge.size() + sd.tf_depth.size()) +
        8 * (sd.site_offsets.size() + sd.row_offsets.size()));
  }
}
BENCHMARK(BM_DualPairAnswer)
    ->ArgNames({"leg"})
    ->Arg(0)
    ->Arg(1)
    ->Arg(2)
    ->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();
