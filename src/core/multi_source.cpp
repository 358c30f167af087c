#include "src/core/multi_source.hpp"

#include "src/core/validate.hpp"
#include "src/core/verifier.hpp"
#include "src/graph/multi_source_bfs_kernel.hpp"

namespace ftb {

namespace {

/// Fused canonical labels for every source, or empty when the fusion gate
/// is off (knob disabled, a single source, or a caller-supplied prebuilt
/// label set already in play). CanonicalSp is self-contained, so the local
/// weights table can die here — each per-source impl rebuilds the identical
/// table from the same seed.
std::vector<CanonicalSp> fused_source_sps(const Graph& g,
                                          const std::vector<Vertex>& sources,
                                          std::uint64_t weight_seed,
                                          bool bit_parallel,
                                          const CanonicalSp* prebuilt_sp) {
  if (!bit_parallel || sources.size() < 2 || prebuilt_sp != nullptr) {
    return {};
  }
  const EdgeWeights weights = EdgeWeights::uniform_random(g, weight_seed);
  std::vector<BfsLane> lanes(sources.size());
  for (std::size_t i = 0; i < sources.size(); ++i) {
    lanes[i].source = sources[i];
  }
  return ms_canonical_sp(g, weights, lanes);
}

}  // namespace

MultiSourceResult detail::build_epsilon_ftmbfs_impl(
    const Graph& g, const std::vector<Vertex>& sources,
    const EpsilonOptions& opts) {
  detail::check_epsilon(opts.eps);
  detail::check_sources(g, sources);

  std::vector<EdgeId> edges;
  std::vector<EdgeId> reinforced;
  std::vector<EdgeId> tree_edges;  // union of the per-source trees
  std::vector<EpsilonStats> stats;
  stats.reserve(sources.size());
  // Each per-source tree holds up to n−1 edges; reserving up front keeps
  // the tree-edge union from reallocating once per source. (The backup
  // edge union is Õ(n^{1+ε})-sized and grows amortized instead.)
  tree_edges.reserve(sources.size() *
                     static_cast<std::size_t>(g.num_vertices()));

  const std::vector<CanonicalSp> sps = fused_source_sps(
      g, sources, opts.weight_seed, opts.bit_parallel, opts.prebuilt_sp);
  for (std::size_t i = 0; i < sources.size(); ++i) {
    const Vertex s = sources[i];
    EpsilonOptions per = opts;
    if (!sps.empty()) per.prebuilt_sp = &sps[i];
    EpsilonResult res = detail::build_epsilon_ftbfs_impl(g, s, per);
    const FtBfsStructure& h = res.structure;
    edges.insert(edges.end(), h.edges().begin(), h.edges().end());
    reinforced.insert(reinforced.end(), h.reinforced().begin(),
                      h.reinforced().end());
    tree_edges.insert(tree_edges.end(), h.tree_edges().begin(),
                      h.tree_edges().end());
    stats.push_back(res.stats);
  }

  FtBfsStructure merged(g, sources.front(), std::move(edges),
                        std::move(reinforced), std::move(tree_edges));
  return MultiSourceResult{sources, std::move(merged), std::move(stats)};
}

MultiSourceResult detail::build_vertex_ftmbfs_impl(
    const Graph& g, const std::vector<Vertex>& sources,
    const VertexFtBfsOptions& opts) {
  detail::check_sources(g, sources);

  std::vector<EdgeId> edges;
  std::vector<EdgeId> tree_edges;  // union of the per-source trees
  tree_edges.reserve(sources.size() *
                     static_cast<std::size_t>(g.num_vertices()));

  const std::vector<CanonicalSp> sps = fused_source_sps(
      g, sources, opts.weight_seed, opts.bit_parallel, opts.prebuilt_sp);
  for (std::size_t i = 0; i < sources.size(); ++i) {
    const Vertex s = sources[i];
    VertexFtBfsOptions per = opts;
    if (!sps.empty()) per.prebuilt_sp = &sps[i];
    const FtBfsStructure h = detail::build_vertex_ftbfs_impl(g, s, per);
    edges.insert(edges.end(), h.edges().begin(), h.edges().end());
    tree_edges.insert(tree_edges.end(), h.tree_edges().begin(),
                      h.tree_edges().end());
  }

  FtBfsStructure merged(g, sources.front(), std::move(edges),
                        /*reinforced=*/{}, std::move(tree_edges),
                        FaultClass::kVertex);
  return MultiSourceResult{sources, std::move(merged), {}};
}

MultiSourceResult detail::build_either_ftmbfs_impl(
    const Graph& g, const std::vector<Vertex>& sources,
    const VertexFtBfsOptions& opts) {
  detail::check_sources(g, sources);

  std::vector<EdgeId> edges;
  std::vector<EdgeId> tree_edges;  // union of the per-source edge-model trees
  tree_edges.reserve(sources.size() *
                     static_cast<std::size_t>(g.num_vertices()));

  const std::vector<CanonicalSp> sps = fused_source_sps(
      g, sources, opts.weight_seed, opts.bit_parallel, opts.prebuilt_sp);
  for (std::size_t i = 0; i < sources.size(); ++i) {
    const Vertex s = sources[i];
    VertexFtBfsOptions per = opts;
    if (!sps.empty()) per.prebuilt_sp = &sps[i];
    const FtBfsStructure h = detail::build_either_ftbfs_impl(g, s, per);
    edges.insert(edges.end(), h.edges().begin(), h.edges().end());
    tree_edges.insert(tree_edges.end(), h.tree_edges().begin(),
                      h.tree_edges().end());
  }

  FtBfsStructure merged(g, sources.front(), std::move(edges),
                        /*reinforced=*/{}, std::move(tree_edges),
                        FaultClass::kEither);
  return MultiSourceResult{sources, std::move(merged), {}};
}

std::int64_t verify_multi_source(const Graph& g, const MultiSourceResult& ms,
                                 std::int64_t max_failures_per_source) {
  std::int64_t violations = 0;
  for (const Vertex s : ms.sources) {
    // Re-anchor the union structure at source s: same edge partition, but
    // the per-source tree must be recomputed, so verify against the union
    // edge set directly through a fresh per-source view.
    // (The union contains each per-source T0, so the tree_edges of the
    // merged structure are a superset of any single tree; we hand the
    // verifier the union's tree list — every tree edge of every source is
    // in it, so all relevant failures are covered.)
    FtBfsStructure view(g, s, ms.structure.edges(), ms.structure.reinforced(),
                        ms.structure.tree_edges());
    VerifyOptions vo;
    vo.max_failures = max_failures_per_source;
    const VerifyReport rep = verify_structure(view, vo);
    violations += rep.violations;
  }
  return violations;
}

std::int64_t verify_vertex_multi_source(const Graph& g,
                                        const MultiSourceResult& ms,
                                        std::int64_t max_failures_per_source) {
  std::int64_t violations = 0;
  for (const Vertex s : ms.sources) {
    // Same re-anchoring as the edge verifier: the union edge set viewed
    // from source s; verify_vertex_structure sweeps every failing vertex
    // x ≠ s against literal BFS.
    FtBfsStructure view(g, s, ms.structure.edges(), ms.structure.reinforced(),
                        ms.structure.tree_edges(), FaultClass::kVertex);
    violations += verify_vertex_structure(view, max_failures_per_source);
  }
  return violations;
}

}  // namespace ftb
