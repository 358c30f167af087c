#include "src/core/ftbfs.hpp"

#include "src/core/validate.hpp"

namespace ftb {

FtBfsStructure build_ftbfs(const ReplacementPathEngine& engine) {
  const BfsTree& tree = engine.tree();
  std::vector<EdgeId> edges = tree.tree_edges();
  for (const UncoveredPair& p : engine.uncovered_pairs()) {
    edges.push_back(p.last_edge);
  }
  return FtBfsStructure(tree.graph(), tree.source(), std::move(edges),
                        /*reinforced=*/{}, tree.tree_edges());
}

FtBfsStructure detail::build_ftbfs_impl(const Graph& g, Vertex source,
                                        const FtBfsOptions& opts) {
  detail::check_source(g, source);
  const EdgeWeights weights = EdgeWeights::uniform_random(g, opts.weight_seed);
  const BfsTree tree = opts.prebuilt_sp != nullptr
                           ? BfsTree(g, weights, source,
                                     CanonicalSp(*opts.prebuilt_sp))
                           : BfsTree(g, weights, source);
  ReplacementPathEngine::Config cfg;
  cfg.collect_detours = false;  // the baseline only needs last edges
  cfg.pool = opts.pool;
  cfg.reference_kernel = opts.reference_kernel;
  const ReplacementPathEngine engine(tree, cfg);
  return build_ftbfs(engine);
}

}  // namespace ftb
