// multi_source.hpp — (b, r) FT-MBFS structures: one ε FT-BFS per source
// s ∈ S inside a single subgraph (paper §5, multiple-sources part).
//
// Upper bound: the union of the per-source structures — the construction
// the paper measures its Theorem 5.4 lower bound against. An edge is
// reinforced in the union if *any* source requires it reinforced (a
// reinforced edge never fails, so this only helps the other sources); the
// contract is
//
//   dist(s, v, H \ {e}) = dist(s, v, G \ {e})
//                       ∀ s ∈ S, ∀ v ∈ V, ∀ e ∈ E(G) \ E'.
#pragma once

#include <vector>

#include "src/core/epsilon_ftbfs.hpp"
#include "src/core/structure.hpp"
#include "src/core/vertex_ftbfs.hpp"

namespace ftb {

/// A multi-source FT-BFS structure: shared edge set + per-source views.
struct MultiSourceResult {
  std::vector<Vertex> sources;
  /// Union structure; `structure.source()` is sources.front() (the
  /// distance contract is enforced per source by verify_multi_source /
  /// verify_vertex_multi_source, per the structure's fault_class()).
  FtBfsStructure structure;
  /// Per-source construction stats, aligned with `sources` (empty for the
  /// vertex-fault union, whose baseline has no ε pipeline).
  std::vector<EpsilonStats> per_source;
};

namespace detail {
/// Union pipeline implementations the ftb::api facade dispatches to.
/// Validate through validate.hpp.
MultiSourceResult build_epsilon_ftmbfs_impl(const Graph& g,
                                            const std::vector<Vertex>& sources,
                                            const EpsilonOptions& opts);
MultiSourceResult build_vertex_ftmbfs_impl(const Graph& g,
                                           const std::vector<Vertex>& sources,
                                           const VertexFtBfsOptions& opts);
/// The multi-source "either" union: per-source edge ∪ vertex single-fault
/// structures, all merged (§5's union pattern applied to both kinds at
/// once), tagged FaultClass::kEither.
MultiSourceResult build_either_ftmbfs_impl(const Graph& g,
                                           const std::vector<Vertex>& sources,
                                           const VertexFtBfsOptions& opts);
}  // namespace detail

/// Verifies the multi-source edge contract (per-source verify_structure on
/// the union edge set). Returns the number of violations (0 = correct).
std::int64_t verify_multi_source(const Graph& g, const MultiSourceResult& ms,
                                 std::int64_t max_failures_per_source = -1);

/// Vertex-fault analog: per-source verify_vertex_structure on the union
/// edge set. Returns the number of violations (0 = correct).
std::int64_t verify_vertex_multi_source(
    const Graph& g, const MultiSourceResult& ms,
    std::int64_t max_failures_per_source = -1);

}  // namespace ftb
