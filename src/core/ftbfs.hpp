// ftbfs.hpp — the ESA'13 baseline: a full FT-BFS structure with no
// reinforcement (ref. [14] of the paper; the ε = 1 end of the tradeoff).
//
// Construction: H = T0 ∪ { LastE(P_{v,e}) : ⟨v,e⟩ uncovered }. Every
// vertex-edge pair then has a replacement path whose last edge is in H, so
// by Observation 2.2 every edge is protected — r(n) = 0. The paper's
// analysis of the canonical replacement paths (vertex-disjoint detours per
// terminal, Claim 4.6) bounds |E(H)| = O(n^{3/2}), tight by the ESA'13
// lower bound (reproduced here as lb::build_single_source with ε = 1/2).
#pragma once

#include "src/core/replacement.hpp"
#include "src/core/structure.hpp"

namespace ftb {

struct CanonicalSp;  // canonical_bfs.hpp

struct FtBfsOptions {
  /// Seed of the tie-breaking weight assignment W.
  std::uint64_t weight_seed = 0x5EED0001ULL;
  ThreadPool* pool = nullptr;  // nullptr = global pool
  /// Run the engine on the naive reference kernels (bench baseline /
  /// differential testing; output is bit-identical either way).
  bool reference_kernel = false;
  /// Internal fusion seam: adopt these already-computed canonical labels
  /// (see EpsilonOptions::prebuilt_sp). Must outlive the call.
  const CanonicalSp* prebuilt_sp = nullptr;
};

namespace detail {
/// The ESA'13 baseline pipeline. The ftb::api facade reaches the same
/// structure through the ε pipeline's ε ≥ 1/2 branch; the either union
/// (vertex_ftbfs.hpp) composes on this impl directly.
FtBfsStructure build_ftbfs_impl(const Graph& g, Vertex source,
                                const FtBfsOptions& opts);
}  // namespace detail

/// The baseline structure H = T0 ∪ {LastE(P_{v,e}) : ⟨v,e⟩ uncovered},
/// reusing an already-built replacement-path engine: the S0-reuse
/// composition point internal pipelines build on.
FtBfsStructure build_ftbfs(const ReplacementPathEngine& engine);

}  // namespace ftb
