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

/// The baseline structure H = T0 ∪ {LastE(P_{v,e}) : ⟨v,e⟩ uncovered},
/// reusing an already-built replacement-path engine: the S0-reuse
/// composition point internal pipelines build on (the ε pipeline's
/// ε ≥ 1/2 branch and the either union of vertex_ftbfs.hpp).
FtBfsStructure build_ftbfs(const ReplacementPathEngine& engine);

}  // namespace ftb
