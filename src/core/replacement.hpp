// replacement.hpp — the EDGE-fault replacement-path engine: Algorithm Pcons
// (Phase S0), as an instantiation of the fault-model policy layer.
//
// For every vertex v and every failing edge e ∈ π(s,v) the paper fixes one
// canonical replacement path P_{v,e} = RP(⟨v,e⟩):
//   1. if some replacement path ends with a T0 edge (the G'(v) test), the
//      pair is *covered* and contributes nothing new;
//   2. otherwise the pair is *uncovered* (its path is new-ending) and
//      P_{v,e} is the replacement path whose unique divergence point from
//      π(s,v) is as close to s as possible (the G_j(v) machinery,
//      Claims 4.4–4.6).
//
// The engine realization lives once, generically, in fault_model.{hpp,cpp}
// (docs/architecture.md § Detours has the equivalence argument); this
// header pins the edge instantiation under its historical name.
// UncoveredPair — the S0 artifact every downstream phase consumes — is
// defined in fault_model.hpp.
#pragma once

#include "src/core/fault_model.hpp"

namespace ftb {

/// The edge-fault S0 engine. Construct once per (graph, source, weights);
/// everything else reads from it.
using ReplacementPathEngine = FaultReplacementEngine<EdgeFault>;

}  // namespace ftb
