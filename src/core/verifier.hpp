// verifier.hpp — exhaustive ground-truth verification of FT-BFS structures.
//
// Checks Definition 2.1 directly:
//   dist(s, v, H \ {e}) = dist(s, v, G \ {e})  ∀ v, ∀ e ∈ E(G) \ E'.
//
// Verification plan (docs/architecture.md § Verification):
//   0. H ⊆ G and T0 ⊆ H by construction (FtBfsStructure enforces both).
//   1. failure-free check: dist(s,·,H) == dist(s,·,G) (H spans a BFS tree).
//   2. tree failures: for every tree edge e ∉ E', BFS G\{e} and H\{e},
//      compare all n distances. These are the only failures that can
//      change distances *provided* step 1 passed and T0 ⊆ H; the full mode
//      nevertheless re-checks every non-tree edge of G for belt and braces.
//
// Cost: O(F·(n+m)) with F = #checked failures, parallel over failures.
#pragma once

#include <cstdint>
#include <vector>

#include "src/core/structure.hpp"
#include "src/util/thread_pool.hpp"

namespace ftb {

struct VerifyOptions {
  /// Also check every non-tree edge of G (provably redundant once the
  /// failure-free check passes; kept for paranoid test modes).
  bool check_nontree_failures = false;
  /// Cap on the number of checked failures (-1 = no cap). Failures are
  /// checked in edge-id order, so a cap keeps runs deterministic.
  std::int64_t max_failures = -1;
  ThreadPool* pool = nullptr;  // nullptr = global pool
};

/// One observed contract violation.
struct VerifyViolation {
  EdgeId failed_edge = kInvalidEdge;  // kInvalidEdge = failure-free check
  Vertex vertex = kInvalidVertex;
  std::int32_t dist_structure = 0;
  std::int32_t dist_graph = 0;
};

struct VerifyReport {
  bool ok = true;
  std::int64_t failures_checked = 0;
  std::int64_t violations = 0;
  /// Up to 16 concrete counterexamples for diagnostics.
  std::vector<VerifyViolation> examples;

  std::string to_string() const;
};

/// Verifies the FT-BFS contract for `h`. Deterministic.
VerifyReport verify_structure(const FtBfsStructure& h,
                              const VerifyOptions& opts = {});

}  // namespace ftb
