// interference.hpp — the detour-interference machinery of Section 3.1.
//
// Two uncovered pairs ⟨v,e⟩, ⟨t,e'⟩ with v ≠ t *interfere* (Eq. (1)) when
// their detours share a vertex internal to both. Interference splits by the
// tree relation of the protected edges:
//   * e ≁ e' (failing edges on no common root path) — the (≁)-interference
//     handled by Phase S1;
//   * e ∼ e'  — the (∼)-interference handled by Phase S2.
//
// Only the (≁) side needs an explicit adjacency structure: Phase S1's
// type-A/B/C classification walks I≁(⟨v,e⟩) ∩ P_i, and I1 is exactly the
// set of pairs with I≁ ≠ ∅ (everything else forms the first (∼)-set I2).
//
// π-intersection (Fig. 2): P_{v,e} π-intersects P_{t,e'} when D(P_{v,e})
// touches π(LCA(v,t), t) \ {LCA(v,t)} — i.e. some detour vertex z is an
// ancestor-or-equal of t strictly deeper than LCA(v,t). Note the relation
// is *not* symmetric. We precompute it per adjacency entry.
//
// Index construction, in time proportional to its output: an inverted
// index (a CSR filled by counting sort) from internal detour vertices to
// pair ids; two pairs interfere iff they co-occur in some bucket (internal
// vertices exclude the detour endpoints, which is exactly the exclusion
// set of Eq. (1)). Each bucket is kept in two orders, by tin and by tout
// of the failing edge's lower endpoint b, so the (≁)-partners of a pair q
// in a bucket — the pairs whose subtree below b is disjoint from q's — are
// one tin-order suffix plus one tout-order prefix, found by two binary
// searches. No unrelated pair of a bucket is ever tested. Sweeping q in
// ascending order writes every row ascending and duplicate-free, straight
// into the CSR adjacency.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "src/core/replacement.hpp"
#include "src/graph/lca.hpp"

namespace ftb {

/// Immutable (≁)-interference adjacency over the engine's uncovered pairs.
class InterferenceIndex {
 public:
  struct Config {
    /// Bound on the output size: a bucket keeps only its max_bucket
    /// smallest pair ids (cut buckets are counted in
    /// stats.truncated_buckets), so one vertex on many detours contributes
    /// O(max_bucket²) adjacency entries. Truncation can only move
    /// pairs between phases — the final structure stays correct because
    /// reinforcement is recomputed from scratch at the end. Must be ≥ 0.
    std::int32_t max_bucket = 1 << 14;
  };

  InterferenceIndex(const ReplacementPathEngine& engine, const LcaIndex& lca)
      : InterferenceIndex(engine, lca, Config()) {}
  InterferenceIndex(const ReplacementPathEngine& engine, const LcaIndex& lca,
                    Config cfg);

  /// Pair ids q ∈ I≁(p): different terminal, interfering detours, e ≁ e'.
  std::span<const std::int32_t> neighbors(std::int32_t pair_id) const;

  /// Whether P_p π-intersects P_q; only defined for q ∈ neighbors(p).
  /// (Parallel array to neighbors(p).)
  std::span<const std::uint8_t> pi_intersects_flags(std::int32_t pair_id) const;

  /// Recomputes π-intersection from scratch (used by tests to cross-check
  /// the precomputed flags). O(|D(P_p)|).
  bool pi_intersects(std::int32_t p, std::int32_t q) const;

  /// I1 = pairs with I≁ ≠ ∅ (Phase S1 input), ascending pair ids.
  std::vector<std::int32_t> i1() const;
  /// I2 = UP \ I1 — the first (∼)-set, ascending pair ids.
  std::vector<std::int32_t> i2() const;

  std::int64_t num_pairs() const {
    return static_cast<std::int64_t>(adj_offset_.size()) - 1;
  }

  struct Stats {
    std::int64_t adjacency_entries = 0;  // Σ |I≁(p)|
    std::int64_t index_vertices = 0;     // distinct internal detour vertices
    std::int64_t truncated_buckets = 0;
    double seconds_build = 0;
  };
  const Stats& stats() const { return stats_; }

 private:
  const ReplacementPathEngine* engine_;
  const LcaIndex* lca_;

  // CSR adjacency: neighbors of pair p are adj_[adj_offset_[p] ..).
  std::vector<std::int64_t> adj_offset_;
  std::vector<std::int32_t> adj_;
  std::vector<std::uint8_t> pi_flags_;  // parallel to adj_

  Stats stats_;
};

}  // namespace ftb
