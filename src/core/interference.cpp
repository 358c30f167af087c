#include "src/core/interference.hpp"

#include <algorithm>
#include <numeric>
#include <utility>

#include "src/util/timer.hpp"

namespace ftb {

InterferenceIndex::InterferenceIndex(const ReplacementPathEngine& engine,
                                     const LcaIndex& lca, Config cfg)
    : engine_(&engine), lca_(&lca) {
  Timer timer;
  const auto& pairs = engine.uncovered_pairs();
  const std::int32_t np = static_cast<std::int32_t>(pairs.size());
  const BfsTree& tree = engine.tree();
  const Vertex n = tree.graph().num_vertices();

  // Internal detour vertices: the detour minus its two endpoints (diverge
  // point and terminal), which is exactly the exclusion set
  // {d(P), d(P'), v, t} of Eq. (1).
  const auto internal = [&](std::int32_t p) {
    const auto det = engine.detour(pairs[p]);
    return det.size() < 2 ? det.first(0) : det.subspan(1, det.size() - 2);
  };
  // Preorder interval [sub_in, sub_out) of each pair's failing-edge lower
  // endpoint b, i.e. the subtree below the failing edge.
  std::vector<std::int32_t> sub_in(np), sub_out(np);
  for (std::int32_t p = 0; p < np; ++p) {
    const Vertex b = tree.lower_endpoint(pairs[p].e);
    sub_in[p] = tree.tin(b);
    sub_out[p] = tree.tout(b);
  }

  // Inverted index, internal detour vertex z → pair ids: a CSR over the
  // vertex ids, filled by counting sort. Bucket z keeps its max_bucket
  // smallest pair ids; cutoff[z] is the largest id kept.
  FTB_CHECK_MSG(cfg.max_bucket >= 0, "max_bucket must be non-negative");
  std::vector<std::int64_t> start(n + 1, 0);
  std::vector<std::int32_t> cutoff(n, cfg.max_bucket > 0 ? np : -1);
  for (std::int32_t p = 0; p < np; ++p) {
    for (const Vertex z : internal(p)) {
      if (++start[z + 1] == cfg.max_bucket) cutoff[z] = p;
    }
  }
  for (Vertex z = 0; z < n; ++z) {
    if (start[z + 1] == 0) continue;
    ++stats_.index_vertices;
    if (start[z + 1] > cfg.max_bucket) ++stats_.truncated_buckets;
    start[z + 1] = std::min<std::int64_t>(start[z + 1], cfg.max_bucket);
  }
  for (Vertex z = 0; z < n; ++z) start[z + 1] += start[z];

  // Each bucket in two orders: by sub_in and by sub_out, scattered from the
  // pairs taken in that order. e ≁ e' iff the two subtrees are disjoint, so
  // the (≁)-partners of q in a bucket are the sub_in-order suffix with
  // sub_in[p] ≥ sub_out[q] plus the sub_out-order prefix with
  // sub_out[p] ≤ sub_in[q]. A pair with q's terminal is never among them:
  // two edges on one π(s,v) are related.
  const auto bucket_by = [&](const std::vector<std::int32_t>& key) {
    std::vector<std::int32_t> order(np);
    std::iota(order.begin(), order.end(), 0);
    std::sort(order.begin(), order.end(), [&](std::int32_t x, std::int32_t y) {
      return key[x] < key[y];
    });
    std::vector<std::int32_t> ids(start[n]);
    std::vector<std::int64_t> cursor(start.begin(), start.end() - 1);
    for (const std::int32_t p : order) {
      for (const Vertex z : internal(p)) {
        if (p > cutoff[z]) continue;
        FTB_DCHECK(cursor[z] < start[z + 1]);  // detours are simple paths
        ids[cursor[z]++] = p;
      }
    }
    return ids;
  };
  const std::vector<std::int32_t> by_in = bucket_by(sub_in);
  const std::vector<std::int32_t> by_out = bucket_by(sub_out);

  // Sweep q ascending and append q to the row of each partner p: rows come
  // out ascending, with the duplicates of pairs that share several vertices
  // adjacent, so a last-writer stamp drops them. One sweep counts the rows,
  // a second fills them.
  std::vector<std::int32_t> last(np);
  const auto sweep = [&](auto&& emit) {
    std::fill(last.begin(), last.end(), -1);
    for (std::int32_t q = 0; q < np; ++q) {
      const auto visit = [&](const std::int32_t* it, const std::int32_t* end) {
        for (; it != end; ++it) {
          if (last[*it] == q) continue;
          last[*it] = q;
          emit(*it, q);
        }
      };
      for (const Vertex z : internal(q)) {
        if (q > cutoff[z]) continue;  // truncated out of this bucket
        const std::int32_t* in_b = by_in.data() + start[z];
        const std::int32_t* in_e = by_in.data() + start[z + 1];
        visit(std::partition_point(in_b, in_e,
                                   [&](std::int32_t p) {
                                     return sub_in[p] < sub_out[q];
                                   }),
              in_e);
        const std::int32_t* out_b = by_out.data() + start[z];
        visit(out_b, std::partition_point(out_b, out_b + (in_e - in_b),
                                          [&](std::int32_t p) {
                                            return sub_out[p] <= sub_in[q];
                                          }));
      }
    }
  };
  adj_offset_.assign(np + 1, 0);
  sweep([&](std::int32_t p, std::int32_t) { ++adj_offset_[p + 1]; });
  for (std::int32_t p = 0; p < np; ++p) adj_offset_[p + 1] += adj_offset_[p];
  adj_.resize(adj_offset_[np]);
  std::vector<std::int64_t> fill(adj_offset_.begin(), adj_offset_.end() - 1);
  sweep([&](std::int32_t p, std::int32_t q) { adj_[fill[p]++] = q; });

  // π-flags. For a detour vertex z of P on π(s, Q.v), "deeper than
  // LCA(P.v, Q.v)" is the same as "not on π(s, P.v)", so only the detour
  // vertices off π(s, P.v) can flag, each by one preorder-interval test.
  pi_flags_.resize(adj_.size());
  std::vector<std::pair<std::int32_t, std::int32_t>> off_path;
  for (std::int32_t p = 0; p < np; ++p) {
    off_path.clear();
    for (const Vertex z : engine.detour(pairs[p])) {
      if (!tree.is_ancestor_or_equal(z, pairs[p].v)) {
        off_path.emplace_back(tree.tin(z), tree.tout(z));
      }
    }
    for (std::int64_t i = adj_offset_[p]; i < adj_offset_[p + 1]; ++i) {
      const std::int32_t t = tree.tin(pairs[adj_[i]].v);
      pi_flags_[i] = std::any_of(off_path.begin(), off_path.end(),
                                 [t](const auto& sub) {
                                   return sub.first <= t && t < sub.second;
                                 });
    }
  }
  stats_.adjacency_entries = static_cast<std::int64_t>(adj_.size());
  stats_.seconds_build = timer.seconds();
}

std::span<const std::int32_t> InterferenceIndex::neighbors(
    std::int32_t pair_id) const {
  const std::size_t p = static_cast<std::size_t>(pair_id);
  return {adj_.data() + adj_offset_[p], adj_.data() + adj_offset_[p + 1]};
}

std::span<const std::uint8_t> InterferenceIndex::pi_intersects_flags(
    std::int32_t pair_id) const {
  const std::size_t p = static_cast<std::size_t>(pair_id);
  return {pi_flags_.data() + adj_offset_[p],
          pi_flags_.data() + adj_offset_[p + 1]};
}

bool InterferenceIndex::pi_intersects(std::int32_t p, std::int32_t q) const {
  const auto& pairs = engine_->uncovered_pairs();
  const UncoveredPair& P = pairs[static_cast<std::size_t>(p)];
  const UncoveredPair& Q = pairs[static_cast<std::size_t>(q)];
  const BfsTree& tree = engine_->tree();
  const std::int32_t lca_depth = lca_->lca_depth(P.v, Q.v);
  // Detour endpoints can never satisfy the test (d(P) is an ancestor of
  // both LCA candidates; v deeper only when LCA == v), so scanning the full
  // detour is equivalent and simpler.
  for (const Vertex z : engine_->detour(P)) {
    if (tree.depth(z) > lca_depth && tree.is_ancestor_or_equal(z, Q.v)) {
      return true;
    }
  }
  return false;
}

std::vector<std::int32_t> InterferenceIndex::i1() const {
  std::vector<std::int32_t> out;
  for (std::int64_t p = 0; p + 1 < static_cast<std::int64_t>(adj_offset_.size());
       ++p) {
    if (adj_offset_[static_cast<std::size_t>(p)] !=
        adj_offset_[static_cast<std::size_t>(p + 1)]) {
      out.push_back(static_cast<std::int32_t>(p));
    }
  }
  return out;
}

std::vector<std::int32_t> InterferenceIndex::i2() const {
  std::vector<std::int32_t> out;
  for (std::int64_t p = 0; p + 1 < static_cast<std::int64_t>(adj_offset_.size());
       ++p) {
    if (adj_offset_[static_cast<std::size_t>(p)] ==
        adj_offset_[static_cast<std::size_t>(p + 1)]) {
      out.push_back(static_cast<std::int32_t>(p));
    }
  }
  return out;
}

}  // namespace ftb
