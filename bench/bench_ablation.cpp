// bench_ablation — Experiment E9 (design-choice ablations).
//
// One workload, one ε, many variants of the construction:
//   paper            : defaults (K = ⌈1/ε⌉+2 rounds, full S2)
//   s1_rounds=1/2x   : fewer/more Phase-S1 rounds
//   no_light_flush   : skip the S2.2 light-segment flush
//   no_crossings     : skip the S2.3 tree-decomposition additions
//   thr_half/double  : scale the ⌈n^ε⌉ threshold
//   force_s1s2@.5    : run S1/S2 instead of the baseline at ε = 0.5
//
// Every variant is *correct by construction* (reinforcement is recomputed
// at the end); the ablation shows how each mechanism trades backup volume
// against reinforcement count.
//
//   ./bench_ablation [--n=1024] [--eps=0.333]
#include "bench/bench_util.hpp"
#include "src/core/epsilon_ftbfs.hpp"

using namespace ftb;

namespace {

void run_suite(const std::string& label, const Graph& g, Vertex source,
               const double eps) {
  struct Variant {
    std::string name;
    EpsilonOptions opts;
  };
  std::vector<Variant> variants;
  {
    EpsilonOptions base;
    base.eps = eps;
    variants.push_back({"paper", base});

    EpsilonOptions v = base;
    v.k_rounds_override = 1;
    variants.push_back({"s1_rounds=1", v});

    v = base;
    v.k_rounds_override =
        2 * (static_cast<std::int32_t>(std::ceil(1.0 / eps)) + 2);
    variants.push_back({"s1_rounds=2x", v});

    v = base;
    v.disable_s2_light_flush = true;
    variants.push_back({"no_light_flush", v});

    v = base;
    v.disable_s2_crossings = true;
    variants.push_back({"no_crossings", v});

    v = base;
    v.disable_s2_light_flush = true;
    v.disable_s2_crossings = true;
    variants.push_back({"s2_minimal", v});

    v = base;
    v.threshold_scale = 0.5;
    variants.push_back({"thr_half", v});

    v = base;
    v.threshold_scale = 2.0;
    variants.push_back({"thr_double", v});

    v = base;
    v.eps = 0.5;
    v.baseline_for_large_eps = false;
    variants.push_back({"force_s1s2@.5", v});
  }

  Table t("E9 ablations on " + label + " (" + g.summary() +
          ", eps=" + std::to_string(eps) + ")");
  t.columns({"variant", "|H|", "b(n)", "r(n)", "s1_added", "s2_added",
             "s1_leftover", "csets", "sec"});
  for (const auto& v : variants) {
    const EpsilonResult res =
        detail::build_epsilon_ftbfs_impl(g, source, v.opts);
    t.row(v.name, res.stats.structure_edges, res.stats.backup,
          res.stats.reinforced, res.stats.s1_added_edges,
          res.stats.s2_added_edges + res.stats.s2_glue_added,
          res.stats.s1_leftover_pairs, res.stats.num_csets,
          res.stats.seconds_total);
  }
  t.print(std::cout);
  std::cout << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  Options opt(argc, argv);
  const Vertex n = static_cast<Vertex>(opt.get_int("n", 1024));
  const double eps = opt.get_double("eps", 1.0 / 3.0);

  bench::header("E9", "ablations: each phase buys a specific b/r tradeoff",
                "Theorem 5.1 graph + dense random, n=" + std::to_string(n));

  const auto lb = lb::build_single_source(n, eps);
  run_suite("lower-bound graph", lb.graph, lb.source, eps);

  const Graph er = bench::dense_random(n, 7);
  run_suite("dense random", er, 0, eps);

  std::cout << "shape check: disabling S2 machinery trades backup volume "
               "for extra reinforcement;\n  fewer S1 rounds push more pairs "
               "into (~)-sets; all variants stay correct.\n";
  return 0;
}
