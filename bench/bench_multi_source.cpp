// bench_multi_source — Experiment E5 (Theorem 5.4: multi-source lower
// bound Ω(K^{1-eps}·n^{1+eps}) under budget ⌊K·n^{1-eps}/6⌋).
//
// Sweep the source count K on the Theorem 5.4 graph; report the certified
// floor, the theorem normalization K^{1-eps}·n^{1+eps}, and the measured
// union FT-MBFS (b, r).
//
//   ./bench_multi_source [--n=2000] [--k=1,2,4,8] [--eps=0.3]
#include "bench/bench_util.hpp"
#include "src/api/ftbfs_api.hpp"

using namespace ftb;

int main(int argc, char** argv) {
  Options opt(argc, argv);
  const Vertex n = static_cast<Vertex>(opt.get_int("n", 2000));
  const double eps = opt.get_double("eps", 0.3);
  const std::vector<long long> ks = opt.get_int_list("k", {1, 2, 4, 8});

  bench::header("E5", "Theorem 5.4: K sources force "
                      "b = Omega(K^{1-eps} n^{1+eps})",
                "Theorem 5.4 graph, n=" + std::to_string(n) +
                    ", eps=" + std::to_string(eps));

  Table t("E5 multi-source floor vs measured union FT-MBFS");
  t.columns({"K", "d", "k_cols", "|Pi|", "budget", "certified_b",
             "K^{1-e}n^{1+e}", "union_b", "union_r", "floor<=b", "sec"});
  for (const long long K : ks) {
    const auto lb =
        lb::build_multi_source(n, static_cast<std::int32_t>(K), eps);
    Timer timer;
    const api::BuildResult ms =
        api::build(lb.graph, {.sources = lb.sources, .eps = eps});
    const double sec = timer.seconds();
    const std::int64_t budget = lb.theorem_budget();
    const double norm = std::pow(static_cast<double>(K), 1.0 - eps) *
                        std::pow(static_cast<double>(n), 1.0 + eps);
    const bool floor_ok =
        ms.structure.num_backup() >=
        lb.certified_min_backup(ms.structure.num_reinforced());
    t.row(K, lb.d, lb.k, static_cast<long long>(lb.pi_edges.size()), budget,
          lb.certified_min_backup(budget), norm, ms.structure.num_backup(),
          ms.structure.num_reinforced(), floor_ok ? "yes" : "NO", sec);
  }
  t.print(std::cout);
  std::cout << "\nshape check: certified_b and union_b both grow with K "
               "below the K^{1-eps} n^{1+eps} envelope;\n  the union "
               "construction always clears its certified floor.\n";
  return 0;
}
