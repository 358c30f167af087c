// bench_tradeoff — Experiment E1 (Theorem 3.1, the headline tradeoff).
//
// Fixed n, sweep the algorithm's ε across [0,1] on
//   (a) the *deep* adversarial family (Theorem 5.1 graph built at
//       ε_G = 1/2: a single copy with Θ(√n)-length costly path and a full
//       bipartite core — the workload whose per-terminal last-edge counts
//       straddle the ⌈n^ε⌉ thresholds), and
//   (b) a dense random graph (benign contrast).
// Reported: measured b(n), r(n) plus the theorem normalizations
// b/(1/ε·n^{1+ε}·lg n), r/(1/ε·n^{1-ε}·lg n). Expected shape: b grows and
// r decays as ε rises; at ε ≥ 1/2 the n^{3/2} baseline takes over (r = 0);
// at ε = 0 the reinforced tree (b = 0).
//
//   ./bench_tradeoff [--n=2048] [--seed=1] [--eps=0,0.05,...]
#include "bench/bench_util.hpp"
#include "src/core/epsilon_ftbfs.hpp"

using namespace ftb;

namespace {

void run_on(const std::string& label, const Graph& g, Vertex source,
            const std::vector<double>& eps_grid) {
  Table t("E1 tradeoff on " + label + " (" + g.summary() + ")");
  t.columns({"eps", "thr", "|H|", "b(n)", "r(n)", "b_norm", "r_norm",
             "uncovered", "sec"});
  const std::int64_t n = g.num_vertices();
  for (const double eps : eps_grid) {
    EpsilonOptions opts;
    opts.eps = eps;
    const EpsilonResult res = detail::build_epsilon_ftbfs_impl(g, source, opts);
    const double b_bound = theorem_backup_bound(n, eps);
    const double r_bound = theorem_reinforce_bound(n, eps);
    t.row(eps, res.stats.threshold, res.stats.structure_edges,
          res.stats.backup, res.stats.reinforced,
          b_bound > 0 ? static_cast<double>(res.stats.backup) / b_bound : 0.0,
          r_bound > 0 ? static_cast<double>(res.stats.reinforced) / r_bound
                      : 0.0,
          res.stats.pairs_uncovered, res.stats.seconds_total);
  }
  t.print(std::cout);
  std::cout << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  Options opt(argc, argv);
  const Vertex n = static_cast<Vertex>(opt.get_int("n", 2048));
  const std::uint64_t seed = static_cast<std::uint64_t>(opt.get_int("seed", 1));
  const std::vector<double> eps_grid = opt.get_double_list(
      "eps", {0.0, 0.05, 0.1, 0.15, 0.2, 0.25, 1.0 / 3.0, 0.5, 1.0});

  bench::header("E1", "Theorem 3.1: b = O(min{1/eps n^{1+eps} lg n, n^1.5}), "
                      "r = O(1/eps n^{1-eps} lg n)",
                "deep adversarial graph (eps_G=1/2) + dense random, n=" +
                    std::to_string(n));

  const auto lb = lb::build_single_source(n, 0.5);
  run_on("deep adversarial", lb.graph, lb.source, eps_grid);

  const Graph er = bench::dense_random(n, seed);
  run_on("dense random", er, 0, eps_grid);

  std::cout
      << "shape check: on the adversarial family b(n) grows and r(n) decays\n"
         "  monotonically in eps (crossing to the pure-backup n^{3/2} branch\n"
         "  at eps >= 1/2); b_norm and r_norm stay O(1) throughout. Random\n"
         "  graphs are benign: everything is coverable, r = 0 for eps > 0.\n";
  return 0;
}
