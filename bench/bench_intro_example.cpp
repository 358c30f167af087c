// bench_intro_example — Experiment E7 (the paper's introductory figure).
//
// The graph: source s joined by a single edge to an (n−1)-clique. The
// paper's opening argument: reinforcing that one bridge collapses the
// survivability cost — the conservative "buy everything" design pays for
// Θ(n²) edges, the pure-backup FT-BFS still pays Θ(n), while the mixed
// design pays for a single reinforced edge plus a thin clique backup.
//
// The table prices four designs across R/B ratios:
//   all-edges      : every edge of G as backup (the conservative baseline)
//   pure-backup    : ε = 1/2 FT-BFS (r = 0)
//   reinforce-tree : ε = 0 (r = n−1)
//   mixed          : cheapest ε from the design sweep
//
//   ./bench_intro_example [--n=512] [--ratios=1,10,100,1000]
#include "bench/bench_util.hpp"
#include "src/api/ftbfs_api.hpp"
#include "src/core/cost_model.hpp"
#include "src/core/ftbfs.hpp"

using namespace ftb;

int main(int argc, char** argv) {
  Options opt(argc, argv);
  const Vertex n = static_cast<Vertex>(opt.get_int("n", 512));
  const std::vector<long long> ratios =
      opt.get_int_list("ratios", {1, 4, 16, 64, 256});

  bench::header("E7", "intro figure: one reinforced bridge vs pure backup",
                "s + single edge into K_{n-1}, n=" + std::to_string(n));

  const Graph g = gen::intro_example(n);
  const FtBfsStructure pure = api::build(g, {.eps = 1}).structure;
  const std::vector<double> grid{0.0, 0.2, 1.0 / 3.0, 0.5};

  Table t("E7 design costs (units of B)");
  t.columns({"R/B", "all_edges", "pure_backup(b)", "reinforce_tree",
             "mixed_cost", "mixed_eps", "mixed_b", "mixed_r"});
  for (const long long ratio : ratios) {
    const CostParams prices{1.0, static_cast<double>(ratio)};
    const DesignSweep sweep = design_sweep(g, 0, prices, grid);
    t.row(ratio, g.num_edges(),
          pure.cost(prices.backup_price, prices.reinforce_price),
          static_cast<double>(ratio) * (n - 1), sweep.best().cost,
          sweep.best().eps, sweep.best().backup, sweep.best().reinforced);
  }
  t.print(std::cout);
  std::cout << "\nshape check: every engineered design beats all_edges = "
            << g.num_edges() << " = Theta(n^2);\n  pure_backup stays "
            << pure.num_edges() << " = Theta(n) edges; the bridge is the "
            << "only edge whose failure matters.\n";
  return 0;
}
