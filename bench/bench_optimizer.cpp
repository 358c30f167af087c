// bench_optimizer — Experiment E11 (paper Discussion: the universal bound
// vs. instance-level optimization).
//
// "Although the universal upper bound is nearly tight, our upper bound
//  constructions might be far from optimal in some instances." — §Discussion.
//
// The greedy frontier answers both optimization problems the paper poses.
// This bench: (a) prints the greedy (r, b) frontier next to the universal
// ε sweep on the same graph; (b) reports, for each universal design, how
// much backup the greedy saves at the *same* reinforcement budget.
//
//   ./bench_optimizer [--n=1500]
#include "bench/bench_util.hpp"
#include "src/core/epsilon_ftbfs.hpp"
#include "src/core/optimizer.hpp"

using namespace ftb;

namespace {

void run_on(const std::string& label, const Graph& g, Vertex source) {
  const GreedyFrontier frontier(g, source);
  const std::vector<double> eps_grid{0.05, 0.1, 0.15, 0.2, 0.25, 1.0 / 3.0,
                                     0.5};

  Table t("E11 universal vs greedy at matched r — " + label + " (" +
          g.summary() + ")");
  t.columns({"eps", "universal_b", "universal_r", "greedy_b@same_r",
             "saving", "saving_pct"});
  for (const double eps : eps_grid) {
    EpsilonOptions opts;
    opts.eps = eps;
    const EpsilonResult uni = detail::build_epsilon_ftbfs_impl(g, source, opts);
    const std::int64_t r = uni.structure.num_reinforced();
    const std::int64_t gb = frontier.backup_at(
        std::min<std::int64_t>(r, static_cast<std::int64_t>(
                                      frontier.order().size())));
    const std::int64_t ub = uni.structure.num_backup();
    t.row(eps, ub, r, gb, ub - gb,
          ub > 0 ? 100.0 * static_cast<double>(ub - gb) /
                       static_cast<double>(ub)
                 : 0.0);
  }
  t.print(std::cout);

  // A slice of the frontier itself.
  Table f("E11 greedy frontier slice — " + label);
  f.columns({"r", "b", "b+r"});
  const auto& pts = frontier.points();
  const std::size_t step = std::max<std::size_t>(1, pts.size() / 12);
  for (std::size_t i = 0; i < pts.size(); i += step) {
    f.row(pts[i].reinforced, pts[i].backup,
          pts[i].reinforced + pts[i].backup);
  }
  f.row(pts.back().reinforced, pts.back().backup,
        pts.back().reinforced + pts.back().backup);
  f.print(std::cout);
  std::cout << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  Options opt(argc, argv);
  const Vertex n = static_cast<Vertex>(opt.get_int("n", 1500));

  bench::header("E11", "Discussion: instance-level optimization vs the "
                       "universal construction",
                "deep adversarial + dense random, n=" + std::to_string(n));

  const auto lb = lb::build_single_source(n, 0.5);
  run_on("deep adversarial", lb.graph, lb.source);

  const Graph er = bench::dense_random(n, 3);
  run_on("dense random", er, 0);

  std::cout << "shape check: greedy_b <= universal_b at every matched "
               "budget; the gap is the\n  instance-optimality slack the "
               "Discussion predicts.\n";
  return 0;
}
