// bench_vertex_faults — Experiment E13 (extension: the vertex-failure
// FT-BFS of ref. [14], and the dual edge+vertex structure).
//
// Sweep n on the adversarial family and dense random graphs; report the
// sizes of the edge-fault baseline, the vertex-fault baseline, and the
// dual union — all Θ(n^{3/2})-bounded, with the dual only marginally
// larger than the max of the two.
//
//   ./bench_vertex_faults [--ns=256,512,1024,2048]
#include "bench/bench_util.hpp"
#include "src/api/ftbfs_api.hpp"
#include "src/core/ftbfs.hpp"
#include "src/core/vertex_ftbfs.hpp"

using namespace ftb;

int main(int argc, char** argv) {
  Options opt(argc, argv);
  const std::vector<long long> ns =
      opt.get_int_list("ns", {256, 512, 1024, 2048});

  bench::header("E13", "extension: vertex-fault FT-BFS and the dual "
                       "edge+vertex structure (both Theta(n^{3/2}))",
                "Theorem 5.1 graph at eps=1/2 + dense random");

  for (const char* family_cstr : {"adversarial", "dense-random"}) {
    const std::string family = family_cstr;
    Table t("E13 structure sizes — " + family);
    t.columns({"n", "m", "edge_H", "vertex_H", "dual_H", "dual/n^1.5",
               "sec"});
    for (const long long n : ns) {
      Graph g;
      Vertex source = 0;
      if (family == "adversarial") {
        auto lbg = lb::build_single_source(static_cast<Vertex>(n), 0.5);
        g = std::move(lbg.graph);
        source = lbg.source;
      } else {
        g = bench::dense_random(static_cast<Vertex>(n), 29);
      }
      Timer timer;
      const FtBfsStructure eh =
          api::build(g, {.sources = {source}, .eps = 1}).structure;
      const FtBfsStructure vh =
          api::build(g, {.fault_model = FaultClass::kVertex,
                         .sources = {source}})
              .structure;
      const FtBfsStructure dh =
          api::build(g, {.fault_model = FaultClass::kEither,
                         .sources = {source}})
              .structure;
      const double sec = timer.seconds();
      t.row(n, g.num_edges(), eh.num_edges(), vh.num_edges(), dh.num_edges(),
            static_cast<double>(dh.num_edges()) /
                std::pow(static_cast<double>(n), 1.5),
            sec);
    }
    t.print(std::cout);
    std::cout << "\n";
  }
  std::cout << "shape check: vertex_H tracks edge_H; the dual union costs "
               "at most their sum and\n  stays within the n^{3/2} "
               "envelope.\n";
  return 0;
}
