// multi_source_design — FT-MBFS: one survivable structure serving several
// sources at once (paper §5, multi-source setting), through the facade.
//
// A regional network with several data centers: every center needs exact
// post-failure shortest paths to every node. A BuildSpec with several
// sources builds the union FT-MBFS, which shares edges between the
// per-center structures; the example quantifies the sharing (union size
// vs. sum of parts), serves all centers from one Session, and verifies
// the contract.
//
//   ./example_multi_source_design [--n=400] [--centers=3] [--eps=0.3]
#include <iostream>

#include "src/api/ftbfs_api.hpp"
#include "src/core/multi_source.hpp"
#include "src/graph/generators.hpp"
#include "src/util/options.hpp"
#include "src/util/table.hpp"

int main(int argc, char** argv) {
  using namespace ftb;
  Options opt(argc, argv);
  const Vertex n = static_cast<Vertex>(opt.get_int("n", 400));
  const std::int64_t centers = opt.get_int("centers", 3);
  const double eps = opt.get_double("eps", 0.3);

  const Graph g = gen::random_connected(n, 4 * n, 31);
  api::BuildSpec spec;
  spec.eps = eps;
  spec.sources.clear();
  for (std::int64_t i = 0; i < centers; ++i) {
    spec.sources.push_back(static_cast<Vertex>((i * n) / centers));
  }

  std::cout << "regional network: " << g.summary() << ", data centers at ";
  for (const Vertex s : spec.sources) std::cout << s << " ";
  std::cout << "\n\n";

  api::BuildResult res = api::build(g, spec);

  Table t("per-center structures vs the shared union");
  t.columns({"center", "edges", "backup", "reinforced"});
  std::int64_t sum_edges = 0;
  for (std::size_t i = 0; i < res.sources.size(); ++i) {
    const auto& st = res.per_source[i];
    t.row(static_cast<long long>(res.sources[i]), st.structure_edges,
          st.backup, st.reinforced);
    sum_edges += st.structure_edges;
  }
  t.row("union", res.structure.num_edges(), res.structure.num_backup(),
        res.structure.num_reinforced());
  t.print(std::cout);

  std::cout << "\nsharing factor: union " << res.structure.num_edges()
            << " edges vs " << sum_edges << " if deployed separately ("
            << static_cast<double>(sum_edges) /
                   static_cast<double>(res.structure.num_edges())
            << "x saved by overlap)\n";

  std::cout << "\nverifying the contract for every center, every failure... ";
  const std::int64_t violations =
      verify_multi_source(res.structure, res.sources);
  std::cout << (violations == 0 ? "OK\n" : "FAILED\n");

  // One session serves every center: Query::source_index picks whose
  // post-failure distances a batch entry asks for. deploy() takes the
  // BuildResult by value, so moving it in hands the structure over
  // without a copy.
  const std::vector<Vertex> centers_at = res.sources;
  const Vertex n_last = n - 1;
  const api::Session session = api::Session::deploy(g, std::move(res));
  const EdgeId probe_edge = session.structure().tree_edges().front();
  std::vector<api::Query> batch;
  for (std::int32_t c = 0; c < static_cast<std::int32_t>(centers); ++c) {
    api::Query q;
    q.v = n_last;
    q.kind = FaultClass::kEdge;
    q.fault = probe_edge;
    q.source_index = c;
    // At small ε the probed tree edge may be reinforced — outside the
    // model — so let the plane answer it as a what-if instead of
    // refusing.
    q.allow_what_if = true;
    batch.push_back(q);
  }
  const api::QueryResponse resp = session.query(batch);
  std::cout << "\nedge " << probe_edge << " fails; dist(center, node "
            << n_last << "):";
  for (std::size_t i = 0; i < batch.size(); ++i) {
    std::cout << "  [" << centers_at[i] << "] ";
    if (resp.results[i].dist >= kInfHops) {
      std::cout << "cut-off";
    } else {
      std::cout << resp.results[i].dist;
    }
  }
  std::cout << "\n";
  return violations == 0 ? 0 : 1;
}
