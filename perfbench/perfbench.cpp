// perfbench.cpp — the operator-flow benchmark.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             --workdir <dir>
//
// One run generates its workload's inputs from the seed, writes the graph
// to an edge-list file in <dir>, and times the operator flow through the
// public ftb::api / ftb::io surface:
//
//   1. edge-list ingest (io::load_edge_list) plus a thread-pool start;
//   2. api::build;
//   3. the v6 artifact save (io::save_structure_v6, what Session::save_v6
//      writes);
//   4. Session::load of that artifact plus the first answered query;
//   5. a closed-loop query phase: one client sends a drill (4 failures ×
//      1024 vertices = 4096 queries) only after the previous reply arrived,
//      for --seconds seconds, on the library's global pool; successive
//      windows of the phase go to kServeSessions sessions loaded from the
//      same artifact.
//
// Stages 1–4 are repeated (Workload::passes, with kStageReps samples of
// set-up and ready per pass) and the query phase is cut into windows of
// kWindowBatches batches. The gated metrics are CPU time (all threads of the
// process) per stage and per query, the median batch latency, peak RSS and
// the structure's size; wall-clock stage times, throughput and the batch
// p99 are in the detail line with every sample, because on a shared host
// they follow the hypervisor's steal more than the program (quiet_median).
// Every run checks answers outside the timed region: each distinct drill
// is compared, query by query, with brute-force BFS on G minus the
// failure(s) (in-model answers) or H minus the failure(s) (what-if
// answers), and every 16th timed batch is compared with those checked
// answers. A wrong, refused, degraded or budget-dropped query counts as
// failed, and any failure makes the run exit 1.
//
// With --trace 1 the run instead makes a warm-up pass, then one untraced
// and one traced pass of the flow, each followed by a campaign of
// kCampaignDrills drills; it records spans around each layer call
// (trace.hpp), runs the per-layer probes, and reports the per-layer
// metrics, self time per layer and the tracing overhead. Spans are written to
// <dir>/trace-<workload>-<seed>.json.
//
// The last stdout line is the result object {correct, attempted, failed,
// metrics}; the line before it, prefixed "perfbench-detail ", carries the
// host descriptor, every sample and the counters behind the metrics.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/api/ftbfs_api.hpp"
#include "src/core/dual_fault.hpp"
#include "src/core/interference.hpp"
#include "src/core/replacement.hpp"
#include "src/graph/bfs_kernel.hpp"
#include "src/graph/bfs_tree.hpp"
#include "src/graph/generators.hpp"
#include "src/graph/lca.hpp"
#include "src/graph/lower_bound.hpp"
#include "src/graph/multi_source_bfs_kernel.hpp"
#include "src/io/binary_io.hpp"
#include "src/io/edge_list.hpp"
#include "src/util/rng.hpp"
#include "trace.hpp"

namespace {

using namespace ftb;
using perfbench::ScopedSpan;
using perfbench::Tracer;
using Clock = std::chrono::steady_clock;

constexpr int kFailuresPerDrill = 4;
constexpr int kVerticesPerFailure = 1024;
constexpr std::size_t kDrillQueries = kFailuresPerDrill * kVerticesPerFailure;
/// Distinct drills per run; the query phase cycles through them.
constexpr std::size_t kRingDrills = 128;
/// Drills in the serving campaign that flow_cpu_s (and the wall flow_s of
/// the detail line) charge to the operator.
constexpr std::size_t kCampaignDrills = 4096;
/// Every kCheckEvery-th timed batch is compared with the checked answers.
constexpr std::size_t kCheckEvery = 16;
/// Set-up and ready samples per untraced pass (both are cheap next to a
/// build, so they get more samples than the build).
constexpr int kStageReps = 3;
/// Sessions loaded from the artifact that serve the untraced query phase.
constexpr int kServeSessions = 5;
/// Batches per window of the query phase: the p99 of 1024 batches has ten
/// samples beyond it. The phase reports statistics over windows
/// (quiet_median), so a burst of host noise moves few windows, not the run.
constexpr std::size_t kWindowBatches = 1024;

double secs(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t h = v.size() / 2;
  return v.size() % 2 == 1 ? v[h] : 0.5 * (v[h - 1] + v[h]);
}

/// Nearest-rank percentile, p in (0, 1].
double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

std::string json_list(const std::vector<double>& v) {
  std::ostringstream os;
  os.precision(9);
  os << "[";
  for (std::size_t i = 0; i < v.size(); ++i) os << (i ? ", " : "") << v[i];
  os << "]";
  return os.str();
}

/// Steal ticks of all CPUs so far, from /proc/stat (0 where unreadable).
double steal_ticks() {
  std::ifstream is("/proc/stat");
  std::string cpu;
  double v = 0, steal = 0;
  is >> cpu;
  for (int i = 0; i < 8 && is >> v; ++i) steal = v;
  return steal;
}

/// One measurement and the share of the machine's CPU time that the
/// hypervisor stole while it ran. On a shared host steal is what moves a
/// wall-clock figure most (a dual build goes from 0.4 s to 1.9 s when
/// another guest takes the cores), and it is not the program's doing.
struct Sample {
  double value = 0;
  double steal = 0;
  double cpu = 0;  // CPU seconds of all the process's threads
};

double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

/// Times a region: wall seconds, the steal share and the process CPU time
/// over it. /proc/stat is read outside the timed interval.
class Timed {
 public:
  Timed() : steal0_(steal_ticks()), cpu0_(process_cpu_s()), t0_(Clock::now()) {}
  Sample stop() const {
    const double s = secs(t0_, Clock::now());
    const double cpu = process_cpu_s() - cpu0_;
    static const double capacity =
        static_cast<double>(sysconf(_SC_CLK_TCK)) *
        static_cast<double>(std::max(1L, sysconf(_SC_NPROCESSORS_ONLN)));
    return {s, s > 0 ? (steal_ticks() - steal0_) / (s * capacity) : 0, cpu};
  }

 private:
  double steal0_;
  double cpu0_;
  Clock::time_point t0_;
};

std::vector<double> cpu_of(const std::vector<Sample>& v) {
  std::vector<double> out;
  for (const Sample& x : v) out.push_back(x.cpu);
  return out;
}

/// The statistic of every wall-clock metric: the median of the quarter of
/// the samples with the least steal (ties kept in run order). Measured on
/// this benchmark's own windows, a dual_rmat batch p99 climbs from 0.55 ms
/// at no steal to 3 ms at 8% steal and the throughput falls by a quarter,
/// so a plain median reports the neighbours' load. Every sample, with its
/// steal share, is kept in the detail line.
double quiet_median(std::vector<Sample> v) {
  std::stable_sort(v.begin(), v.end(), [](const Sample& a, const Sample& b) {
    return a.steal < b.steal;
  });
  v.resize((v.size() + 3) / 4);
  std::vector<double> values;
  for (const Sample& x : v) values.push_back(x.value);
  return median(values);
}

std::string json_samples(const std::vector<Sample>& v) {
  std::vector<double> values, steal;
  for (const Sample& x : v) {
    values.push_back(x.value);
    steal.push_back(x.steal);
  }
  return "{\"value\": " + json_list(values) +
         ", \"steal\": " + json_list(steal) +
         ", \"cpu_s\": " + json_list(cpu_of(v)) + "}";
}

// ---------------------------------------------------------------------------
// Workloads

struct Workload {
  std::string name;
  Graph graph;  // generated input; the flow re-ingests it from a file
  api::BuildSpec spec;
  int passes = 0;  // untraced repetitions of stages 1–4
  /// Input for the dual-layer probe on workloads whose flow does not run
  /// the dual pipeline: a smaller instance of the same graph family.
  Graph dual_probe_graph;
  Vertex dual_probe_source = 0;
};

/// The graph with vertex ids permuted by `rng`; perm maps old → new ids.
Graph relabel(const Graph& g, Rng& rng, std::vector<Vertex>* perm_out) {
  std::vector<Vertex> perm(static_cast<std::size_t>(g.num_vertices()));
  for (Vertex v = 0; v < g.num_vertices(); ++v) perm[v] = v;
  rng.shuffle(perm);
  GraphBuilder b(g.num_vertices());
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    const auto [u, v] = g.edge(e);
    b.add_edge(perm[u], perm[v]);
  }
  if (perm_out != nullptr) *perm_out = std::move(perm);
  return b.build();
}

/// The k highest-degree vertices, ties broken by id.
std::vector<Vertex> top_degree(const Graph& g, std::size_t k) {
  std::vector<Vertex> vs(static_cast<std::size_t>(g.num_vertices()));
  for (Vertex v = 0; v < g.num_vertices(); ++v) vs[v] = v;
  std::partial_sort(vs.begin(), vs.begin() + static_cast<std::ptrdiff_t>(k),
                    vs.end(), [&](Vertex a, Vertex b) {
                      return g.degree(a) != g.degree(b)
                                 ? g.degree(a) > g.degree(b)
                                 : a < b;
                    });
  vs.resize(k);
  return vs;
}

// Sizes: the R-MAT workloads source at hubs (the highest-degree vertices)
// because a build from a random low-degree source costs 2–6× more and swings
// by that much from seed to seed, which no bound could hold. serve_rmat
// runs at scale 14: at scale 15 one ε = 0.25 build takes minutes.
std::optional<Workload> make_workload(const std::string& name,
                                      std::uint64_t seed) {
  Rng rng(SplitMix64(seed).next());
  Workload w;
  w.name = name;
  w.spec.weight_seed = SplitMix64(seed ^ 0x5EED0001ULL).next();
  if (name == "eps_adversarial") {
    const lb::SingleSourceLb lbg = lb::build_single_source(2048, 0.5);
    std::vector<Vertex> perm;
    w.graph = relabel(lbg.graph, rng, &perm);
    w.spec.fault_model = FaultClass::kEdge;
    w.spec.eps = 0.1;
    w.spec.sources = {perm[static_cast<std::size_t>(lbg.source)]};
    w.passes = 9;
    const lb::SingleSourceLb small = lb::build_single_source(512, 0.5);
    std::vector<Vertex> small_perm;
    w.dual_probe_graph = relabel(small.graph, rng, &small_perm);
    w.dual_probe_source = small_perm[static_cast<std::size_t>(small.source)];
  } else if (name == "dual_rmat") {
    w.graph = relabel(gen::rmat_connected(12, 4 << 12, seed), rng, nullptr);
    w.spec.fault_model = FaultClass::kDual;
    w.spec.sources = top_degree(w.graph, 1);
    w.passes = 15;
  } else if (name == "serve_rmat") {
    w.graph = relabel(gen::rmat_connected(14, 4 << 14, seed), rng, nullptr);
    w.spec.fault_model = FaultClass::kEdge;
    w.spec.eps = 0.25;
    w.spec.sources = top_degree(w.graph, 4);
    w.passes = 9;
    w.dual_probe_graph =
        relabel(gen::rmat_connected(11, 4 << 11, seed), rng, nullptr);
    w.dual_probe_source = top_degree(w.dual_probe_graph, 1).front();
  } else {
    return std::nullopt;
  }
  return w;
}

// ---------------------------------------------------------------------------
// Drills

using Drill = std::vector<api::Query>;

/// The seeded drill stream of a workload over its built structure H.
///   eps_adversarial: 4 T0-edge failures, allow_what_if (a reinforced
///                    failure is answered by a traversal of H);
///   dual_rmat:       4 pairs {T0 edge, H edge}, in-model;
///   serve_rmat:      T0-edge failures of a random source, except every
///                    16th failure, a vertex failure answered as a what-if.
class DrillGen {
 public:
  DrillGen(const Workload& w, const FtBfsStructure& h, std::uint64_t seed)
      : w_(w), h_(h), rng_(SplitMix64(seed ^ 0xD1177ULL).next()) {}

  Drill next() {
    Drill d;
    d.reserve(kDrillQueries);
    const Vertex n = h_.graph().num_vertices();
    const auto& tree = h_.tree_edges();
    const auto& edges = h_.edges();
    const auto sigma = static_cast<std::int64_t>(w_.spec.sources.size());
    for (int f = 0; f < kFailuresPerDrill; ++f, ++failure_) {
      api::Query q;
      q.kind = FaultClass::kEdge;
      q.fault = tree[rng_.next_below(tree.size())];
      q.allow_what_if = w_.spec.fault_model != FaultClass::kDual;
      q.source_index = static_cast<std::int32_t>(rng_.next_below(
          static_cast<std::uint64_t>(sigma)));
      if (w_.spec.fault_model == FaultClass::kDual) {
        do {
          q.fault2 = edges[rng_.next_below(edges.size())];
        } while (q.fault2 == q.fault);
      } else if (w_.name == "serve_rmat" && failure_ % 16 == 15) {
        q.kind = FaultClass::kVertex;
        do {
          q.fault = static_cast<std::int32_t>(
              rng_.next_below(static_cast<std::uint64_t>(n)));
        } while (std::find(w_.spec.sources.begin(), w_.spec.sources.end(),
                           q.fault) != w_.spec.sources.end());
      }
      for (int i = 0; i < kVerticesPerFailure; ++i) {
        q.v = static_cast<Vertex>(
            rng_.next_below(static_cast<std::uint64_t>(n)));
        d.push_back(q);
      }
    }
    return d;
  }

 private:
  const Workload& w_;
  const FtBfsStructure& h_;
  Rng rng_;
  std::uint64_t failure_ = 0;
};

/// The outcome the session must give, classified independently of it.
api::QueryOutcome expected_outcome(const FtBfsStructure& h,
                                   const api::Query& q) {
  if (h.fault_class() == FaultClass::kDual) return api::QueryOutcome::kInModel;
  if (q.fault2 < 0 && q.kind == FaultClass::kEdge &&
      !h.is_reinforced(q.fault)) {
    return api::QueryOutcome::kInModel;
  }
  return api::QueryOutcome::kWhatIf;
}

/// Brute-force referee: BFS from `src` on G (in-model) or H (what-if)
/// minus the query's failure(s), into `scratch`.
void referee_bfs(const FtBfsStructure& h, Vertex src, const api::Query& q,
                 bool what_if, BfsScratch& scratch) {
  const Graph& g = h.graph();
  if (q.fault2 >= 0 && !what_if) {
    dual_bruteforce_bfs(g, src, DualSite{q.kind, q.fault},
                        DualSite{q.kind2, q.fault2}, scratch);
    return;
  }
  BfsBans bans;
  if (what_if) bans.banned_edge_mask = &h.complement_mask();
  for (const auto& [kind, id] : {std::pair{q.kind, q.fault},
                                 std::pair{q.kind2, q.fault2}}) {
    if (id < 0) continue;
    if (kind == FaultClass::kEdge) {
      (bans.banned_edge == kInvalidEdge ? bans.banned_edge
                                        : bans.banned_edge2) = id;
    } else {
      bans.banned_vertex_one = id;
    }
  }
  bfs_run(g, src, bans, scratch);
}

/// Checks a drill's answers query by query; returns the wrong ones.
std::int64_t check_drill(const FtBfsStructure& h,
                         std::span<const Vertex> sources, const Drill& d,
                         const std::vector<api::QueryResult>& got,
                         BfsScratch& scratch) {
  std::int64_t wrong = 0;
  for (std::size_t i = 0; i < d.size(); i += kVerticesPerFailure) {
    const api::Query& q = d[i];
    const api::QueryOutcome want = expected_outcome(h, q);
    const bool what_if = want == api::QueryOutcome::kWhatIf;
    referee_bfs(h, sources[static_cast<std::size_t>(q.source_index)], q,
                what_if, scratch);
    const std::size_t end = std::min(i + kVerticesPerFailure, d.size());
    for (std::size_t j = i; j < end; ++j) {
      // A failed vertex is banned, so it reads back kInfHops like the
      // session's answer for it.
      if (got[j].outcome != want || got[j].dist != scratch.dist(d[j].v)) {
        ++wrong;
      }
    }
  }
  return wrong;
}

// ---------------------------------------------------------------------------
// The operator flow

/// Stage timings: `reps` samples of set-up and ready per pass, one of build
/// and save; ingest and first query also on their own, for the layers.
struct StageTimes {
  std::vector<Sample> setup, build, save, ready;
  std::vector<double> ingest, first_query;

  void append(const StageTimes& o) {
    for (auto [dst, src] : {std::pair{&setup, &o.setup}, {&build, &o.build},
                            {&save, &o.save}, {&ready, &o.ready}}) {
      dst->insert(dst->end(), src->begin(), src->end());
    }
    ingest.insert(ingest.end(), o.ingest.begin(), o.ingest.end());
    first_query.insert(first_query.end(), o.first_query.begin(),
                       o.first_query.end());
  }
  /// Stages 1–4 as the sum of their statistics.
  double total() const {
    return quiet_median(setup) + quiet_median(build) + quiet_median(save) +
           quiet_median(ready);
  }
};

/// One pass of stages 1–4. Members are declared so that the session dies
/// before the graph it points into.
struct Pass {
  std::unique_ptr<Graph> graph;
  std::optional<api::BuildResult> result;
  std::optional<api::Session> session;
  api::Query first_query;
  api::QueryResult first_answer;
  SweepWorkStats sweep_work;  // traced dual builds only
  StageTimes t;
};

/// api::build as the dual pipeline composes it from its layers' public
/// entry points (detail::build_dual_failure_ftbfs_impl, single source), so
/// the traced run can time each layer. Checked against api::build's
/// structure by the caller.
api::BuildResult traced_dual_build(const Graph& g, const api::BuildSpec& spec,
                                   Tracer* tr, SweepWorkStats* work) {
  const EdgeWeights weights = EdgeWeights::uniform_random(g, spec.weight_seed);
  std::optional<BfsTree> tree;
  {
    ScopedSpan s(tr, "graph.bfs_tree", "graph");
    tree.emplace(g, weights, spec.sources.front());
  }
  std::vector<EdgeId> edges;
  DualSiteTable table;
  {
    ScopedSpan s(tr, "dual.site_table", "dual");
    table = detail::build_dual_site_table(*tree, spec.pool, false, &edges,
                                          false, nullptr, true,
                                          spec.dual_dfs_schedule, work);
  }
  ScopedSpan s(tr, "core.structure", "structure");
  FtBfsStructure h(g, spec.sources.front(), std::move(edges), {},
                   tree->tree_edges(), FaultClass::kDual);
  std::vector<DualSiteTable> tables;
  tables.push_back(std::move(table));
  return api::BuildResult{spec, spec.sources, std::move(h), {},
                          std::move(tables), {}, 0.0};
}

/// Stages 1–4 once, with `reps` samples of set-up and of ready.
Pass run_pass(const Workload& w, const std::string& graph_path,
              const std::string& artifact_path, std::uint64_t seed,
              int reps, Tracer* tr) {
  Pass p;
  for (int r = 0; r < reps; ++r) {
    p.graph.reset();
    const Timed setup;
    const auto t0 = Clock::now();
    {
      ScopedSpan s(tr, "io.ingest", "io");
      p.graph = std::make_unique<Graph>(io::load_edge_list(graph_path));
    }
    p.t.ingest.push_back(secs(t0, Clock::now()));
    // A pool start like the global pool's: spawn the workers, one
    // dispatch. Shutting it down is not part of set-up.
    std::optional<ThreadPool> pool;
    {
      ScopedSpan s(tr, "pool.start", "pool");
      pool.emplace(0);
      pool->parallel_for(pool->thread_count(), [](std::size_t) {});
    }
    p.t.setup.push_back(setup.stop());
  }

  const Timed build;
  {
    ScopedSpan s(tr, "api.build", "api");
    if (tr != nullptr && w.spec.fault_model == FaultClass::kDual) {
      p.result.emplace(traced_dual_build(*p.graph, w.spec, tr, &p.sweep_work));
    } else {
      p.result.emplace(api::build(*p.graph, w.spec));
    }
    if (tr != nullptr) {
      // The ε pipeline's own phase timers, placed inside api.build.
      double off = 0;
      for (const EpsilonStats& st : p.result->per_source) {
        for (const auto& [name, layer, sec] :
             {std::tuple{"engine.build", "engine", st.seconds_engine},
              std::tuple{"interference.build", "interference",
                         st.seconds_interference},
              std::tuple{"epsilon.s1", "epsilon", st.seconds_s1},
              std::tuple{"epsilon.s2", "epsilon", st.seconds_s2}}) {
          tr->add_reported(s.id(), name, layer, off, sec);
          off += sec;
        }
      }
    }
  }
  p.t.build.push_back(build.stop());

  const Timed save;
  {
    ScopedSpan s(tr, "io.save_v6", "io");
    io::save_structure_v6(p.result->structure, p.result->sources,
                          p.result->dual_tables, p.result->dual_site_dist,
                          artifact_path);
  }
  p.t.save.push_back(save.stop());

  p.first_query = DrillGen(w, p.result->structure, seed).next().front();
  api::SessionConfig cfg;
  cfg.weight_seed = w.spec.weight_seed;
  for (int r = 0; r < reps; ++r) {
    p.session.reset();
    const Timed ready;
    {
      ScopedSpan s(tr, "session.load", "session");
      p.session.emplace(api::Session::load(*p.graph, artifact_path, cfg));
    }
    const auto t1 = Clock::now();
    {
      ScopedSpan s(tr, "session.first_query", "query");
      p.first_answer = p.session->query_one(p.first_query);
    }
    p.t.first_query.push_back(secs(t1, Clock::now()));
    p.t.ready.push_back(ready.stop());
  }
  return p;
}

// ---------------------------------------------------------------------------
// The query phase

struct PhaseResult {
  std::vector<double> batch_s;
  double elapsed = 0;
  /// Per window of kWindowBatches consecutive batches: answered queries
  /// per second and the batch-latency p50 and p99, each with the window's
  /// steal share.
  std::vector<Sample> window_qps, window_p50, window_p99;
  std::int64_t queries = 0, answered = 0, failed = 0;
  std::int64_t in_model = 0, what_if = 0, what_if_traversals = 0;
  std::int64_t pair_traversals = 0, pair_cache_hits = 0,
               pair_cache_misses = 0;
};

/// Closed loop: one client, next drill sent when the previous reply is in.
/// Window k is served by sessions[k mod |sessions|].
/// Runs whole windows until `seconds` have elapsed (at least one window,
/// unless 3 × `seconds` pass first) or `max_batches` were served. Each
/// batch gets a span when traced.
PhaseResult run_phase(const std::vector<const api::Session*>& sessions,
                      const std::vector<Drill>& ring,
                      const std::vector<std::vector<api::QueryResult>>& ref,
                      double seconds, std::size_t max_batches, Tracer* tr,
                      std::int64_t flow_base) {
  PhaseResult r;
  r.batch_s.reserve(1 << 16);
  const auto start = Clock::now();
  const auto deadline = start + std::chrono::duration<double>(seconds);
  const auto hard_stop = start + std::chrono::duration<double>(3 * seconds);
  std::optional<Timed> window(std::in_place);
  std::int64_t window_answered = 0;
  for (std::size_t b = 0; b < max_batches; ++b) {
    const Drill& d = ring[b % ring.size()];
    const api::Session& session =
        *sessions[(b / kWindowBatches) % sessions.size()];
    const auto t0 = Clock::now();
    api::QueryResponse resp;
    {
      ScopedSpan s(tr, "query.batch", "query",
                   flow_base + static_cast<std::int64_t>(b));
      resp = session.query(d);
    }
    const auto t1 = Clock::now();
    r.batch_s.push_back(secs(t0, t1));
    const auto n = static_cast<std::int64_t>(d.size());
    r.queries += n;
    window_answered += n - resp.refused - resp.budget_exhausted;
    r.failed += resp.refused + resp.budget_exhausted + resp.degraded;
    r.in_model += resp.in_model;
    r.what_if += resp.what_if;
    r.what_if_traversals += resp.what_if_traversals;
    r.pair_traversals += resp.pair_traversals;
    r.pair_cache_hits += resp.pair_cache_hits;
    r.pair_cache_misses += resp.pair_cache_misses;
    if (b % kCheckEvery == 0) {
      const auto& want = ref[b % ring.size()];
      for (std::size_t i = 0; i < d.size(); ++i) {
        if (resp.results[i].dist != want[i].dist ||
            resp.results[i].outcome != want[i].outcome) {
          ++r.failed;
        }
      }
    }
    if ((b + 1) % kWindowBatches == 0) {
      const Sample ws = window->stop();
      window.emplace();
      const std::vector<double> w(r.batch_s.end() - kWindowBatches,
                                  r.batch_s.end());
      r.window_qps.push_back({static_cast<double>(window_answered) / ws.value,
                              ws.steal, ws.cpu});
      r.window_p50.push_back({percentile(w, 0.50), ws.steal, ws.cpu});
      r.window_p99.push_back({percentile(w, 0.99), ws.steal, ws.cpu});
      r.answered += window_answered;
      window_answered = 0;
      if (t1 >= deadline) break;
    }
    if (t1 >= hard_stop) break;
  }
  r.answered += window_answered;
  r.elapsed = secs(start, Clock::now());
  if (r.window_qps.empty()) {  // stopped inside the first window
    Sample ws = window->stop();
    ws.cpu *= static_cast<double>(kWindowBatches) /
              static_cast<double>(r.batch_s.size());  // per full window
    r.window_qps.push_back(
        {static_cast<double>(r.answered) / r.elapsed, ws.steal, ws.cpu});
    r.window_p50.push_back({percentile(r.batch_s, 0.50), ws.steal, ws.cpu});
    r.window_p99.push_back({percentile(r.batch_s, 0.99), ws.steal, ws.cpu});
  }
  return r;
}

// ---------------------------------------------------------------------------
// Host descriptor

std::string read_first_line(const std::string& path) {
  std::ifstream is(path);
  std::string line;
  if (!std::getline(is, line)) return "absent";
  return line;
}

/// cgroup v2 cpu.max, or the v1 quota and period in the same form.
std::string cgroup_cpu_max() {
  const std::string v2 = read_first_line("/sys/fs/cgroup/cpu.max");
  if (v2 != "absent") return v2;
  const std::string quota =
      read_first_line("/sys/fs/cgroup/cpu/cpu.cfs_quota_us");
  return (quota == "-1" ? "max" : quota) + " " +
         read_first_line("/sys/fs/cgroup/cpu/cpu.cfs_period_us");
}

std::string host_json() {
  double load[3] = {0, 0, 0};
  if (getloadavg(load, 3) != 3) load[0] = load[1] = load[2] = -1;
  cpu_set_t set;
  CPU_ZERO(&set);
  const int affinity =
      sched_getaffinity(0, sizeof(set), &set) == 0 ? CPU_COUNT(&set) : -1;
  std::ostringstream os;
  os << "{\"nproc\": " << affinity
     << ", \"hardware_concurrency\": " << std::thread::hardware_concurrency()
     << ", \"cgroup_cpu_max\": \"" << cgroup_cpu_max()
     << "\", \"build_type\": \"" << PERFBENCH_BUILD_TYPE
     << "\", \"compiler\": \"" << __VERSION__
     << "\", \"pool_threads\": " << ThreadPool::global().thread_count()
     << ", \"loadavg_start\": [" << load[0] << ", " << load[1] << ", "
     << load[2] << "]}";
  return os.str();
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// ---------------------------------------------------------------------------
// Output

struct Metric {
  std::string name, unit;
  double value;
};

void print_result(bool correct, std::int64_t attempted, std::int64_t failed,
                  const std::vector<Metric>& metrics) {
  std::ostringstream os;
  os.precision(10);
  os << "{\"correct\": " << (correct ? "true" : "false")
     << ", \"attempted\": " << attempted << ", \"failed\": " << failed
     << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    os << (i ? ", " : "") << "\"" << metrics[i].name << "\": {\"value\": "
       << metrics[i].value << ", \"unit\": \"" << metrics[i].unit << "\"}";
  }
  os << "}}";
  std::printf("%s\n", os.str().c_str());
}

// ---------------------------------------------------------------------------
// Per-layer probes (traced run only)

/// Median wall time of `reps` calls of fn, each under its own span.
template <class Fn>
double probe(Tracer* tr, const char* name, const char* layer, int reps,
             Fn&& fn) {
  std::vector<double> t;
  for (int i = 0; i < reps; ++i) {
    ScopedSpan s(tr, name, layer);
    const auto t0 = Clock::now();
    fn();
    t.push_back(secs(t0, Clock::now()));
  }
  return median(t);
}

/// Serves the ring once on `s` (untimed, so its lazy tuning happens here)
/// and counts the answers that differ from the checked ones.
std::int64_t mismatches(const api::Session& s, const std::vector<Drill>& ring,
                        const std::vector<std::vector<api::QueryResult>>& ref) {
  std::int64_t wrong = 0;
  for (std::size_t i = 0; i < ring.size(); ++i) {
    const api::QueryResponse resp = s.query(ring[i]);
    for (std::size_t j = 0; j < ring[i].size(); ++j) {
      wrong += resp.results[j].dist != ref[i][j].dist ||
               resp.results[j].outcome != ref[i][j].outcome;
    }
  }
  return wrong;
}

struct Options {
  std::string workload, workdir;
  std::uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
};

struct Counts {
  std::int64_t attempted = 0, failed = 0;
};

/// Serves the ring once (untimed), checks every answer against brute
/// force, and returns the checked answers the timed phase compares with.
std::vector<std::vector<api::QueryResult>> warm_and_check(
    const api::Session& session, const FtBfsStructure& h,
    const std::vector<Drill>& ring, Counts& c) {
  std::vector<std::vector<api::QueryResult>> ref;
  BfsScratch scratch;
  for (const Drill& d : ring) {
    api::QueryResponse resp = session.query(d);
    c.attempted += static_cast<std::int64_t>(d.size());
    c.failed += check_drill(h, session.sources(), d, resp.results, scratch);
    ref.push_back(std::move(resp.results));
  }
  return ref;
}

/// Degree of every vertex inside H (for computed traversed-edge counts).
std::vector<std::int64_t> structure_degrees(const FtBfsStructure& h) {
  std::vector<std::int64_t> deg(
      static_cast<std::size_t>(h.graph().num_vertices()), 0);
  for (const EdgeId e : h.edges()) {
    const auto [u, v] = h.graph().edge(e);
    ++deg[static_cast<std::size_t>(u)];
    ++deg[static_cast<std::size_t>(v)];
  }
  return deg;
}

/// Median seconds per traversal over `reps` batches of `k` queries that
/// each name a distinct failure (or pair) needing a traversal.
double traversal_probe(Tracer* tr, const char* name, const api::Session& s,
                       const FtBfsStructure& h, bool pairs, Rng& rng) {
  const auto& tree = h.tree_edges();
  const Vertex n = h.graph().num_vertices();
  const bool dual = h.fault_class() == FaultClass::kDual;
  std::vector<double> per;
  for (int rep = 0; rep < 8; ++rep) {
    Drill d;
    for (int i = 0; i < 16; ++i) {
      api::Query q;
      q.v = static_cast<Vertex>(rng.next_below(static_cast<std::uint64_t>(n)));
      q.allow_what_if = true;
      if (pairs) {
        q.fault = tree[rng.next_below(tree.size())];
        do {
          q.fault2 = tree[rng.next_below(tree.size())];
        } while (q.fault2 == q.fault);
      } else {
        q.kind = FaultClass::kVertex;
        do {
          q.fault = static_cast<std::int32_t>(
              rng.next_below(static_cast<std::uint64_t>(n)));
        } while (q.fault == s.sources().front());
      }
      d.push_back(q);
    }
    ScopedSpan span(tr, name, "query");
    const auto t0 = Clock::now();
    const api::QueryResponse r = s.query(d);
    const double t = secs(t0, Clock::now());
    const std::int64_t trav =
        dual ? r.pair_traversals : r.what_if_traversals;
    if (trav > 0) per.push_back(t / static_cast<double>(trav));
  }
  return median(per);
}

/// The traced run, after the warm-up pass `u`: one untraced and one traced
/// pass of the flow, each followed by a serving campaign of kCampaignDrills
/// drills, then the per-layer probes. Returns the per-layer metrics.
std::vector<Metric> traced_run(const Workload& w, const Options& opt,
                               const Pass& u, const std::vector<Drill>& ring,
                               const std::vector<std::vector<api::QueryResult>>& ref,
                               Counts& c, std::ostringstream& detail,
                               bool& deterministic) {
  const std::string tag = w.name + "-" + std::to_string(opt.seed);
  const std::string graph_path = opt.workdir + "/graph-" + tag + ".txt";
  const std::string artifact_path = opt.workdir + "/artifact-" + tag + ".v6";
  const FtBfsStructure& h = u.result->structure;

  // `u` warmed the process up; the untraced reference is a fresh pass, so
  // neither side of the overhead comparison pays the cold start.
  StageTimes ut;
  PhaseResult uq;
  {
    const Pass up =
        run_pass(w, graph_path, artifact_path, opt.seed, 1, nullptr);
    deterministic &= up.result->structure.edges() == h.edges();
    uq = run_phase({&*up.session}, ring, ref, opt.seconds, kCampaignDrills,
                   nullptr, 0);
    ut = up.t;
  }
  c.attempted += uq.queries;
  c.failed += uq.failed;

  Tracer tracer;
  Tracer* tr = &tracer;
  const std::int32_t root = tr->begin("flow", "bench", 0);
  Pass t = run_pass(w, graph_path, artifact_path, opt.seed, 1, tr);
  deterministic &= t.result->structure.edges() == h.edges();
  PhaseResult tq;
  {
    ScopedSpan s(tr, "query.campaign", "bench");
    tq = run_phase({&*t.session}, ring, ref, opt.seconds, kCampaignDrills, tr,
                   1);
  }
  tr->end(root);
  BfsScratch scratch;
  c.attempted += 1 + tq.queries;
  c.failed += tq.failed +
              check_drill(h, t.session->sources(), Drill{t.first_query},
                          {t.first_answer}, scratch);

  // ---- per-layer probes, on the same inputs -----------------------------
  const std::int32_t probes = tr->begin("probes", "probe", -1);
  const Graph& g = *u.graph;
  const api::Session& session = *u.session;
  const EdgeWeights weights =
      EdgeWeights::uniform_random(g, w.spec.weight_seed);
  const Vertex s0 = w.spec.sources.front();
  Rng rng(SplitMix64(opt.seed ^ 0x9B0BEULL).next());

  const double canonical_s = probe(tr, "graph.canonical_sp", "graph", 3,
                                   [&] { canonical_sp(g, weights, s0); });
  std::optional<BfsTree> tree;
  const double bfs_tree_s = probe(tr, "graph.bfs_tree", "graph", 3, [&] {
    tree.reset();
    tree.emplace(g, weights, s0);
  });

  std::vector<BfsLane> lanes(w.spec.sources.size());
  for (std::size_t i = 0; i < lanes.size(); ++i) {
    lanes[i].source = w.spec.sources[i];
  }
  std::vector<CanonicalSp> sps;
  const double ms_s = probe(tr, "graph.ms_bfs", "graph", 3, [&] {
    sps = ms_canonical_sp(g, weights, lanes);
  });
  double ms_edges = 0;
  for (const CanonicalSp& sp : sps) {
    for (Vertex v = 0; v < g.num_vertices(); ++v) {
      if (sp.reachable(v)) ms_edges += 0.5 * g.degree(v);
    }
  }

  // Literal BFS of H minus one tree edge: the what-if traversal's kernel.
  const std::vector<std::int64_t> hdeg = structure_degrees(h);
  double bfs_edges = 0, bfs_s = 0;
  std::vector<double> bfs_each;
  for (int i = 0; i < 32; ++i) {
    BfsBans bans;
    bans.banned_edge_mask = &h.complement_mask();
    bans.banned_edge = h.tree_edges()[rng.next_below(h.tree_edges().size())];
    ScopedSpan s(tr, "graph.bfs", "graph");
    const auto t0 = Clock::now();
    bfs_run(g, s0, bans, scratch);
    const double dt = secs(t0, Clock::now());
    bfs_s += dt;
    bfs_each.push_back(dt);
    for (const Vertex v : scratch.order()) {
      bfs_edges += 0.5 * static_cast<double>(hdeg[static_cast<std::size_t>(v)]);
    }
  }

  ReplacementPathEngine::Config ecfg;
  std::optional<ReplacementPathEngine> engine;
  const double engine_s = probe(tr, "engine.build", "engine", 1,
                                [&] { engine.emplace(*tree, ecfg); });
  ecfg.collect_detours = false;
  const double engine_serve_s = probe(tr, "engine.serve_build", "engine", 3, [&] {
    const ReplacementPathEngine e(*tree, ecfg);
  });
  std::int64_t adjacency = 0;
  const double interference_s =
      probe(tr, "interference.build", "interference", 1, [&] {
        const LcaIndex lca(*tree);
        const InterferenceIndex idx(*engine, lca);
        adjacency = idx.stats().adjacency_entries;
      });

  // ε pipeline telemetry: the flow's own build, or — where the flow runs
  // the dual pipeline — an ε = 0.25 build of the same graph.
  std::vector<EpsilonStats> eps_stats = t.result->per_source;
  std::string eps_from = "flow";
  if (eps_stats.empty()) {
    ScopedSpan s(tr, "epsilon.probe_build", "epsilon");
    api::BuildSpec es = w.spec;
    es.fault_model = FaultClass::kEdge;
    es.eps = 0.25;
    eps_stats = api::build(g, es).per_source;
    eps_from = "probe eps=0.25 build";
  }
  EpsilonStats eps_sum;
  for (const EpsilonStats& st : eps_stats) {
    eps_sum.seconds_s1 += st.seconds_s1;
    eps_sum.seconds_s2 += st.seconds_s2;
    eps_sum.k_rounds = std::max(eps_sum.k_rounds, st.k_rounds);
    eps_sum.pairs_uncovered += st.pairs_uncovered;
  }

  // Dual pipeline: the flow's traced build, or — where the flow does not
  // run it — the same layer on a smaller instance of the graph family.
  double dual_s = 0;
  std::int64_t dual_sites = 0, dual_work = 0;
  std::string dual_from = "flow";
  if (w.spec.fault_model == FaultClass::kDual) {
    for (const Tracer::Span& sp : tr->spans()) {
      if (sp.name == "dual.site_table") {
        dual_s = static_cast<double>(sp.end_ns - sp.start_ns) * 1e-9;
      }
    }
    dual_sites = static_cast<std::int64_t>(t.result->dual_tables[0].num_sites());
    dual_work = t.sweep_work.total();
  } else {
    const Graph& pg = w.dual_probe_graph;
    const EdgeWeights pw = EdgeWeights::uniform_random(pg, w.spec.weight_seed);
    const BfsTree pt(pg, pw, w.dual_probe_source);
    SweepWorkStats work;
    std::vector<EdgeId> edges;
    dual_s = probe(tr, "dual.site_table", "dual", 1, [&] {
      dual_sites = static_cast<std::int64_t>(
          detail::build_dual_site_table(pt, nullptr, false, &edges, false,
                                        nullptr, true,
                                        w.spec.dual_dfs_schedule, &work)
              .num_sites());
    });
    dual_work = work.total();
    dual_from = "probe n=" + std::to_string(pg.num_vertices()) +
                " m=" + std::to_string(pg.num_edges());
  }

  const double attach_s = probe(tr, "io.attach", "io", 5, [&] {
    io::MappedArtifact::map(artifact_path);
  });
  io::ReadOptions ro;
  ro.tolerate_pair_tables = ro.tolerate_site_dist = true;
  const double decode_s = probe(tr, "io.decode", "io", 5, [&] {
    std::vector<Vertex> srcs;
    std::vector<DualSiteTable> tables;
    std::vector<DualSiteDistTable> sd;
    io::LoadReport report;
    io::load_structure_v6(g, artifact_path, &srcs, &tables, ro, &report, &sd);
  });
  api::SessionConfig scfg;
  scfg.weight_seed = w.spec.weight_seed;
  const double load_s = probe(tr, "session.load", "session", 5, [&] {
    api::Session::load(g, artifact_path, scfg);
  });

  // In-model single-fault lookups: drill 0 with every failure made an
  // in-model edge failure.
  Drill lookups = ring.front();
  for (api::Query& q : lookups) {
    q.fault2 = -1;
    while (q.kind == FaultClass::kVertex || h.is_reinforced(q.fault)) {
      q.kind = FaultClass::kEdge;
      q.fault = h.tree_edges()[rng.next_below(h.tree_edges().size())];
    }
  }
  const double lookup_s = probe(tr, "query.in_model", "query", 32,
                                [&] { session.query(lookups); });
  // A dual session has no what-if plane; its traversal is the kernel's.
  const double what_if_s =
      h.fault_class() == FaultClass::kDual
          ? median(bfs_each)
          : traversal_probe(tr, "query.what_if", session, h, false, rng);
  const double pair_s =
      traversal_probe(tr, "query.pair", session, h, true, rng);
  tr->end(probes);

  // ---- self time per layer ----------------------------------------------
  const std::map<std::string, double> self = tr->self_by_layer(root);
  auto self_of = [&](const char* layer) {
    const auto it = self.find(layer);
    return it == self.end() ? 0.0 : it->second;
  };
  const double flow_traced = tr->seconds(root);
  std::string dominant;
  double dominant_s = 0;
  for (const auto& [layer, sec] : self) {
    if (layer != "bench" && sec > dominant_s) {
      dominant = layer;
      dominant_s = sec;
    }
  }
  std::string build_dominant;
  for (std::size_t i = 0; i < tr->spans().size(); ++i) {
    if (tr->spans()[i].name != "api.build") continue;
    double best = 0;
    for (const auto& [layer, sec] :
         tr->self_by_layer(static_cast<std::int32_t>(i))) {
      if (sec > best) {
        best = sec;
        build_dominant = layer;
      }
    }
  }
  const double untraced_flow = ut.total() + uq.elapsed;
  const double traced_flow = t.t.total() + tq.elapsed;
  const double hits = static_cast<double>(tq.pair_cache_hits);
  const double lookups_total = hits + static_cast<double>(tq.pair_cache_misses);

  if (!tr->write_json(opt.workdir + "/trace-" + tag + ".json")) {
    std::fprintf(stderr, "perfbench: cannot write the trace file\n");
  }
  detail << ", \"trace\": {\"self_s\": {";
  bool first = true;
  for (const auto& [layer, sec] : self) {
    detail << (first ? "" : ", ") << "\"" << layer << "\": " << sec;
    first = false;
  }
  detail << "}, \"flow_traced_s\": " << flow_traced
         << ", \"dominant_layer\": \"" << dominant << "\""
         << ", \"build_dominant_layer\": \"" << build_dominant << "\""
         << ", \"untraced\": {\"build_s\": " << ut.build[0].value
         << ", \"ready_s\": " << ut.ready[0].value
         << ", \"campaign_s\": " << uq.elapsed
         << ", \"flow_s\": " << untraced_flow << "}"
         << ", \"traced\": {\"build_s\": " << t.t.build[0].value
         << ", \"ready_s\": " << t.t.ready[0].value
         << ", \"campaign_s\": " << tq.elapsed
         << ", \"flow_s\": " << traced_flow << "}"
         << ", \"epsilon_from\": \"" << eps_from << "\""
         << ", \"dual_from\": \"" << dual_from << "\""
         << ", \"what_if_from\": \""
         << (h.fault_class() == FaultClass::kDual ? "kernel" : "session")
         << "\", \"teps_edges\": \"computed\", \"spans\": "
         << tr->spans().size() << "}";

  const double lookups_n = static_cast<double>(lookups.size());
  return {
      {"graph.bfs.teps", "1/s", bfs_edges / bfs_s},
      {"graph.ms_bfs.teps", "1/s", ms_edges / ms_s},
      {"graph.canonical_sp_s", "s", canonical_s},
      {"graph.bfs_tree_s", "s", bfs_tree_s},
      {"engine.build_s", "s", engine_s},
      {"engine.dist_tables_s", "s", engine->stats().seconds_dist_tables},
      {"engine.detours_s", "s", engine->stats().seconds_detours},
      {"engine.pairs_total", "count",
       static_cast<double>(engine->stats().pairs_total)},
      {"engine.pairs_uncovered", "count",
       static_cast<double>(engine->stats().pairs_uncovered)},
      {"engine.detour_vertices", "count",
       static_cast<double>(engine->stats().detour_vertices)},
      {"engine.serve_build_s", "s", engine_serve_s},
      {"interference.build_s", "s", interference_s},
      {"interference.adjacency_entries", "count",
       static_cast<double>(adjacency)},
      {"epsilon.s1_s", "s", eps_sum.seconds_s1},
      {"epsilon.s2_s", "s", eps_sum.seconds_s2},
      {"epsilon.k_rounds", "count", static_cast<double>(eps_sum.k_rounds)},
      {"epsilon.pairs_uncovered", "count",
       static_cast<double>(eps_sum.pairs_uncovered)},
      {"epsilon.reinforced_edges", "count",
       static_cast<double>(h.num_reinforced())},
      {"dual.build_s", "s", dual_s},
      {"dual.sites", "count", static_cast<double>(dual_sites)},
      {"dual.per_site_us", "us",
       dual_sites > 0 ? dual_s / static_cast<double>(dual_sites) * 1e6 : 0},
      {"dual.sweep_work", "count", static_cast<double>(dual_work)},
      {"io.ingest_s", "s", t.t.ingest[0]},
      {"io.save_v6_s", "s", t.t.save[0].value},
      {"io.attach_s", "s", attach_s},
      {"io.decode_s", "s", decode_s},
      {"session.rebind_s", "s", load_s - attach_s - decode_s},
      {"session.first_query_us", "us", t.t.first_query[0] * 1e6},
      {"query.in_model_ns", "ns", lookup_s / lookups_n * 1e9},
      {"query.what_if_traversal_us", "us", what_if_s * 1e6},
      {"query.pair_traversal_us", "us", pair_s * 1e6},
      {"query.pair_cache_hit_ratio", "ratio",
       lookups_total > 0 ? hits / lookups_total : 0},
      {"query.traversals_per_distinct_fault", "ratio",
       static_cast<double>(tq.what_if_traversals + tq.pair_traversals) /
           static_cast<double>(tq.batch_s.size() * kFailuresPerDrill)},
      {"self.io_s", "s", self_of("io")},
      {"self.api_s", "s", self_of("api")},
      {"self.core_s", "s",
       self_of("engine") + self_of("interference") + self_of("epsilon") +
           self_of("dual") + self_of("structure")},
      {"self.session_s", "s", self_of("session")},
      {"self.query_s", "s", self_of("query")},
      {"trace.self_covered_share", "ratio",
       (flow_traced - self_of("bench")) / flow_traced},
      {"trace.dominant_self_share", "ratio", dominant_s / flow_traced},
      {"trace.overhead_share", "ratio",
       (traced_flow - untraced_flow) / untraced_flow},
      {"trace.build_ratio", "ratio", t.t.build[0].value / ut.build[0].value},
      {"trace.ready_ratio", "ratio", t.t.ready[0].value / ut.ready[0].value},
      {"trace.query_ratio", "ratio", tq.elapsed / uq.elapsed},
  };
}


bool parse_args(int argc, char** argv, Options& o) {
  bool have[5] = {false, false, false, false, false};
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    char* end = nullptr;
    if (k == "--workload") {
      o.workload = v;
      have[0] = true;
    } else if (k == "--seed") {
      o.seed = std::strtoull(v.c_str(), &end, 10);
      have[1] = !v.empty() && *end == '\0';
    } else if (k == "--seconds") {
      o.seconds = std::strtod(v.c_str(), &end);
      have[2] = !v.empty() && *end == '\0' && o.seconds > 0;
    } else if (k == "--trace") {
      o.trace = v == "1";
      have[3] = v == "0" || v == "1";
    } else if (k == "--workdir") {
      o.workdir = v;
      have[4] = true;
    } else {
      return false;
    }
  }
  return argc == 11 && std::all_of(have, have + 5, [](bool b) { return b; });
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!parse_args(argc, argv, opt)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <eps_adversarial|dual_rmat|"
                 "serve_rmat> --seed <n> --seconds <s> --trace <0|1> "
                 "--workdir <dir>\n");
    return 2;
  }
  std::optional<Workload> wl = make_workload(opt.workload, opt.seed);
  if (!wl) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 opt.workload.c_str());
    return 2;
  }
  const Workload& w = *wl;
  const std::string host = host_json();  // also starts the global pool
  const Timed whole_run;
  const std::string tag = w.name + "-" + std::to_string(opt.seed);
  const std::string graph_path = opt.workdir + "/graph-" + tag + ".txt";
  const std::string artifact_path = opt.workdir + "/artifact-" + tag + ".v6";
  io::save_edge_list(w.graph, graph_path);

  Counts c;
  std::ostringstream detail;
  detail.precision(9);
  detail << "{\"workload\": \"" << w.name << "\", \"seed\": " << opt.seed
         << ", \"trace\": " << (opt.trace ? 1 : 0) << ", \"host\": " << host
         << ", \"graph\": {\"n\": " << w.graph.num_vertices()
         << ", \"m\": " << w.graph.num_edges()
         << ", \"sources\": " << w.spec.sources.size() << "}";

  // Stages 1–4, repeated; in a traced run this is the warm-up pass. Every
  // pass must build the same structure.
  const int passes = opt.trace ? 1 : w.passes;
  StageTimes times;
  std::optional<Pass> last;
  std::vector<EdgeId> first_edges;
  bool deterministic = true;
  for (int i = 0; i < passes; ++i) {
    last.reset();
    last.emplace(run_pass(w, graph_path, artifact_path, opt.seed,
                         opt.trace ? 1 : kStageReps, nullptr));
    times.append(last->t);
    if (i == 0) first_edges = last->result->structure.edges();
    deterministic &= last->result->structure.edges() == first_edges;
  }
  const FtBfsStructure& h = last->result->structure;

  DrillGen gen(w, h, opt.seed);
  std::vector<Drill> ring;
  for (std::size_t i = 0; i < kRingDrills; ++i) ring.push_back(gen.next());
  const api::Session& session = *last->session;
  BfsScratch scratch;
  c.attempted += 1;
  c.failed += check_drill(h, session.sources(), Drill{last->first_query},
                          {last->first_answer}, scratch) +
              (session.degraded() ? 1 : 0);
  const auto ref = warm_and_check(session, h, ring, c);

  detail << ", \"reps\": {\"setup_s\": " << json_samples(times.setup)
         << ", \"ingest_s\": " << json_list(times.ingest)
         << ", \"build_s\": " << json_samples(times.build)
         << ", \"save_s\": " << json_samples(times.save)
         << ", \"ready_s\": " << json_samples(times.ready)
         << ", \"first_query_s\": " << json_list(times.first_query) << "}";

  std::vector<Metric> metrics;
  if (!opt.trace) {
    // Each loaded session tunes its inline/sharded batch cutover once, from
    // one timing; on eps_adversarial that flips query CPU by 2x in about
    // one load in ten. Serving the windows round-robin from kServeSessions
    // loads samples that choice instead of betting the run on one draw.
    std::vector<api::Session> replicas;
    std::vector<const api::Session*> serving = {&session};
    api::SessionConfig cfg;
    cfg.weight_seed = w.spec.weight_seed;
    for (int i = 1; i < kServeSessions; ++i) {
      replicas.push_back(api::Session::load(*last->graph, artifact_path, cfg));
    }
    for (const api::Session& r : replicas) {
      c.attempted += static_cast<std::int64_t>(ring.size() * kDrillQueries);
      c.failed += mismatches(r, ring, ref);
      serving.push_back(&r);
    }
    const PhaseResult ph =
        run_phase(serving, ring, ref, opt.seconds, SIZE_MAX, nullptr, 0);
    c.attempted += ph.queries;
    c.failed += ph.failed;
    // Gated: CPU cost, the median batch and sizes — steady on a shared
    // host. Wall-clock stage times, throughput and the batch p99 move with
    // the neighbours' load (hypervisor steal), so they are reported in the
    // detail line only; see perfbench/layers.json.
    const double query_cpu_ns =
        median(cpu_of(ph.window_qps)) * 1e9 /
        static_cast<double>(kWindowBatches * kDrillQueries);
    const double campaign_queries =
        static_cast<double>(kCampaignDrills * kDrillQueries);
    const double flow_cpu_s =
        median(cpu_of(times.setup)) + median(cpu_of(times.build)) +
        median(cpu_of(times.save)) + median(cpu_of(times.ready)) +
        campaign_queries * query_cpu_ns * 1e-9;
    metrics = {
        {"setup_s", "s", quiet_median(times.setup)},
        {"build_cpu_s", "s", median(cpu_of(times.build))},
        {"session_ready_cpu_s", "s", median(cpu_of(times.ready))},
        {"query_cpu_ns", "ns", query_cpu_ns},
        {"batch_p50_us", "us", quiet_median(ph.window_p50) * 1e6},
        {"flow_cpu_s", "s", flow_cpu_s},
        {"peak_rss_mb", "MB", peak_rss_mb()},
        {"artifact_bytes", "B",
         static_cast<double>(std::filesystem::file_size(artifact_path))},
        {"backup_edges", "count", static_cast<double>(h.num_backup())},
        {"structure_edges", "count", static_cast<double>(h.num_edges())},
    };
    const double qps = quiet_median(ph.window_qps);
    const std::vector<Metric> wall = {
        {"build_s", "s", quiet_median(times.build)},
        {"session_ready_s", "s", quiet_median(times.ready)},
        {"query_qps", "1/s", qps},
        {"batch_p99_us", "us", quiet_median(ph.window_p99) * 1e6},
        {"flow_s", "s", times.total() + campaign_queries / qps},
    };
    detail << ", \"wall\": {";
    for (std::size_t i = 0; i < wall.size(); ++i) {
      detail << (i ? ", " : "") << "\"" << wall[i].name
             << "\": {\"value\": " << wall[i].value << ", \"unit\": \""
             << wall[i].unit << "\"}";
    }
    detail << "}";
    const auto n_batches = static_cast<double>(ph.batch_s.size());
    detail << ", \"phase\": {\"batches\": " << ph.batch_s.size()
           << ", \"windows\": " << ph.window_qps.size()
           << ", \"window_batches\": " << kWindowBatches
           << ", \"seconds\": " << ph.elapsed
           << ", \"whole_phase\": {\"qps\": "
           << static_cast<double>(ph.answered) / ph.elapsed
           << ", \"mean_us\": " << ph.elapsed / n_batches * 1e6;
    for (const double p : {0.5, 0.9, 0.99, 0.999}) {
      detail << ", \"p" << p * 100 << "_us\": " << percentile(ph.batch_s, p) * 1e6;
    }
    detail << "}, \"window_qps\": " << json_samples(ph.window_qps)
           << ", \"window_p99_s\": " << json_samples(ph.window_p99)
           << ", \"in_model\": " << ph.in_model
           << ", \"what_if\": " << ph.what_if
           << ", \"what_if_traversals\": " << ph.what_if_traversals
           << ", \"pair_traversals\": " << ph.pair_traversals
           << ", \"pair_cache_hits\": " << ph.pair_cache_hits
           << ", \"pair_cache_misses\": " << ph.pair_cache_misses << "}";
  } else {
    metrics = traced_run(w, opt, *last, ring, ref, c, detail, deterministic);
  }

  const bool correct = c.failed == 0 && deterministic;
  detail << ", \"cpu_steal_share\": " << whole_run.stop().steal
         << ", \"reinforced_edges\": " << h.num_reinforced()
         << ", \"deterministic_build\": " << (deterministic ? "true" : "false")
         << ", \"failed_share\": "
         << static_cast<double>(c.failed) / static_cast<double>(c.attempted)
         << "}";
  std::printf("perfbench-detail %s\n", detail.str().c_str());
  print_result(correct, c.attempted, c.failed, metrics);
  return correct ? 0 : 1;
}
