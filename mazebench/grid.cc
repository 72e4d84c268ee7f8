// grid_r1 / grid_r4: one pass runs the paper's four algorithms on every
// engine through bench::Run* and checks each answer against native's serial
// references. Host time per engine is the study's time to an answer.
#include <algorithm>
#include <cstdio>
#include <map>
#include <utility>

#include "bsp/engine.h"
#include "checks.h"
#include "core/graph.h"
#include "datasets.h"
#include "native/reference.h"
#include "obs/attrib.h"
#include "obs/obs.h"
#include "util/thread_pool.h"
#include "workloads.h"

namespace mazebench {

using maze::bench::EngineKind;
using maze::bench::EngineName;

namespace {

constexpr int kSetups = 5;
constexpr int kPageRankIterations = 10;
constexpr double kPageRankJump = 0.3;

maze::rt::CfOptions GridCfOptions() {
  maze::rt::CfOptions opt;
  opt.k = 16;
  opt.iterations = 2;
  // At the default 0.002, bspgraph's GD (no step decay) diverges on this
  // stand-in (final RMSE 13 at 1 rank, 24 at 4 ranks, from 3.7) while every
  // other engine converges; at 0.001 all seven converge.
  opt.learning_rate = 0.001;
  // Native and taskflow run SGD; the runner falls back to GD elsewhere (§3.2).
  opt.method = maze::rt::CfMethod::kSgd;
  return opt;
}

struct References {
  std::vector<double> pagerank;
  std::vector<uint32_t> bfs;
  uint64_t triangles = 0;
  double cf_initial_rmse = 0;
};

References ComputeReferences(const GridInputs& in) {
  References r;
  r.pagerank = maze::native::ReferencePageRank(
      maze::Graph::FromEdges(in.directed, maze::GraphDirections::kBoth),
      kPageRankIterations, kPageRankJump);
  r.bfs = maze::native::ReferenceBfs(
      maze::Graph::FromEdges(in.symmetric, maze::GraphDirections::kOutOnly),
      in.bfs_source);
  r.triangles = maze::native::ReferenceTriangleCount(
      maze::Graph::FromEdges(in.oriented, maze::GraphDirections::kOutOnly));
  r.cf_initial_rmse = InitialCfRmse(in.ratings, GridCfOptions());
  return r;
}

struct Cell {
  EngineKind engine;
  int algo;  // Index into kStudyAlgos.
};

struct CellOutcome {
  double host_seconds = 0;  // The bench::Run* call alone.
  maze::rt::RunMetrics metrics;
  bool ok = true;
  std::string why;
};

class Grid {
 public:
  Grid(const GridInputs& in, const References& refs, int ranks,
       bool inject_wrong_answer)
      : in_(in), refs_(refs), ranks_(ranks), inject_(inject_wrong_answer) {
    for (int algo = 0; algo < 4; ++algo) {
      for (EngineKind e : maze::bench::AllEngines()) {
        cells_.push_back({e, algo});
      }
    }
  }

  const std::vector<Cell>& cells() const { return cells_; }

  // Runs one cell.
  CellOutcome Run(const Cell& cell, bool traced) {
    MAZEBENCH_SPAN(EngineName(cell.engine), EngineName(cell.engine));
    maze::bench::RunConfig config;
    config.num_ranks = ranks_;
    config.trace = traced;
    CellOutcome out;
    Clock::time_point t0 = Clock::now();
    switch (cell.algo) {
      case 0: {
        maze::rt::PageRankOptions opt;
        opt.iterations = kPageRankIterations;
        opt.jump = kPageRankJump;
        auto r =
            maze::bench::RunPageRank(cell.engine, in_.directed, opt, config);
        out.host_seconds = SecondsSince(t0);
        MAZEBENCH_SPAN("check", "check");
        if (TakeInjection()) r.ranks[0] += 1e-6;
        out.ok = PageRankMatches(r.ranks, refs_.pagerank, &out.why);
        out.metrics = std::move(r.metrics);
        break;
      }
      case 1: {
        maze::rt::BfsOptions opt;
        opt.source = in_.bfs_source;
        auto r = maze::bench::RunBfs(cell.engine, in_.symmetric, opt, config);
        out.host_seconds = SecondsSince(t0);
        MAZEBENCH_SPAN("check", "check");
        if (TakeInjection()) r.distance[in_.bfs_source] = 1;
        out.ok = BfsMatches(r.distance, refs_.bfs, &out.why);
        // A BFS that reaches only its source proves nothing about the engine.
        uint64_t reached = Reached(r.distance);
        if (out.ok && reached <= 1) {
          out.ok = false;
          out.why = "bfs reached " + std::to_string(reached) + " vertices";
        }
        out.metrics = std::move(r.metrics);
        break;
      }
      case 2: {
        // §6.1.3: bspgraph triangle counting needs superstep splitting.
        if (cell.engine == EngineKind::kBspgraph) config.bsp_phases = 100;
        auto r = maze::bench::RunTriangleCount(cell.engine, in_.oriented, {},
                                               config);
        out.host_seconds = SecondsSince(t0);
        MAZEBENCH_SPAN("check", "check");
        if (TakeInjection()) r.triangles += 1;
        out.ok = TrianglesMatch(r.triangles, refs_.triangles, &out.why);
        out.metrics = std::move(r.metrics);
        break;
      }
      default: {
        if (cell.engine == EngineKind::kBspgraph) config.bsp_phases = 10;
        auto r = maze::bench::RunCf(cell.engine, in_.ratings, GridCfOptions(),
                                    config);
        out.host_seconds = SecondsSince(t0);
        MAZEBENCH_SPAN("check", "check");
        if (TakeInjection()) r.final_rmse = refs_.cf_initial_rmse * 2;
        out.ok = CfImproves(r, refs_.cf_initial_rmse, &out.why);
        out.metrics = std::move(r.metrics);
        break;
      }
    }
    if (!out.ok) {
      out.why = std::string(EngineName(cell.engine)) + " " +
                kStudyAlgos[cell.algo] + ": " + out.why;
    }
    return out;
  }

 private:
  bool TakeInjection() { return std::exchange(inject_, false); }

  const GridInputs& in_;
  const References& refs_;
  const int ranks_;
  bool inject_;
  std::vector<Cell> cells_;
};

// Per-pass sums.
struct PassTotals {
  std::map<std::string, double> engine_seconds;  // Σ cell host seconds.
  std::map<std::string, double> cell_seconds;    // "<engine>.<algo>_s".
  std::map<std::string, double> engine_modeled;
  double modeled = 0;
  double host = 0;
  uint64_t bytes_sent = 0;
  uint64_t messages_sent = 0;
  uint64_t steps = 0;
  double critical_compute = 0;
  double critical_wire = 0;
  double imbalance = 0;
  std::vector<double> cell_ms;  // Per-cell host latency, in pass order.
  // Per-engine RunMetrics watermarks (max over the engine's cells), bytes.
  std::map<std::string, uint64_t> engine_mem_peak;
  std::map<std::string, uint64_t> engine_msgbuf;
};

void Account(const CellOutcome& o, Report* report) {
  report->Attempt(o.ok);
  if (!o.ok) {
    std::fprintf(stderr, "mazebench: WRONG ANSWER: %s\n", o.why.c_str());
  }
}

template <typename T>
double MedianOf(const std::vector<PassTotals>& passes, T field) {
  std::vector<double> v;
  for (const PassTotals& p : passes) v.push_back(field(p));
  return Median(v);
}

}  // namespace

double TimeRunnerGraphBuilds(
    const std::vector<std::pair<EngineKind, std::string>>& cells,
    const maze::EdgeList& directed, const maze::EdgeList& symmetric,
    const maze::EdgeList& oriented) {
  using maze::GraphDirections;
  // (view, directions) -> cells that build it; mirrors bench_support/runner.cc.
  std::map<std::pair<const maze::EdgeList*, GraphDirections>, int> uses;
  for (const auto& [engine, algo] : cells) {
    const bool csr =
        engine != EngineKind::kMatblas && engine != EngineKind::kGmat;
    if (algo == "pagerank" && csr) {
      const bool both =
          engine == EngineKind::kNative || engine == EngineKind::kTaskflow;
      ++uses[{&directed,
              both ? GraphDirections::kBoth : GraphDirections::kOutOnly}];
    } else if ((algo == "bfs" || algo == "cc") && csr) {
      ++uses[{&symmetric, GraphDirections::kOutOnly}];
    } else if (algo == "triangles") {
      // The runner builds the oriented CSR before dispatching on the engine.
      ++uses[{&oriented, GraphDirections::kOutOnly}];
    }
  }
  double total = 0;
  for (const auto& [build, count] : uses) {
    MAZEBENCH_SPAN("core.graph_build", "core");
    Clock::time_point t0 = Clock::now();
    maze::Graph g = maze::Graph::FromEdges(*build.first, build.second);
    total += SecondsSince(t0) * count;
  }
  return total;
}

void ReportBspArena(Report* report) {
  const maze::bsp::ArenaCounters arena = maze::bsp::GetArenaCounters();
  report->Set("bsp.boxed_requests", static_cast<double>(arena.boxed_requests));
  report->Set("bsp.slab_allocations",
              static_cast<double>(arena.pool_slab_allocations));
  if (arena.boxed_requests == 0 || arena.pool_slab_allocations == 0) {
    report->Problem("bsp arena counters read zero (boxed " +
                    std::to_string(arena.boxed_requests) + ", slabs " +
                    std::to_string(arena.pool_slab_allocations) + ")");
  }
}

void ReportTraceLayers(const char* root, Report* report) {
  Tracer& tracer = Tracer::Get();
  auto self = tracer.SelfSecondsByLayer();
  report->Set("self.core_s", self["core"]);
  for (EngineKind e : maze::bench::AllEngines()) {
    report->Set(std::string("self.") + EngineName(e) + "_s",
                self[EngineName(e)]);
  }
  report->Set("self.serve_s", self["serve"]);
  report->Set("self.obs_s", self["obs"]);
  report->Set("obs.unattributed_frac", tracer.SelfFraction("bench", root));
  const uint64_t dropped = maze::obs::DroppedEvents();
  report->Set("obs.dropped_events", static_cast<double>(dropped));
  if (dropped > 0) {
    report->Note("FLAG: obs::DroppedEvents() = " + std::to_string(dropped) +
                 " (program span rings wrapped during the traced run)");
  }
}

void RunGrid(const Options& options, Report* report) {
  const int ranks = options.workload == "grid_r4" ? 4 : 1;
  // Engines run on a one-thread pool (ranks run in turn). On a shared 4-vCPU
  // host, bspgraph at 4 threads settles into per-process speed modes up to 2x
  // apart (its CF cell: median 134 ms in one process, 269 ms in the next),
  // which no median within a run removes; at 1 thread the medians agree
  // within 10%. The other engines are steady either way.
  maze::ThreadPool::Default().Resize(1);
  Tracer& tracer = Tracer::Get();
  tracer.SetEnabled(options.trace);

  // Set-up: generation plus the three views, several times; the last stays.
  std::vector<double> setup_totals;
  std::vector<SetupTimes> setups;
  GridInputs in;
  for (int i = 0; i < kSetups; ++i) {
    SetupTimes t;
    in = GridInputs();
    in = MakeGridInputs(options.seed, &t);
    setups.push_back(t);
    setup_totals.push_back(t.Total());
  }
  const References refs = ComputeReferences(in);
  Grid grid(in, refs, ranks, options.inject_wrong_answer);
  maze::bsp::ResetArenaCounters();

  // One sequential pass; `traced` turns on step records, program spans and
  // per-cell attribution.
  auto run_pass = [&](bool traced) {
    PassTotals p;
    MAZEBENCH_SPAN("pass", "bench");
    for (const Cell& cell : grid.cells()) {
      CellOutcome o = grid.Run(cell, traced);
      Account(o, report);
      const std::string engine = EngineName(cell.engine);
      p.engine_seconds[engine] += o.host_seconds;
      p.cell_seconds[engine + "." + kStudyAlgos[cell.algo] + "_s"] +=
          o.host_seconds;
      p.engine_modeled[engine] += o.metrics.elapsed_seconds;
      p.modeled += o.metrics.elapsed_seconds;
      p.host += o.host_seconds;
      p.bytes_sent += o.metrics.bytes_sent;
      p.messages_sent += o.metrics.messages_sent;
      p.steps += o.metrics.steps.size();
      p.cell_ms.push_back(o.host_seconds * 1e3);
      uint64_t& mem = p.engine_mem_peak[engine];
      mem = std::max(mem, o.metrics.memory_peak_bytes);
      uint64_t& msgbuf = p.engine_msgbuf[engine];
      msgbuf = std::max(msgbuf, o.metrics.memory_msgbuf_bytes);
      if (traced) {
        MAZEBENCH_SPAN("obs.attribute", "obs");
        maze::obs::attrib::Attribution a =
            maze::obs::attrib::Attribute(o.metrics);
        p.critical_compute += a.critical_compute_seconds;
        p.critical_wire += a.critical_wire_seconds;
        p.imbalance += a.imbalance_idle_seconds;
      }
    }
    return p;
  };

  std::vector<PassTotals> passes;
  const Clock::time_point start = Clock::now();

  // Warm-up: the first pass pays cold caches and allocator growth.
  run_pass(false);

  if (!options.trace) {
    // One researcher asking for the cells in turn, for the whole budget.
    while (passes.size() < 2 || SecondsSince(start) < options.seconds) {
      passes.push_back(run_pass(false));
    }
    report->Set("peak_rss_mb", PeakRssMb());
    report->Set("setup_s", Median(setup_totals));
    for (EngineKind e : maze::bench::AllEngines()) {
      const std::string name = EngineName(e);
      report->Set(name + "_s", MedianOf(passes, [&](const PassTotals& p) {
                    return p.engine_seconds.at(name);
                  }));
    }
    report->Set("modeled_s",
                MedianOf(passes,
                         [](const PassTotals& p) { return p.modeled; }));
    // A request to a framework is one cell; the whole study is one pass.
    std::vector<double> cell_ms, pass_ms;
    for (const PassTotals& p : passes) {
      cell_ms.insert(cell_ms.end(), p.cell_ms.begin(), p.cell_ms.end());
      pass_ms.push_back(p.host * 1e3);
    }
    report->Set("lat_p50_ms", Quantile(cell_ms, 0.5));
    report->Set("lat_p99_ms", Quantile(cell_ms, 0.99));
    report->Set("lat_p99_ms_peak", Quantile(pass_ms, 0.99));
    std::string pass_seconds;
    for (const PassTotals& p : passes) {
      pass_seconds += " " + std::to_string(p.host);
    }
    report->Note(std::to_string(passes.size()) + " passes, " +
                 std::to_string(cell_ms.size()) +
                 " cell samples; pass host seconds:" + pass_seconds);
  } else {
    // Untraced passes give the overhead baseline; traced passes give every
    // per-layer number.
    std::vector<double> untraced_host;
    while (untraced_host.size() < 2 ||
           SecondsSince(start) < 0.3 * options.seconds) {
      maze::obs::SetEnabled(false);
      tracer.SetEnabled(false);
      untraced_host.push_back(run_pass(false).host);
    }
    tracer.SetEnabled(true);
    maze::obs::ResetAll();
    maze::obs::SetEnabled(true);
    std::vector<double> graph_build;
    std::vector<std::pair<EngineKind, std::string>> build_cells;
    for (const Cell& c : grid.cells()) {
      build_cells.push_back({c.engine, kStudyAlgos[c.algo]});
    }
    while (passes.size() < 2 || SecondsSince(start) < options.seconds) {
      MAZEBENCH_SPAN("measure", "bench");
      maze::bsp::ResetArenaCounters();
      passes.push_back(run_pass(true));
      graph_build.push_back(TimeRunnerGraphBuilds(build_cells, in.directed,
                                                  in.symmetric, in.oriented));
    }
    maze::obs::SetEnabled(false);
    ReportBspArena(report);

    auto median_setup = [&](double SetupTimes::*field) {
      std::vector<double> v;
      for (const SetupTimes& s : setups) v.push_back(s.*field);
      return Median(v);
    };
    report->Set("core.generate_s", median_setup(&SetupTimes::generate));
    report->Set("core.dedup_s", median_setup(&SetupTimes::dedup));
    report->Set("core.symmetrize_s", median_setup(&SetupTimes::symmetrize));
    report->Set("core.orient_s", median_setup(&SetupTimes::orient));
    report->Set("core.graph_build_s", Median(graph_build));
    for (const auto& [name, unused] : passes.front().cell_seconds) {
      report->Set(name, MedianOf(passes, [&](const PassTotals& p) {
                    return p.cell_seconds.at(name);
                  }));
    }
    for (EngineKind e : maze::bench::AllEngines()) {
      const std::string name = EngineName(e);
      report->Set(name + ".modeled_s",
                  MedianOf(passes, [&](const PassTotals& p) {
                    return p.engine_modeled.at(name);
                  }));
    }
    const PassTotals& last = passes.back();
    for (const auto& [engine, bytes] : last.engine_mem_peak) {
      report->Set(engine + ".mem_peak_mb", bytes / 1048576.0);
      report->Set(engine + ".msgbuf_mb",
                  last.engine_msgbuf.at(engine) / 1048576.0);
    }
    report->Set("rt.bytes_sent", static_cast<double>(last.bytes_sent));
    report->Set("rt.messages_sent", static_cast<double>(last.messages_sent));
    report->Set("rt.steps", static_cast<double>(last.steps));
    report->Set("rt.critical_compute_s",
                MedianOf(passes, [](const PassTotals& p) {
                  return p.critical_compute;
                }));
    report->Set("rt.critical_wire_s",
                MedianOf(passes, [](const PassTotals& p) {
                  return p.critical_wire;
                }));
    report->Set("rt.imbalance_s", MedianOf(passes, [](const PassTotals& p) {
                  return p.imbalance;
                }));
    if (ranks == 1 && last.critical_wire != 0) {
      report->Problem("grid_r1 must charge no wire time");
    }
    double traced_host =
        MedianOf(passes, [](const PassTotals& p) { return p.host; });
    report->Set("obs.trace_overhead_frac",
                traced_host / Median(untraced_host) - 1.0);
    ReportTraceLayers("measure", report);
    report->Note("traced: " + std::to_string(passes.size()) + " passes, " +
                 std::to_string(untraced_host.size()) +
                 " untraced baseline passes");
  }

  const PassTotals& first = passes.front();
  if (ranks > 1 && (first.bytes_sent == 0 || first.messages_sent == 0)) {
    report->Problem("grid_r4 moved no wire traffic (bytes " +
                    std::to_string(first.bytes_sent) + ", messages " +
                    std::to_string(first.messages_sent) + ")");
  }
  if (!options.trace) ReportBspArena(report);
  if (ranks == 1 && first.bytes_sent != 0) {
    report->Problem("grid_r1 must move no wire traffic, saw " +
                    std::to_string(first.bytes_sent) + " bytes");
  }
}

}  // namespace mazebench
