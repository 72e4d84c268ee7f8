// The three workloads and the helpers they share.
#ifndef MAZEBENCH_WORKLOADS_H_
#define MAZEBENCH_WORKLOADS_H_

#include <string>
#include <utility>
#include <vector>

#include "bench_support/runner.h"
#include "core/edge_list.h"
#include "harness.h"

namespace mazebench {

// grid_r1 / grid_r4: the paper's four algorithms on every engine.
void RunGrid(const Options& options, Report* report);

// serve_mix: open-loop Poisson traffic into one serve::Service.
void RunServeMix(const Options& options, Report* report);

// Sets bsp.boxed_requests and bsp.slab_allocations from the process-wide
// arena counters and marks the run incorrect when either reads zero.
void ReportBspArena(Report* report);

// Sets per-layer metrics from the tracer: self.<layer>_s,
// obs.unattributed_frac (bench-layer self time over the `root` spans) and
// obs.dropped_events (flagged when the program's span rings overflowed).
void ReportTraceLayers(const char* root, Report* report);

// Host seconds that bench::Run* spends in Graph::FromEdges for `cells`
// ((engine, algo) pairs, algo one of pagerank|bfs|cc|triangles|cf),
// measured by building each distinct (view, directions) pair the runner uses
// once and weighting it by how many cells build it.
double TimeRunnerGraphBuilds(
    const std::vector<std::pair<maze::bench::EngineKind, std::string>>& cells,
    const maze::EdgeList& directed, const maze::EdgeList& symmetric,
    const maze::EdgeList& oriented);

}  // namespace mazebench

#endif  // MAZEBENCH_WORKLOADS_H_
