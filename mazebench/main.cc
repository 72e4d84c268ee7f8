// mazebench: the repository benchmark.
//
//   mazebench --workload grid_r1|grid_r4|serve_mix --seed N --seconds S
//             --trace 0|1 [--out-dir DIR] [--inject-wrong-answer]
//
// --trace 0 prints every end-to-end metric, --trace 1 every per-layer metric
// (a separate traced run). The last stdout line is the JSON result; see
// README.md for the metric catalogue.
#include <cstdio>

#include "harness.h"
#include "workloads.h"

int main(int argc, char** argv) {
  mazebench::Options options;
  if (!mazebench::ParseOptions(argc, argv, &options)) return 2;
  mazebench::Report report(options);
  if (options.workload == "serve_mix") {
    mazebench::RunServeMix(options, &report);
  } else {
    mazebench::RunGrid(options, &report);
  }
  return report.Finish();
}
