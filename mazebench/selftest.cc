// Unit checks of the benchmark's answer checks: every check accepts a correct
// answer and rejects a corrupted one, and a rejected answer raises the
// reported error rate above zero. run.py --selftest runs this binary and then
// the full benchmark with --inject-wrong-answer.
#include <cstdio>
#include <string>
#include <vector>

#include "checks.h"
#include "harness.h"

namespace {

int failures = 0;

void Expect(bool condition, const char* what) {
  std::printf("%s %s\n", condition ? "ok  " : "FAIL", what);
  if (!condition) ++failures;
}

}  // namespace

int main() {
  using namespace mazebench;
  std::string why;

  const std::vector<double> ranks = {0.3, 1.25, 7.5};
  std::vector<double> near = ranks;
  near[1] += 1e-12;
  std::vector<double> off = ranks;
  off[2] += 1e-6;
  Expect(PageRankMatches(near, ranks, &why), "pagerank within 1e-9 passes");
  Expect(!PageRankMatches(off, ranks, &why), "pagerank off by 1e-6 fails");
  Expect(!PageRankMatches({0.3}, ranks, &why), "pagerank of wrong size fails");

  const std::vector<uint32_t> dist = {0, 1, 2, 0xFFFFFFFFu};
  std::vector<uint32_t> bad_dist = dist;
  bad_dist[2] = 3;
  Expect(BfsMatches(dist, dist, &why), "bfs equal passes");
  Expect(!BfsMatches(bad_dist, dist, &why), "bfs off by one level fails");
  Expect(Reached(dist) == 3, "bfs reached counts finite distances");

  Expect(TrianglesMatch(42, 42, &why), "triangles equal passes");
  Expect(!TrianglesMatch(43, 42, &why), "triangles off by one fails");

  maze::rt::CfResult cf;
  cf.final_rmse = 1.0;
  Expect(CfImproves(cf, 3.0, &why), "cf below initial rmse passes");
  cf.final_rmse = 4.0;
  Expect(!CfImproves(cf, 3.0, &why), "cf above initial rmse fails");

  const std::string payload = "pagerank n=2 iterations=10\n0.5\n1.25\n";
  Expect(PayloadMatches(payload, payload, &why), "identical payload passes");
  Expect(!PayloadMatches(payload + "x", payload, &why),
         "payload with an extra byte fails");
  Expect(PayloadClose("pagerank n=2 iterations=10\n0.50000000000001\n1.25\n",
                      payload, &why),
         "pagerank payload within 1e-9 is close");
  Expect(!PayloadClose("pagerank n=2 iterations=10\n0.51\n1.25\n", payload,
                       &why),
         "pagerank payload off by 0.01 is not close");
  Expect(!PayloadClose("pagerank n=3 iterations=10\n0.5\n1.25\n", payload,
                       &why),
         "payload with a different header is not close");

  Options options;
  options.workload = "grid_r1";
  Report report(options);
  report.Attempt(true);
  report.Attempt(PageRankMatches(off, ranks, &why));
  Expect(report.ErrorRate() > 0, "a wrong answer raises error_rate above 0");

  std::printf("%s: %d failure(s)\n", failures == 0 ? "PASS" : "FAIL", failures);
  return failures == 0 ? 0 : 1;
}
