// Answer checks. Each returns true when `got` is a correct answer and
// otherwise explains the first disagreement in `why`.
#ifndef MAZEBENCH_CHECKS_H_
#define MAZEBENCH_CHECKS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/bipartite.h"
#include "rt/algo.h"

namespace mazebench {

// Per-vertex agreement with the serial reference to <= 1e-9 (relative to
// max(1, |reference|)).
bool PageRankMatches(const std::vector<double>& got,
                     const std::vector<double>& reference, std::string* why);

// BFS distances must match exactly.
bool BfsMatches(const std::vector<uint32_t>& got,
                const std::vector<uint32_t>& reference, std::string* why);

// Triangle counts must match exactly.
bool TrianglesMatch(uint64_t got, uint64_t reference, std::string* why);

// CF must make progress: the final RMSE is finite and below the RMSE of the
// shared initial factors.
bool CfImproves(const maze::rt::CfResult& got, double initial_rmse,
                std::string* why);

// Serve payloads must be byte-identical.
bool PayloadMatches(const std::string& got, const std::string& expected,
                    std::string* why);

// PageRank payloads from engines whose floating-point fold order is not fixed
// (vertexlab and bspgraph) differ from a solo fresh execution
// in the last digits. This accepts a payload whose whitespace-separated
// tokens all equal the expected ones, except numbers that agree to <= 1e-9
// relative: the same criterion the grid applies to PageRank.
bool PayloadClose(const std::string& got, const std::string& expected,
                  std::string* why);

// RMSE of the deterministic initial factors every engine starts from.
double InitialCfRmse(const maze::BipartiteGraph& ratings,
                     const maze::rt::CfOptions& options);

// Vertices a BFS reached (finite distance).
uint64_t Reached(const std::vector<uint32_t>& distance);

}  // namespace mazebench

#endif  // MAZEBENCH_CHECKS_H_
