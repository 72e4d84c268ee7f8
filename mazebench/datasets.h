// Seeded workload inputs. Each stand-in uses the parameters of the dataset
// registry entry it names (core/datasets.cc) with the RMAT seed replaced by
// one derived from --seed, so a seed fixes every input and different seeds
// give the grids different graphs of the same shape.
#ifndef MAZEBENCH_DATASETS_H_
#define MAZEBENCH_DATASETS_H_

#include <cstdint>
#include <vector>

#include "core/bipartite.h"
#include "core/edge_list.h"

namespace mazebench {

// Host seconds of one set-up, split by core stage.
struct SetupTimes {
  double generate = 0;    // RMAT / ratings generation (+ bipartite CSR).
  double dedup = 0;       // Directed view.
  double symmetrize = 0;  // Symmetric view.
  double orient = 0;      // Oriented (src < dst) view.
  double install = 0;     // serve_mix only: the first snapshot Install.
  double Total() const {
    return generate + dedup + symmetrize + orient + install;
  }
};

// Inputs of the grid workloads (Fig. 3 / Table 6 cells).
struct GridInputs {
  maze::EdgeList directed;   // livejournal stand-in, deduplicated.
  maze::EdgeList symmetric;  // The same, symmetrized (BFS).
  maze::EdgeList oriented;   // Low-triangle stand-in, oriented (TC).
  maze::BipartiteGraph ratings;  // netflix stand-in (CF).
  maze::VertexId bfs_source = 0;  // Highest-degree vertex.
};
GridInputs MakeGridInputs(uint64_t seed, SetupTimes* times);

// Inputs of serve_mix: the raw generated edges (what Install and every bump
// take) plus the three views, and the `sources` highest-degree vertices
// (the BFS sources of the traffic). The graph is the same for every --seed;
// the seed drives the traffic.
struct ServeInputs {
  maze::EdgeList raw;
  maze::EdgeList directed;
  maze::EdgeList symmetric;
  maze::EdgeList oriented;
  std::vector<maze::VertexId> top_vertices;  // By symmetric degree, desc.
};
ServeInputs MakeServeInputs(size_t sources, SetupTimes* times);

// The `count` highest-degree vertices of `edges` (by source degree), highest
// first, ties to the lower id.
std::vector<maze::VertexId> TopDegreeVertices(const maze::EdgeList& edges,
                                              size_t count);

}  // namespace mazebench

#endif  // MAZEBENCH_DATASETS_H_
