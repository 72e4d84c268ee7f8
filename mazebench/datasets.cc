#include "datasets.h"

#include <algorithm>
#include <numeric>

#include "core/ratings_gen.h"
#include "core/rmat.h"
#include "harness.h"

namespace mazebench {

namespace {

// Times `fn` into `*seconds` under a core-layer span.
template <typename Fn>
void Stage(const char* name, double* seconds, Fn&& fn) {
  MAZEBENCH_SPAN(name, "core");
  Clock::time_point t0 = Clock::now();
  fn();
  *seconds += SecondsSince(t0);
}

// livejournal stand-in parameters (core/datasets.cc) at a seeded RMAT seed.
maze::RmatParams LivejournalParams(int scale, uint64_t seed) {
  return maze::RmatParams::Graph500(scale, 18, seed);
}

}  // namespace

std::vector<maze::VertexId> TopDegreeVertices(const maze::EdgeList& edges,
                                              size_t count) {
  std::vector<uint32_t> degree(edges.num_vertices, 0);
  for (const maze::Edge& e : edges.edges) ++degree[e.src];
  std::vector<maze::VertexId> order(edges.num_vertices);
  std::iota(order.begin(), order.end(), 0u);
  count = std::min(count, order.size());
  std::partial_sort(order.begin(), order.begin() + count, order.end(),
                    [&](maze::VertexId a, maze::VertexId b) {
                      return degree[a] != degree[b] ? degree[a] > degree[b]
                                                    : a < b;
                    });
  order.resize(count);
  return order;
}

GridInputs MakeGridInputs(uint64_t seed, SetupTimes* times) {
  GridInputs in;
  maze::EdgeList raw_tc;
  Stage("core.generate", &times->generate, [&] {
    // Two scales below the registry's livejournal stand-in (17), so that a
    // pass over all 28 cells takes about a second and a run holds many.
    in.directed = maze::GenerateRmat(
        LivejournalParams(15, DeriveSeed(seed, 303)));
    // The paper's low-triangle RMAT parameters for TC (§4.1.2), two scales
    // below the PageRank/BFS graph as in the repository's TC benches.
    raw_tc = maze::GenerateRmat(maze::RmatParams::TriangleCounting(
        14, 12, DeriveSeed(seed, 313)));
    // netflix stand-in (core/datasets.cc), seeded.
    maze::RatingsParams ratings;
    ratings.scale = 15;
    ratings.edge_factor = 24;
    ratings.num_items = 556;
    ratings.seed = DeriveSeed(seed, 606);
    in.ratings = maze::GenerateRatings(ratings).ToGraph();
  });
  Stage("core.dedup", &times->dedup, [&] { in.directed.Deduplicate(); });
  Stage("core.symmetrize", &times->symmetrize, [&] {
    in.symmetric = in.directed;
    in.symmetric.Symmetrize();
  });
  Stage("core.orient", &times->orient, [&] {
    in.oriented = std::move(raw_tc);
    in.oriented.OrientBySmallerId();
  });
  in.bfs_source = TopDegreeVertices(in.symmetric, 1).front();
  return in;
}

ServeInputs MakeServeInputs(size_t sources, SetupTimes* times) {
  ServeInputs in;
  Stage("core.generate", &times->generate, [&] {
    // Five scales below the registry's livejournal stand-in: small enough
    // that most answers come from the cache, large enough that the misses
    // after each bump queue behind one another. One graph for every --seed
    // (the graph of seed 1): at this scale the engines' cost varied by 25%
    // between seeds' graphs (matblas 68-86 ms per probe pass), which the
    // latency tail amplified; the seed drives the traffic instead.
    in.raw = maze::GenerateRmat(LivejournalParams(12, DeriveSeed(1, 909)));
  });
  Stage("core.dedup", &times->dedup, [&] {
    in.directed = in.raw;
    in.directed.Deduplicate();
  });
  Stage("core.symmetrize", &times->symmetrize, [&] {
    in.symmetric = in.directed;
    in.symmetric.Symmetrize();
  });
  Stage("core.orient", &times->orient, [&] {
    in.oriented = in.directed;
    in.oriented.OrientBySmallerId();
  });
  in.top_vertices = TopDegreeVertices(in.symmetric, sources);
  return in;
}

}  // namespace mazebench
