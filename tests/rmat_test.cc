#include "core/rmat.h"

#include <gtest/gtest.h>

#include "core/datasets.h"
#include "core/degree.h"
#include "core/graph.h"
#include "util/thread_pool.h"

namespace maze {
namespace {

TEST(RmatTest, ProducesRequestedCounts) {
  RmatParams params = RmatParams::Graph500(10, 8, /*seed=*/3);
  EdgeList el = GenerateRmat(params);
  EXPECT_EQ(el.num_vertices, 1u << 10);
  EXPECT_EQ(el.edges.size(), (1u << 10) * 8u);
  for (const Edge& e : el.edges) {
    ASSERT_LT(e.src, el.num_vertices);
    ASSERT_LT(e.dst, el.num_vertices);
  }
}

TEST(RmatTest, DeterministicForSeed) {
  RmatParams params = RmatParams::Graph500(9, 4, /*seed=*/11);
  EdgeList a = GenerateRmat(params);
  EdgeList b = GenerateRmat(params);
  EXPECT_EQ(a.edges, b.edges);
}

TEST(RmatTest, DifferentSeedsDiffer) {
  EdgeList a = GenerateRmat(RmatParams::Graph500(9, 4, 1));
  EdgeList b = GenerateRmat(RmatParams::Graph500(9, 4, 2));
  EXPECT_NE(a.edges, b.edges);
}

TEST(RmatTest, SkewedDegreeDistribution) {
  // Graph500 parameters must yield the heavy skew the paper's abstract calls out:
  // the top 1% of vertices should own a large share of all edges.
  EdgeList el = GenerateRmat(RmatParams::Graph500(14, 16, 5));
  el.Deduplicate();
  Graph g = Graph::FromEdges(el, GraphDirections::kOutOnly);
  DegreeStats stats = ComputeOutDegreeStats(g);
  EXPECT_GT(stats.top1pct_edge_share, 0.15);
  EXPECT_GT(stats.max_degree, 100u);
}

TEST(RmatTest, UniformParametersAreNotSkewed) {
  // A = B = C = 0.25 degenerates to (nearly) Erdos-Renyi: little skew.
  RmatParams params{14, 16, 0.25, 0.25, 0.25, 5, true};
  EdgeList el = GenerateRmat(params);
  el.Deduplicate();
  Graph g = Graph::FromEdges(el, GraphDirections::kOutOnly);
  DegreeStats uniform = ComputeOutDegreeStats(g);
  EXPECT_LT(uniform.top1pct_edge_share, 0.10);
}

TEST(RmatTest, PermutationPreservesDegreeMultiset) {
  RmatParams with_perm = RmatParams::Graph500(10, 8, 21);
  RmatParams no_perm = with_perm;
  no_perm.permute_vertices = false;
  EdgeList a = GenerateRmat(with_perm);
  EdgeList b = GenerateRmat(no_perm);
  // Same number of edges; the permutation only relabels endpoints.
  EXPECT_EQ(a.edges.size(), b.edges.size());
  EXPECT_NE(a.edges, b.edges);
}

TEST(RmatTest, TriangleParamsReduceTriangleDensity) {
  // §4.1.2: triangle counting uses A=0.45, B=C=0.15 "to reduce the number of
  // triangles"; verify the parameterization produces fewer closed wedges than
  // the default generator at the same size.
  auto count_triangles = [](EdgeList el) {
    el.OrientBySmallerId();
    Graph g = Graph::FromEdges(el, GraphDirections::kOutOnly);
    uint64_t count = 0;
    for (VertexId u = 0; u < g.num_vertices(); ++u) {
      for (VertexId v : g.OutNeighbors(u)) {
        auto a = g.OutNeighbors(u);
        auto b = g.OutNeighbors(v);
        size_t i = 0, j = 0;
        while (i < a.size() && j < b.size()) {
          if (a[i] < b[j]) {
            ++i;
          } else if (a[i] > b[j]) {
            ++j;
          } else {
            ++count, ++i, ++j;
          }
        }
      }
    }
    return count;
  };
  uint64_t dense = count_triangles(GenerateRmat(RmatParams::Graph500(12, 8, 9)));
  uint64_t sparse =
      count_triangles(GenerateRmat(RmatParams::TriangleCounting(12, 8, 9)));
  EXPECT_LT(sparse, dense);
}

struct Fingerprint {
  VertexId vertices = 0;
  size_t edges = 0;
  uint64_t hash = 0xcbf29ce484222325ull;  // FNV-1a over (src, dst) pairs.
};

Fingerprint LivejournalAtWidth(unsigned width) {
  ThreadPool::Default().Resize(width);
  EdgeList el = LoadGraphDataset("livejournal", /*scale_adjust=*/-2);
  Fingerprint f;
  f.vertices = el.num_vertices;
  f.edges = el.edges.size();
  for (const Edge& e : el.edges) {
    for (VertexId x : {e.src, e.dst}) {
      f.hash ^= x;
      f.hash *= 0x100000001b3ull;
    }
  }
  return f;
}

// The generator draws every edge from one stream, so the stand-in graphs do
// not depend on the pool width. The pinned values are the single-stream
// (width-1) graph that the experiments and the benchmark were made from.
TEST(RmatTest, LivejournalFingerprintIsIndependentOfPoolWidth) {
  for (unsigned width : {1u, 4u}) {
    SCOPED_TRACE(width);
    Fingerprint f = LivejournalAtWidth(width);
    EXPECT_EQ(f.vertices, 32768u);
    EXPECT_EQ(f.edges, 521563u);
    EXPECT_EQ(f.hash, 0x584374ac4973b06dull);
  }
  ThreadPool::Default().Resize(0);  // Back to the MAZE_THREADS default.
}

}  // namespace
}  // namespace maze
