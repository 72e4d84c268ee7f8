// The lowering proof for the gmat engine, in three layers:
//  1. kernel exactness — each tile kernel reproduces, message for message, the
//     directly-interpreted semantics "combine (or Gather-fold) the frontier
//     in-neighbors' payloads in ascending source order";
//  2. semiring-adapter algebra — identity (absence ⊕ m = m), annihilator (a
//     source outside the frontier contributes nothing), and the MinPlus laws
//     the SSSP path leans on;
//  3. per-superstep engine equality — a truncated gmat::Engine run and a
//     truncated vertex::SyncEngine run land in the *identical* vertex state
//     after every superstep prefix k = 1..K, for combinable (PageRank, BFS,
//     CC), reduce-on-delivery (CF) and list (triangle) programs alike; whole
//     CF runs match the interpreter byte for byte at 1, 4 and 16 ranks, and
//     CF's row reduce is charged exactly one Partial per delivered
//     destination on the wire.
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "bench_support/runner.h"
#include "core/bipartite.h"
#include "core/edge_list.h"
#include "core/graph.h"
#include "core/types.h"
#include "gmat/engine.h"
#include "gmat/frontier.h"
#include "gmat/lower.h"
#include "matrix/semiring.h"
#include "native/cf.h"
#include "rt/algo.h"
#include "tests/test_graphs.h"
#include "util/bitvector.h"
#include "util/thread_pool.h"
#include "vertex/engine.h"
#include "vertex/programs.h"

namespace maze::gmat {
namespace {

using vertex::BfsProgram;
using vertex::CcProgram;
using vertex::CfGdProgram;
using vertex::PageRankProgram;
using vertex::TriangleProgram;

// A little combinable program whose Combine is associative (the semiring axiom
// the tile-partial folds rely on) but NOT commutative: sequence concatenation.
// Any kernel that reorders per-destination delivery fails these tests loudly
// instead of accidentally passing the way min/+ would.
struct OrderSensitiveCombine {
  using Message = std::vector<uint32_t>;
  static Message Combine(Message a, const Message& b) {
    a.insert(a.end(), b.begin(), b.end());
    return a;
  }
};

// Message-type shim for the free-monoid kernel (only P::Message is consulted).
struct U64ListShim {
  using Message = uint64_t;
};

// Reduce-on-delivery shim whose Partial records every Gather as (receiver's
// value, payload), in order, after a zero mark: a reordered, dropped or
// duplicated delivery, a missing zero, or a Gather against the wrong
// destination's value all show.
struct RecordingFoldShim {
  using Message = uint64_t;
  using Value = uint64_t;
  using Partial = std::vector<uint64_t>;
  static constexpr uint64_t kZeroMark = 0x5eed;
  void ZeroPartial(Partial* acc) const { acc->assign(1, kZeroMark); }
  void Gather(VertexId, const Value& value, const Message& m,
              Partial* acc) const {
    acc->push_back(value);
    acc->push_back(m);
  }
};

// Directly-interpreted reference for one lowered superstep: for every
// destination, fold the frontier in-neighbors' payloads in ascending global
// source order; destinations with no frontier in-neighbor keep the identity
// (absence).
template <typename Combiner, typename Message>
void ReferenceSpmv(const EdgeList& edges, const Bitvector& x_has,
                   const std::vector<Message>& payload,
                   std::vector<Message>* acc, Bitvector* has) {
  // Gather (src, dst) pairs sorted by (dst, src).
  std::vector<std::pair<VertexId, VertexId>> by_dst;
  for (const Edge& e : edges.edges) by_dst.push_back({e.dst, e.src});
  std::sort(by_dst.begin(), by_dst.end());
  for (const auto& [dst, src] : by_dst) {
    if (!x_has.Test(src)) continue;  // ⊗-annihilator.
    if (has->Test(dst)) {
      (*acc)[dst] = Combiner::Combine((*acc)[dst], payload[src]);
    } else {
      (*acc)[dst] = payload[src];  // identity ⊕ m = m.
      has->Set(dst);
    }
  }
}

EdgeList TinyGraph() {
  EdgeList el;
  el.num_vertices = 10;
  // Hand-built: fan-in onto 3 and 7, a self-loop, a dangling vertex (9), and
  // cross-tile edges for every 2x2-grid tile when lowered at 4 ranks.
  el.edges = {{0, 3}, {1, 3}, {2, 3}, {5, 3}, {8, 3}, {0, 7}, {6, 7},
              {7, 7}, {9, 7}, {2, 0}, {4, 1}, {8, 6}, {3, 8}, {1, 9}};
  el.Deduplicate();
  return el;
}

struct KernelCase {
  int ranks;  // Grid = sqrt(ranks) x sqrt(ranks).
};

class LowerKernelTest : public ::testing::TestWithParam<KernelCase> {};

// Runs every combinable kernel over all tiles of the lowered matrix (grid rows
// in any order, tiles within a row in ascending column order — the engine's
// schedule) and compares against ReferenceSpmv.
template <typename P>
void CheckCombinableKernels(const EdgeList& el, const Bitvector& x_has,
                            const std::vector<typename P::Message>& payload,
                            int ranks) {
  using Message = typename P::Message;
  const VertexId n = el.num_vertices;
  LoweredMatrix lowered = LoweredMatrix::Build(el, ranks);
  const int side = lowered.side();

  std::vector<Message> want(n);
  Bitvector want_has(n);
  ReferenceSpmv<P, Message>(el, x_has, payload, &want, &want_has);

  std::vector<uint32_t> frontier;
  x_has.AppendSetBits(&frontier);

  for (int kernel = 0; kernel < 3; ++kernel) {
    std::vector<Message> acc(n);
    Bitvector has(n);
    for (int i = 0; i < side; ++i) {
      for (int j = 0; j < side; ++j) {
        const matrix::Tile& t = lowered.tile(i, j);
        switch (kernel) {
          case 0:
            // Dense is only sound when the frontier covers every column the
            // tile can read; emulate by masking first, then dense-folding.
            // Instead run it only when x covers all sources (checked below).
            LowerTileRowMasked<P>(t, x_has, payload, &acc, &has);
            break;
          case 1: {
            const uint32_t* lo = frontier.data();
            const uint32_t* end = frontier.data() + frontier.size();
            while (lo < end && *lo < t.col_begin) ++lo;
            const uint32_t* hi = lo;
            while (hi < end && *hi < t.col_end) ++hi;
            LowerTileColSparse<P>(lowered.tileT(i, j), t.col_begin, lo,
                                  static_cast<size_t>(hi - lo), payload, &acc,
                                  &has);
            break;
          }
          case 2: {
            // Dense kernel: legal only on the all-broadcasters frontier; skip
            // this variant when the frontier is partial.
            bool all = true;
            for (const Edge& e : el.edges) all = all && x_has.Test(e.src);
            if (!all) continue;
            LowerTileRowDense<P>(t, payload, &acc, &has);
            break;
          }
        }
      }
    }
    if (kernel == 2) {
      bool all = true;
      for (const Edge& e : el.edges) all = all && x_has.Test(e.src);
      if (!all) continue;
    }
    for (VertexId v = 0; v < n; ++v) {
      ASSERT_EQ(has.Test(v), want_has.Test(v))
          << "kernel " << kernel << " ranks " << ranks << " vertex " << v;
      if (want_has.Test(v)) {
        ASSERT_EQ(acc[v], want[v])
            << "kernel " << kernel << " ranks " << ranks << " vertex " << v;
      }
    }
  }
}

TEST_P(LowerKernelTest, CombinableKernelsMatchInterpretedFold) {
  EdgeList el = TinyGraph();
  const VertexId n = el.num_vertices;
  // Full frontier: every vertex broadcasts a distinct payload. The
  // order-sensitive combiner makes per-destination delivery order observable.
  std::vector<std::vector<uint32_t>> payload(n);
  Bitvector full(n);
  for (VertexId v = 0; v < n; ++v) {
    payload[v] = {1000 + v};
    full.Set(v);
  }
  CheckCombinableKernels<OrderSensitiveCombine>(el, full, payload,
                                                GetParam().ranks);

  // Partial frontier: only even vertices broadcast; odd sources must act as
  // the ⊗-annihilator in every kernel.
  Bitvector partial(n);
  for (VertexId v = 0; v < n; v += 2) partial.Set(v);
  CheckCombinableKernels<OrderSensitiveCombine>(el, partial, payload,
                                                GetParam().ranks);

  // Empty frontier: the SpMV of the zero vector is the zero vector.
  Bitvector empty(n);
  CheckCombinableKernels<OrderSensitiveCombine>(el, empty, payload,
                                                GetParam().ranks);
}

TEST_P(LowerKernelTest, ListKernelMatchesInterpretedConcatenation) {
  EdgeList el = TinyGraph();
  const VertexId n = el.num_vertices;
  LoweredMatrix lowered = LoweredMatrix::Build(el, GetParam().ranks);
  const int side = lowered.side();

  std::vector<uint64_t> payload(n);
  Bitvector x_has(n);
  for (VertexId v = 0; v < n; ++v) payload[v] = 2000 + v;
  for (VertexId v = 0; v < n; v += 3) x_has.Set(v);

  std::vector<std::vector<uint64_t>> lists(n);
  Bitvector has(n);
  for (int i = 0; i < side; ++i) {
    for (int j = 0; j < side; ++j) {
      LowerTileRowList<U64ListShim>(lowered.tile(i, j), x_has, payload,
                                         &lists, &has);
    }
  }

  // Free monoid reference: messages per destination in ascending source order.
  std::vector<std::pair<VertexId, VertexId>> by_dst;
  for (const Edge& e : el.edges) by_dst.push_back({e.dst, e.src});
  std::sort(by_dst.begin(), by_dst.end());
  std::vector<std::vector<uint64_t>> want(n);
  for (const auto& [dst, src] : by_dst) {
    if (x_has.Test(src)) want[dst].push_back(payload[src]);
  }
  for (VertexId v = 0; v < n; ++v) {
    EXPECT_EQ(has.Test(v), !want[v].empty()) << "vertex " << v;
    EXPECT_EQ(lists[v], want[v]) << "vertex " << v;
  }
}

TEST_P(LowerKernelTest, ReduceKernelMatchesInterpretedFold) {
  EdgeList el = TinyGraph();
  const VertexId n = el.num_vertices;
  LoweredMatrix lowered = LoweredMatrix::Build(el, GetParam().ranks);
  const int side = lowered.side();
  const RecordingFoldShim prog;

  std::vector<uint64_t> payload(n);
  std::vector<uint64_t> values(n);
  for (VertexId v = 0; v < n; ++v) {
    payload[v] = 3000 + v;
    values[v] = 7000 + v;
  }
  // Interpreted fold: per destination, zero at the first frontier in-neighbor,
  // then Gather the frontier in-neighbors in ascending source order.
  std::vector<std::pair<VertexId, VertexId>> by_dst;
  for (const Edge& e : el.edges) by_dst.push_back({e.dst, e.src});
  std::sort(by_dst.begin(), by_dst.end());

  for (int stride : {1, 2, 3}) {
    Bitvector x_has(n);
    for (VertexId v = 0; v < n; v += stride) x_has.Set(v);
    std::vector<std::vector<uint64_t>> want(n, std::vector<uint64_t>{0xabad});
    Bitvector want_has(n);
    for (const auto& [dst, src] : by_dst) {
      if (!x_has.Test(src)) continue;
      if (!want_has.Test(dst)) {
        prog.ZeroPartial(&want[dst]);
        want_has.Set(dst);
      }
      prog.Gather(dst, values[dst], payload[src], &want[dst]);
    }
    for (bool atomic_bits : {true, false}) {
      // Poisoned slots: an undelivered destination must keep its poison.
      std::vector<std::vector<uint64_t>> acc(n, std::vector<uint64_t>{0xabad});
      Bitvector has(n);
      for (int i = 0; i < side; ++i) {
        for (int j = 0; j < side; ++j) {
          LowerTileRowReduce(prog, lowered.tile(i, j), x_has, payload, values,
                             &acc, &has, atomic_bits);
        }
      }
      for (VertexId v = 0; v < n; ++v) {
        EXPECT_EQ(has.Test(v), want_has.Test(v))
            << "stride " << stride << " vertex " << v;
        EXPECT_EQ(acc[v], want[v]) << "stride " << stride << " vertex " << v;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Grids, LowerKernelTest,
                         ::testing::Values(KernelCase{1}, KernelCase{4},
                                           KernelCase{16}),
                         [](const ::testing::TestParamInfo<KernelCase>& info) {
                           return "ranks" + std::to_string(info.param.ranks);
                         });

// --- Semiring-adapter algebra -------------------------------------------------

TEST(ProgramSemiringTest, IdentityLawOverwritesNeverCombines) {
  // `first` means the slot holds the identity; Accumulate must overwrite, so
  // programs whose Message has no representable ⊕-identity stay exact. A
  // poisoned slot proves Combine was not consulted.
  std::vector<uint32_t> slot = {0xdead, 0xbeef};
  ProgramSemiring<OrderSensitiveCombine>::Accumulate(&slot, true, {7});
  EXPECT_EQ(slot, (std::vector<uint32_t>{7}));
  ProgramSemiring<OrderSensitiveCombine>::Accumulate(&slot, false, {3});
  EXPECT_EQ(slot, (std::vector<uint32_t>{7, 3}));  // Order preserved.
}

TEST(ProgramSemiringTest, MinCombineMatchesBfsProgram) {
  uint32_t slot = kInfiniteDistance;
  ProgramSemiring<BfsProgram>::Accumulate(&slot, true, 9);
  ProgramSemiring<BfsProgram>::Accumulate(&slot, false, 4);
  ProgramSemiring<BfsProgram>::Accumulate(&slot, false, 11);
  EXPECT_EQ(slot, 4u);
}

TEST(ProgramSemiringTest, AnnihilatorKeepsNonFrontierSourcesSilent) {
  // A destination all of whose in-neighbors are outside the frontier must end
  // with its has-bit clear and its accumulator untouched.
  EdgeList el;
  el.num_vertices = 4;
  el.edges = {{0, 2}, {1, 2}, {2, 3}};
  LoweredMatrix lowered = LoweredMatrix::Build(el, 1);
  Bitvector x_has(4);
  x_has.Set(2);  // Only vertex 2 broadcasts: dst 2 hears nothing, dst 3 hears 2.
  std::vector<std::vector<uint32_t>> payload = {{11}, {22}, {33}, {44}};
  std::vector<std::vector<uint32_t>> acc(4, std::vector<uint32_t>{0xabad});
  Bitvector has(4);
  LowerTileRowMasked<OrderSensitiveCombine>(lowered.tile(0, 0), x_has, payload,
                                            &acc, &has);
  EXPECT_FALSE(has.Test(0));
  EXPECT_FALSE(has.Test(1));
  EXPECT_FALSE(has.Test(2));
  // Untouched: absence stands in for the identity, never a fake zero.
  EXPECT_EQ(acc[2], (std::vector<uint32_t>{0xabad}));
  EXPECT_TRUE(has.Test(3));
  EXPECT_EQ(acc[3], (std::vector<uint32_t>{33}));
}

TEST(ProgramSemiringTest, MinPlusLawsBackTheSsspLowering) {
  using Semi = matrix::MinPlus<float>;
  const float zero = Semi::Zero();
  // Zero is the Add-identity and the Multiply-annihilator — the two laws the
  // frontier-synchronous Bellman-Ford relaxation relies on.
  EXPECT_EQ(Semi::Add(zero, 3.5f), 3.5f);
  EXPECT_EQ(Semi::Add(3.5f, zero), 3.5f);
  EXPECT_EQ(Semi::Multiply(zero, 3.5f), zero);
  EXPECT_EQ(Semi::Multiply(1.5f, 2.25f), 3.75f);
  EXPECT_EQ(Semi::Add(2.0f, 5.0f), 2.0f);
}

// --- Per-superstep engine equality --------------------------------------------
// Truncated runs: after every superstep prefix k, the compiled engine's vertex
// state must be *identical* (operator==, not approximately equal) to the
// interpreted engine's. At one rank both engines fold per-destination in
// ascending source order, so even floating-point PageRank matches bitwise.

template <typename P, typename MakeProgram>
void CheckPerSuperstepEquality(const EdgeList& el, const Graph& g,
                               MakeProgram make, int max_supersteps,
                               int ranks) {
  rt::EngineConfig config;
  config.num_ranks = ranks;
  config.comm = rt::CommModel::Mpi();
  for (int k = 1; k <= max_supersteps; ++k) {
    vertex::SyncEngine<P> interp(g, config);
    P p1 = make();
    int interp_steps = interp.Run(&p1, k);
    interp.Finish();

    Engine<P> compiled(el, g, config);
    P p2 = make();
    int compiled_steps = compiled.Run(&p2, k);
    compiled.Finish();

    ASSERT_EQ(compiled_steps, interp_steps) << "prefix " << k;
    ASSERT_EQ(compiled.values(), interp.values()) << "prefix " << k;
    if (interp_steps < k) break;  // Both converged; longer prefixes repeat.
  }
}

TEST(PerSuperstepTest, PageRankStateMatchesInterpreterEveryPrefix) {
  EdgeList el = testgraphs::SmallRmat(7, 6, 13);
  Graph g = Graph::FromEdges(el, GraphDirections::kOutOnly);
  CheckPerSuperstepEquality<PageRankProgram>(
      el, g, [&] { return PageRankProgram{&g, 4, 0.15}; }, 5, 1);
}

TEST(PerSuperstepTest, BfsStateMatchesInterpreterEveryPrefix) {
  EdgeList el = testgraphs::SmallRmatUndirected(7, 6, 13);
  Graph g = Graph::FromEdges(el, GraphDirections::kOutOnly);
  CheckPerSuperstepEquality<BfsProgram>(
      el, g, [] { return BfsProgram{0}; },
      static_cast<int>(g.num_vertices()) + 2, 1);
}

TEST(PerSuperstepTest, CcStateMatchesInterpreterEveryPrefix) {
  EdgeList el = testgraphs::SmallRmatUndirected(7, 6, 21);
  Graph g = Graph::FromEdges(el, GraphDirections::kOutOnly);
  CheckPerSuperstepEquality<CcProgram>(el, g, [] { return CcProgram{}; }, 24,
                                       1);
}

TEST(PerSuperstepTest, TriangleListStateMatchesInterpreterEveryPrefix) {
  EdgeList el = testgraphs::SmallRmatOriented(7, 4, 13);
  Graph g = Graph::FromEdges(el, GraphDirections::kOutOnly);
  CheckPerSuperstepEquality<TriangleProgram>(
      el, g, [&] { return TriangleProgram{&g}; }, 2, 1);
}

// The interpreter's list inbox is filled by a merge whose order follows the
// pool's schedule at widths above one (vertexlab merges chunk outboxes as the
// chunks finish), and CF's floating-point fold is order-sensitive. CF equality
// is therefore checked on a one-thread pool, where that merge is ascending.
class OneThreadPool {
 public:
  OneThreadPool() { ThreadPool::Default().Resize(1); }
  ~OneThreadPool() { ThreadPool::Default().Resize(0); }
};

// CF in the combined user+item vertex space, laid out as
// gmat::CollaborativeFiltering and vertex::CollaborativeFiltering lay it out.
struct CfFixture {
  explicit CfFixture(int scale)
      : ratings(testgraphs::SmallRatings(scale).ToGraph()) {
    opt.k = 4;
    opt.iterations = 4;
    edges.num_vertices = ratings.num_users() + ratings.num_items();
    for (VertexId u = 0; u < ratings.num_users(); ++u) {
      for (const auto& e : ratings.UserRatings(u)) {
        edges.edges.push_back({u, ratings.num_users() + e.id});
        edges.edges.push_back({ratings.num_users() + e.id, u});
      }
    }
    graph = Graph::FromEdges(edges, GraphDirections::kOutOnly);
    native::CfInitFactors(ratings.num_users(), opt.k, opt.seed, &init_users);
    native::CfInitFactors(ratings.num_items(), opt.k, opt.seed ^ 0x1234567ull,
                          &init_items);
  }

  CfGdProgram Make() const {
    CfGdProgram p;
    p.ratings = &ratings;
    p.options = opt;
    p.user_count = ratings.num_users();
    p.gamma = opt.learning_rate;
    p.init_users = &init_users;
    p.init_items = &init_items;
    return p;
  }

  BipartiteGraph ratings;
  rt::CfOptions opt;
  EdgeList edges;
  Graph graph;
  std::vector<double> init_users;
  std::vector<double> init_items;
};

TEST(PerSuperstepTest, CfStateMatchesInterpreterEveryPrefix) {
  OneThreadPool one_thread;
  CfFixture cf(8);
  CheckPerSuperstepEquality<CfGdProgram>(
      cf.edges, cf.graph, [&] { return cf.Make(); }, cf.opt.iterations + 1, 1);
}

bool SameBytes(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

// Whole-run CF through the bench dispatcher: gmat's factors and RMSE are the
// interpreter's, byte for byte, at every grid the differential suites use.
class CfLoweringTest : public ::testing::TestWithParam<int> {};

TEST_P(CfLoweringTest, FactorsMatchInterpreterBytewise) {
  OneThreadPool one_thread;
  BipartiteGraph g = testgraphs::SmallRatings(9).ToGraph();
  rt::CfOptions opt;
  opt.k = 4;
  opt.iterations = 4;
  bench::RunConfig config;
  config.num_ranks = GetParam();
  rt::CfResult interp = bench::RunCf(bench::EngineKind::kVertexlab, g, opt,
                                     config);
  rt::CfResult compiled = bench::RunCf(bench::EngineKind::kGmat, g, opt,
                                       config);
  ASSERT_FALSE(interp.user_factors.empty());
  ASSERT_FALSE(interp.item_factors.empty());
  EXPECT_TRUE(SameBytes(compiled.user_factors, interp.user_factors));
  EXPECT_TRUE(SameBytes(compiled.item_factors, interp.item_factors));
  EXPECT_EQ(std::memcmp(&compiled.final_rmse, &interp.final_rmse,
                        sizeof(double)),
            0)
      << compiled.final_rmse << " vs " << interp.final_rmse;
}

// GraphMat's row reduce on the wire, at 4 ranks (a 2×2 grid): each superstep
// ships every sender's (id, factor) message down its grid column and one
// Partial per delivered destination back across its grid row — never one
// message per edge. Exact, so a per-edge or per-tile charge fails it.
TEST(CfLoweringTest, WireBytesAreOnePartialPerDeliveredDestination) {
  CfFixture cf(10);
  bench::RunConfig config;
  config.num_ranks = 4;
  rt::CfResult r = bench::RunCf(bench::EngineKind::kGmat, cf.ratings, cf.opt,
                                config);

  const LoweredMatrix lowered = LoweredMatrix::Build(cf.edges, 4);
  const int side = lowered.side();
  ASSERT_EQ(side, 2);
  const VertexId n = cf.edges.num_vertices;
  std::vector<uint64_t> out_degree(n, 0);
  std::vector<uint64_t> in_degree(n, 0);
  for (const Edge& e : cf.edges.edges) {
    ++out_degree[e.src];
    ++in_degree[e.dst];
  }
  const uint64_t message_bytes = 4 + 4 + 8 * cf.opt.k;  // id + (id, factor).
  const uint64_t partial_bytes = 4 + 8 * cf.opt.k;      // id + gradient.
  uint64_t per_step = 0;
  for (int i = 0; i < side; ++i) {
    uint64_t senders = 0;
    uint64_t delivered = 0;
    for (VertexId v = lowered.matrix().RangeBegin(i);
         v < lowered.matrix().RangeEnd(i); ++v) {
      senders += out_degree[v] > 0;
      delivered += in_degree[v] > 0;
    }
    ASSERT_GT(delivered, 0u);
    per_step += (side - 1) * senders * message_bytes;    // Broadcast.
    per_step += (side - 1) * delivered * partial_bytes;  // Row reduce.
  }
  // Supersteps 0..iterations-1 broadcast; the last one only applies.
  EXPECT_EQ(r.metrics.bytes_sent, cf.opt.iterations * per_step);
}

// The reduce inbox is two Partial buffers (current and next superstep), one
// slot per vertex, and at one rank nothing else is a message buffer.
TEST(CfLoweringTest, ModeledMemoryChargesBothPartialBuffers) {
  CfFixture cf(9);
  rt::CfResult r = bench::RunCf(bench::EngineKind::kGmat, cf.ratings, cf.opt,
                                bench::RunConfig{});
  const uint64_t slot_bytes = sizeof(std::vector<double>) + 8 * cf.opt.k;
  EXPECT_EQ(r.metrics.memory_msgbuf_bytes,
            2 * uint64_t{cf.edges.num_vertices} * slot_bytes);
}

INSTANTIATE_TEST_SUITE_P(Grids, CfLoweringTest, ::testing::Values(1, 4, 16),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return "ranks" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace maze::gmat
