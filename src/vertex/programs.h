// The in-tree vertex programs, shared by the interpreting engine (SyncEngine,
// vertex/algorithms.cc) and the compiling engine (gmat, which lowers the same
// Program structs to semiring SpMV). Keeping one definition per algorithm is
// what makes the gmat differential tests meaningful: both engines execute the
// *identical* Compute/Combine functions, so any divergence is the engine's.
#ifndef MAZE_VERTEX_PROGRAMS_H_
#define MAZE_VERTEX_PROGRAMS_H_

#include <algorithm>
#include <utility>
#include <vector>

#include "core/bipartite.h"
#include "core/graph.h"
#include "core/types.h"
#include "rt/algo.h"
#include "util/check.h"
#include "util/cuckoo_set.h"
#include "vertex/engine.h"

namespace maze::vertex {

// --- PageRank: Algorithm 1 of the paper --------------------------------------

struct PageRankProgram {
  using Value = double;
  using Message = double;
  static constexpr bool kCombinable = true;
  static constexpr bool kAllActive = true;

  const Graph* graph = nullptr;
  int iterations = 0;
  double jump = 0.3;

  void Init(VertexId, const Graph&, Value* value) { *value = 1.0; }

  bool Compute(Context<Message>* ctx, VertexId v, Value* value,
               const Message* msgs, size_t count) {
    if (ctx->superstep() > 0) {
      double sum = count > 0 ? msgs[0] : 0.0;
      *value = jump + (1.0 - jump) * sum;
    }
    if (ctx->superstep() < iterations) {
      EdgeId deg = graph->OutDegree(v);
      if (deg > 0) ctx->SendToOutNeighbors(*value / static_cast<double>(deg));
      return true;
    }
    return false;
  }

  static Message Combine(const Message& a, const Message& b) { return a + b; }
  static size_t MessageWireBytes(const Message&) { return sizeof(Message); }
};

// --- BFS: Algorithm 2 ---------------------------------------------------------

struct BfsProgram {
  using Value = uint32_t;
  using Message = uint32_t;
  static constexpr bool kCombinable = true;
  static constexpr bool kAllActive = false;
  // Level-synchronous: every frontier member broadcasts the same distance, so
  // any one message equals the min-fold of all of them. Licenses the gmat
  // engine's pull-style early-exit kernel (GraphBLAS's ANY operator).
  static constexpr bool kAnyCombine = true;
  // GraphBLAS-style complemented mask (Ligra's `cond`): once a vertex holds a
  // finite distance it can never improve — later supersteps only carry larger
  // candidates — so Compute is a no-op there forever (and the property is
  // monotone: a converged vertex stays converged). Licenses the gmat engine's
  // fused kernel to skip converged rows outright, native's visited-skip.
  static constexpr bool kConvergedSkip = true;
  static bool Converged(const Value& value) {
    return value != kInfiniteDistance;
  }

  VertexId source = 0;

  void Init(VertexId v, const Graph&, Value* value) {
    *value = (v == source) ? 0 : kInfiniteDistance;
  }

  bool Compute(Context<Message>* ctx, VertexId v, Value* value,
               const Message* msgs, size_t count) {
    if (ctx->superstep() == 0) {
      if (v == source) ctx->SendToOutNeighbors(0);
      return false;
    }
    if (count > 0) {
      uint32_t candidate = msgs[0] + 1;
      if (candidate < *value) {
        *value = candidate;
        ctx->SendToOutNeighbors(*value);
      }
    }
    return false;
  }

  static Message Combine(const Message& a, const Message& b) {
    return std::min(a, b);
  }
  static size_t MessageWireBytes(const Message&) { return sizeof(Message); }
};

// --- Triangle Counting --------------------------------------------------------
// Superstep 0: each vertex ships its out-neighborhood to its out-neighbors.
// Superstep 1: each vertex intersects received lists against its own
// neighborhood, held in a cuckoo hash (the GraphLab data-structure optimization
// the paper credits in §5.3(4)).

struct TriangleProgram {
  using Value = uint64_t;
  using Message = std::vector<VertexId>;
  static constexpr bool kCombinable = false;
  static constexpr bool kAllActive = true;

  const Graph* graph = nullptr;

  void Init(VertexId, const Graph&, Value* value) { *value = 0; }

  bool Compute(Context<Message>* ctx, VertexId v, Value* value,
               const Message* msgs, size_t count) {
    if (ctx->superstep() == 0) {
      const auto neighbors = graph->OutNeighbors(v);
      if (!neighbors.empty()) {
        ctx->SendToOutNeighbors(Message(neighbors.begin(), neighbors.end()));
      }
      return true;
    }
    if (count > 0) {
      const auto own = graph->OutNeighbors(v);
      CuckooSet own_set(own.size());
      for (VertexId w : own) own_set.Insert(w);
      uint64_t found = 0;
      for (size_t i = 0; i < count; ++i) {
        for (VertexId w : msgs[i]) {
          if (own_set.Contains(w)) ++found;
        }
      }
      *value += found;
    }
    return false;
  }

  static size_t MessageWireBytes(const Message& m) {
    return 4 + m.size() * sizeof(VertexId);
  }
};

// --- Collaborative Filtering (Gradient Descent) --------------------------------
// Users and items share one vertex space: users [0, U), items [U, U + I). Every
// superstep each vertex broadcasts its factor vector (Table 1's 8K-byte messages)
// and integrates the factors received from the opposite side using equations
// (11)/(12).
//
// The update is a sum of one gradient term per message, but two messages cannot
// be combined into one (each term needs the receiver's factor and the edge's
// rating), so the program is not kCombinable. It declares kReduceOnDelivery
// instead: Compute is "zero a Partial, Gather each message in order, Apply", so
// the gmat engine can fold every message into the receiver's Partial as it is
// delivered (GraphMat's PROCESS_MESSAGE + REDUCE) instead of queueing it, and
// the interpreter, which keeps its per-edge message copies, runs the same
// arithmetic from this one definition.

struct CfGdProgram {
  using Value = std::vector<double>;
  // (sender id, sender factor) — the receiver looks up the edge's rating.
  using Message = std::pair<VertexId, std::vector<double>>;
  // The receiver's gradient sum over the messages folded so far.
  using Partial = std::vector<double>;
  static constexpr bool kCombinable = false;
  static constexpr bool kAllActive = true;
  static constexpr bool kReduceOnDelivery = true;

  const BipartiteGraph* ratings = nullptr;
  rt::CfOptions options;
  VertexId user_count = 0;
  double gamma = 0.0;
  // Shared deterministic initialization (same arrays native uses), row-major.
  const std::vector<double>* init_users = nullptr;
  const std::vector<double>* init_items = nullptr;

  void Init(VertexId v, const Graph&, Value* value) {
    const std::vector<double>& src = v < user_count ? *init_users : *init_items;
    size_t row = v < user_count ? v : v - user_count;
    value->assign(src.begin() + static_cast<ptrdiff_t>(row * options.k),
                  src.begin() + static_cast<ptrdiff_t>((row + 1) * options.k));
  }

  float RatingFor(VertexId me, VertexId other) const {
    // Adjacency lists are sorted by id, so the edge lookup is a binary search.
    auto adj = me < user_count ? ratings->UserRatings(me)
                               : ratings->ItemRatings(me - user_count);
    VertexId key = me < user_count ? other - user_count : other;
    auto it = std::lower_bound(
        adj.begin(), adj.end(), key,
        [](const BipartiteGraph::Entry& e, VertexId id) { return e.id < id; });
    MAZE_CHECK(it != adj.end() && it->id == key);
    return it->rating;
  }

  void ZeroPartial(Partial* grad) const { grad->assign(options.k, 0.0); }

  // Adds one message's gradient term for receiver `v` (holding `value`).
  void Gather(VertexId v, const Value& value, const Message& msg,
              Partial* grad) const {
    const auto& [sender, factor] = msg;
    double lambda = v < user_count ? options.lambda_p : options.lambda_q;
    double rating = RatingFor(v, sender);
    double dot = 0;
    for (int d = 0; d < options.k; ++d) dot += value[d] * factor[d];
    double err = rating - dot;
    for (int d = 0; d < options.k; ++d) {
      (*grad)[d] += err * factor[d] - lambda * value[d];
    }
  }

  // Steps along the folded gradient (`grad` is null when nothing was
  // delivered), then broadcasts the factor while iterations remain.
  bool Apply(Context<Message>* ctx, VertexId v, Value* value,
             const Partial* grad) {
    if (ctx->superstep() > 0 && grad != nullptr) Descend(*grad, value);
    return Broadcast(ctx, v, *value);
  }

  // Apply over a locally folded Partial. Two layout choices keep vertexlab CF
  // at its previous speed (each measured ~5% slower otherwise): the Partial
  // is freed before the broadcast copy is allocated, and Compute is forced
  // inline into the interpreter's vertex loop, which GCC declines to do.
  [[gnu::always_inline]] inline bool Compute(Context<Message>* ctx,
                                             VertexId v, Value* value,
                                             const Message* msgs,
                                             size_t count) {
    if (ctx->superstep() > 0 && count > 0) {
      Partial grad;
      ZeroPartial(&grad);
      for (size_t i = 0; i < count; ++i) Gather(v, *value, msgs[i], &grad);
      Descend(grad, value);
    }
    return Broadcast(ctx, v, *value);
  }

  void Descend(const Partial& grad, Value* value) const {
    for (int d = 0; d < options.k; ++d) (*value)[d] += gamma * grad[d];
  }

  bool Broadcast(Context<Message>* ctx, VertexId v, const Value& value) const {
    if (ctx->superstep() < options.iterations) {
      ctx->SendToOutNeighbors(Message{v, value});
      return true;
    }
    return false;
  }

  static size_t MessageWireBytes(const Message& m) {
    return 4 + m.second.size() * sizeof(double);
  }
  static size_t PartialWireBytes(const Partial& grad) {
    return grad.size() * sizeof(double);
  }
};

// --- Connected Components (extension) -------------------------------------------
// Min-label propagation: superstep 0 broadcasts every vertex's own id; later
// supersteps shrink labels from combined ($MIN) messages and re-broadcast on
// improvement, exactly the BFS activity pattern.

struct CcProgram {
  using Value = VertexId;
  using Message = VertexId;
  static constexpr bool kCombinable = true;
  static constexpr bool kAllActive = false;

  void Init(VertexId v, const Graph&, Value* value) { *value = v; }

  bool Compute(Context<Message>* ctx, VertexId, Value* value,
               const Message* msgs, size_t count) {
    if (ctx->superstep() == 0) {
      ctx->SendToOutNeighbors(*value);
      return false;
    }
    if (count > 0 && msgs[0] < *value) {
      *value = msgs[0];
      ctx->SendToOutNeighbors(*value);
    }
    return false;
  }

  static Message Combine(const Message& a, const Message& b) {
    return std::min(a, b);
  }
  static size_t MessageWireBytes(const Message&) { return sizeof(Message); }
};

}  // namespace maze::vertex

#endif  // MAZE_VERTEX_PROGRAMS_H_
