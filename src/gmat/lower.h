// The vertex→matrix lowering (the GraphMat recipe): one superstep of a vertex
// Program is a generalized SpMV y = A^T ⊗.⊕ x over the 2-D-tiled adjacency
// matrix, where
//   - x is the sparse frontier of broadcast payloads (frontier.h),
//   - ⊗ is "read the source's payload" (broadcast semantics: every out-edge
//     carries the same message, so Multiply is projection onto the x operand),
//   - ⊕ is the Program's Combine for combinable programs, the Program's
//     Gather fold for reduce-on-delivery ones (CF), or free-monoid
//     concatenation (message lists) for the rest (triangle counting),
//   - the additive identity is *absence*: a has-bit per destination stands in
//     for ⊕'s identity element, and a source outside the frontier is the
//     annihilator of ⊗ (it contributes nothing to any destination).
//
// ProgramSemiring packages that adapter; gmat_lower_test checks its algebra
// (identity/annihilator laws) and that one lowered superstep reproduces the
// interpreted SyncEngine superstep message-for-message.
//
// Determinism invariant (load-bearing for the differential + fault suites):
// every kernel combines into a destination in ascending global source order —
// tile rows store sources ascending, the per-tile transpose stores them
// ascending per column, and tiles within a grid row are processed serially in
// ascending column order. This is the same per-destination order the
// interpreted engine produces at one rank, which is what makes vertexlab-vs-
// gmat value comparisons exact rather than approximate.
#ifndef MAZE_GMAT_LOWER_H_
#define MAZE_GMAT_LOWER_H_

#include <bit>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/edge_list.h"
#include "core/types.h"
#include "gmat/frontier.h"
#include "matrix/dist_matrix.h"
#include "util/bitvector.h"
#include "util/thread_pool.h"

namespace maze::gmat {

// Maps a vertex Program's message algebra onto (⊕, ⊗) with explicit
// absence-as-identity. Only combinable programs have a ⊕; reduce-on-delivery
// programs fold through their Gather (LowerTileRowReduce below) and the rest
// lower to the free monoid (LowerTileRowList below).
// Detects P::kAnyCombine: the Program's promise that every message broadcast
// in one superstep is byte-identical, so ⊕ acts as GraphBLAS's ANY operator
// and any single message equals the full fold. Level-synchronous BFS qualifies
// — all frontier members broadcast the same distance — which licenses the
// pull-style early-exit kernel below (the semiring form of direction-optimized
// BFS) and lets it load the payload once per tile.
template <typename P, typename = void>
struct AnyCombineTrait : std::false_type {};
template <typename P>
struct AnyCombineTrait<P, std::void_t<decltype(P::kAnyCombine)>>
    : std::bool_constant<P::kAnyCombine> {};

// Detects P::kConvergedSkip + P::Converged(value): the Program's promise that
// Compute on a converged vertex is a no-op in every later superstep (no value
// change, no sends) and that convergence is monotone. This is GraphBLAS's
// complemented mask / Ligra's `cond`. The engine may then skip converged rows
// in its *fused* delivery+apply kernel — delivering to such a row followed by
// a no-op apply is indistinguishable from not scanning it at all — which is
// exactly native BFS's visited-skip, recovered without breaking the vertex
// abstraction. Pure-delivery kernels in this file never mask: their contract
// is the interpreter's full inbox.
template <typename P, typename = void>
struct ConvergedSkipTrait : std::false_type {};
template <typename P>
struct ConvergedSkipTrait<P, std::void_t<decltype(P::kConvergedSkip)>>
    : std::bool_constant<P::kConvergedSkip> {};

// Detects P::kReduceOnDelivery: the Program's promise that Compute over a
// message list equals "ZeroPartial, Gather each message in list order, Apply"
// (vertex/engine.h). Messages then need not be kept: LowerTileRowReduce folds
// each one into the destination's Partial as it is delivered, and the apply
// phase calls Apply on the fold.
template <typename P, typename = void>
struct ReduceTrait : std::false_type {};
template <typename P>
struct ReduceTrait<P, std::void_t<decltype(P::kReduceOnDelivery)>>
    : std::bool_constant<P::kReduceOnDelivery> {};

template <typename P>
struct ProgramSemiring {
  using Message = typename P::Message;

  // ⊕-accumulate `m` into the slot for `dst`. `first` is true when the slot
  // still holds the identity (no message yet): the identity law `id ⊕ m = m`
  // is implemented by overwriting, never by evaluating Combine against a
  // made-up zero, so Programs without a representable identity (min over
  // uint32_t, say) stay exact.
  static void Accumulate(Message* slot, bool first, const Message& m) {
    *slot = first ? m : P::Combine(*slot, m);
  }
};

// Per-tile transpose: CSC over the tile's source columns, used by the
// column-driven sparse kernel (SpMSpV) so a small frontier only touches its own
// columns instead of scanning every destination row.
struct TileTranspose {
  std::vector<EdgeId> col_offsets;  // col_end - col_begin + 1 entries.
  std::vector<VertexId> dsts;       // Global destination ids, ascending per col.

  size_t MemoryBytes() const {
    return col_offsets.size() * sizeof(EdgeId) + dsts.size() * sizeof(VertexId);
  }
};

// The compiled form of the graph: the matblas 2-D tiling plus a per-tile
// transpose. Both orientations exist so the engine can pick row-driven (dense
// frontier) or column-driven (sparse frontier) kernels per superstep without
// rebuilding anything.
class LoweredMatrix {
 public:
  static LoweredMatrix Build(const EdgeList& edges, int num_ranks);

  const matrix::DistMatrix& matrix() const { return m_; }
  int side() const { return m_.grid().side; }
  int RankOf(int row, int col) const { return m_.grid().RankOf(row, col); }
  // The diagonal rank owning vertex-range d (vector segments live on the
  // diagonal, as in matblas).
  int DiagRank(int d) const { return m_.grid().RankOf(d, d); }

  const matrix::Tile& tile(int row, int col) const { return m_.tile(row, col); }
  const TileTranspose& tileT(int row, int col) const {
    return transpose_[m_.grid().RankOf(row, col)];
  }

  size_t MemoryBytes() const;

 private:
  matrix::DistMatrix m_;
  std::vector<TileTranspose> transpose_;
};

// --- Tile kernels -------------------------------------------------------------
// All kernels deliver into (acc, has) with a test-and-set on the destination's
// has-bit as the only bit write: destination rows are private to one grid row,
// but adjacent segments can share 64-bit words at the boundary, so by default
// the RMW is atomic (TSan-clean without per-destination locks). When every
// segment boundary is 64-aligned — always at one rank — no two workers ever
// touch the same word and the caller passes `atomic_bits = false` to use plain
// loads/stores (an uncontended atomic RMW still costs several times a store,
// and there is one per delivery).

// First-delivery test: returns true when `dst` had no message yet, marking it.
inline bool FirstDelivery(Bitvector* has, VertexId dst, bool atomic_bits) {
  if (atomic_bits) return has->TestAndSetAtomic(dst);
  if (has->Test(dst)) return false;
  has->Set(dst);
  return true;
}

// Row-driven, frontier == all broadcasters: branch-free gather down each tile
// row. The first source initializes the ⊕-chain (identity law), so at one rank
// a PageRank row reduces in exactly native's ascending-source order.
template <typename P>
void LowerTileRowDense(const matrix::Tile& t,
                       const std::vector<typename P::Message>& payload,
                       std::vector<typename P::Message>* acc, Bitvector* has,
                       bool atomic_bits = true) {
  using Message = typename P::Message;
  ParallelFor(t.num_rows(), 256, [&](uint64_t lo, uint64_t hi) {
    // Raw views hoisted into locals so the delivery stores below provably
    // don't alias them — they stay in registers instead of being reloaded
    // from lambda captures every row (a measurable per-row tax; see the
    // matching note in engine.h's apply phase).
    const EdgeId* const off = t.offsets.data();
    const VertexId* const srcs = t.sources.data();
    const Message* const pay = payload.data();
    Message* const out = acc->data();
    Bitvector* const hb = has;
    const VertexId row0 = t.row_begin;
    for (VertexId r = static_cast<VertexId>(lo); r < static_cast<VertexId>(hi);
         ++r) {
      EdgeId e = off[r];
      const EdgeId e_end = off[r + 1];
      if (e == e_end) continue;
      Message sum = pay[srcs[e]];
      for (++e; e < e_end; ++e) {
        sum = P::Combine(sum, pay[srcs[e]]);
      }
      const VertexId dst = row0 + r;
      ProgramSemiring<P>::Accumulate(&out[dst],
                                     FirstDelivery(hb, dst, atomic_bits), sum);
    }
  });
}

// Row-driven with a frontier mask: sources outside x are the ⊗-annihilator and
// are skipped. Mid-density frontiers (CC after the first few supersteps).
template <typename P>
void LowerTileRowMasked(const matrix::Tile& t, const Bitvector& x_has,
                        const std::vector<typename P::Message>& payload,
                        std::vector<typename P::Message>* acc, Bitvector* has,
                        bool atomic_bits = true) {
  using Message = typename P::Message;
  ParallelFor(t.num_rows(), 256, [&](uint64_t lo, uint64_t hi) {
    // Hoisted raw views; see LowerTileRowDense.
    const EdgeId* const off = t.offsets.data();
    const VertexId* const srcs = t.sources.data();
    const uint64_t* const xw = x_has.words();
    const Message* const pay = payload.data();
    Message* const out = acc->data();
    Bitvector* const hb = has;
    const VertexId row0 = t.row_begin;
    for (VertexId r = static_cast<VertexId>(lo); r < static_cast<VertexId>(hi);
         ++r) {
      Message sum{};
      bool got = false;
      const EdgeId e_end = off[r + 1];
      for (EdgeId e = off[r]; e < e_end; ++e) {
        const VertexId src = srcs[e];
        if (((xw[src >> 6] >> (src & 63)) & 1u) == 0) continue;
        if (got) {
          sum = P::Combine(sum, pay[src]);
        } else {
          sum = pay[src];
          got = true;
        }
      }
      if (!got) continue;
      const VertexId dst = row0 + r;
      ProgramSemiring<P>::Accumulate(&out[dst],
                                     FirstDelivery(hb, dst, atomic_bits), sum);
    }
  });
}

// Column-driven SpMSpV for small frontiers (BFS wavefronts): only the frontier
// sources' columns are walked. `frontier` is the ascending list of frontier
// vertices that fall in this tile's column range. Serial within the tile —
// grid rows supply the rank-level parallelism — so deliveries into a
// destination happen in ascending source order here too.
template <typename P>
void LowerTileColSparse(const TileTranspose& tt, VertexId col_begin,
                        const uint32_t* frontier, size_t frontier_count,
                        const std::vector<typename P::Message>& payload,
                        std::vector<typename P::Message>* acc, Bitvector* has,
                        bool atomic_bits = true) {
  using Message = typename P::Message;
  // Hoisted raw views; see LowerTileRowDense.
  const EdgeId* const coff = tt.col_offsets.data();
  const VertexId* const dsts = tt.dsts.data();
  const Message* const pay = payload.data();
  Message* const out = acc->data();
  for (size_t i = 0; i < frontier_count; ++i) {
    const VertexId src = frontier[i];
    const VertexId c = src - col_begin;
    const EdgeId e_end = coff[c + 1];
    for (EdgeId e = coff[c]; e < e_end; ++e) {
      const VertexId dst = dsts[e];
      ProgramSemiring<P>::Accumulate(&out[dst],
                                     FirstDelivery(has, dst, atomic_bits),
                                     pay[src]);
    }
  }
}

// Pull-style kernel for ANY-combine programs on dense frontiers: each
// destination row scans its sources in ascending order and stops at the first
// frontier member — under the kAnyCombine contract that one message IS the
// full ⊕-fold. On the big middle levels of a BFS this is the bottom-up sweep
// of direction-optimizing BFS, recovered inside the semiring abstraction: most
// rows hit a frontier in-neighbor within a handful of probes. Because the
// contract makes every frontier payload of the superstep byte-identical, the
// message is loaded once up front and the row loop degenerates to a pure
// membership probe — no random payload gather per delivered row.
template <typename P>
void LowerTileRowAny(const matrix::Tile& t, const Bitvector& x_has,
                     const std::vector<typename P::Message>& payload,
                     std::vector<typename P::Message>* acc, Bitvector* has,
                     bool atomic_bits = true) {
  using Message = typename P::Message;
  const uint64_t* const xw = x_has.words();
  const size_t num_words = x_has.word_count();
  size_t w0 = 0;
  while (w0 < num_words && xw[w0] == 0) ++w0;
  if (w0 == num_words) return;  // Empty frontier: y = identity everywhere.
  const Message msg =
      payload[w0 * 64 + static_cast<size_t>(std::countr_zero(xw[w0]))];
  ParallelFor(t.num_rows(), 256, [&](uint64_t lo, uint64_t hi) {
    // Hoisted raw views; see LowerTileRowDense. The x_has probe is the inner
    // loop here, so it tests the raw word array directly.
    const EdgeId* const off = t.offsets.data();
    const VertexId* const srcs = t.sources.data();
    Message* const out = acc->data();
    Bitvector* const hb = has;
    const VertexId row0 = t.row_begin;
    for (VertexId r = static_cast<VertexId>(lo); r < static_cast<VertexId>(hi);
         ++r) {
      const VertexId dst = row0 + r;
      // An earlier tile in this grid row already delivered: done. (Plain
      // read is only safe when no other worker shares the word.)
      if (!atomic_bits && hb->Test(dst)) continue;
      const EdgeId e_end = off[r + 1];
      for (EdgeId e = off[r]; e < e_end; ++e) {
        const VertexId src = srcs[e];
        if (((xw[src >> 6] >> (src & 63)) & 1u) == 0) continue;
        ProgramSemiring<P>::Accumulate(&out[dst],
                                       FirstDelivery(hb, dst, atomic_bits),
                                       msg);
        break;
      }
    }
  });
}

// Reduce-on-delivery lowering (GraphMat's PROCESS_MESSAGE + REDUCE): y[dst]
// is the Program's Partial, folded from the frontier in-neighbors' payloads in
// ascending source order. The first delivery zeroes the slot, so a destination
// that hears nothing keeps its has-bit clear and its slot untouched. The fold
// order is the list kernel's queue order, so Apply over the Partial is Compute
// over the list, bit for bit. Gather reads the destination's current value,
// which no other phase writes while the SpMV runs.
template <typename P>
void LowerTileRowReduce(const P& prog, const matrix::Tile& t,
                        const Bitvector& x_has,
                        const std::vector<typename P::Message>& payload,
                        const std::vector<typename P::Value>& values,
                        std::vector<typename P::Partial>* acc, Bitvector* has,
                        bool atomic_bits = true) {
  using Message = typename P::Message;
  using Value = typename P::Value;
  using Partial = typename P::Partial;
  ParallelFor(t.num_rows(), 64, [&](uint64_t lo, uint64_t hi) {
    // Hoisted raw views; see LowerTileRowDense.
    const EdgeId* const off = t.offsets.data();
    const VertexId* const srcs = t.sources.data();
    const uint64_t* const xw = x_has.words();
    const Message* const pay = payload.data();
    const Value* const vals = values.data();
    Partial* const out = acc->data();
    Bitvector* const hb = has;
    const VertexId row0 = t.row_begin;
    for (VertexId r = static_cast<VertexId>(lo); r < static_cast<VertexId>(hi);
         ++r) {
      const VertexId dst = row0 + r;
      bool started = false;
      const EdgeId e_end = off[r + 1];
      for (EdgeId e = off[r]; e < e_end; ++e) {
        const VertexId src = srcs[e];
        if (((xw[src >> 6] >> (src & 63)) & 1u) == 0) continue;
        if (!started) {
          if (FirstDelivery(hb, dst, atomic_bits)) prog.ZeroPartial(&out[dst]);
          started = true;
        }
        prog.Gather(dst, vals[dst], pay[src], &out[dst]);
      }
    }
  });
}

// Free-monoid lowering for programs that neither combine nor fold on delivery
// (triangle counting): y[dst] is the list of messages in ascending source
// order (matching the interpreted engine's single-rank delivery order). Lists
// for a destination are only touched by its own grid row, so push_back needs no
// lock; the has-bit marks activation.
template <typename P>
void LowerTileRowList(const matrix::Tile& t, const Bitvector& x_has,
                      const std::vector<typename P::Message>& payload,
                      std::vector<std::vector<typename P::Message>>* lists,
                      Bitvector* has, bool atomic_bits = true) {
  using Message = typename P::Message;
  ParallelFor(t.num_rows(), 64, [&](uint64_t lo, uint64_t hi) {
    // Hoisted raw views; see LowerTileRowDense.
    const EdgeId* const off = t.offsets.data();
    const VertexId* const srcs = t.sources.data();
    const uint64_t* const xw = x_has.words();
    const Message* const pay = payload.data();
    std::vector<Message>* const out = lists->data();
    Bitvector* const hb = has;
    const VertexId row0 = t.row_begin;
    for (VertexId r = static_cast<VertexId>(lo); r < static_cast<VertexId>(hi);
         ++r) {
      const VertexId dst = row0 + r;
      const EdgeId e_end = off[r + 1];
      for (EdgeId e = off[r]; e < e_end; ++e) {
        const VertexId src = srcs[e];
        if (((xw[src >> 6] >> (src & 63)) & 1u) == 0) continue;
        out[dst].push_back(pay[src]);
        if (atomic_bits) {
          hb->SetAtomic(dst);
        } else {
          hb->Set(dst);
        }
      }
    }
  });
}

}  // namespace maze::gmat

#endif  // MAZE_GMAT_LOWER_H_
