// gmat: the GraphMat-style compiling engine (PAPERS.md; same authors as the
// source paper). It accepts the exact vertex Program concept the interpreted
// vertexlab engine runs (vertex/engine.h), but instead of interpreting
// per-vertex sends it *lowers* each superstep to a generalized semiring SpMV
// over the 2-D-tiled adjacency matrix (gmat/lower.h):
//
//   superstep =  apply phase   : Compute() over active vertices on the
//                                diagonal ranks, producing the frontier x
//                ⊕.⊗ SpMV      : y = A^T x over the side×side tile grid,
//                                ⊕ = Program::Combine, the Program's Gather
//                                fold (kReduceOnDelivery), or list concat
//                swap          : y becomes next superstep's inbox
//
// The thesis (and the bench_gmat_ninja_gap gate): the lowered inner loops are
// tight gathers over CSR tiles — the same shape as native's hand-written
// kernels — so the engine should land within ~1.2× of the native what-if bound
// where the message-shuffling interpreter sits much further out.
//
// Modeled-cluster semantics mirror matblas (the other 2-D engine): vector
// segments live on the diagonal ranks; a superstep broadcasts x segments down
// their grid columns, runs tiles (grid rows concurrent, tiles within a row
// serial in ascending column order), then reduces y segments across grid rows.
// All wire charges are pure functions of the frontier and inbox contents, so
// accounting is schedule-invariant (rank_parallel_test) and byte-identical
// under transport fault plans (fault_injection_test).
#ifndef MAZE_GMAT_ENGINE_H_
#define MAZE_GMAT_ENGINE_H_

#include <algorithm>
#include <atomic>
#include <bit>
#include <utility>
#include <vector>

#include "core/edge_list.h"
#include "core/graph.h"
#include "gmat/frontier.h"
#include "gmat/lower.h"
#include "obs/obs.h"
#include "rt/algo.h"
#include "rt/rank_exec.h"
#include "rt/sim_clock.h"
#include "util/bitvector.h"
#include "util/check.h"
#include "util/thread_pool.h"
#include "util/timer.h"
#include "vertex/engine.h"

namespace maze::gmat {

// One inbox slot per vertex: the combined Message for combinable programs, the
// folded Partial for reduce-on-delivery ones (unused by list programs).
template <typename P, bool = ReduceTrait<P>::value>
struct InboxSlot {
  using type = typename P::Message;
};
template <typename P>
struct InboxSlot<P, true> {
  using type = typename P::Partial;
};

// Executes vertex Programs by superstep-at-a-time lowering to semiring SpMV.
// Interface-compatible with vertex::SyncEngine so the two can be compared
// per-superstep (gmat_lower_test) and per-run (cross_engine_test).
template <typename P>
class Engine {
 public:
  using Value = typename P::Value;
  using Message = typename P::Message;

  // `edges` is the same edge list `g` was built from; the engine compiles it
  // into the 2-D tiling while using `g` for Program::Init and out-degrees.
  // `config.num_ranks` must be a perfect square (CombBLAS's constraint,
  // rounded by bench::MakeConfig).
  Engine(const EdgeList& edges, const Graph& g, const rt::EngineConfig& config)
      : g_(g),
        config_(config),
        clock_(config.num_ranks, config.comm, config.trace, config.faults),
        lowered_(LoweredMatrix::Build(edges, config.num_ranks)) {}

  // Runs `program` for at most `max_supersteps`. Returns executed supersteps.
  int Run(P* program, int max_supersteps);

  const std::vector<Value>& values() const { return values_; }
  rt::RunMetrics Finish() { return clock_.Finish(kIntraRankUtilization); }
  rt::SimClock* clock() { return &clock_; }
  const LoweredMatrix& lowered() const { return lowered_; }

 private:
  static constexpr bool kCombinable = P::kCombinable;
  static constexpr bool kReduce = ReduceTrait<P>::value;
  static_assert(!(kCombinable && kReduce),
                "a Program combines messages or folds them, not both");
  using Slot = typename InboxSlot<P>::type;

  // One vertex of the apply phase: feed the inbox to Compute, capture its
  // broadcast into the frontier x, and collect targeted sends. Takes raw
  // views (not the engine's containers) so callers can hoist them into
  // registers, and is forced inline because it sits on three hot call sites
  // that GCC's cost model otherwise declines to inline — capture reloads and
  // the unshared call are each worth ~4ns/vertex (bench_gmat_ninja_gap).
  [[gnu::always_inline]] static inline void ApplyVertex(
      P* prog, vertex::Context<Message>* ctx, VertexId v,
      const uint64_t* cur_has_w, const Slot* cur_acc_p,
      const std::vector<Message>* cur_list_p, Value* values_p,
      Message* x_values_p, Bitvector* x_has_p, const EdgeId* out_off,
      bool atomic_x, std::vector<std::pair<VertexId, Message>>* chunk_out,
      bool* local_more) {
    if constexpr (kReduce) {
      const bool delivered = (cur_has_w[v >> 6] >> (v & 63)) & 1u;
      ctx->Reset();
      *local_more |= prog->Apply(ctx, v, &values_p[v],
                                 delivered ? &cur_acc_p[v] : nullptr);
    } else {
      const Message* msgs = nullptr;
      size_t count = 0;
      if constexpr (kCombinable) {
        if ((cur_has_w[v >> 6] >> (v & 63)) & 1u) {
          msgs = &cur_acc_p[v];
          count = 1;
        }
      } else {
        msgs = cur_list_p[v].data();
        count = cur_list_p[v].size();
      }
      ctx->Reset();
      *local_more |= prog->Compute(ctx, v, &values_p[v], msgs, count);
    }
    if (ctx->send_all_ && out_off[v + 1] > out_off[v]) {
      x_values_p[v] = std::move(ctx->payload_);
      if (atomic_x) {
        x_has_p->SetAtomic(v);
      } else {
        x_has_p->Set(v);
      }
    }
    for (auto& [dst, msg] : ctx->targeted_) {
      chunk_out->emplace_back(dst, std::move(msg));
    }
  }

  // One vertex of the fused delivery+apply path. Under kAnyCombine the folded
  // inbox for a delivered vertex is exactly the (byte-identical) broadcast
  // payload, so the *next* superstep's Compute can run at first-delivery time
  // inside the ANY kernel — GraphMat's fused apply-scatter, which removes the
  // separate apply sweep native never pays for. ctx->superstep_ must already
  // be the consuming superstep's index.
  [[gnu::always_inline]] static inline void FusedApplyVertex(
      P* prog, vertex::Context<Message>* ctx, VertexId dst, const Message& msg,
      Value* values_p, Message* x2_values_p, Bitvector* x2_has_p,
      const EdgeId* out_off,
      std::vector<std::pair<VertexId, Message>>* chunk_out) {
    ctx->Reset();
    prog->Compute(ctx, dst, &values_p[dst], &msg, 1);
    if (ctx->send_all_ && out_off[dst + 1] > out_off[dst]) {
      x2_values_p[dst] = std::move(ctx->payload_);
      x2_has_p->Set(dst);
    }
    for (auto& [t, m] : ctx->targeted_) {
      chunk_out->emplace_back(t, std::move(m));
    }
  }

  // Compiled kernels keep nearly every core on useful gathers; a notch below
  // native's hand-scheduled loops, well above the interpreter.
  static constexpr double kIntraRankUtilization = 0.95;
  // A frontier this sparse (< n/8 broadcasters) switches the combinable path
  // to the column-driven SpMSpV kernel. Pure function of the frontier, so the
  // kernel choice is identical across schedules.
  static constexpr uint64_t kSparseDenominator = 8;

  const Graph& g_;
  rt::EngineConfig config_;
  rt::SimClock clock_;
  LoweredMatrix lowered_;
  std::vector<Value> values_;
};

template <typename P>
int Engine<P>::Run(P* program, int max_supersteps) {
  const VertexId n = g_.num_vertices();
  const int side = lowered_.side();
  const matrix::DistMatrix& m = lowered_.matrix();

  values_.resize(n);
  for (VertexId v = 0; v < n; ++v) program->Init(v, g_, &values_[v]);

  // Vertices that broadcast when they send at all; the frontier equals this
  // set exactly on all-active broadcast supersteps, which is what licenses the
  // branch-free dense kernel.
  VertexId broadcasters = 0;
  for (VertexId v = 0; v < n; ++v) {
    if (g_.OutDegree(v) > 0) ++broadcasters;
  }

  // Double-buffered inboxes: a slot + has-bit per vertex for combinable and
  // reduce-on-delivery programs, message lists (the interpreter's shape)
  // otherwise.
  constexpr bool kSlots = kCombinable || kReduce;
  std::vector<Slot> cur_acc(kSlots ? n : 0);
  std::vector<Slot> next_acc(kSlots ? n : 0);
  Bitvector cur_has(n);
  Bitvector next_has(n);
  std::vector<std::vector<Message>> cur_list(kSlots ? 0 : n);
  std::vector<std::vector<Message>> next_list(kSlots ? 0 : n);

  // Every vertex runs in superstep 0 so sparse programs can seed themselves.
  Bitvector active(n);
  for (VertexId v = 0; v < n; ++v) active.Set(v);

  SparseVec<Message> x(n);
  std::vector<uint32_t> bits;         // Scratch for set-bit extraction.
  std::vector<uint32_t> active_bits;  // Scratch for sparse apply sweeps.
  uint64_t wire_buffer_peak = 0;

  // Fused apply-scatter staging (kAnyCombine, single rank): when the ANY
  // kernel runs the next superstep's Compute at delivery time, the frontier
  // and targeted sends it produces are stashed here and consumed — in place
  // of the apply phase — by the next loop iteration.
  constexpr bool kFusable =
      kCombinable && AnyCombineTrait<P>::value && !P::kAllActive;
  SparseVec<Message> x2(kFusable && side == 1 ? n : 0);
  std::vector<std::pair<VertexId, Message>> fused_targeted;
  bool fused_pending = false;

  // When every vertex-segment boundary falls on a 64-bit word boundary —
  // always at one rank — concurrent rank tasks never touch the same has-word
  // and the kernels can skip the per-delivery atomic RMW. Pure function of the
  // partition, so the choice is identical across schedules.
  bool aligned = true;
  for (int d = 0; d < side; ++d) {
    aligned = aligned && m.RangeBegin(d) % 64 == 0;
  }
  const bool atomic_bits = !aligned;

  int superstep = 0;
  for (; superstep < max_supersteps; ++superstep) {
    std::atomic<bool> wants_more{false};
    // Targeted sends (ctx->SendTo) can't lower to the broadcast SpMV; they are
    // collected per fixed-size vertex chunk so delivery order is a function of
    // vertex ids alone, never of which pool thread ran the chunk.
    std::vector<std::vector<std::pair<VertexId, Message>>> targeted(side);

    if (fused_pending) {
      // The previous iteration's fused ANY kernel already ran this
      // superstep's Compute at delivery time; adopt its frontier and
      // targeted sends instead of sweeping the active set again.
      std::swap(x, x2);
      targeted[0] = std::move(fused_targeted);
      fused_targeted.clear();
      fused_pending = false;
    } else {
      x.Clear();

    // A sparse active set (BFS/CC wavefronts) is swept via its set-bit list
    // instead of scanning every vertex: frontier-driven apply, the other half
    // of the GraphMat recipe. The chunk decomposition — vertex-id blocks when
    // dense, ascending-list slices when sparse — is a pure function of the
    // active set, and both enumerate each segment in ascending vertex order,
    // so targeted-send collection is schedule- and path-invariant.
    const uint64_t active_count = active.Count();
    const bool all_active = active_count == static_cast<uint64_t>(n);
    const bool sparse_apply =
        active_count * kSparseDenominator < static_cast<uint64_t>(n);
    active_bits.clear();
    if (sparse_apply) active.AppendSetBits(&active_bits);

    // Apply phase: diagonal rank d runs Compute over its vertex segment.
    rt::ForEachRank(side, [&](int d) {
      MAZE_OBS_SPAN("superstep", "gmat", lowered_.DiagRank(d), superstep);
      rt::RankTimer compute_timer;
      const VertexId seg_begin = m.RangeBegin(d);
      const VertexId seg_end = m.RangeEnd(d);
      const VertexId seg_len = seg_end - seg_begin;
      constexpr VertexId kChunk = 512;
      const uint32_t* slice = nullptr;
      size_t slice_len = 0;
      if (sparse_apply) {
        auto lo = std::lower_bound(active_bits.begin(), active_bits.end(),
                                   seg_begin);
        auto hi = std::lower_bound(lo, active_bits.end(), seg_end);
        slice = active_bits.data() + (lo - active_bits.begin());
        slice_len = static_cast<size_t>(hi - lo);
      }
      const VertexId num_chunks =
          sparse_apply
              ? static_cast<VertexId>((slice_len + kChunk - 1) / kChunk)
              : (seg_len + kChunk - 1) / kChunk;
      std::vector<std::vector<std::pair<VertexId, Message>>> chunk_targeted(
          num_chunks);
      ParallelFor(num_chunks, 1, [&](uint64_t clo, uint64_t chi) {
        vertex::Context<Message> ctx;
        ctx.superstep_ = superstep;
        bool local_more = false;
        // Raw views hoisted into locals: the per-vertex stores inside
        // ApplyVertex cannot alias these, so they stay in registers instead
        // of being reloaded from lambda captures on every vertex (a ~2x
        // apply-phase tax, measured by bench_gmat_ninja_gap).
        P* const prog = program;
        Value* const values_p = values_.data();
        const uint64_t* const cur_has_w = cur_has.words();
        const Slot* const cur_acc_p = cur_acc.data();
        const std::vector<Message>* const cur_list_p = cur_list.data();
        Message* const x_values_p = x.values.data();
        Bitvector* const x_has_p = &x.has;
        const EdgeId* const out_off = g_.out_offsets().data();
        const uint64_t* const act_w = active.words();
        // List-sliced chunks can share a has-word; id-blocked chunks cannot
        // once the partition is aligned.
        const bool atomic_x = sparse_apply || atomic_bits;
        for (VertexId c = static_cast<VertexId>(clo);
             c < static_cast<VertexId>(chi); ++c) {
          auto* const chunk_out = &chunk_targeted[c];
          if (sparse_apply) {
            const size_t p_end =
                std::min(slice_len, static_cast<size_t>(c + 1) * kChunk);
            for (size_t pi = static_cast<size_t>(c) * kChunk; pi < p_end;
                 ++pi) {
              ApplyVertex(prog, &ctx, slice[pi], cur_has_w, cur_acc_p,
                          cur_list_p, values_p, x_values_p, x_has_p, out_off,
                          atomic_x, chunk_out, &local_more);
            }
          } else if (all_active) {
            const VertexId v_end =
                seg_begin + std::min(seg_len, (c + 1) * kChunk);
            for (VertexId v = seg_begin + c * kChunk; v < v_end; ++v) {
              ApplyVertex(prog, &ctx, v, cur_has_w, cur_acc_p, cur_list_p,
                          values_p, x_values_p, x_has_p, out_off, atomic_x,
                          chunk_out, &local_more);
            }
          } else {
            // Mid-density active sets: hop set bit to set bit inside the
            // chunk's id range, skipping empty 64-vertex words whole — the
            // same ascending order as a plain scan, without paying a test per
            // inactive vertex.
            const VertexId v_end =
                seg_begin + std::min(seg_len, (c + 1) * kChunk);
            VertexId v = seg_begin + c * kChunk;
            while (v < v_end) {
              const uint64_t w = act_w[v >> 6] >> (v & 63);
              if (w == 0) {
                v = (v | 63) + 1;
                continue;
              }
              v += static_cast<VertexId>(std::countr_zero(w));
              if (v >= v_end) break;
              ApplyVertex(prog, &ctx, v, cur_has_w, cur_acc_p, cur_list_p,
                          values_p, x_values_p, x_has_p, out_off, atomic_x,
                          chunk_out, &local_more);
              ++v;
            }
          }
        }
        if (local_more) wants_more.store(true, std::memory_order_relaxed);
      });
      for (auto& ct : chunk_targeted) {
        targeted[d].insert(targeted[d].end(),
                           std::make_move_iterator(ct.begin()),
                           std::make_move_iterator(ct.end()));
      }
      double seconds = compute_timer.Seconds();
      clock_.RecordCompute(lowered_.DiagRank(d), seconds);
      obs::EmitSpanEndingNow("compute", "gmat", lowered_.DiagRank(d), superstep,
                             seconds);
    });
    }  // !fused_pending

    // SpMV phase: y = A^T ⊗.⊕ x over the tile grid. Grid rows own disjoint
    // destination ranges and run concurrently; tiles within a row go serially
    // in ascending column order so per-destination ⊕ order is ascending
    // global source — the interpreter's single-rank order.
    const uint64_t x_count = x.Count();
    bool use_col_kernel = kCombinable && x_count != broadcasters &&
                          x_count * kSparseDenominator <
                              static_cast<uint64_t>(n);
    // Cardinality alone misleads on skewed graphs: a numerically small
    // frontier that contains the hubs drags most of the edge set through the
    // column (push) kernel. When the early-exit ANY kernel is available,
    // divert such frontiers to it using the paper's direction-optimization
    // criterion — push only while the frontier covers < 1/kPushDegreeCutoff
    // of the edges (native BFS's 5% bottom-up switch). Frontier degree is a
    // pure function of (x, graph), so the choice stays schedule-invariant.
    if constexpr (AnyCombineTrait<P>::value) {
      if (use_col_kernel) {
        constexpr uint64_t kPushDegreeCutoff = 20;
        const EdgeId* const out_off = g_.out_offsets().data();
        bits.clear();
        x.has.AppendSetBits(&bits);
        uint64_t frontier_degree = 0;
        for (uint32_t v : bits) frontier_degree += out_off[v + 1] - out_off[v];
        if (frontier_degree * kPushDegreeCutoff >=
            static_cast<uint64_t>(g_.num_edges())) {
          use_col_kernel = false;
        }
      }
    }
    // Fuse the next superstep's apply into this superstep's ANY kernel when
    // that is exact: kAnyCombine picks the ANY kernel, a single rank means no
    // wire phase reads the accumulator, no targeted send can still land in
    // this superstep's inbox, the program's activity is message-driven (not
    // kAllActive), and the next superstep is within the caller's cap.
    bool fuse_apply = false;
    if constexpr (kFusable) {
      fuse_apply = side == 1 && x_count > 0 && x_count != broadcasters &&
                   !use_col_kernel && targeted[0].empty() &&
                   superstep + 1 < max_supersteps;
    }
    bits.clear();
    if (use_col_kernel || side > 1) x.has.AppendSetBits(&bits);
    if (x_count > 0 && fuse_apply) {
      if constexpr (kFusable) {
        rt::RankTimer tile_timer;
        const matrix::Tile& t = lowered_.tile(0, 0);
        x2.Clear();
        // Every broadcast payload is byte-identical under kAnyCombine; load
        // it once (first frontier member) like the unfused ANY kernel does.
        const uint64_t* const xw_scan = x.has.words();
        size_t w0 = 0;
        while (xw_scan[w0] == 0) ++w0;
        const Message msg =
            x.values[w0 * 64 +
                     static_cast<size_t>(std::countr_zero(xw_scan[w0]))];
        constexpr VertexId kChunk = 512;
        const VertexId num_rows = static_cast<VertexId>(t.num_rows());
        const VertexId num_chunks = (num_rows + kChunk - 1) / kChunk;
        std::vector<std::vector<std::pair<VertexId, Message>>> chunk_targeted(
            num_chunks);
        ParallelFor(num_chunks, 1, [&](uint64_t clo, uint64_t chi) {
          vertex::Context<Message> ctx;
          ctx.superstep_ = superstep + 1;
          P* const prog = program;
          Value* const values_p = values_.data();
          const EdgeId* const off = t.offsets.data();
          const VertexId* const srcs = t.sources.data();
          const uint64_t* const xw = x.has.words();
          Message* const x2_values_p = x2.values.data();
          Bitvector* const x2_has_p = &x2.has;
          Bitvector* const nh = &next_has;
          const EdgeId* const out_off = g_.out_offsets().data();
          const Message msg_local = msg;
          for (VertexId c = static_cast<VertexId>(clo);
               c < static_cast<VertexId>(chi); ++c) {
            auto* const chunk_out = &chunk_targeted[c];
            const VertexId r_end = std::min(num_rows, (c + 1) * kChunk);
            for (VertexId r = c * kChunk; r < r_end; ++r) {
              // Complemented mask (kConvergedSkip): delivery to a converged
              // row followed by its no-op Compute is indistinguishable from
              // skipping the row, so don't even scan its in-edges — native
              // BFS's visited-skip, legal here only because delivery and
              // apply are fused.
              if constexpr (ConvergedSkipTrait<P>::value) {
                if (P::Converged(values_p[r])) continue;
              }
              const EdgeId e_end = off[r + 1];
              for (EdgeId e = off[r]; e < e_end; ++e) {
                if (((xw[srcs[e] >> 6] >> (srcs[e] & 63)) & 1u) == 0) {
                  continue;
                }
                // First (and only effective) delivery: record receipt for
                // termination/active bookkeeping, then run the consuming
                // superstep's Compute right here. Chunks are 512-aligned and
                // side==1 row-partitions the bit words, so plain Set is safe.
                nh->Set(r);
                FusedApplyVertex(prog, &ctx, r, msg_local, values_p,
                                 x2_values_p, x2_has_p, out_off, chunk_out);
                break;
              }
            }
          }
        });
        for (auto& ct : chunk_targeted) {
          fused_targeted.insert(fused_targeted.end(),
                                std::make_move_iterator(ct.begin()),
                                std::make_move_iterator(ct.end()));
        }
        fused_pending = true;
        double seconds = tile_timer.Seconds();
        clock_.RecordCompute(lowered_.RankOf(0, 0), seconds);
        obs::EmitSpanEndingNow("spmv", "gmat", lowered_.RankOf(0, 0),
                               superstep, seconds);
      }
    } else if (x_count > 0) {
      rt::ForEachRank(side, [&](int i) {
        for (int j = 0; j < side; ++j) {
          rt::RankTimer tile_timer;
          if constexpr (kCombinable) {
            if (x_count == broadcasters) {
              LowerTileRowDense<P>(lowered_.tile(i, j), x.values, &next_acc,
                                   &next_has, atomic_bits);
            } else if (use_col_kernel) {
              auto lo = std::lower_bound(bits.begin(), bits.end(),
                                         m.RangeBegin(j));
              auto hi = std::lower_bound(lo, bits.end(), m.RangeEnd(j));
              LowerTileColSparse<P>(lowered_.tileT(i, j), m.RangeBegin(j),
                                    &*lo, static_cast<size_t>(hi - lo),
                                    x.values, &next_acc, &next_has,
                                    atomic_bits);
            } else if constexpr (AnyCombineTrait<P>::value) {
              LowerTileRowAny<P>(lowered_.tile(i, j), x.has, x.values,
                                 &next_acc, &next_has, atomic_bits);
            } else {
              LowerTileRowMasked<P>(lowered_.tile(i, j), x.has, x.values,
                                    &next_acc, &next_has, atomic_bits);
            }
          } else if constexpr (kReduce) {
            LowerTileRowReduce<P>(*program, lowered_.tile(i, j), x.has,
                                  x.values, values_, &next_acc, &next_has,
                                  atomic_bits);
          } else {
            LowerTileRowList<P>(lowered_.tile(i, j), x.has, x.values,
                                &next_list, &next_has, atomic_bits);
          }
          double seconds = tile_timer.Seconds();
          clock_.RecordCompute(lowered_.RankOf(i, j), seconds);
          obs::EmitSpanEndingNow("spmv", "gmat", lowered_.RankOf(i, j),
                                 superstep, seconds);
        }
      });
    }

    // Wire accounting, before targeted delivery so the reduce bytes cover only
    // SpMV results. Broadcast: segment j's frontier payload goes from its
    // diagonal owner to every tile of grid column j. Reduce: segment i's
    // combined inbox comes back to its diagonal owner from grid row i — one
    // slot per delivered destination (GraphMat's row reduce), or every queued
    // message for list programs. Both are functions of (x, y) contents only —
    // schedule-invariant by construction.
    if (side > 1) {
      std::vector<uint64_t> xbytes(side, 0);
      std::vector<uint64_t> ybytes(side, 0);
      {
        int seg = 0;
        for (uint32_t v : bits) {
          while (v >= static_cast<uint32_t>(m.RangeEnd(seg))) ++seg;
          xbytes[seg] += 4 + P::MessageWireBytes(x.values[v]);
        }
      }
      bits.clear();
      next_has.AppendSetBits(&bits);
      {
        int seg = 0;
        for (uint32_t dst : bits) {
          while (dst >= static_cast<uint32_t>(m.RangeEnd(seg))) ++seg;
          if constexpr (kReduce) {
            ybytes[seg] += 4 + P::PartialWireBytes(next_acc[dst]);
          } else if constexpr (kCombinable) {
            ybytes[seg] += 4 + P::MessageWireBytes(next_acc[dst]);
          } else {
            for (const Message& msg : next_list[dst]) {
              ybytes[seg] += 4 + P::MessageWireBytes(msg);
            }
          }
        }
      }
      uint64_t step_wire = 0;
      for (int j = 0; j < side; ++j) {
        if (xbytes[j] == 0) continue;
        for (int i = 0; i < side; ++i) {
          if (i == j) continue;
          clock_.RecordSend(lowered_.DiagRank(j), lowered_.RankOf(i, j),
                            xbytes[j], 1);
          step_wire += xbytes[j];
        }
      }
      for (int i = 0; i < side; ++i) {
        if (ybytes[i] == 0) continue;
        for (int j = 0; j < side; ++j) {
          if (j == i) continue;
          clock_.RecordSend(lowered_.RankOf(i, j), lowered_.DiagRank(i),
                            ybytes[i], 1);
          step_wire += ybytes[i];
        }
      }
      wire_buffer_peak = std::max(wire_buffer_peak, step_wire);
      // Transient wire-buffer charge, released at hand-off (vertexlab's
      // convention), so the per-step message-buffer watermark sees it.
      clock_.ChargeMemory(0, obs::MemPhase::kMessageBuffers, step_wire);
      clock_.ReleaseMemory(0, obs::MemPhase::kMessageBuffers, step_wire);
    }

    // Targeted deliveries, serial in segment order then collection order:
    // point-to-point sends between diagonal owners.
    for (int d = 0; d < side; ++d) {
      if (targeted[d].empty()) continue;
      rt::RankTimer route_timer;
      std::vector<uint64_t> bytes_to(side, 0);
      for (auto& [dst, msg] : targeted[d]) {
        const int o = m.RangeOf(dst);
        if (o != d) bytes_to[o] += 4 + P::MessageWireBytes(msg);
        if constexpr (kCombinable) {
          ProgramSemiring<P>::Accumulate(&next_acc[dst],
                                         !next_has.Test(dst), msg);
          next_has.Set(dst);
        } else if constexpr (kReduce) {
          if (!next_has.Test(dst)) {
            program->ZeroPartial(&next_acc[dst]);
            next_has.Set(dst);
          }
          program->Gather(dst, values_[dst], msg, &next_acc[dst]);
        } else {
          next_list[dst].push_back(std::move(msg));
          next_has.Set(dst);
        }
      }
      for (int o = 0; o < side; ++o) {
        if (bytes_to[o] > 0) {
          clock_.RecordSend(lowered_.DiagRank(d), lowered_.DiagRank(o),
                            bytes_to[o], 1);
        }
      }
      clock_.RecordCompute(lowered_.DiagRank(d), route_timer.Seconds());
    }

    // The broadcast and reduce are distinct bulk phases; no overlap (unlike
    // vertexlab's streamed sends).
    clock_.EndStep(/*overlap_comm=*/false);

    // Swap inboxes.
    if constexpr (kSlots) {
      std::swap(cur_acc, next_acc);
    } else {
      std::swap(cur_list, next_list);
      for (auto& l : next_list) l.clear();
    }
    std::swap(cur_has, next_has);
    next_has.Reset();

    if (P::kAllActive) {
      if (!wants_more.load(std::memory_order_relaxed)) {
        ++superstep;
        break;
      }
      // `active` stays all-set.
    } else if (fused_pending) {
      // The fused kernel may have masked converged receivers, so the
      // delivered count under-reports the unmasked world's deliveries. But
      // every frontier member has out-edges (x only admits senders with
      // out-degree > 0), so a nonempty x guarantees the interpreter delivered
      // something and ran another superstep; the next iteration consumes the
      // stashed frontier and terminates on its own emptiness, matching the
      // interpreter's step count exactly.
      active = cur_has;
    } else if (cur_has.Count() == 0) {
      ++superstep;
      break;
    } else {
      active = cur_has;
    }
  }

  // Footprint: compiled tiles (pattern + transpose) sliced across ranks, the
  // value array, and the double-buffered accumulator + wire buffers. A
  // Partial's payload is what its wire form carries.
  uint64_t state_bytes = static_cast<uint64_t>(n) * sizeof(Value);
  uint64_t acc_bytes = wire_buffer_peak * 2;
  if constexpr (kReduce) {
    Slot zero;
    program->ZeroPartial(&zero);
    acc_bytes = static_cast<uint64_t>(n) * 2 *
                (sizeof(Slot) + P::PartialWireBytes(zero));
  } else if constexpr (kCombinable) {
    acc_bytes = static_cast<uint64_t>(n) * sizeof(Message) * 2;
  }
  clock_.ChargeMemory(0, obs::MemPhase::kGraph,
                      lowered_.MemoryBytes() /
                          std::max(1, config_.num_ranks));
  clock_.ChargeMemory(0, obs::MemPhase::kEngineState, state_bytes);
  clock_.ChargeMemory(0, obs::MemPhase::kMessageBuffers,
                      acc_bytes + wire_buffer_peak);
  return superstep;
}

}  // namespace maze::gmat

#endif  // MAZE_GMAT_ENGINE_H_
