// Completed-result cache for the serving layer: LRU over canonical execution
// keys with a byte budget (DESIGN.md §4e).
//
// Values are shared immutable ExecResults — the same object a run's in-flight
// joiners received — so a cache hit costs one map lookup and one shared_ptr
// copy. Each entry records the snapshot generation (name and epoch) it was
// computed from. When a snapshot is replaced, Retire() drops every entry of
// that name up to the replaced epoch, and later publishes for those epochs are
// refused, so only live generations occupy the budget. The budget charges
// each entry's key, bookkeeping and the capacities of its result's buffers,
// so the configured byte budget bounds the memory the cache really holds.
#ifndef MAZE_SERVE_CACHE_H_
#define MAZE_SERVE_CACHE_H_

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "serve/bill.h"

namespace maze::serve {

// The outcome of one underlying engine execution, shared by the request that
// triggered it, every deduped joiner, and the cache. Immutable once published.
struct ExecResult {
  // One-line human summary ("pagerank: 5 iterations").
  std::string summary;
  // Canonical byte serialization of the full answer. Deterministic for a given
  // (snapshot, algo, engine, params), which is what makes "cached response is
  // byte-identical to a fresh run" a checkable invariant (bench_serve).
  std::string payload;
  // Vertex-indexed values backing point lookups and top-k extraction
  // (PageRank scores, BFS levels, CC labels). Empty when the algorithm has no
  // per-vertex answer (triangle counting).
  std::vector<double> per_vertex;
  // Modeled seconds of the execution that produced this result.
  double modeled_seconds = 0;
  // Full cost of the execution that produced this result. Cache hits attach it
  // to their (zero-marginal) bill, so a cached answer still names what its
  // original run cost. Never null for results published by the service.
  FlightCostPtr cost;

  // Resident bytes: the object plus the allocated capacity of its buffers and
  // the attached FlightCost.
  size_t CacheBytes() const {
    return sizeof(ExecResult) + payload.capacity() + summary.capacity() +
           per_vertex.capacity() * sizeof(double) +
           (cost != nullptr ? sizeof(FlightCost) : 0);
  }
};

using ExecResultPtr = std::shared_ptr<const ExecResult>;

// Thread-safe LRU keyed by canonical execution key. Inserting past the byte
// budget evicts least-recently-used entries; a single result larger than the
// whole budget is not cached at all.
class ResultCache {
 public:
  explicit ResultCache(size_t byte_budget) : byte_budget_(byte_budget) {}

  // Bytes an entry for `key` holding `result` charges against the budget.
  static size_t EntryBytes(const std::string& key, const std::string& snapshot,
                           const ExecResult& result);

  // Returns the cached result and marks it most-recently-used; null on miss.
  ExecResultPtr Lookup(const std::string& key);

  // Publishes `result` under `key`, computed from generation `epoch` of
  // `snapshot`. Returns false, caching nothing, if the key is already present,
  // the entry exceeds the whole budget, or that generation is retired.
  bool Insert(const std::string& key, ExecResultPtr result,
              const std::string& snapshot = {}, uint64_t epoch = 0);

  // Drops every entry of `snapshot` with epoch <= `epoch` and refuses later
  // publishes for those epochs. The dropped results are released after the
  // lock is, so concurrent lookups never wait on their frees.
  void Retire(const std::string& snapshot, uint64_t epoch);

  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t insertions = 0;
    uint64_t evictions = 0;
    uint64_t retired = 0;      // Entries dropped by Retire().
    uint64_t refused = 0;      // Publishes for an already retired generation.
    uint64_t entries = 0;
    uint64_t bytes = 0;        // Current charged bytes.
    uint64_t byte_budget = 0;  // Configured bound.
  };
  Stats GetStats() const;

 private:
  struct Entry {
    std::string key;
    std::string snapshot;
    uint64_t epoch = 0;
    size_t bytes = 0;  // Charged at insertion.
    ExecResultPtr result;
  };

  const size_t byte_budget_;
  mutable std::mutex mu_;
  std::list<Entry> lru_;  // Front = most recently used.
  // Views into the entries' own keys: list nodes never move.
  std::unordered_map<std::string_view, std::list<Entry>::iterator> index_;
  // Snapshot name -> newest retired epoch.
  std::unordered_map<std::string, uint64_t> retired_through_;
  size_t bytes_ = 0;
  uint64_t hits_ = 0, misses_ = 0, insertions_ = 0, evictions_ = 0;
  uint64_t retired_ = 0, refused_ = 0;
};

}  // namespace maze::serve

#endif  // MAZE_SERVE_CACHE_H_
