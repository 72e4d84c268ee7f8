// Snapshot registry: the serving layer's shared, immutable view of loaded
// graphs (DESIGN.md §4e).
//
// A long-lived service loads each graph once and lets every concurrent request
// read the same in-memory copy; updates install a whole new generation
// ("epoch") instead of mutating in place. Readers hold shared_ptrs, so a
// request admitted against epoch N keeps that snapshot alive even after epoch
// N+1 is installed — there are no read locks on the query path and no
// torn reads by construction. An optional replace hook tells the owner when a
// generation is superseded; the service uses it to retire that generation's
// cached results.
#ifndef MAZE_SERVE_SNAPSHOT_H_
#define MAZE_SERVE_SNAPSHOT_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "core/edge_list.h"
#include "util/status.h"

namespace maze::serve {

// One immutable generation of a named graph. The three edge-list views every
// algorithm family needs are prebuilt once at install time (matching the
// per-algorithm preprocessing the CLI `run` command applies), so admitted
// requests share them instead of re-deriving per query.
struct Snapshot {
  std::string name;
  uint64_t epoch = 0;
  EdgeList directed;   // Deduplicated, as loaded (PageRank).
  EdgeList symmetric;  // Symmetrized (BFS, connected components).
  EdgeList oriented;   // src < dst (triangle counting).

  // Resident bytes of the three views (service memory reporting).
  size_t MemoryBytes() const;
};

using SnapshotPtr = std::shared_ptr<const Snapshot>;

// Name -> newest snapshot. Install() is the only writer; Get() hands out
// shared ownership of the current generation.
class SnapshotRegistry {
 public:
  // Called by Install() with the generation it replaced, after the registry
  // lock is released.
  using ReplaceHook = std::function<void(const Snapshot& replaced)>;

  explicit SnapshotRegistry(ReplaceHook on_replace = nullptr)
      : on_replace_(std::move(on_replace)) {}

  // Installs `edges` (taken as the deduplicated directed list) as the newest
  // generation of `name`: epoch 1 for a new name, previous epoch + 1 on a
  // bump. Returns the installed snapshot. On a bump, the replace hook runs
  // and the registry's reference to the old generation is dropped, both
  // outside the lock, so Get() never waits on them.
  SnapshotPtr Install(const std::string& name, EdgeList edges);

  // Current generation of `name`; kNotFound when never installed.
  StatusOr<SnapshotPtr> Get(const std::string& name) const;

  // Current generations of every registered name, name-sorted.
  std::vector<SnapshotPtr> All() const;

 private:
  const ReplaceHook on_replace_;
  mutable std::mutex mu_;
  std::map<std::string, SnapshotPtr> snapshots_;
};

}  // namespace maze::serve

#endif  // MAZE_SERVE_SNAPSHOT_H_
