#include "serve/snapshot.h"

#include <utility>

namespace maze::serve {

size_t Snapshot::MemoryBytes() const {
  return (directed.edges.capacity() + symmetric.edges.capacity() +
          oriented.edges.capacity()) *
         sizeof(Edge);
}

SnapshotPtr SnapshotRegistry::Install(const std::string& name, EdgeList edges) {
  auto snap = std::make_shared<Snapshot>();
  snap->name = name;
  snap->directed = std::move(edges);
  snap->directed.Deduplicate();
  snap->symmetric = snap->directed;
  snap->symmetric.Symmetrize();
  snap->oriented = snap->directed;
  snap->oriented.OrientBySmallerId();

  SnapshotPtr replaced;
  {
    std::lock_guard<std::mutex> lock(mu_);
    SnapshotPtr& slot = snapshots_[name];
    snap->epoch = slot == nullptr ? 1 : slot->epoch + 1;
    replaced = std::exchange(slot, snap);
  }
  if (replaced != nullptr && on_replace_) on_replace_(*replaced);
  return snap;
}

StatusOr<SnapshotPtr> SnapshotRegistry::Get(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = snapshots_.find(name);
  if (it == snapshots_.end()) {
    return Status::NotFound("no snapshot named '" + name + "' is loaded");
  }
  return it->second;
}

std::vector<SnapshotPtr> SnapshotRegistry::All() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<SnapshotPtr> all;
  all.reserve(snapshots_.size());
  for (const auto& [name, snap] : snapshots_) all.push_back(snap);
  return all;
}

}  // namespace maze::serve
