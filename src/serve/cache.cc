#include "serve/cache.h"

#include <algorithm>
#include <iterator>
#include <utility>

namespace maze::serve {

size_t ResultCache::EntryBytes(const std::string& key,
                               const std::string& snapshot,
                               const ExecResult& result) {
  // The list node (two links plus the Entry) and the index node (a key view,
  // an iterator, a link and a cached hash).
  constexpr size_t kNodeBytes =
      2 * sizeof(void*) + sizeof(Entry) + sizeof(std::string_view) +
      3 * sizeof(void*);
  return kNodeBytes + key.capacity() + snapshot.capacity() +
         result.CacheBytes();
}

ExecResultPtr ResultCache::Lookup(const std::string& key) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = index_.find(key);
  if (it == index_.end()) {
    ++misses_;
    return nullptr;
  }
  ++hits_;
  lru_.splice(lru_.begin(), lru_, it->second);
  return it->second->result;
}

bool ResultCache::Insert(const std::string& key, ExecResultPtr result,
                         const std::string& snapshot, uint64_t epoch) {
  std::list<Entry> node;
  node.push_back(Entry{key, snapshot, epoch, 0, std::move(result)});
  Entry& entry = node.front();
  entry.bytes = EntryBytes(entry.key, entry.snapshot, *entry.result);
  std::list<Entry> evicted;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (auto it = retired_through_.find(snapshot);
        it != retired_through_.end() && epoch <= it->second) {
      ++refused_;
      return false;
    }
    // A concurrent execution may have published it already.
    if (index_.count(key) != 0) return false;
    // Never evict everything for one entry.
    if (entry.bytes > byte_budget_) return false;
    while (bytes_ + entry.bytes > byte_budget_ && !lru_.empty()) {
      bytes_ -= lru_.back().bytes;
      index_.erase(lru_.back().key);
      evicted.splice(evicted.begin(), lru_, std::prev(lru_.end()));
      ++evictions_;
    }
    bytes_ += entry.bytes;
    lru_.splice(lru_.begin(), node);
    index_.emplace(lru_.front().key, lru_.begin());
    ++insertions_;
  }
  return true;  // `evicted` is released here, outside the lock.
}

void ResultCache::Retire(const std::string& snapshot, uint64_t epoch) {
  std::list<Entry> dead;
  {
    std::lock_guard<std::mutex> lock(mu_);
    uint64_t& through = retired_through_[snapshot];
    through = std::max(through, epoch);
    for (auto it = lru_.begin(); it != lru_.end();) {
      auto next = std::next(it);
      if (it->snapshot == snapshot && it->epoch <= epoch) {
        bytes_ -= it->bytes;
        index_.erase(it->key);
        dead.splice(dead.end(), lru_, it);
        ++retired_;
      }
      it = next;
    }
  }
}

ResultCache::Stats ResultCache::GetStats() const {
  std::lock_guard<std::mutex> lock(mu_);
  Stats s;
  s.hits = hits_;
  s.misses = misses_;
  s.insertions = insertions_;
  s.evictions = evictions_;
  s.retired = retired_;
  s.refused = refused_;
  s.entries = lru_.size();
  s.bytes = bytes_;
  s.byte_budget = byte_budget_;
  return s;
}

}  // namespace maze::serve
