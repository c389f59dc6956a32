#include "serve/hierarchy_cache.hpp"

#include <algorithm>
#include <vector>

#include "trace/trace.hpp"

namespace gmg::serve {

std::unique_ptr<CachedHierarchy> HierarchyCache::acquire(
    const std::string& key, int k) {
  std::unique_ptr<CachedHierarchy> entry;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = std::find_if(idle_.begin(), idle_.end(),
                           [&](const std::unique_ptr<CachedHierarchy>& e) {
                             return e->key == key;
                           });
    if (it == idle_.end()) {
      ++stats_.misses;
      return nullptr;
    }
    entry = std::move(*it);
    idle_.erase(it);
    ++stats_.hits;
  }
  // Attach outside the lock: zeroing the fields is real work and other
  // executors must be able to hit the cache meanwhile.
  trace::TraceSpan span("serve.cache_attach");
  if (entry->parked_width != k) discard_parked(*entry);
  entry->parked.clear();
  for (auto& s : entry->solvers) s->attach_field_storage(*arena_, k);
  return entry;
}

void HierarchyCache::release(std::unique_ptr<CachedHierarchy> entry) {
  if (!entry) return;
  {
    trace::TraceSpan span("serve.cache_detach");
    entry->parked.clear();
    entry->parked_width = entry->solvers.front()->batch();
    for (auto& s : entry->solvers) {
      const std::vector<std::size_t> sizes = s->detach_field_storage(*arena_);
      entry->parked.insert(entry->parked.end(), sizes.begin(), sizes.end());
    }
  }
  entry->last_used_ns = trace::now_ns();
  std::vector<std::unique_ptr<CachedHierarchy>> evicted;
  {
    std::lock_guard<std::mutex> lock(mu_);
    idle_.push_back(std::move(entry));
    while (idle_.size() > capacity_) {
      auto lru = std::min_element(
          idle_.begin(), idle_.end(),
          [](const std::unique_ptr<CachedHierarchy>& a,
             const std::unique_ptr<CachedHierarchy>& b) {
            return a->last_used_ns < b->last_used_ns;
          });
      evicted.push_back(std::move(*lru));
      idle_.erase(lru);
      ++stats_.evictions;
    }
  }
  // The evicted hierarchies' parked pages leave the pool with them: a
  // cold build allocates its own fields, so pages nobody re-attaches
  // would grow the pool by one hierarchy per eviction.
  for (const auto& e : evicted) discard_parked(*e);
}

void HierarchyCache::discard_parked(CachedHierarchy& entry) {
  for (const std::size_t elements : entry.parked) arena_->discard(elements);
  entry.parked.clear();
}

HierarchyCache::Stats HierarchyCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  Stats s = stats_;
  s.idle_entries = idle_.size();
  return s;
}

}  // namespace gmg::serve
