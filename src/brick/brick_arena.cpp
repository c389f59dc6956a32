#include "brick/brick_arena.hpp"

namespace gmg {

BrickedArray BrickArena::acquire(std::shared_ptr<const BrickGrid> grid,
                                 BrickShape shape, int components) {
  const std::size_t needed =
      static_cast<std::size_t>(grid->num_bricks()) *
      static_cast<std::size_t>(stretched_shape(shape, components).volume());
  AlignedBuffer<real_t> storage;
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.acquires;
    auto it = pool_.find(needed);
    if (it != pool_.end() && !it->second.empty()) {
      storage = std::move(it->second.back());
      it->second.pop_back();
      if (it->second.empty()) pool_.erase(it);
      ++stats_.hits;
      stats_.pooled_buffers -= 1;
      stats_.pooled_bytes -= needed * sizeof(real_t);
    }
  }
  // Zeroing (and the miss path's allocation) runs outside the lock;
  // the adopting constructor reuses the buffer when the size matches.
  return BrickedArray(std::move(grid), shape, std::move(storage),
                      /*zero=*/true, components);
}

void BrickArena::release(BrickedArray&& a) {
  AlignedBuffer<real_t> storage = a.take_storage();
  if (storage.empty()) return;
  std::lock_guard<std::mutex> lock(mu_);
  ++stats_.releases;
  stats_.pooled_buffers += 1;
  stats_.pooled_bytes += storage.size() * sizeof(real_t);
  pool_[storage.size()].push_back(std::move(storage));
}

bool BrickArena::discard(std::size_t elements) {
  AlignedBuffer<real_t> dropped;  // freed after the lock is released
  std::lock_guard<std::mutex> lock(mu_);
  auto it = pool_.find(elements);
  if (it == pool_.end()) return false;
  dropped = std::move(it->second.back());
  it->second.pop_back();
  if (it->second.empty()) pool_.erase(it);
  stats_.pooled_bytes -= elements * sizeof(real_t);
  stats_.pooled_buffers -= 1;
  ++stats_.discarded;
  return true;
}

void BrickArena::trim(std::size_t max_bytes) {
  std::lock_guard<std::mutex> lock(mu_);
  while (stats_.pooled_bytes > max_bytes && !pool_.empty()) {
    auto it = std::prev(pool_.end());  // largest buffers first
    stats_.pooled_bytes -= it->first * sizeof(real_t);
    stats_.pooled_buffers -= 1;
    ++stats_.trimmed;
    it->second.pop_back();
    if (it->second.empty()) pool_.erase(it);
  }
}

BrickArena::Stats BrickArena::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

}  // namespace gmg
