// BrickArena: a recycling pool for BrickedArray storage.
//
// The one-shot benchmark harness allocates every field fresh — malloc
// plus a first-touch page-fault pass per array, per solve. A serving
// deployment runs thousands of solves on a handful of distinct grid
// sizes, so the arena keeps surrendered buffers keyed by element count
// and hands them back to the next request of the same size: warm pages,
// no allocator traffic, no faults. Acquired arrays are zeroed through
// the kernel runtime's chunk plan, so an arena-backed field is bitwise
// indistinguishable from a freshly constructed one (the serve-layer
// reproducibility guarantee rests on this).
//
// Thread-safe: concurrent request executors share one arena.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "brick/bricked_array.hpp"

namespace gmg {

class BrickArena {
 public:
  BrickArena() = default;
  BrickArena(const BrickArena&) = delete;
  BrickArena& operator=(const BrickArena&) = delete;

  /// A zeroed field over `grid`, backed by a pooled buffer of matching
  /// size when one is available (a *hit*), freshly allocated otherwise.
  /// `components` > 1 makes it K-wide over base shape `shape`.
  BrickedArray acquire(std::shared_ptr<const BrickGrid> grid,
                       BrickShape shape, int components = 1);

  /// Surrender an array's storage back to the pool. Empty arrays
  /// (default-constructed or already taken) are ignored.
  void release(BrickedArray&& a);

  /// Drop one pooled buffer of exactly `elements` elements — a parked
  /// field of a hierarchy that will never re-attach. Returns false when
  /// none of that size is pooled (a request holds those pages now and
  /// parks them under its own hierarchy).
  bool discard(std::size_t elements);

  /// Drop pooled buffers (largest first) until the pool holds at most
  /// `max_bytes`. Does not touch storage currently checked out.
  void trim(std::size_t max_bytes);

  struct Stats {
    std::uint64_t acquires = 0;   // total acquire() calls
    std::uint64_t hits = 0;       // acquires served from the pool
    std::uint64_t releases = 0;   // buffers returned
    std::uint64_t trimmed = 0;    // buffers dropped by trim()
    std::uint64_t discarded = 0;  // buffers dropped by discard()
    std::size_t pooled_buffers = 0;
    std::size_t pooled_bytes = 0;

    /// Fraction of acquires served from the pool (0 when none yet).
    double reuse_ratio() const {
      return acquires ? static_cast<double>(hits) /
                            static_cast<double>(acquires)
                      : 0.0;
    }
  };
  Stats stats() const;

 private:
  mutable std::mutex mu_;
  // Free buffers by element count; sizes in a multigrid hierarchy
  // repeat exactly, so exact-size matching hits after one warmup pass.
  std::map<std::size_t, std::vector<AlignedBuffer<real_t>>> pool_;
  Stats stats_;
};

}  // namespace gmg
