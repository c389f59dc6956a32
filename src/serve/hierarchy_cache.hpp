// Hierarchy cache: fully-set-up multigrid hierarchies keyed by
// everything that determines their setup — (domain box, rank grid,
// brick dims, operator id, levels) — so repeated solves skip the
// dominant cost of a request: level construction, exchange-engine
// setup, brick iteration-plan creation, and (for variable-coefficient
// operators) coefficient restriction.
//
// Entries are checked out *exclusively*: a GmgSolver holds mutable
// per-solve state, so two requests may never share one entry. Idle
// entries are parked with their field storage detached into the shared
// BrickArena (arena lifetime rule: the cache owns hierarchy skeletons,
// the arena owns idle field pages; a checked-out request owns both).
// Beyond `capacity` idle entries the least-recently-used is evicted —
// its skeleton is freed and its parked pages leave the arena, so the
// pool holds at most the pages of the idle entries plus those of
// requests in flight.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "brick/brick_arena.hpp"
#include "gmg/solver.hpp"
#include "mesh/decomposition.hpp"

namespace gmg::serve {

/// One cached hierarchy: the per-rank solver chain for a decomposed
/// domain, plus the bookkeeping the service needs to reuse it.
struct CachedHierarchy {
  std::string key;
  CartDecomp decomp;
  GmgOptions options;
  /// One solver per rank of `decomp`, index == rank. Each serves
  /// requests of any batch width; the stretched exchange engines of
  /// the widths it has run stay cached on its levels.
  std::vector<std::unique_ptr<GmgSolver>> solvers;
  /// Variable-coefficient operators evaluate their coefficient once
  /// per hierarchy (it is keyed state, like the stencil).
  bool coefficient_set = false;
  std::uint64_t last_used_ns = 0;
  /// Element counts of the field buffers the solvers parked in the
  /// arena at the last release, and the width they ran at: a same-width
  /// attach takes them back; another width or an eviction discards
  /// them, so the pool never keeps pages no entry will re-attach.
  std::vector<std::size_t> parked;
  int parked_width = 1;

  CachedHierarchy(std::string k, const CartDecomp& d, const GmgOptions& o)
      : key(std::move(k)), decomp(d), options(o) {}
};

class HierarchyCache {
 public:
  /// Keep at most `capacity` idle hierarchies; detach/attach field
  /// storage through `arena` (must outlive the cache).
  HierarchyCache(std::size_t capacity, BrickArena* arena)
      : capacity_(capacity), arena_(arena) {}
  HierarchyCache(const HierarchyCache&) = delete;
  HierarchyCache& operator=(const HierarchyCache&) = delete;

  /// Check out the entry for `key` with its field storage re-attached
  /// at width `k` (a *hit*), or nullptr when none is idle under that
  /// key (a *miss* — the caller builds the hierarchy and later
  /// release()s it).
  std::unique_ptr<CachedHierarchy> acquire(const std::string& key, int k);

  /// Return a checked-out (or freshly built) entry: field storage is
  /// detached into the arena and the entry becomes acquirable again.
  /// May evict the least-recently-used idle entry over capacity.
  void release(std::unique_ptr<CachedHierarchy> entry);

  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
    std::size_t idle_entries = 0;

    double hit_ratio() const {
      const std::uint64_t total = hits + misses;
      return total ? static_cast<double>(hits) / static_cast<double>(total)
                   : 0.0;
    }
  };
  Stats stats() const;

 private:
  /// Drop the pages `entry` parked from the arena's pool.
  void discard_parked(CachedHierarchy& entry);

  mutable std::mutex mu_;
  std::size_t capacity_;
  BrickArena* arena_;
  std::vector<std::unique_ptr<CachedHierarchy>> idle_;
  Stats stats_;
};

}  // namespace gmg::serve
