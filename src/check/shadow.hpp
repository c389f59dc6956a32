// Debug-build brick access-hazard detector (layer 2 of src/check).
//
// The kernel runtime's chunk plans are deterministic (DESIGN.md §11):
// the same bricks land in the same chunks on every run, so TSan almost
// never sees the conflicting schedules that a wrong plan *could*
// produce. This tracker checks the region-disjointness invariants
// directly instead of waiting for an unlucky interleaving:
//
//   - every kernel launch opens a KernelScope declaring, per field,
//     the cell box it writes (its reads are declared statically, in
//     the kernel's EffectSummary — check/effects.hpp);
//   - hazards are recorded when two concurrently open scopes write
//     intersecting cell boxes of one field, or when a cached iteration
//     plan is structurally corrupt (a kernel would write bricks
//     outside its declared footprint).
//
// Ghost exchanges are blocking (DESIGN.md §10), so no kernel can run
// while a field's ghosts are in flight; ghost-validity ordering is
// proven statically by the schedule verifier (check/schedule.hpp).
//
// Enabled via GMG_CHECK=1 (or the GMG_CHECK CMake option, which flips
// the default); disabled, every hook is a single early-out call per
// kernel *launch* — nothing per brick or cell — so release solve time
// is unaffected. Hazards are recorded, not thrown (kernels run on
// engine workers where an exception would terminate the process);
// tests and CI drain them via hazards()/require_clean().
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "brick/brick_grid.hpp"
#include "brick/bricked_array.hpp"
#include "mesh/box.hpp"

namespace gmg::check {

/// Is the detector on? First call resolves GMG_CHECK from the
/// environment (GMG_CHECK_DEFAULT_ON builds default to on); cached in
/// an atomic afterwards.
bool enabled();
/// Programmatic override (tests); wins over the environment.
void set_enabled(bool on);

enum class HazardKind {
  kWriteWriteOverlap,  // two open scopes write intersecting boxes of a field
  kCorruptPlan,        // iteration plan covers bricks outside its declaration
};

const char* hazard_kind_name(HazardKind kind);

struct HazardRecord {
  HazardKind kind;
  std::string detail;    // kernel name + field + box/brick info
  std::uint64_t epoch;   // per-field write epoch when the hazard fired
};

/// One declared field write of a kernel launch. `box` is in cell
/// coordinates of the field's grid.
struct Access {
  const void* key = nullptr;  // field identity: storage base pointer
  Box box;
};

inline Access access(const BrickedArray& f, const Box& box) {
  return Access{f.data(), box};
}

/// RAII declaration of one kernel launch's writes. All hazard checks
/// run in the constructor; the destructor closes the scope and bumps
/// the write epoch of every written field. No-op when the detector is
/// disabled.
class KernelScope {
 public:
  KernelScope(const char* name, std::vector<Access> writes);
  ~KernelScope();
  KernelScope(KernelScope&& other) noexcept : token_(other.token_) {
    other.token_ = 0;
  }
  KernelScope(const KernelScope&) = delete;
  KernelScope& operator=(const KernelScope&) = delete;
  KernelScope& operator=(KernelScope&&) = delete;

 private:
  std::uint64_t token_ = 0;  // 0: detector was off at construction
};

/// Convenience wrapper for kernel call sites: a live scope only when
/// the detector is on. Costs one atomic load per launch when off.
inline std::optional<KernelScope> scope_if_enabled(
    const char* name, std::vector<Access> writes) {
  std::optional<KernelScope> s;
  if (enabled()) s.emplace(name, std::move(writes));
  return s;
}

/// Structural validation of a cached iteration plan, run once per
/// launch by for_each_plan_brick when the detector is on: unique
/// non-negative ids, a genuinely-full full prefix, in-range clip
/// bounds. A violation means chunks would write bricks outside the
/// declared active region.
void validate_plan(const char* name, const BrickPlanItem* items,
                   std::size_t count, std::int64_t num_full, Vec3 brick_dims);

// Hazard sink. Thread-safe; reset() also drops all shadow state
// (open scopes, epochs).
std::size_t hazard_count();
std::vector<HazardRecord> hazards();
void clear_hazards();
void reset();
/// Throws gmg::Error listing every recorded hazard unless clean.
void require_clean(const std::string& what);

}  // namespace gmg::check
