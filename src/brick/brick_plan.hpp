// Fan a cached BrickIterPlan out over the parallel kernel runtime.
//
// The plan's item order (full bricks first, then clipped, each half
// lexicographic) combined with the runtime's worker-count-independent
// chunk boundaries makes every sweep deterministic: the same bricks
// always land in the same chunks, regardless of how many workers drain
// them.
#pragma once

#include <cstddef>
#include <type_traits>

#include "brick/brick_grid.hpp"
#include "brick/bricked_array.hpp"
#include "check/shadow.hpp"
#include "exec/runtime.hpp"

namespace gmg {

/// Invoke `per_brick(item, is_full)` for every brick of `plan`, chunked
/// over the runtime. `is_full` is std::true_type for full-interior
/// bricks (clip bounds statically whole-brick — kernels specialize to a
/// straight-line loop) and std::false_type for clipped ones. BD is the
/// BrickDims tag sizing the per-chunk grain.
template <typename BD, typename Fn>
void for_each_plan_brick(const char* name, const BrickIterPlan& plan,
                         Fn&& per_brick) {
  if (check::enabled()) {
    // A corrupt plan (duplicate ids, clip bounds escaping the brick)
    // would fan writes outside the kernel's declared region in ways
    // the deterministic chunk schedule hides from TSan.
    check::validate_plan(name, plan.items.data(), plan.items.size(),
                         plan.num_full, Vec3{BD::bx, BD::by, BD::bz});
  }
  const std::int64_t nf = plan.num_full;
  exec::parallel_for(
      name, static_cast<std::int64_t>(plan.items.size()),
      exec::brick_grain(BD::volume), [&](std::int64_t b, std::int64_t e) {
        for (std::int64_t i = b; i < e && i < nf; ++i) {
          per_brick(plan.items[static_cast<std::size_t>(i)],
                    std::true_type{});
        }
        for (std::int64_t i = b > nf ? b : nf; i < e; ++i) {
          per_brick(plan.items[static_cast<std::size_t>(i)],
                    std::false_type{});
        }
      });
}

/// The compile-time component stride of a plain field. Kernel bodies
/// take the component stride K of their fields as their only layout
/// parameter (a K-wide field stores component c of cell i at stretched
/// row element i*K + c, bricked_array.hpp): plain fields pass
/// UnitStride, whose K = 1 instance folds to the solo loop, and K-wide
/// fields pass K at run time.
using UnitStride = std::integral_constant<index_t, 1>;

/// Call fn(K) with the component stride of a `k`-wide field.
template <typename Fn>
decltype(auto) with_stride(int k, Fn&& fn) {
  if (k == 1) return fn(UnitStride{});
  return fn(static_cast<index_t>(k));
}

/// Visit the contiguous rows of every item of `plan` at component
/// stride K: row(o, lo, hi) covers storage elements [o + lo, o + hi),
/// in the flat index every field of the grid and width shares — the
/// base-cell row [ilo, ihi) at base offset b is [ilo*K, ihi*K) at
/// b*K. Full bricks collapse to ONE call over the whole brick, since
/// element-wise bodies don't care about row structure. After an item's
/// rows, done(item, is_full) runs in the same chunk.
template <typename BD, typename KS, typename Row, typename Done>
void for_each_row(const char* name, const BrickIterPlan& plan, KS K, Row&& row,
                  Done&& done) {
  const std::size_t bvol =
      static_cast<std::size_t>(BD::volume) * static_cast<std::size_t>(K);
  for_each_plan_brick<BD>(name, plan, [&](const BrickPlanItem& it,
                                          auto full) {
    const std::size_t base = static_cast<std::size_t>(it.id) * bvol;
    if constexpr (decltype(full)::value) {
      row(base, index_t{0}, static_cast<index_t>(BD::volume * K));
    } else {
      for (index_t lk = it.klo; lk < it.khi; ++lk) {
        for (index_t lj = it.jlo; lj < it.jhi; ++lj) {
          row(base + static_cast<std::size_t>((lk * BD::by + lj) * BD::bx * K),
              static_cast<index_t>(it.ilo * K),
              static_cast<index_t>(it.ihi * K));
        }
      }
    }
    done(it, full);
  });
}

template <typename BD, typename KS, typename Row>
void for_each_row(const char* name, const BrickIterPlan& plan, KS K,
                  Row&& row) {
  for_each_row<BD>(name, plan, K, row, [](const BrickPlanItem&, auto) {});
}

/// The rows of `active` (base cells) over the grid of `f`, at f's
/// brick dims and component stride: row(o, lo, hi, K) as above, with K
/// for bodies that read a plain field shared by every component at the
/// cell's base offset (o + i) / K.
template <typename Row>
void for_each_row(const char* name, const BrickedArray& f, const Box& active,
                  Row&& row) {
  with_brick_dims(f.base_shape(), [&](auto bd) {
    using BD = decltype(bd);
    const auto plan =
        f.grid().iteration_plan(active, Vec3{BD::bx, BD::by, BD::bz});
    with_stride(f.components(), [&](auto K) {
      for_each_row<BD>(name, *plan, K,
                       [&](std::size_t o, index_t lo, index_t hi) {
                         row(o, lo, hi, K);
                       });
    });
  });
}

}  // namespace gmg
