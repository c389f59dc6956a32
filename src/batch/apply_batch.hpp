// Apply a DSL expression over batched (multi-RHS) bricked storage —
// the K-systems twin of dsl::apply (src/dsl/apply_brick.hpp,
// DESIGN.md §15).
//
// Iteration runs over the BASE brick plan (the same cached plan the
// solo kernels use) with an innermost loop over the K components.
// Input slots may be batched (a BatchedBrickedArray: component c of
// cell e at flat e*K + c) or shared across the batch (a plain
// BrickedArray, e.g. the variable-coefficient field: every component
// reads the same value). Each element evaluates the SAME expression
// tree as the solo engine — expressions are element-independent, so
// under the repo-wide -ffp-contract=off pin every component's result
// is bitwise identical to a solo apply of that component, regardless
// of loop order or vectorization.
#pragma once

#include <array>
#include <optional>

#include "batch/batched_array.hpp"
#include "brick/brick_plan.hpp"
#include "check/footprint.hpp"
#include "check/shadow.hpp"
#include "dsl/expr.hpp"

namespace gmg::batch {

namespace detail {

/// Accessor resolving base-cell coordinates through the adjacency
/// table, then indexing component `c` of the slot's (possibly
/// stretched) storage. stride = K for batched slots, 1 for shared.
template <typename BD, int NSlots>
struct BatchedAccessor {
  std::array<const real_t*, NSlots> field;
  std::array<index_t, NSlots> stride;
  const std::int32_t* adj;
  std::int32_t id;
  index_t c = 0;

  template <int Slot>
  real_t load(index_t li, index_t lj, index_t lk) const {
    const int sx = li < 0 ? -1 : (li >= BD::bx ? 1 : 0);
    const int sy = lj < 0 ? -1 : (lj >= BD::by ? 1 : 0);
    const int sz = lk < 0 ? -1 : (lk >= BD::bz ? 1 : 0);
    std::int32_t b = id;
    if (sx != 0 || sy != 0 || sz != 0) {
      b = adj[direction_index(sx, sy, sz)];
      GMG_ASSERT(b >= 0);
      li -= sx * BD::bx;
      lj -= sy * BD::by;
      lk -= sz * BD::bz;
    }
    const std::size_t e =
        static_cast<std::size_t>(b) * BD::volume +
        static_cast<std::size_t>((lk * BD::by + lj) * BD::bx + li);
    const index_t s = stride[Slot];
    return field[Slot][e * static_cast<std::size_t>(s) +
                       static_cast<std::size_t>(s > 1 ? c : 0)];
  }
};

inline const real_t* slot_data(const BatchedBrickedArray& f) {
  return f.data();
}
inline const real_t* slot_data(const BrickedArray& f) { return f.data(); }

inline index_t slot_stride(const BatchedBrickedArray& f) {
  return static_cast<index_t>(f.batch());
}
inline index_t slot_stride(const BrickedArray&) { return 1; }

inline const BrickGrid* slot_grid(const BatchedBrickedArray& f) {
  return &f.grid();
}
inline const BrickGrid* slot_grid(const BrickedArray& f) { return &f.grid(); }

inline void slot_require_shape(const BatchedBrickedArray& f, BrickShape base,
                               int k) {
  GMG_REQUIRE(f.base_shape() == base && f.batch() == k,
              "batched apply: slot base shape / batch size mismatch");
}
inline void slot_require_shape(const BrickedArray& f, BrickShape base, int) {
  GMG_REQUIRE(f.shape() == base,
              "batched apply: shared slot brick shape mismatch");
}

template <typename BD, typename Expr, typename... Fields>
void apply_batched_impl(BD, const Expr& expr, BatchedBrickedArray out,
                        const Box& active, const Fields&... inputs) {
  const BrickGrid& grid = out.grid();
  const auto check_grid = [&](const auto& f) {
    GMG_REQUIRE(slot_grid(f) == &grid,
                "all fields of one batched apply must share a brick grid");
  };
  (check_grid(inputs), ...);

  const index_t kBatch = static_cast<index_t>(out.batch());

  // Footprint-vs-ghost checks run against the BASE shape: taps are in
  // base cells and the ghost region is one base brick (K components)
  // deep either way.
  const dsl::Extents ext = expr.extents();
  check::require_footprint_fits("batch::apply", ext,
                                BrickShape{BD::bx, BD::by, BD::bz});

  constexpr int kSlots = sizeof...(Fields);
  const std::array<const real_t*, kSlots> bases{slot_data(inputs)...};
  const std::array<index_t, kSlots> strides{slot_stride(inputs)...};

  std::optional<check::KernelScope> scope;
  if (check::enabled()) {
    scope.emplace("batch.apply",
                  std::vector<check::Access>{check::access(
                      out.inner(), stretch_box(active, out.batch()))});
  }

  {
    const Box tap_region{
        {floor_div(active.lo.x + ext.lo[0], BD::bx),
         floor_div(active.lo.y + ext.lo[1], BD::by),
         floor_div(active.lo.z + ext.lo[2], BD::bz)},
        {floor_div(active.hi.x - 1 + ext.hi[0], BD::bx) + 1,
         floor_div(active.hi.y - 1 + ext.hi[1], BD::by) + 1,
         floor_div(active.hi.z - 1 + ext.hi[2], BD::bz) + 1}};
    GMG_REQUIRE(grid.extended_box().covers(tap_region),
                "stencil taps reach beyond the ghost bricks");
  }

  const auto plan = grid.iteration_plan(active, Vec3{BD::bx, BD::by, BD::bz});
  real_t* const out_base = out.data();
  for_each_plan_brick<BD>(
      "batch.apply", *plan, [&](const BrickPlanItem& it, auto full) {
        constexpr bool kFull = decltype(full)::value;
        const std::int32_t id = it.id;
        real_t* __restrict ob =
            out_base +
            static_cast<std::size_t>(id) * BD::volume *
                static_cast<std::size_t>(kBatch);

        const index_t ilo = kFull ? 0 : it.ilo;
        const index_t ihi = kFull ? BD::bx : it.ihi;
        const index_t jlo = kFull ? 0 : it.jlo;
        const index_t jhi = kFull ? BD::by : it.jhi;
        const index_t klo = kFull ? 0 : it.klo;
        const index_t khi = kFull ? BD::bz : it.khi;

        BatchedAccessor<BD, kSlots> acc{bases, strides, it.adj, id, 0};
        for (index_t lk = klo; lk < khi; ++lk) {
          for (index_t lj = jlo; lj < jhi; ++lj) {
            real_t* __restrict orow =
                ob + (lk * BD::by + lj) * BD::bx * kBatch;
            for (index_t li = ilo; li < ihi; ++li) {
              for (index_t c = 0; c < kBatch; ++c) {
                acc.c = c;
                orow[li * kBatch + c] = expr.eval(acc, li, lj, lk);
              }
            }
          }
        }
      });
}

}  // namespace detail

/// out(i,j,k,c) = expr evaluated on component c, for all K components,
/// over `active` (base cell coordinates). Inputs may be
/// BatchedBrickedArrays (per-component) or BrickedArrays (shared).
template <typename Expr, typename... Fields>
void apply(const Expr& expr, BatchedBrickedArray out, const Box& active,
           const Fields&... inputs) {
  (detail::slot_require_shape(inputs, out.base_shape(), out.batch()), ...);
  with_brick_dims(out.base_shape(), [&](auto bd) {
    detail::apply_batched_impl(bd, expr, out, active, inputs...);
  });
}

}  // namespace gmg::batch
