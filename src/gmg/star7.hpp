// The 7-point star's per-brick body, shared by applyOp (operators.cpp)
// and the one-pass Jacobi sweep (fused_kernels.cpp, DESIGN.md §16).
//
// One body serves every field width: K, the component stride, is its
// only layout parameter. Plain fields pass
// std::integral_constant<index_t, 1>, so the K = 1 instance folds to
// the solo loop; K-wide fields (DESIGN.md §15: component c of cell i at
// stretched row element i*K + c) pass K at run time. Per output cell
// the body evaluates
//   ax = alpha * x + beta * (xm + xp + ym + yp + zm + zp)
// in exactly that tap order — SIMD core and x-boundary patch-ups alike
// — and hands (flat element index, ax) to the caller's `emit`, which
// stores Ax or runs the smoother update on the spot. Under the
// repo-wide -ffp-contract=off pin every caller therefore sees the same
// ax bits, and cells computed redundantly in CA ghost bricks are
// bitwise equal to the owning rank's interior computation.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <type_traits>

#include "brick/brick_grid.hpp"
#include "common/error.hpp"
#include "common/types.hpp"

namespace gmg::detail {

/// The compile-time unit stride of a plain field.
using UnitStride = std::integral_constant<index_t, 1>;

/// The brick-coordinate cover of the taps of `active` at stencil
/// `radius` must lie within the grid (the active region grown by the
/// radius, in bricks).
template <typename BD>
void require_taps_in_grid(BD, const BrickGrid& grid, const Box& active,
                          index_t radius) {
  const Box tap_region{{floor_div(active.lo.x - radius, BD::bx),
                        floor_div(active.lo.y - radius, BD::by),
                        floor_div(active.lo.z - radius, BD::bz)},
                       {floor_div(active.hi.x - 1 + radius, BD::bx) + 1,
                        floor_div(active.hi.y - 1 + radius, BD::by) + 1,
                        floor_div(active.hi.z - 1 + radius, BD::bz) + 1}};
  GMG_REQUIRE(grid.extended_box().covers(tap_region),
              "stencil taps reach beyond the ghost bricks");
}

/// Evaluate the 7-point star over one plan item of `x` (storage base
/// `xp`, stride `K`) and call emit(e, ax) for each active cell, e being
/// the flat storage index shared by every field of the grid.
///
/// The six neighbour bricks are resolved once per brick, and only
/// those this item's clip reaches: a clipped ghost brick at the edge of
/// the extended grid has no brick beyond it, and its clip bounds keep
/// every tap off that side. Full bricks run compile-time bounds; full
/// bricks of up to 4^3 cells also unroll their rows, whose two-cell
/// SIMD cores would otherwise pay loop overhead per row.
template <typename BD, bool kFull, typename KS, typename Emit>
inline void star7_brick(const BrickPlanItem& it, const real_t* __restrict xp,
                        KS K, real_t alpha, real_t beta, Emit&& emit) {
  const std::size_t bvol =
      static_cast<std::size_t>(BD::volume) * static_cast<std::size_t>(K);
  const std::size_t base = static_cast<std::size_t>(it.id) * bvol;
  const real_t* __restrict xb = xp + base;

  const index_t ilo = kFull ? 0 : it.ilo;
  const index_t ihi = kFull ? BD::bx : it.ihi;
  const index_t jlo = kFull ? 0 : it.jlo;
  const index_t jhi = kFull ? BD::by : it.jhi;
  const index_t klo = kFull ? 0 : it.klo;
  const index_t khi = kFull ? BD::bz : it.khi;

  const auto neighbour = [&](bool reached, int dx, int dy,
                             int dz) -> const real_t* {
    if (!reached) return nullptr;
    const std::int32_t b = it.adj[direction_index(dx, dy, dz)];
    GMG_ASSERT(b >= 0);
    return xp + static_cast<std::size_t>(b) * bvol;
  };
  const real_t* const west = neighbour(ilo == 0, -1, 0, 0);
  const real_t* const east = neighbour(ihi == BD::bx, 1, 0, 0);
  const real_t* const south = neighbour(jlo == 0, 0, -1, 0);
  const real_t* const north = neighbour(jhi == BD::by, 0, 1, 0);
  const real_t* const down = neighbour(klo == 0, 0, 0, -1);
  const real_t* const up = neighbour(khi == BD::bz, 0, 0, 1);

  const index_t row = BD::bx * K;
  const index_t plane = BD::by * row;
  const auto offset = [&](index_t lj, index_t lk) {
    return lk * plane + lj * row;
  };

  const auto do_row = [&](index_t lj, index_t lk) {
    const index_t o = offset(lj, lk);
    const real_t* __restrict xr = xb + o;
    const real_t* __restrict ym =
        lj > 0 ? xr - row : south + offset(BD::by - 1, lk);
    const real_t* __restrict yp =
        lj < BD::by - 1 ? xr + row : north + offset(0, lk);
    const real_t* __restrict zm =
        lk > 0 ? xr - plane : down + offset(lj, BD::bz - 1);
    const real_t* __restrict zp =
        lk < BD::bz - 1 ? xr + plane : up + offset(lj, 0);
    const std::size_t e0 = base + static_cast<std::size_t>(o);

    if constexpr (kFull && BD::bx <= 4 && std::is_same_v<KS, UnitStride>) {
      // Whole plain row: gather the west/east taps into two short row
      // images so one SIMD loop covers every cell, boundary included.
      alignas(64) real_t xw[BD::bx];
      alignas(64) real_t xe[BD::bx];
      xw[0] = west[o + BD::bx - 1];
      for (index_t i = 1; i < BD::bx; ++i) xw[i] = xr[i - 1];
      for (index_t i = 0; i + 1 < BD::bx; ++i) xe[i] = xr[i + 1];
      xe[BD::bx - 1] = east[o];
#pragma omp simd
      for (index_t i = 0; i < BD::bx; ++i) {
        emit(e0 + static_cast<std::size_t>(i),
             alpha * xr[i] +
                 beta * (xw[i] + xe[i] + ym[i] + yp[i] + zm[i] + zp[i]));
      }
      return;
    }
    // SIMD core over [max(ilo,1), min(ihi,B-1)), where the x taps sit
    // at +-K inside the row, then the two x-boundary cells, whose outer
    // tap lives in the west/east brick.
    const index_t core_lo = kFull ? 1 : std::max<index_t>(ilo, 1);
    const index_t core_hi =
        kFull ? BD::bx - 1 : std::min<index_t>(ihi, BD::bx - 1);
#pragma omp simd
    for (index_t s = core_lo * K; s < core_hi * K; ++s) {
      emit(e0 + static_cast<std::size_t>(s),
           alpha * xr[s] + beta * (xr[s - K] + xr[s + K] + ym[s] + yp[s] +
                                   zm[s] + zp[s]));
    }
    if (kFull || ilo == 0) {
      const real_t* __restrict xw = west + o + (BD::bx - 1) * K;
      for (index_t c = 0; c < K; ++c) {
        emit(e0 + static_cast<std::size_t>(c),
             alpha * xr[c] + beta * (xw[c] + xr[K + c] + ym[c] + yp[c] +
                                     zm[c] + zp[c]));
      }
    }
    if (kFull || ihi == BD::bx) {
      const index_t e = (BD::bx - 1) * K;
      const real_t* __restrict xe = east + o;
      for (index_t c = 0; c < K; ++c) {
        const index_t s = e + c;
        emit(e0 + static_cast<std::size_t>(s),
             alpha * xr[s] + beta * (xr[s - K] + xe[c] + ym[s] + yp[s] +
                                     zm[s] + zp[s]));
      }
    }
  };

  if constexpr (kFull && BD::bx <= 4) {
#pragma GCC unroll 4
    for (index_t lk = 0; lk < BD::bz; ++lk) {
#pragma GCC unroll 4
      for (index_t lj = 0; lj < BD::by; ++lj) do_row(lj, lk);
    }
  } else {
    for (index_t lk = klo; lk < khi; ++lk) {
      for (index_t lj = jlo; lj < jhi; ++lj) do_row(lj, lk);
    }
  }
}

}  // namespace gmg::detail
