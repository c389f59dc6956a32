// Per-brick kernel bodies shared across translation units, each with
// the component stride K as its only layout parameter (brick_plan.hpp:
// plain fields pass UnitStride, so the K = 1 instance folds to the solo
// loop; K-wide fields pass K at run time).
//
// star7_brick is the 7-point star shared by applyOp (operators.cpp)
// and the one-pass Jacobi sweep (fused_kernels.cpp, DESIGN.md §16).
// Per output cell it evaluates
//   ax = alpha * x + beta * (xm + xp + ym + yp + zm + zp)
// in exactly that tap order — SIMD core and x-boundary patch-ups alike
// — and hands (flat element index, ax) to the caller's `emit`, which
// stores Ax or runs the smoother update on the spot. Under the
// repo-wide -ffp-contract=off pin every caller therefore sees the same
// ax bits, and cells computed redundantly in CA ghost bricks are
// bitwise equal to the owning rank's interior computation.
//
// restrict_brick is the 8->1 full weighting of one fine brick, shared
// by restriction() and the fused descent kernels, so fused coarse RHS
// values are bitwise equal to the split pass.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <type_traits>

#include "brick/brick_plan.hpp"
#include "brick/bricked_array.hpp"
#include "common/error.hpp"
#include "common/types.hpp"

namespace gmg::detail {

/// Every field of one launch has the same storage layout, so one
/// component stride and one flat index serve them all.
template <typename... Fields>
void require_same_layout(const BrickedArray& a, const Fields&... fs) {
  GMG_REQUIRE(((fs.shape() == a.shape()) && ...),
              "fields of one kernel must share a storage layout");
}

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

/// 8->1 full weighting of the interior fine brick at grid coordinate
/// `bc` (storage `fb`, stride K) into its octant of the coarse field
/// `cp` over grid `cg`: per coarse cell and component, 0.125 times the
/// eight fine taps summed in one fixed order.
template <typename BD, typename KS>
inline void restrict_brick(KS K, const Vec3& bc, const BrickGrid& cg,
                           const real_t* __restrict fb,
                           real_t* __restrict cp) {
  static_assert(BD::bx % 2 == 0 && BD::by % 2 == 0 && BD::bz % 2 == 0);
  const std::int32_t cid = cg.storage_id({bc.x / 2, bc.y / 2, bc.z / 2});
  GMG_ASSERT(cid >= 0);
  // In-coarse-brick base offset of this fine brick's image.
  const index_t ox = (bc.x % 2) * (BD::bx / 2);
  const index_t oy = (bc.y % 2) * (BD::by / 2);
  const index_t oz = (bc.z % 2) * (BD::bz / 2);
  const index_t row = BD::bx * K;
  const index_t plane = BD::by * row;
  real_t* cb = cp + static_cast<std::size_t>(cid) *
                        static_cast<std::size_t>(BD::volume * K);
  for (index_t lk = 0; lk < BD::bz; lk += 2) {
    for (index_t lj = 0; lj < BD::by; lj += 2) {
      const real_t* r0 = fb + lk * plane + lj * row;
      const real_t* r1 = r0 + row;    // j+1
      const real_t* r2 = r0 + plane;  // k+1
      const real_t* r3 = r2 + row;    // j+1, k+1
      real_t* crow = cb + (oz + lk / 2) * plane + (oy + lj / 2) * row + ox * K;
#pragma omp simd
      for (index_t li = 0; li < BD::bx / 2; ++li) {
        for (index_t c = 0; c < K; ++c) {
          const index_t f = 2 * li * K + c;
          crow[li * K + c] =
              0.125 * (r0[f] + r0[f + K] + r1[f] + r1[f + K] + r2[f] +
                       r2[f + K] + r3[f] + r3[f + K]);
        }
      }
    }
  }
}

}  // namespace gmg::detail
