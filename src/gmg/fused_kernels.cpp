#include "gmg/fused_kernels.hpp"

#include <cmath>
#include <limits>
#include <type_traits>
#include <vector>

#include "brick/brick_plan.hpp"
#include "check/shadow.hpp"
#include "exec/runtime.hpp"
#include "gmg/brick_bodies.hpp"
#include "gmg/operators.hpp"
#include "trace/trace.hpp"

namespace gmg::fused {

namespace {

inline void count_flops(std::uint64_t pts, std::uint64_t flops_per_pt) {
  trace::counter_add("gmg.flops", pts * flops_per_pt);
}

inline std::uint64_t box_points(const Box& b) {
  return static_cast<std::uint64_t>(b.volume());
}

/// One pass over the bricks of `active`: run `pointwise(o, lo, hi)` on
/// every row at component stride K (exactly as for_each_row chunks
/// them), and restrict each INTERIOR brick's just-written residual into
/// the coarse grid. Interior bricks are always in the plan's full
/// prefix here because `active` covers the interior; clipped items are
/// ghost-shell bricks, which contribute no restriction.
template <typename BD, typename KS, typename PointwiseRow>
void descent_pass(const char* name, KS K, const BrickGrid& fg,
                  const BrickGrid& cg, const real_t* __restrict rp,
                  real_t* __restrict cp, const Box& active,
                  PointwiseRow&& pointwise) {
  const std::int64_t ni = fg.num_interior();
  const std::size_t bvol =
      static_cast<std::size_t>(BD::volume) * static_cast<std::size_t>(K);
  const auto plan = fg.iteration_plan(active, Vec3{BD::bx, BD::by, BD::bz});
  for_each_row<BD>(name, *plan, K, pointwise,
                   [&](const BrickPlanItem& it, auto full) {
                     if constexpr (decltype(full)::value) {
                       if (it.id < ni) {
                         detail::restrict_brick<BD>(
                             K, it.coord, cg,
                             rp + static_cast<std::size_t>(it.id) * bvol, cp);
                       }
                     } else {
                       GMG_ASSERT(it.id >= ni);
                     }
                   });
}

/// Shared argument checks for the fused descent kernels (`active` in
/// base cells, extents in storage cells).
void require_descent_args(const BrickedArray& r, const BrickedArray& coarse_b,
                          const Box& active) {
  const Vec3 fe = r.extent(), ce = coarse_b.extent();
  GMG_REQUIRE(fe.x == 2 * ce.x && fe.y == 2 * ce.y && fe.z == 2 * ce.z,
              "fine extent must be twice the coarse extent");
  GMG_REQUIRE(r.shape() == coarse_b.shape(),
              "fused restriction assumes equal brick shapes on both levels");
  GMG_REQUIRE(active.covers(
                  Box::from_extent({fe.x / r.components(), fe.y, fe.z})),
              "fused descent sweep must cover the fine interior");
}

}  // namespace

void require_fused_fits(const BrickShape& shape) {
  check::require_footprint_fits("fused smooth+residual+restriction",
                                descent_footprint().extents(), shape);
  GMG_REQUIRE(shape.bx % 2 == 0 && shape.by % 2 == 0 && shape.bz % 2 == 0,
              "fused smooth+residual+restriction needs even brick dims "
              "(per-brick 8->1 octant restriction)");
}

void smooth_residual_restrict(BrickedArray& x, BrickedArray& r,
                              BrickedArray& coarse_b, const BrickedArray& Ax,
                              const BrickedArray& b, real_t gamma,
                              const Box& active) {
  detail::require_same_layout(x, r, Ax, b);
  require_descent_args(r, coarse_b, active);
  const int k = x.components();
  trace::TraceSpan span("kernel.smoothResidualRestrict");
  count_flops(box_points(active) * static_cast<std::uint64_t>(k), 4);
  count_flops(static_cast<std::uint64_t>(coarse_b.extent().x) *
                  coarse_b.extent().y * coarse_b.extent().z,
              8);
  // r appears in both lists: this scope's own restriction stage reads
  // the residual the pointwise stage just wrote (same-brick
  // read-after-write, ordered within one chunk); cross-scope hazard
  // tracking still sees the full write set.
  const Box written = stretched_box(active, k);
  const auto scope = check::scope_if_enabled(
      "kernel.smoothResidualRestrict",
      {check::access(x, written), check::access(r, written),
       check::access(coarse_b, Box::from_extent(coarse_b.extent()))});
  with_brick_dims(x.base_shape(), [&](auto bd) {
    using BD = decltype(bd);
    real_t* __restrict xp = x.data();
    real_t* __restrict rp = r.data();
    real_t* __restrict cp = coarse_b.data();
    const real_t* __restrict axp = Ax.data();
    const real_t* __restrict bp = b.data();
    with_stride(k, [&](auto K) {
      descent_pass<BD>("kernel.smoothResidualRestrict", K, x.grid(),
                       coarse_b.grid(), rp, cp, active,
                       [&](std::size_t o, index_t ilo, index_t ihi) {
#pragma omp simd
                         for (index_t i = ilo; i < ihi; ++i) {
                           const real_t ax = axp[o + i];
                           const real_t rhs = bp[o + i];
                           rp[o + i] = rhs - ax;
                           xp[o + i] += gamma * (ax - rhs);
                         }
                       });
    });
  });
}

void smooth_residual_restrict_varcoef(BrickedArray& x, BrickedArray& r,
                                      BrickedArray& coarse_b,
                                      const BrickedArray& Ax,
                                      const BrickedArray& b,
                                      const BrickedArray& diag, real_t omega,
                                      const Box& active) {
  detail::require_same_layout(x, r, Ax, b);
  GMG_REQUIRE(diag.shape() == x.base_shape(), "diag must be a plain field");
  require_descent_args(r, coarse_b, active);
  const int k = x.components();
  trace::TraceSpan span("kernel.smoothResidualRestrictVarCoef");
  count_flops(box_points(active) * static_cast<std::uint64_t>(k), 6);
  count_flops(static_cast<std::uint64_t>(coarse_b.extent().x) *
                  coarse_b.extent().y * coarse_b.extent().z,
              8);
  const Box written = stretched_box(active, k);
  const auto scope = check::scope_if_enabled(
      "kernel.smoothResidualRestrictVarCoef",
      {check::access(x, written), check::access(r, written),
       check::access(coarse_b, Box::from_extent(coarse_b.extent()))});
  with_brick_dims(x.base_shape(), [&](auto bd) {
    using BD = decltype(bd);
    real_t* __restrict xp = x.data();
    real_t* __restrict rp = r.data();
    real_t* __restrict cp = coarse_b.data();
    const real_t* __restrict axp = Ax.data();
    const real_t* __restrict bp = b.data();
    with_stride(k, [&](auto K) {
      descent_pass<BD>(
          "kernel.smoothResidualRestrictVarCoef", K, x.grid(),
          coarse_b.grid(), rp, cp, active,
          [&](std::size_t o, index_t ilo, index_t ihi) {
            // The shared diagonal at the cell's base offset.
            const real_t* __restrict dp = diag.data() + o / K;
#pragma omp simd
            for (index_t i = ilo; i < ihi; ++i) {
              const real_t ax = axp[o + i];
              const real_t rhs = bp[o + i];
              rp[o + i] = rhs - ax;
              xp[o + i] += (-omega / dp[i / K]) * (ax - rhs);
            }
          });
    });
  });
}

void jacobi_sweep(BrickedArray& x_next, BrickedArray* r, const BrickedArray& x,
                  const BrickedArray& b, real_t alpha, real_t beta,
                  real_t gamma, const Box& active) {
  const BrickGrid& grid = x.grid();
  const auto same_layout = [&](const BrickedArray& f) {
    return &f.grid() == &grid && f.shape() == x.shape();
  };
  GMG_REQUIRE(same_layout(x_next) && same_layout(b) &&
                  (r == nullptr || same_layout(*r)),
              "jacobi_sweep fields must share a brick grid and layout");
  GMG_REQUIRE(x_next.data() != x.data(),
              "jacobi_sweep writes the next iterate into a second buffer");
  const int k = x.components();
  // applyOp's 8 flops plus the update's 3 (4 with the residual), per
  // cell and component.
  trace::TraceSpan span("kernel.jacobiSweep");
  count_flops(box_points(active) * static_cast<std::uint64_t>(k),
              r != nullptr ? 12 : 11);
  const Box written = stretched_box(active, k);
  std::vector<check::Access> writes{check::access(x_next, written)};
  if (r != nullptr) writes.push_back(check::access(*r, written));
  const auto scope =
      check::scope_if_enabled("kernel.jacobiSweep", std::move(writes));

  const real_t* __restrict xp = x.data();
  const real_t* __restrict bp = b.data();
  real_t* __restrict np = x_next.data();
  real_t* __restrict rp = r != nullptr ? r->data() : nullptr;
  with_brick_dims(x.base_shape(), [&](auto bd) {
    using BD = decltype(bd);
    detail::require_taps_in_grid(bd, grid, active, 1);
    const auto plan = grid.iteration_plan(active, Vec3{BD::bx, BD::by, BD::bz});
    const auto sweep = [&](auto stride, auto with_residual) {
      for_each_plan_brick<BD>(
          "kernel.jacobiSweep", *plan, [&](const BrickPlanItem& it, auto full) {
            detail::star7_brick<BD, decltype(full)::value>(
                it, xp, stride, alpha, beta, [&](std::size_t e, real_t ax) {
                  const real_t rhs = bp[e];
                  if constexpr (decltype(with_residual)::value) {
                    rp[e] = rhs - ax;
                  }
                  np[e] = xp[e] + gamma * (ax - rhs);
                });
          });
    };
    with_stride(k, [&](auto K) {
      if (rp != nullptr) {
        sweep(K, std::true_type{});
      } else {
        sweep(K, std::false_type{});
      }
    });
  });
}

void residual_restrict(BrickedArray& r, BrickedArray& coarse_b,
                       const BrickedArray& b, const BrickedArray& Ax) {
  detail::require_same_layout(r, b, Ax);
  const Vec3 fe = r.extent(), ce = coarse_b.extent();
  GMG_REQUIRE(fe.x == 2 * ce.x && fe.y == 2 * ce.y && fe.z == 2 * ce.z,
              "fine extent must be twice the coarse extent");
  GMG_REQUIRE(r.shape() == coarse_b.shape(),
              "fused restriction assumes equal brick shapes on both levels");
  trace::TraceSpan span("kernel.residualRestrict");
  const Box interior = Box::from_extent(fe);
  count_flops(box_points(interior), 1);
  count_flops(static_cast<std::uint64_t>(ce.x) * ce.y * ce.z, 8);
  const auto scope = check::scope_if_enabled(
      "kernel.residualRestrict",
      {check::access(r, interior),
       check::access(coarse_b, Box::from_extent(ce))});
  with_brick_dims(r.base_shape(), [&](auto bd) {
    using BD = decltype(bd);
    const BrickGrid& fg = r.grid();
    const BrickGrid& cg = coarse_b.grid();
    real_t* __restrict rp = r.data();
    real_t* __restrict cp = coarse_b.data();
    const real_t* __restrict bp = b.data();
    const real_t* __restrict axp = Ax.data();
    with_stride(r.components(), [&](auto K) {
      const index_t bvol = BD::volume * K;
      // Interior fine bricks are ids [0, num_interior): per brick, the
      // flat residual rows then the octant copy from the residual still
      // in cache. Any chunking is race-free (disjoint r bricks,
      // disjoint coarse octants).
      exec::parallel_for(
          "kernel.residualRestrict", fg.num_interior(),
          exec::brick_grain(BD::volume), [&](std::int64_t lo, std::int64_t hi) {
            for (std::int64_t fid = lo; fid < hi; ++fid) {
              const std::size_t base =
                  static_cast<std::size_t>(fid) * static_cast<std::size_t>(bvol);
#pragma omp simd
              for (index_t i = 0; i < bvol; ++i) {
                rp[base + i] = bp[base + i] - axp[base + i];
              }
              detail::restrict_brick<BD>(
                  K, fg.coord_of(static_cast<std::int32_t>(fid)), cg,
                  rp + base, cp);
            }
          });
    });
  });
}

real_t residual_max_norm(BrickedArray& r, const BrickedArray& b,
                         const BrickedArray& Ax) {
  trace::TraceSpan span("kernel.residualMaxNorm");
  const Box interior = Box::from_extent(r.extent());
  count_flops(box_points(interior), 2);
  const auto scope = check::scope_if_enabled(
      "kernel.residualMaxNorm", {check::access(r, interior)});
  real_t m = 0.0;
  with_brick_dims(r.shape(), [&](auto bd) {
    using BD = decltype(bd);
    real_t* __restrict rp = r.data();
    const real_t* __restrict bp = b.data();
    const real_t* __restrict axp = Ax.data();
    // Identical flat range and chunk grain as the split max_norm: the
    // per-chunk partials — and the fixed combining tree over them —
    // see the same values in the same order, so the result is bitwise
    // equal to residual() followed by max_norm() (fp max is exactly
    // associative; the residual write is elementwise identical).
    const std::int64_t n =
        static_cast<std::int64_t>(r.grid().num_interior()) * BD::volume;
    m = exec::parallel_reduce_max<real_t>(
        "kernel.residualMaxNorm", n, exec::kElementGrain,
        [&](std::int64_t lo, std::int64_t hi) {
          // NaN flag beside the max lanes, exactly as in max_norm.
          real_t local = 0.0;
          int nan = 0;
#pragma omp simd reduction(max : local) reduction(| : nan)
          for (std::int64_t i = lo; i < hi; ++i) {
            const real_t v = bp[i] - axp[i];
            rp[i] = v;
            const real_t a = std::abs(v);
            local = std::max(local, a);
            nan |= a != a;
          }
          return nan ? std::numeric_limits<real_t>::quiet_NaN() : local;
        });
  });
  return m;
}

void residual_max_norms(BrickedArray& r, const BrickedArray& b,
                        const BrickedArray& Ax, real_t* out) {
  if (r.components() == 1) {
    out[0] = residual_max_norm(r, b, Ax);
    return;
  }
  const Vec3 e = r.extent();
  residual(r, b, Ax, Box::from_extent({e.x / r.components(), e.y, e.z}));
  for (int c = 0; c < r.components(); ++c) out[c] = max_norm(r, c);
}

}  // namespace gmg::fused
