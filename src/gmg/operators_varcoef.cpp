#include "gmg/operators_varcoef.hpp"

#include "batch/batched_kernels.hpp"
#include "brick/brick_plan.hpp"
#include "check/shadow.hpp"
#include "dsl/apply_brick.hpp"
#include "dsl/stencils.hpp"
#include "trace/trace.hpp"

namespace gmg {

namespace {

inline void count_flops_vc(const Box& active, std::uint64_t flops_per_pt) {
  trace::counter_add("gmg.flops",
                     static_cast<std::uint64_t>(active.volume()) *
                         flops_per_pt);
}

/// Row visitor shared by the pointwise variable-coefficient kernels
/// (same shape as the one in operators.cpp, duplicated to keep both
/// translation units self-contained). Runs over the grid's cached
/// iteration plan on the kernel runtime; full bricks collapse to one
/// flat whole-brick call.
template <typename BD, typename Fn>
void for_each_row_vc(BD, const char* name, const BrickGrid& grid,
                     const Box& active, Fn&& fn) {
  const auto plan = grid.iteration_plan(active, Vec3{BD::bx, BD::by, BD::bz});
  for_each_plan_brick<BD>(name, *plan, [&](const BrickPlanItem& it,
                                           auto full) {
    const std::size_t base = static_cast<std::size_t>(it.id) * BD::volume;
    if constexpr (decltype(full)::value) {
      fn(base, index_t{0}, static_cast<index_t>(BD::volume));
    } else {
      for (index_t lk = it.klo; lk < it.khi; ++lk) {
        for (index_t lj = it.jlo; lj < it.jhi; ++lj) {
          fn(base + static_cast<std::size_t>((lk * BD::by + lj) * BD::bx),
             static_cast<index_t>(it.ilo), static_cast<index_t>(it.ihi));
        }
      }
    }
  });
}

}  // namespace

void apply_op_varcoef(BrickedArray& Ax, const BrickedArray& x,
                      const BrickedArray& beta, real_t identity_coef,
                      real_t h, const Box& active) {
  if (Ax.components() > 1)
    return batch::apply_op_varcoef(batch::view(Ax), batch::view(x), beta,
                                   identity_coef, h, active);
  // Six face fluxes: 2 adds + 1 sub + 1 mul each, plus the identity
  // term and flux sum — ~26 flops per output cell.
  trace::TraceSpan span("kernel.applyOpVarCoef");
  count_flops_vc(active, 26);
  const real_t f = 0.5 / (h * h);
  // Face-averaged flux form, written directly in the stencil DSL with
  // the coefficient bound to grid slot 1 (Fig. 1's "non-constant
  // coefficients"). The tree itself lives in vc:: so the batched
  // engine applies the identical expression.
  dsl::apply(vc::apply_expr(identity_coef, f), Ax, active, x, beta);
}

void varcoef_diagonal(BrickedArray& diag, const BrickedArray& beta,
                      real_t identity_coef, real_t h, const Box& active) {
  const real_t f = 0.5 / (h * h);
  dsl::apply(vc::diagonal_expr(identity_coef, f), diag, active, beta);
}

void smooth_residual_varcoef(BrickedArray& x, BrickedArray& r,
                             const BrickedArray& Ax, const BrickedArray& b,
                             const BrickedArray& diag, real_t omega,
                             const Box& active) {
  if (x.components() > 1)
    return batch::smooth_residual_varcoef(batch::view(x), batch::view(r),
                                          batch::view(Ax), batch::view(b),
                                          diag, omega, active);
  trace::TraceSpan span("kernel.smoothResidualVarCoef");
  count_flops_vc(active, 6);
  const auto scope = check::scope_if_enabled(
      "kernel.smoothResidualVarCoef",
      {check::access(x, active), check::access(r, active)});
  with_brick_dims(x.shape(), [&](auto bd) {
    real_t* __restrict xp = x.data();
    real_t* __restrict rp = r.data();
    const real_t* __restrict axp = Ax.data();
    const real_t* __restrict bp = b.data();
    const real_t* __restrict dp = diag.data();
    for_each_row_vc(bd, "kernel.smoothResidualVarCoef", x.grid(), active,
                    [&](std::size_t o, index_t ilo, index_t ihi) {
#pragma omp simd
                      for (index_t i = ilo; i < ihi; ++i) {
                        const real_t ax = axp[o + i];
                        const real_t rhs = bp[o + i];
                        rp[o + i] = rhs - ax;
                        xp[o + i] += (-omega / dp[o + i]) * (ax - rhs);
                      }
                    });
  });
}

void smooth_varcoef(BrickedArray& x, const BrickedArray& Ax,
                    const BrickedArray& b, const BrickedArray& diag,
                    real_t omega, const Box& active) {
  if (x.components() > 1)
    return batch::smooth_varcoef(batch::view(x), batch::view(Ax),
                                 batch::view(b), diag, omega, active);
  trace::TraceSpan span("kernel.smoothVarCoef");
  count_flops_vc(active, 5);
  const auto scope = check::scope_if_enabled(
      "kernel.smoothVarCoef", {check::access(x, active)});
  with_brick_dims(x.shape(), [&](auto bd) {
    real_t* __restrict xp = x.data();
    const real_t* __restrict axp = Ax.data();
    const real_t* __restrict bp = b.data();
    const real_t* __restrict dp = diag.data();
    for_each_row_vc(bd, "kernel.smoothVarCoef", x.grid(), active,
                    [&](std::size_t o, index_t ilo, index_t ihi) {
#pragma omp simd
                      for (index_t i = ilo; i < ihi; ++i) {
                        xp[o + i] += (-omega / dp[o + i]) *
                                     (axp[o + i] - bp[o + i]);
                      }
                    });
  });
}

void cheby_p_update_varcoef(BrickedArray& p, const BrickedArray& r,
                            const BrickedArray& diag, real_t beta_ch,
                            const Box& active) {
  if (p.components() > 1)
    return batch::cheby_p_update_varcoef(batch::view(p), batch::view(r), diag,
                                         beta_ch, active);
  const auto scope = check::scope_if_enabled(
      "kernel.chebyPVarCoef", {check::access(p, active)});
  with_brick_dims(p.shape(), [&](auto bd) {
    real_t* __restrict pp = p.data();
    const real_t* __restrict rp = r.data();
    const real_t* __restrict dp = diag.data();
    for_each_row_vc(bd, "kernel.chebyPVarCoef", p.grid(), active,
                    [&](std::size_t o, index_t ilo, index_t ihi) {
#pragma omp simd
                      for (index_t i = ilo; i < ihi; ++i) {
                        pp[o + i] =
                            rp[o + i] / dp[o + i] + beta_ch * pp[o + i];
                      }
                    });
  });
}

}  // namespace gmg
