// The V-cycle operators on batched (multi-RHS) bricked storage —
// K-systems twins of src/gmg/operators*.{hpp,cpp} (DESIGN.md §15).
//
// Bitwise-identity contract: every kernel here evaluates, per cell and
// component, the exact expression its solo twin evaluates (identical
// tap summation order, identical patch-up structure), under the
// repo-wide -ffp-contract=off pin. Element-independent kernels are
// therefore bitwise identical to K solo runs by construction. The
// '+'-reduction (dot) gathers each component's stride-K slice into a
// contiguous scratch chunk and calls the SAME noinline per-chunk helper
// over the SAME chunk plan as solo, reproducing solo's fixed reduction
// tree; max_norm reduces strided directly (fp max is exact under any
// association).
//
// Nothing outside src/gmg's kernel entry points calls these: each
// plain kernel there hands a K-wide field (components() > 1) to its
// twin here, so the multigrid schedule never branches on K. Kernels
// whose plain form already covers K-wide storage (init_zero,
// copy_interior: whole contiguous spans) or that run one body at
// component stride K (apply_op and the one-pass Jacobi sweep,
// gmg/star7.hpp) have no twin.
#pragma once

#include "batch/batched_array.hpp"
#include "common/types.hpp"
#include "gmg/fused_kernels.hpp"
#include "gmg/operators.hpp"
#include "gmg/operators_varcoef.hpp"

namespace gmg::batch {

/// x += gamma * (Ax - b), all K components, over `active` (base cell
/// coordinates throughout this header).
void smooth(BatchedBrickedArray x, const BatchedBrickedArray& Ax,
            const BatchedBrickedArray& b, real_t gamma, const Box& active);

/// Fused point-Jacobi smooth and residual.
void smooth_residual(BatchedBrickedArray x, BatchedBrickedArray r,
                     const BatchedBrickedArray& Ax,
                     const BatchedBrickedArray& b, real_t gamma,
                     const Box& active);

/// r = b - Ax.
void residual(BatchedBrickedArray r, const BatchedBrickedArray& b,
              const BatchedBrickedArray& Ax, const Box& active);

/// coarse = volume average of the 8 fine cells, per component. Full
/// interiors; equal base brick shapes and batch sizes.
void restriction(BatchedBrickedArray coarse, const BatchedBrickedArray& fine);

// Fused descent kernels — the K-inner twins of gmg::fused (DESIGN.md
// §16): one pass per fine brick covers the final smoother update, the
// residual, and the 8->1 coarse contribution for all K components.
// Same bitwise contract as the split twins above: identical per-cell,
// per-component expressions and summation order, so fused batched ==
// split batched == K solo runs.

/// Fused final Jacobi sweep + restriction of the just-written residual
/// (interior fine bricks) into `coarse_b`. `active` must cover the
/// fine interior.
void smooth_residual_restrict(BatchedBrickedArray x, BatchedBrickedArray r,
                              BatchedBrickedArray coarse_b,
                              const BatchedBrickedArray& Ax,
                              const BatchedBrickedArray& b, real_t gamma,
                              const Box& active);

/// Variable-coefficient twin (diag shared across the batch).
void smooth_residual_restrict_varcoef(
    BatchedBrickedArray x, BatchedBrickedArray r,
    BatchedBrickedArray coarse_b, const BatchedBrickedArray& Ax,
    const BatchedBrickedArray& b, const BrickedArray& diag, real_t omega,
    const Box& active);

/// Fused GS descent tail: r = b - Ax over the full interior plus the
/// per-brick restriction into `coarse_b`, one pass per fine brick.
void residual_restrict(BatchedBrickedArray r, BatchedBrickedArray coarse_b,
                       const BatchedBrickedArray& b,
                       const BatchedBrickedArray& Ax);

/// fine += piecewise-constant coarse correction, per component.
void interpolation_increment(BatchedBrickedArray fine,
                             const BatchedBrickedArray& coarse);

/// One red-black Gauss-Seidel half-sweep per component (constant
/// coefficients, radius 1).
void gs_color_sweep(BatchedBrickedArray x, const BatchedBrickedArray& b,
                    real_t alpha, real_t beta, int color, Vec3 origin,
                    const Box& active);

/// max |a_c| over the interior, one component.
real_t max_norm(const BatchedBrickedArray& a, int c);

/// Local <a_c, b_c> over the interior, one component.
real_t dot_interior(const BatchedBrickedArray& a, const BatchedBrickedArray& b,
                    int c);

/// y_c += alpha * x_c over the interior (per-component, for the masked
/// bottom-CG updates).
void axpy_interior(BatchedBrickedArray y, real_t alpha,
                   const BatchedBrickedArray& x, int c);

/// y_c = x_c + beta * y_c over the interior.
void xpay_interior(BatchedBrickedArray y, const BatchedBrickedArray& x,
                   real_t beta, int c);

/// y += alpha * x over `active`, all components (shared scalar).
void axpy(BatchedBrickedArray y, real_t alpha, const BatchedBrickedArray& x,
          const Box& active);

/// Chebyshev direction update p = inv_diag * r + beta * p, all
/// components.
void cheby_p_update(BatchedBrickedArray p, const BatchedBrickedArray& r,
                    real_t inv_diag, real_t beta, const Box& active);

// Variable-coefficient twins: the coefficient/diagonal fields are
// SHARED across the batch (plain solo arrays from the base hierarchy).

/// Ax = s*x + div(beta grad x), all components, beta shared.
void apply_op_varcoef(BatchedBrickedArray Ax, const BatchedBrickedArray& x,
                      const BrickedArray& beta, real_t identity_coef, real_t h,
                      const Box& active);

void smooth_residual_varcoef(BatchedBrickedArray x, BatchedBrickedArray r,
                             const BatchedBrickedArray& Ax,
                             const BatchedBrickedArray& b,
                             const BrickedArray& diag, real_t omega,
                             const Box& active);

void smooth_varcoef(BatchedBrickedArray x, const BatchedBrickedArray& Ax,
                    const BatchedBrickedArray& b, const BrickedArray& diag,
                    real_t omega, const Box& active);

void cheby_p_update_varcoef(BatchedBrickedArray p,
                            const BatchedBrickedArray& r,
                            const BrickedArray& diag, real_t beta_ch,
                            const Box& active);

// Static effect summaries (check/effects.hpp, DESIGN.md §18). Every
// batched kernel is the K-systems twin of a solo one and applies the
// SAME expression over the same base-cell footprint (the bitwise
// contract above), so its effect summary delegates to the solo
// kernel's — per-base-cell reads and writes are identical, only the
// innermost component fold differs.

constexpr check::EffectSummary smooth_effects() {
  return ::gmg::smooth_effects();
}
constexpr check::EffectSummary smooth_residual_effects() {
  return ::gmg::smooth_residual_effects();
}
constexpr check::EffectSummary residual_effects() {
  return ::gmg::residual_effects();
}
constexpr check::EffectSummary restriction_effects() {
  return ::gmg::restriction_effects();
}
constexpr check::EffectSummary smooth_residual_restrict_effects() {
  return ::gmg::fused::smooth_residual_restrict_effects();
}
constexpr check::EffectSummary smooth_residual_restrict_varcoef_effects() {
  return ::gmg::fused::smooth_residual_restrict_varcoef_effects();
}
constexpr check::EffectSummary residual_restrict_effects() {
  return ::gmg::fused::residual_restrict_effects();
}
constexpr check::EffectSummary interpolation_increment_effects() {
  return ::gmg::interpolation_increment_effects();
}
constexpr check::EffectSummary gs_color_sweep_effects() {
  return ::gmg::gs_color_sweep_effects();
}
constexpr check::EffectSummary max_norm_effects() {
  return ::gmg::max_norm_effects();
}
constexpr check::EffectSummary dot_interior_effects() {
  return ::gmg::dot_interior_effects();
}
constexpr check::EffectSummary axpy_interior_effects() {
  return ::gmg::axpy_interior_effects();
}
constexpr check::EffectSummary xpay_interior_effects() {
  return ::gmg::xpay_interior_effects();
}
constexpr check::EffectSummary axpy_effects() {
  return ::gmg::axpy_effects();
}
constexpr check::EffectSummary cheby_p_update_effects() {
  return ::gmg::cheby_p_update_effects();
}
constexpr check::EffectSummary apply_op_varcoef_effects() {
  return ::gmg::apply_op_varcoef_effects();
}
constexpr check::EffectSummary smooth_residual_varcoef_effects() {
  return ::gmg::smooth_residual_varcoef_effects();
}
constexpr check::EffectSummary smooth_varcoef_effects() {
  return ::gmg::smooth_varcoef_effects();
}
constexpr check::EffectSummary cheby_p_update_varcoef_effects() {
  return ::gmg::cheby_p_update_varcoef_effects();
}

}  // namespace gmg::batch
