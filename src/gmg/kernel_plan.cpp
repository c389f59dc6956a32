#include "gmg/kernel_plan.hpp"

#include <array>
#include <utility>

#include "dsl/apply_brick.hpp"
#include "dsl/generated/laplacian_7pt_gen.hpp"
#include "dsl/generated/star_13pt_gen.hpp"
#include "dsl/stencils.hpp"
#include "gmg/fused_kernels.hpp"
#include "gmg/level.hpp"
#include "gmg/operators.hpp"
#include "gmg/operators_varcoef.hpp"
#include "gmg/solver.hpp"
#include "perf/profiler.hpp"

namespace gmg {

// This file IS the specializer registry: the only place in src/gmg
// that names the per-stage kernels directly. Everything in the sweep
// hot path (solver.cpp) calls through the bound functors —
// tools/gmg_lint enforces that no bare per-stage kernel call creeps
// back into the solver.
void resolve_level_kernels(const GmgOptions& opts, MgLevel& lev) {
  KernelPlan plan;
  plan.sweep = lev.plan.sweep;  // assigned by the solver; keep across
                                // a set_coefficient re-resolve

  const bool jacobi = opts.smoother == Smoother::kPointJacobi ||
                      opts.smoother == Smoother::kWeightedJacobi;
  plan.weight = opts.smoother == Smoother::kWeightedJacobi
                    ? opts.jacobi_weight
                    : real_t{0.5};
  // Fusion capability predicate (see kernel_plan.hpp): full descent
  // fusion needs a pointwise final smoother application (Jacobi
  // family); GS fuses only its residual+restriction tail; Chebyshev
  // falls back to the split schedule entirely. The residual+norm
  // fusion is smoother-independent.
  plan.fuse_descent = opts.fuse_stages && jacobi;
  plan.fuse_gs_tail =
      opts.fuse_stages && opts.smoother == Smoother::kRedBlackGS;
  plan.fuse_norm = opts.fuse_stages;

  // The functors capture the LEVEL pointer plus scalars by value:
  // detach/attach_field_storage reassigns the field BrickedArrays, so
  // bindings dereference through the level at call time. MgLevel
  // addresses are stable (levels_ is sized once at construction).
  MgLevel* L = &lev;

  // applyOp variant: the former branch chain in
  // GmgSolver::apply_operator, resolved once per level instead of per
  // sweep.
  if (lev.varcoef) {
    const real_t s = opts.identity_coef;
    plan.apply = [L, s](BrickedArray& out, const BrickedArray& in,
                        const Box& active) {
      apply_op_varcoef(out, in, L->coef, s, L->h, active);
    };
  } else if (opts.use_generated_kernels) {
    if (lev.radius == 1) {
      plan.apply = [L](BrickedArray& out, const BrickedArray& in,
                       const Box& active) {
        dsl::generated::laplacian_7pt(out, in, L->alpha, L->beta, active);
      };
    } else {
      plan.apply = [L](BrickedArray& out, const BrickedArray& in,
                       const Box& active) {
        dsl::generated::star_13pt(out, in, L->alpha, L->beta, L->beta2,
                                  active);
      };
    }
  } else if (lev.radius == 1) {
    plan.apply = [L](BrickedArray& out, const BrickedArray& in,
                     const Box& active) {
      apply_op(out, in, L->alpha, L->beta, active);
    };
  } else {
    plan.apply = [L](BrickedArray& out, const BrickedArray& in,
                     const Box& active) {
      dsl::apply(dsl::star_stencil<2, 0>(
                     std::array<real_t, 3>{L->alpha, L->beta, L->beta2}),
                 out, active, in);
    };
  }

  // Pointwise smoother stage, const/var coefficient resolved here.
  const real_t weight = plan.weight;
  if (lev.varcoef) {
    plan.smooth = [L, weight](const Box& active) {
      smooth_varcoef(L->x, L->Ax, L->b, L->diag, weight, active);
    };
    plan.smooth_residual = [L, weight](const Box& active) {
      smooth_residual_varcoef(L->x, L->r, L->Ax, L->b, L->diag, weight,
                              active);
    };
    plan.smooth_residual_restrict = [L, weight](BrickedArray& coarse_b,
                                                const Box& active) {
      fused::smooth_residual_restrict_varcoef(L->x, L->r, coarse_b, L->Ax,
                                              L->b, L->diag, weight, active);
    };
  } else {
    const real_t gamma = -weight / lev.alpha;
    plan.smooth = [L, gamma](const Box& active) {
      smooth(L->x, L->Ax, L->b, gamma, active);
    };
    plan.smooth_residual = [L, gamma](const Box& active) {
      smooth_residual(L->x, L->r, L->Ax, L->b, gamma, active);
    };
    plan.smooth_residual_restrict = [L, gamma](BrickedArray& coarse_b,
                                               const Box& active) {
      fused::smooth_residual_restrict(L->x, L->r, coarse_b, L->Ax, L->b,
                                      gamma, active);
    };
  }

  // One Jacobi sweep: the one-pass kernel where the level qualifies,
  // otherwise the split applyOp + smooth(+residual) pair through the
  // bindings above. The one-pass form swaps x with Ax and leaves no
  // A x behind, so the final descent sweep (whose restriction tail
  // reads Ax) and patch smoothing (amr/composite_solver.cpp, which
  // keeps prolonged interface ghosts in x's own buffer) call the
  // split bindings directly.
  plan.fuse_sweep = opts.fuse_stages && jacobi && !lev.varcoef &&
                    lev.radius == 1 && !opts.use_generated_kernels;
  if (plan.fuse_sweep) {
    const real_t gamma = -weight / lev.alpha;
    plan.jacobi_sweep = [L, gamma](perf::Profiler& prof, const Box& active,
                                   bool with_residual) {
      prof.timed(L->level, perf::Phase::kFusedSweep, [&] {
        fused::jacobi_sweep(L->Ax, with_residual ? &L->r : nullptr, L->x,
                            L->b, L->alpha, L->beta, gamma, active);
      });
      std::swap(L->x, L->Ax);
    };
  } else {
    plan.jacobi_sweep = [L](perf::Profiler& prof, const Box& active,
                            bool with_residual) {
      prof.timed(L->level, perf::Phase::kApplyOp,
                 [&] { L->plan.apply(L->Ax, L->x, active); });
      if (with_residual) {
        prof.timed(L->level, perf::Phase::kSmoothResidual,
                   [&] { L->plan.smooth_residual(active); });
      } else {
        prof.timed(L->level, perf::Phase::kSmooth,
                   [&] { L->plan.smooth(active); });
      }
    };
  }

  plan.residual_restrict = [L](BrickedArray& coarse_b) {
    fused::residual_restrict(L->r, coarse_b, L->b, L->Ax);
  };
  plan.residual_max_norms = [L](real_t* out) {
    fused::residual_max_norms(L->r, L->b, L->Ax, out);
  };

  lev.plan = std::move(plan);
}

}  // namespace gmg
