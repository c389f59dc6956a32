#include "gmg/operators_varcoef.hpp"

#include "brick/brick_plan.hpp"
#include "check/shadow.hpp"
#include "dsl/apply_brick.hpp"
#include "dsl/stencils.hpp"
#include "gmg/brick_bodies.hpp"
#include "trace/trace.hpp"

namespace gmg {

namespace {

inline void count_flops_vc(const Box& active, int k,
                           std::uint64_t flops_per_pt) {
  trace::counter_add("gmg.flops", static_cast<std::uint64_t>(active.volume()) *
                                      static_cast<std::uint64_t>(k) *
                                      flops_per_pt);
}

/// The pointwise kernels' fields share one storage layout; the
/// coefficient-derived `diag` is a plain field shared by every
/// component.
template <typename... Fields>
void require_layout(const BrickedArray& diag, const BrickedArray& a,
                    const Fields&... fs) {
  detail::require_same_layout(a, fs...);
  GMG_REQUIRE(diag.shape() == a.base_shape(), "diag must be a plain field");
}

}  // namespace

void apply_op_varcoef(BrickedArray& Ax, const BrickedArray& x,
                      const BrickedArray& beta, real_t identity_coef,
                      real_t h, const Box& active) {
  // Six face fluxes: 2 adds + 1 sub + 1 mul each, plus the identity
  // term and flux sum — ~26 flops per output cell.
  trace::TraceSpan span("kernel.applyOpVarCoef");
  count_flops_vc(active, x.components(), 26);
  const real_t f = 0.5 / (h * h);
  // Face-averaged flux form, written directly in the stencil DSL with
  // the coefficient bound to grid slot 1 (Fig. 1's "non-constant
  // coefficients"); a K-wide x reads the plain coefficient as a slot
  // shared by every component.
  dsl::apply(vc::apply_expr(identity_coef, f), Ax, active, x, beta);
}

void varcoef_diagonal(BrickedArray& diag, const BrickedArray& beta,
                      real_t identity_coef, real_t h, const Box& active) {
  const real_t f = 0.5 / (h * h);
  dsl::apply(vc::diagonal_expr(identity_coef, f), diag, active, beta);
}

// The pointwise kernels below run row(o, lo, hi) at component stride K
// (brick_plan.hpp); the shared diagonal of storage element o + i is
// plain element (o + i) / K, the cell's base offset.

void smooth_residual_varcoef(BrickedArray& x, BrickedArray& r,
                             const BrickedArray& Ax, const BrickedArray& b,
                             const BrickedArray& diag, real_t omega,
                             const Box& active) {
  require_layout(diag, x, r, Ax, b);
  const int k = x.components();
  trace::TraceSpan span("kernel.smoothResidualVarCoef");
  count_flops_vc(active, k, 6);
  const Box written = stretched_box(active, k);
  const auto scope = check::scope_if_enabled(
      "kernel.smoothResidualVarCoef",
      {check::access(x, written), check::access(r, written)});
  real_t* __restrict xp = x.data();
  real_t* __restrict rp = r.data();
  const real_t* __restrict axp = Ax.data();
  const real_t* __restrict bp = b.data();
  for_each_row("kernel.smoothResidualVarCoef", x, active,
               [&](std::size_t o, index_t ilo, index_t ihi, auto K) {
                 const real_t* __restrict dp = diag.data() + o / K;
#pragma omp simd
                 for (index_t i = ilo; i < ihi; ++i) {
                   const real_t ax = axp[o + i];
                   const real_t rhs = bp[o + i];
                   rp[o + i] = rhs - ax;
                   xp[o + i] += (-omega / dp[i / K]) * (ax - rhs);
                 }
               });
}

void smooth_varcoef(BrickedArray& x, const BrickedArray& Ax,
                    const BrickedArray& b, const BrickedArray& diag,
                    real_t omega, const Box& active) {
  require_layout(diag, x, Ax, b);
  const int k = x.components();
  trace::TraceSpan span("kernel.smoothVarCoef");
  count_flops_vc(active, k, 5);
  const auto scope = check::scope_if_enabled(
      "kernel.smoothVarCoef", {check::access(x, stretched_box(active, k))});
  real_t* __restrict xp = x.data();
  const real_t* __restrict axp = Ax.data();
  const real_t* __restrict bp = b.data();
  for_each_row("kernel.smoothVarCoef", x, active,
               [&](std::size_t o, index_t ilo, index_t ihi, auto K) {
                 const real_t* __restrict dp = diag.data() + o / K;
#pragma omp simd
                 for (index_t i = ilo; i < ihi; ++i) {
                   xp[o + i] += (-omega / dp[i / K]) *
                                (axp[o + i] - bp[o + i]);
                 }
               });
}

void cheby_p_update_varcoef(BrickedArray& p, const BrickedArray& r,
                            const BrickedArray& diag, real_t beta_ch,
                            const Box& active) {
  require_layout(diag, p, r);
  const int k = p.components();
  const auto scope = check::scope_if_enabled(
      "kernel.chebyPVarCoef", {check::access(p, stretched_box(active, k))});
  real_t* __restrict pp = p.data();
  const real_t* __restrict rp = r.data();
  for_each_row("kernel.chebyPVarCoef", p, active,
               [&](std::size_t o, index_t ilo, index_t ihi, auto K) {
                 const real_t* __restrict dp = diag.data() + o / K;
#pragma omp simd
                 for (index_t i = ilo; i < ihi; ++i) {
                   pp[o + i] = rp[o + i] / dp[i / K] +
                               beta_ch * pp[o + i];
                 }
               });
}

}  // namespace gmg
