// Fused multi-stage kernels for the descent leg of the V-cycle
// (DESIGN.md §16). The split schedule makes three full passes over
// each fine brick per level visit — smooth, residual, restriction —
// even though fine-grain blocking keeps a brick's working set
// resident. These kernels glue the post-applyOp stages into ONE pass:
// per fine brick, the final smoother update, r = b - Ax, and the 8->1
// full-weighted coarse contribution, with the brick's freshly-written
// residual still in cache when the restriction reads it.
//
// Fusion boundary: applyOp stays its own pass. The stages fused here
// are pointwise (smooth/residual) or read only the brick's own
// residual (restriction), so composing them changes no exchange or CA
// margin decision.
//
// Bitwise contract: every fused kernel replicates the split kernels'
// per-element arithmetic and summation order VERBATIM (same tap order,
// same 0.125 * (8-term sum), same -omega/diag factor), under the
// repo-wide -ffp-contract=off. Restriction writes stay race-free under
// any chunking: eight fine bricks write disjoint octants of one coarse
// brick, and each fine brick reads only the residual it just wrote.
#pragma once

#include "brick/bricked_array.hpp"
#include "check/effects.hpp"
#include "check/footprint.hpp"
#include "common/types.hpp"

namespace gmg::fused {

/// The fused descent kernel's read footprint on the fine residual,
/// derived as the union of the stages it glues together: the pointwise
/// smooth/residual stage (center tap) merged with the restriction
/// octant. Derived through the constexpr check:: machinery so a stage
/// edit that widens a footprint fails the static_asserts below, not as
/// a silent out-of-ghost read.
constexpr dsl::OffsetSet descent_footprint() {
  dsl::OffsetSet pointwise;  // smooth + residual touch only the center
  pointwise.add(dsl::Tap{0, 0, 0, 0});
  return pointwise.merged(check::restriction_shape());
}

// The union must be exactly the restriction octant (the pointwise
// center tap is one of its 8 taps) and must fit even the smallest
// supported brick: the fused pass reads no cell the split restriction
// would not.
static_assert(check::same_footprint(descent_footprint(),
                                    check::restriction_shape()),
              "fused smooth+residual+restriction footprint must equal "
              "the restriction octant");
static_assert(check::footprint_fits(descent_footprint().extents(), 2, 2, 2),
              "fused descent footprint must fit the smallest brick");

/// Setup-time guard (GmgSolver constructor, fuse_stages on): the fused
/// footprint must fit the configured brick's one-brick-deep ghost
/// capacity, and the per-brick octant restriction needs even brick
/// dims. Throws GmgError otherwise — undersized ghosts are rejected at
/// setup, not discovered as corrupt coarse RHS values.
void require_fused_fits(const BrickShape& shape);

/// Fused final Jacobi sweep: per brick of `active`,
///   r = b - Ax;  x += gamma * (Ax - b);
/// and, for interior bricks, the 8->1 full-weighted restriction of the
/// just-written r into `coarse_b`. `active` must cover the fine
/// interior (it always does: active = grow(interior, margin - radius)
/// with margin >= radius). Extents/shapes as restriction().
void smooth_residual_restrict(BrickedArray& x, BrickedArray& r,
                              BrickedArray& coarse_b, const BrickedArray& Ax,
                              const BrickedArray& b, real_t gamma,
                              const Box& active);

/// Variable-coefficient twin: x += (-omega / diag) * (Ax - b).
void smooth_residual_restrict_varcoef(BrickedArray& x, BrickedArray& r,
                                      BrickedArray& coarse_b,
                                      const BrickedArray& Ax,
                                      const BrickedArray& b,
                                      const BrickedArray& diag, real_t omega,
                                      const Box& active);

/// One-pass Jacobi sweep: per cell of `active`,
///   ax = alpha * x + beta * (xm + xp + ym + yp + zm + zp)
///   r = b - ax                    (only when `r` is non-null)
///   x_next = x + gamma * (ax - b)
/// with ax kept in registers instead of a stored Ax field. `x_next` is
/// a second buffer of x's layout — the solver ping-pongs x with the
/// level's Ax field, so sweeps need no extra storage — and only its
/// `active` cells are written. The arithmetic and tap order equal
/// apply_op followed by smooth / smooth_residual, so the result is
/// bitwise identical to that pair, CA ghost cells included. Fields of
/// any width: a K-wide field runs the same body at stride K.
void jacobi_sweep(BrickedArray& x_next, BrickedArray* r, const BrickedArray& x,
                  const BrickedArray& b, real_t alpha, real_t beta,
                  real_t gamma, const Box& active);

/// Fused GS descent tail: r = b - Ax over the full interior plus the
/// per-brick restriction into `coarse_b`, one pass per fine brick.
void residual_restrict(BrickedArray& r, BrickedArray& coarse_b,
                       const BrickedArray& b, const BrickedArray& Ax);

/// Fused convergence check: r = b - Ax over the interior and the local
/// max|r| in the same pass. Uses the identical flat range and chunk
/// grain as the split max_norm, so the fixed reduction tree — and with
/// it the solve history — is bitwise identical to residual()+max_norm().
real_t residual_max_norm(BrickedArray& r, const BrickedArray& b,
                         const BrickedArray& Ax);

/// The convergence check per right-hand side: out[c] = local max|r_c|
/// for each of r's K components. A plain field runs the fused kernel
/// above. A K-wide one runs residual() and K strided max-norms, which
/// give the same values; the per-component reductions do not share
/// one pass.
void residual_max_norms(BrickedArray& r, const BrickedArray& b,
                        const BrickedArray& Ax, real_t* out);

// Static effect summaries (check/effects.hpp, DESIGN.md §18): the
// fused stages' write sets are the union of the split kernels they
// replace, with `coarse` bound to the coarse-level RHS the restriction
// feeds. The schedule verifier additionally proves the per-brick chunk
// write boxes of each fused launch pairwise disjoint.

constexpr check::EffectSummary smooth_residual_restrict_effects() {
  return check::EffectSummary("kernel.fusedDescent")
      .writes("x")
      .writes("r")
      .writes("coarse")
      .reads("x")
      .reads("Ax")
      .reads("b");
}

constexpr check::EffectSummary smooth_residual_restrict_varcoef_effects() {
  return check::EffectSummary("kernel.fusedDescentVarCoef")
      .writes("x")
      .writes("r")
      .writes("coarse")
      .reads("x")
      .reads("Ax")
      .reads("b")
      .reads("diag");
}

/// The sweep reads x at the star's radius and writes the next iterate
/// into its ping-pong partner, which the caller then binds to `x`
/// (the schedule records that write as the new x). The partner's old
/// contents are gone after the swap; no step reads Ax before an
/// applyOp rewrites it.
constexpr check::EffectSummary jacobi_sweep_effects() {
  return check::EffectSummary("kernel.jacobiSweep")
      .writes("x_next")
      .writes("r")
      .reads("x", 1)
      .reads("b");
}

constexpr check::EffectSummary residual_restrict_effects() {
  return check::EffectSummary("kernel.fusedGsTail")
      .writes("r")
      .writes("coarse")
      .reads("b")
      .reads("Ax");
}

constexpr check::EffectSummary residual_max_norm_effects() {
  return check::EffectSummary("kernel.fusedResidualNorm")
      .writes("r")
      .reads("b")
      .reads("Ax");
}

// The fused descent reads the residual only through the restriction
// octant it just wrote — its summary must not claim a wider reach than
// the split restriction's footprint radius.
static_assert(smooth_residual_restrict_effects().max_read_reach() == 0 &&
                  check::restriction_shape().radius() == 1,
              "fused descent reads must stay within the active box");

}  // namespace gmg::fused
