// Runtime kernel specialization for the V-cycle hot path (DESIGN.md
// §16): a KernelPlan is resolved ONCE at solver setup (and again when
// set_coefficient flips a level to the variable-coefficient operator)
// and cached in the MgLevel. It binds the exact kernel variant for
// this level's (brick dims, const/var coefficient, smoother,
// fused-vs-split) configuration, so the per-sweep `switch` dispatch in
// smooth_level/jacobi_sweeps disappears: every sweep goes through one
// member-function pointer and a handful of pre-bound functors.
//
// The plan also carries the fusion capability predicate. Cross-stage
// fusion (final smooth + residual + restriction in one pass over each
// fine brick) is legal only where the last smoother application is a
// pointwise update of an already-materialized Ax:
//   - Jacobi / weighted Jacobi: fully fusible (fuse_descent).
//   - Red-black GS: the half-sweeps update x in place, but the descent
//     tail's residual + restriction still fuse (fuse_gs_tail).
//   - Chebyshev: the recurrence needs r on every sweep and updates x
//     *after* r, so the split path stays; only the residual+norm
//     fusion applies.
// Every other Jacobi sweep of a constant-coefficient, radius-1,
// non-generated level also evaluates A x inside the smoother update
// (fuse_sweep): one pass per sweep instead of applyOp plus
// smooth(+residual), writing the next iterate into the level's Ax
// field and swapping the two.
// Fused results are bitwise identical to the split path (the kernels
// replicate the split per-element arithmetic verbatim; see
// fused_kernels.hpp).
//
// The bindings serve fields of any width K: the kernels they call pick
// their K-inner twin from the field's layout (operators.hpp), so one
// plan per level covers every batch width.
#pragma once

#include <functional>

#include "brick/bricked_array.hpp"
#include "common/types.hpp"

namespace gmg {

namespace comm {
class Communicator;
}
namespace perf {
class Profiler;
}

class GmgSolver;
struct MgLevel;
struct GmgOptions;

struct KernelPlan {
  /// Final descent smooth+residual+restriction runs as one fused pass
  /// (Jacobi family only).
  bool fuse_descent = false;
  /// The GS descent tail's residual+restriction runs as one fused pass
  /// (the half-sweeps themselves stay split).
  bool fuse_gs_tail = false;
  /// residual_norm computes r and its max-norm in one pass (legal for
  /// every smoother: fp max is exactly associative, and the reduction
  /// reuses the split max_norm's chunk plan).
  bool fuse_norm = false;
  /// Jacobi sweeps evaluate A x inside the update (jacobi_sweep below
  /// is the one-pass kernel): constant-coefficient, radius-1,
  /// non-generated Jacobi-family levels only.
  bool fuse_sweep = false;

  /// Jacobi damping: 0.5 for kPointJacobi, opts.jacobi_weight for
  /// kWeightedJacobi (resolved once; sweeps stop re-deriving it).
  real_t weight = 0.5;

  /// Whether the descent smooth_level call consumes the restriction
  /// itself (cycle_at skips the separate restriction pass).
  bool fuses_restriction() const { return fuse_descent || fuse_gs_tail; }

  /// The smoother sweep routine for this configuration — the former
  /// smooth_level switch, resolved once.
  using SweepFn = void (GmgSolver::*)(comm::Communicator&, MgLevel&, int,
                                      bool, BrickedArray*);
  SweepFn sweep = nullptr;

  // Pre-bound kernel functors. Each captures the MgLevel POINTER plus
  // scalar coefficients by value — the field BrickedArrays are
  // reassigned by detach/attach_field_storage, so the bindings must
  // dereference through the level at call time.
  /// out = A in over `active` (varcoef / generated / radius-specific
  /// variant chosen at resolve time).
  std::function<void(BrickedArray& out, const BrickedArray& in,
                     const Box& active)>
      apply;
  /// x-update only (bottom solve, upsweep without residual).
  std::function<void(const Box& active)> smooth;
  /// x-update + r = b - Ax (split descent / non-final sweeps).
  std::function<void(const Box& active)> smooth_residual;
  /// One Jacobi sweep over `active` (all but a fused final descent
  /// sweep): x += gamma * (A x - b), plus r = b - A x when
  /// `with_residual`. With fuse_sweep it is one pass that writes the
  /// next iterate into Ax and swaps x with Ax (timed as kFusedSweep);
  /// otherwise it runs `apply` then `smooth` / `smooth_residual`
  /// (timed as kApplyOp and kSmooth / kSmoothResidual). Either way
  /// only `active` of x changes.
  std::function<void(perf::Profiler& prof, const Box& active,
                     bool with_residual)>
      jacobi_sweep;
  /// Fused final sweep: x-update + residual + restriction of r into
  /// the coarse RHS, one pass per fine brick.
  std::function<void(BrickedArray& coarse_b, const Box& active)>
      smooth_residual_restrict;
  /// Fused GS tail: r = b - Ax + restriction, one pass per fine brick.
  std::function<void(BrickedArray& coarse_b)> residual_restrict;
  /// Fused convergence check: r = b - Ax and each component's local
  /// max|r_c| into out[c] (one pass at K = 1).
  std::function<void(real_t* out)> residual_max_norms;
};

/// Resolve the kernel bindings and fusion predicate for one level.
/// Called from GmgSolver's constructor and again from set_coefficient
/// (the varcoef flip invalidates the const-coefficient bindings). The
/// sweep member pointer is assigned by the solver (it points at
/// private members).
void resolve_level_kernels(const GmgOptions& opts, MgLevel& lev);

}  // namespace gmg
