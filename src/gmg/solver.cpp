#include "gmg/solver.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdlib>
#include <string>

#include "check/footprint.hpp"
#include "check/schedule.hpp"
#include "common/timer.hpp"
#include "dsl/stencils.hpp"
#include "gmg/fused_kernels.hpp"
#include "gmg/operators.hpp"
#include "gmg/operators_varcoef.hpp"
#include "gmg/schedule_audit.hpp"
#include "trace/trace.hpp"

namespace gmg {

// Compile-time footprint verification (src/check): the stencil
// expressions the solver instantiates must have exactly the shapes the
// ghost sizing below assumes. A stencil edit that widens a footprint
// fails here, not as a silent out-of-ghost read.
static_assert(check::same_footprint(
                  dsl::laplacian_7pt<0>(1.0, 1.0).offsets(),
                  check::star_shape(1)),
              "7-point Laplacian footprint is not the radius-1 star");
static_assert(dsl::star_stencil<2, 0>(std::array<real_t, 3>{1.0, 1.0, 1.0})
                      .offsets()
                      .radius() == 2,
              "13-point operator footprint is not radius 2");
static_assert(check::restriction_shape().num_taps() == 8 &&
                  check::restriction_shape().radius() == 1,
              "restriction must read exactly the 2x2x2 fine block");
static_assert(check::interpolation_trilinear_shape().num_taps() == 27,
              "trilinear interpolation reads the 27-point coarse box");

GmgSolver::GmgSolver(const GmgOptions& opts, const CartDecomp& decomp,
                     int rank)
    : opts_(opts), rank_(rank) {
  GMG_REQUIRE(opts_.levels >= 1, "need at least one level");
  GMG_REQUIRE(opts_.smooths >= 1, "need at least one smoothing iteration");
  GMG_REQUIRE(opts_.operator_radius == 1 || opts_.operator_radius == 2,
              "operator radius must be 1 (7-point) or 2 (13-point)");

  // Environment override for the fusion gate (mirrors
  // GMG_EXEC_WORKERS): lets CI and benches flip configurations without
  // a rebuild. "0" disables, anything else enables.
  if (const char* env = std::getenv("GMG_FUSE_STAGES")) {
    opts_.fuse_stages = std::string(env) != "0";
  }

  // Footprint-vs-ghost-depth checks (src/check): the ghost region is
  // one brick deep, so every stencil the cycle applies — operator,
  // smoother consumption rate, inter-level transfers — must fit the
  // brick shape. Undersized ghosts fail here at setup, on every level
  // at once (the brick shape is level-invariant).
  check::require_footprint_fits(
      opts_.operator_radius == 1 ? "operator (7-point star)"
                                 : "operator (13-point star)",
      check::star_shape(opts_.operator_radius).extents(), opts_.brick);
  check::require_footprint_fits("restriction (8->1 full weighting)",
                                check::restriction_shape().extents(),
                                opts_.brick);
  check::require_footprint_fits(
      "interpolation (trilinear)",
      check::interpolation_trilinear_shape().extents(), opts_.brick);
  // The fused descent kernel's union footprint (DESIGN.md §16) must
  // fit the ghost capacity too — with today's stages it equals the
  // restriction octant, but deriving it through the same constexpr
  // union keeps a future wider final-smooth stage from silently
  // outgrowing the ghosts.
  if (opts_.fuse_stages) fused::require_fused_fits(opts_.brick);
  // CA smoothing refills the ghost margin to one brick depth per
  // exchange and consumes layers per sweep: the operator radius for
  // Jacobi/Chebyshev, two for a red-black iteration (each colored
  // half-sweep reads the other color at radius 1).
  check::require_ghost_capacity(
      opts_.smoother == Smoother::kRedBlackGS
          ? "red-black Gauss-Seidel (2 ghost layers per iteration)"
          : "smoother sweep",
      opts_.brick,
      opts_.smoother == Smoother::kRedBlackGS
          ? index_t{2}
          : static_cast<index_t>(opts_.operator_radius));

  const Vec3 sub0 = decomp.subdomain_extent();
  const Vec3 global0 = decomp.global_extent();
  const BrickShape shape = opts_.brick;

  // Clamp depth: every level's subdomain must be brick-divisible and
  // hold at least one brick per axis.
  int levels = opts_.levels;
  for (int l = 0; l < levels; ++l) {
    const index_t scale = index_t{1} << l;
    const bool ok =
        sub0.x % (shape.bx * scale) == 0 && sub0.y % (shape.by * scale) == 0 &&
        sub0.z % (shape.bz * scale) == 0 && sub0.x / scale >= shape.bx &&
        sub0.y / scale >= shape.by && sub0.z / scale >= shape.bz;
    if (!ok) {
      levels = l;
      break;
    }
  }
  GMG_REQUIRE(levels >= 1,
              "subdomain is too small for even one level with this brick "
              "shape");
  opts_.levels = levels;

  const Box rank_box0 = decomp.subdomain_box(rank);

  levels_.reserve(static_cast<std::size_t>(levels));
  for (int l = 0; l < levels; ++l) {
    const index_t scale = index_t{1} << l;
    MgLevel lev;
    lev.level = l;
    lev.cells = {sub0.x / scale, sub0.y / scale, sub0.z / scale};
    lev.global = {global0.x / scale, global0.y / scale, global0.z / scale};
    lev.rank_box = Box{{rank_box0.lo.x / scale, rank_box0.lo.y / scale,
                        rank_box0.lo.z / scale},
                       {rank_box0.hi.x / scale, rank_box0.hi.y / scale,
                        rank_box0.hi.z / scale}};
    lev.shape = shape;
    lev.h = 1.0 / static_cast<real_t>(lev.global.x);
    lev.radius = opts_.operator_radius;

    // A = s*I + c*Laplacian_h. Radius 1: the paper's 7-point star.
    // Radius 2: the 4th-order 13-point star with per-axis second-
    // derivative weights (-1/12, 4/3, -5/2, 4/3, -1/12)/h^2.
    const real_t c_over_h2 = opts_.laplacian_coef / (lev.h * lev.h);
    if (lev.radius == 1) {
      lev.alpha = opts_.identity_coef - 6.0 * c_over_h2;
      lev.beta = c_over_h2;
      lev.beta2 = 0.0;
    } else {
      lev.alpha = opts_.identity_coef - 3.0 * (5.0 / 2.0) * c_over_h2;
      lev.beta = (4.0 / 3.0) * c_over_h2;
      lev.beta2 = -(1.0 / 12.0) * c_over_h2;
    }
    GMG_REQUIRE(lev.alpha != 0.0, "operator diagonal vanishes");
    // Point-Jacobi weight: omega/|diag| with omega = 1/2 generalizes
    // the paper's gamma = h^2/12.
    lev.gamma = -0.5 / lev.alpha;

    lev.grid = std::make_shared<BrickGrid>(Vec3{
        lev.cells.x / shape.bx, lev.cells.y / shape.by, lev.cells.z / shape.bz});
    allocate_level_fields(lev, 1, nullptr);
    lev.exchange = std::make_unique<comm::BrickExchange>(
        lev.grid, shape, decomp, rank, opts_.exchange_mode);
    levels_.push_back(std::move(lev));
  }
  resolve_kernel_plans();
  // Setup-time schedule proof (DESIGN.md §18): dry-run the planned
  // V-cycle and FMG schedules and statically verify the margin
  // algebra, exchange placement and fused chunk disjointness before
  // the first sweep can execute. Rejects a hazardous configuration
  // here, with a diagnostic naming the offending kernel pair.
  prove_width();
}

void GmgSolver::allocate_level_fields(MgLevel& lev, int k,
                                      BrickArena* arena) const {
  const auto field = [&] {
    return arena != nullptr ? arena->acquire(lev.grid, lev.shape, k)
                            : BrickedArray::wide(lev.grid, lev.shape, k);
  };
  lev.x = field();
  lev.b = field();
  lev.Ax = field();
  lev.r = field();
  if (needs_p()) lev.p = field();
  // Everything is zero; mirror the constructor's conservative margin
  // so the CA exchange schedule matches a fresh solver's.
  lev.margin = 0;
  lev.b_ghosts_valid = false;
}

void GmgSolver::allocate_fields(int k, BrickArena* arena) {
  GMG_REQUIRE(k >= 1, "need at least one right-hand side");
  GMG_REQUIRE(k == 1 || !opts_.use_generated_kernels,
              "the generated kernels are emitted for one right-hand side "
              "(plain layout) only");
  for (MgLevel& lev : levels_) allocate_level_fields(lev, k, arena);
  storage_detached_ = false;
  if (k == 1) return;
  WideWidth& wide = wide_[k];
  if (!wide.exchange.empty()) return;
  // The decomposition this hierarchy was built for, recovered from the
  // finest level's global and per-rank extents.
  const MgLevel& fine = levels_.front();
  const CartDecomp decomp(fine.global, Vec3{fine.global.x / fine.cells.x,
                                            fine.global.y / fine.cells.y,
                                            fine.global.z / fine.cells.z});
  for (const MgLevel& lev : levels_) {
    wide.exchange.push_back(std::make_unique<comm::BrickExchange>(
        lev.grid, stretched_shape(lev.shape, k), decomp, rank_,
        opts_.exchange_mode));
  }
}

void GmgSolver::prove_width() {
  const int k = batch();
  bool& proven = k == 1 ? plain_proven_ : wide_.at(k).proven;
  if (proven || !check::verify_schedule_enabled()) return;
  verify_solver_schedule(*this);
  proven = true;
}

void GmgSolver::resolve_kernel_plans() {
  for (MgLevel& lev : levels_) {
    resolve_level_kernels(opts_, lev);
    switch (opts_.smoother) {
      case Smoother::kPointJacobi:
      case Smoother::kWeightedJacobi:
        lev.plan.sweep = &GmgSolver::jacobi_sweeps;
        break;
      case Smoother::kChebyshev:
        lev.plan.sweep = &GmgSolver::chebyshev_sweeps;
        break;
      case Smoother::kRedBlackGS:
        lev.plan.sweep = &GmgSolver::gs_sweeps;
        break;
    }
  }
}

void GmgSolver::set_rhs(const RhsFunction* fs, int width) {
  GMG_REQUIRE(!storage_detached_,
              "attach_field_storage() before set_rhs on a parked hierarchy");
  if (width != batch()) {
    allocate_fields(width, nullptr);
    prove_width();
  }
  MgLevel& fine = levels_.front();
  const real_t h = fine.h;
  for_each(fine.interior(), [&](index_t i, index_t j, index_t k) {
    const real_t px = (static_cast<real_t>(fine.rank_box.lo.x + i) + 0.5) * h;
    const real_t py = (static_cast<real_t>(fine.rank_box.lo.y + j) + 0.5) * h;
    const real_t pz = (static_cast<real_t>(fine.rank_box.lo.z + k) + 0.5) * h;
    for (int c = 0; c < width; ++c) {
      fine.b.at(i, j, k, c) = fs[c](px, py, pz);
    }
  });
  init_zero(fine.x);
  fine.margin = fine.shape.bx;  // zero ghosts are valid for a zero x
  fine.b_ghosts_valid = false;
  for (std::size_t l = 1; l < levels_.size(); ++l) {
    init_zero(levels_[l].x);
    init_zero(levels_[l].b);
    levels_[l].margin = 0;
    levels_[l].b_ghosts_valid = false;
  }
  // Back-to-back-solve state audit: p is the one field the first sweep
  // reads before writing (cheby_p_update computes p = r/D + beta*p even
  // when beta == 0), so a value left by the previous solve — or an Inf
  // that 0*p turns into NaN — would leak in. Zero it so a reused
  // hierarchy starts from exactly the constructor's state; Ax and r
  // are always fully written before their first read.
  for (MgLevel& lev : levels_) {
    if (lev.p.size() != 0) init_zero(lev.p);
  }
  retired_solutions_.clear();
}

std::vector<std::size_t> GmgSolver::detach_field_storage(BrickArena& arena) {
  std::vector<std::size_t> parked;
  if (storage_detached_) return parked;
  const auto park = [&](BrickedArray& f) {
    if (f.size() == 0) return;
    parked.push_back(f.size());
    arena.release(std::move(f));
  };
  for (MgLevel& lev : levels_) {
    park(lev.x);
    park(lev.b);
    park(lev.Ax);
    park(lev.r);
    park(lev.p);
    // coef/diag describe the operator, not one solve — they stay, like
    // the grids, exchange engines and iteration plans.
  }
  storage_detached_ = true;
  return parked;
}

void GmgSolver::attach_field_storage(BrickArena& arena, int k) {
  if (!storage_detached_ && k == batch()) return;
  allocate_fields(k, &arena);
  prove_width();
}

void GmgSolver::set_coefficient(
    comm::Communicator& comm,
    const std::function<real_t(real_t, real_t, real_t)>& f) {
  GMG_REQUIRE(opts_.operator_radius == 1,
              "variable coefficients support the 7-point operator only");
  MgLevel& fine = levels_.front();
  fine.coef = BrickedArray(fine.grid, fine.shape);
  const real_t h = fine.h;
  for_each(fine.interior(), [&](index_t i, index_t j, index_t k) {
    const real_t px = (static_cast<real_t>(fine.rank_box.lo.x + i) + 0.5) * h;
    const real_t py = (static_cast<real_t>(fine.rank_box.lo.y + j) + 0.5) * h;
    const real_t pz = (static_cast<real_t>(fine.rank_box.lo.z + k) + 0.5) * h;
    const real_t v = f(px, py, pz);
    GMG_REQUIRE(v > 0, "coefficient must be positive");
    fine.coef(i, j, k) = v;
  });
  for (std::size_t l = 1; l < levels_.size(); ++l) {
    levels_[l].coef = BrickedArray(levels_[l].grid, levels_[l].shape);
    restriction(levels_[l].coef, levels_[l - 1].coef);
  }
  for (MgLevel& lev : levels_) {
    lev.varcoef = true;
    exchange_now(comm, lev, lev.coef);
    lev.diag = BrickedArray(lev.grid, lev.shape);
    // The CA redundant sweeps read the diagonal in the ghost shell;
    // compute it everywhere the taps stay within the ghost bricks.
    varcoef_diagonal(lev.diag, lev.coef, opts_.identity_coef, lev.h,
                     grow(lev.interior(), lev.shape.bx - 1));
    lev.margin = 0;  // ghosts of x are unrelated to the new operator
  }
  // The varcoef flip invalidates every const-coefficient kernel
  // binding; re-resolve the plans against the new operator — and
  // re-prove the schedule against the rebound plans (the varcoef
  // kernels have their own effect summaries).
  resolve_kernel_plans();
  plain_proven_ = false;
  for (auto& [k, wide] : wide_) wide.proven = false;
  prove_width();
}

void GmgSolver::exchange_now(comm::Communicator& comm, MgLevel& lev,
                             BrickedArray& field) {
  // The engine for the field's layout: the operator coefficient stays
  // plain while the per-solve fields are K-wide.
  (field.components() == 1 ? *lev.exchange : field_exchange(lev))
      .exchange(comm, field);
}

comm::BrickExchange& GmgSolver::field_exchange(const MgLevel& lev) {
  const int k = batch();
  return k == 1 ? *lev.exchange
                : *wide_.at(k).exchange[static_cast<std::size_t>(lev.level)];
}

void GmgSolver::apply_operator(MgLevel& lev, BrickedArray& out,
                               const BrickedArray& in, const Box& active) {
  // The variant branch chain (varcoef / generated / radius) lives in
  // resolve_level_kernels now; per sweep this is one indirect call.
  lev.plan.apply(out, in, active);
}

void GmgSolver::exchange_for_smooth(comm::Communicator& comm, MgLevel& lev) {
  const bool with_p = opts_.smoother == Smoother::kChebyshev &&
                      lev.p.size() != 0;
  profiler_.timed(lev.level, perf::Phase::kExchange, [&] {
    std::vector<BrickedArray*> fields{&lev.x};
    // Aggregate everything the redundant ghost sweeps will read into
    // one message round (the paper's message aggregation across
    // fields).
    if (opts_.communication_avoiding && !lev.b_ghosts_valid) {
      fields.push_back(&lev.b);
      lev.b_ghosts_valid = true;
    }
    if (with_p && opts_.communication_avoiding) fields.push_back(&lev.p);
    field_exchange(lev).exchange(comm, fields);
  });
  lev.margin = lev.shape.bx;
}

void GmgSolver::smooth_level(comm::Communicator& comm, MgLevel& lev,
                             int iterations, bool with_residual,
                             BrickedArray* restrict_to) {
  // The former per-call smoother switch, resolved once at setup into
  // the level's plan (kernel_plan.hpp).
  (this->*lev.plan.sweep)(comm, lev, iterations, with_residual, restrict_to);
}

void GmgSolver::gs_sweeps(comm::Communicator& comm, MgLevel& lev,
                          int iterations, bool with_residual,
                          BrickedArray* restrict_to) {
  GMG_REQUIRE(lev.radius == 1 && !lev.varcoef,
              "red-black Gauss-Seidel supports the constant-coefficient "
              "7-point operator only");
  const Box interior = lev.interior();
  const Vec3 origin = lev.rank_box.lo;
  for (int it = 0; it < iterations; ++it) {
    if (opts_.communication_avoiding) {
      // A full red+black iteration consumes two ghost layers.
      if (lev.margin < 2 || !lev.b_ghosts_valid)
        exchange_for_smooth(comm, lev);
      const Box red_box = grow(interior, lev.margin - 1);
      const Box black_box = grow(interior, lev.margin - 2);
      profiler_.timed(lev.level, perf::Phase::kSmooth, [&] {
        gs_color_sweep(lev.x, lev.b, lev.alpha, lev.beta, 0, origin, red_box);
        gs_color_sweep(lev.x, lev.b, lev.alpha, lev.beta, 1, origin,
                       black_box);
      });
      lev.margin -= 2;
    } else {
      // Without deep ghosts, the black half-sweep needs the red-updated
      // neighbor values: exchange before each half-sweep.
      for (int color = 0; color < 2; ++color) {
        exchange_for_smooth(comm, lev);
        profiler_.timed(lev.level, perf::Phase::kSmooth, [&] {
          gs_color_sweep(lev.x, lev.b, lev.alpha, lev.beta, color, origin,
                         interior);
        });
      }
      lev.margin = 0;
    }
  }
  if (with_residual) {
    // GS updates in place and leaves no fused residual; compute it for
    // the restriction that follows.
    if (lev.margin < 1) exchange_for_smooth(comm, lev);
    profiler_.timed(lev.level, perf::Phase::kApplyOp, [&] {
      apply_operator(lev, lev.Ax, lev.x, interior);
    });
    if (restrict_to != nullptr && lev.plan.fuse_gs_tail) {
      // Fused tail (the former separate-full-pass small fix): r and
      // its restriction into the coarse RHS in one pass per brick.
      profiler_.timed(lev.level, perf::Phase::kFusedDescent, [&] {
        lev.plan.residual_restrict(*restrict_to);
      });
    } else {
      profiler_.timed(lev.level, perf::Phase::kResidual, [&] {
        residual(lev.r, lev.b, lev.Ax, interior);
      });
    }
  }
}

void GmgSolver::jacobi_sweeps(comm::Communicator& comm, MgLevel& lev,
                              int iterations, bool with_residual,
                              BrickedArray* restrict_to) {
  const Box interior = lev.interior();
  const index_t radius = lev.radius;
  for (int it = 0; it < iterations; ++it) {
    Box active = interior;
    if (opts_.communication_avoiding) {
      // Exchange when the ghost margin is spent — or when b's ghosts
      // are stale, since the redundant sweep reads b there too.
      if (lev.margin < radius || !lev.b_ghosts_valid)
        exchange_for_smooth(comm, lev);
      active = grow(interior, lev.margin - radius);
    } else {
      exchange_for_smooth(comm, lev);
      lev.margin = 0;
    }
    // Only the last sweep's residual is read (by the restriction);
    // earlier sweeps skip it. On the FINAL descent sweep the fused
    // plan folds that restriction into the same pass over each fine
    // brick (one pass instead of smooth+residual then restriction).
    const bool last = it == iterations - 1;
    const bool fuse_final = with_residual && restrict_to != nullptr &&
                            lev.plan.fuse_descent && last;
    if (fuse_final) {
      profiler_.timed(lev.level, perf::Phase::kApplyOp,
                      [&] { apply_operator(lev, lev.Ax, lev.x, active); });
      profiler_.timed(lev.level, perf::Phase::kFusedDescent, [&] {
        lev.plan.smooth_residual_restrict(*restrict_to, active);
      });
    } else {
      // One-pass or split, as the plan bound it (kernel_plan.hpp).
      lev.plan.jacobi_sweep(profiler_, active, with_residual && last);
    }
    if (opts_.communication_avoiding) lev.margin -= radius;
  }
}

void GmgSolver::chebyshev_sweeps(comm::Communicator& comm, MgLevel& lev,
                                 int iterations, bool with_residual,
                                 BrickedArray* restrict_to) {
  (void)with_residual;  // r = b - Ax is produced every sweep anyway
  // Chebyshev cannot fuse the descent: the recurrence consumes r on
  // EVERY sweep and updates x after it, so there is no final pointwise
  // pass to glue the restriction onto. The plan's capability predicate
  // (fuse_descent = false) makes cycle_at keep the split restriction.
  (void)restrict_to;
  const Box interior = lev.interior();
  const index_t radius = lev.radius;
  const real_t lambda_max = opts_.cheby_lambda_max;
  const real_t lambda_min = lambda_max * opts_.cheby_min_frac;
  const real_t theta = 0.5 * (lambda_max + lambda_min);
  const real_t delta = 0.5 * (lambda_max - lambda_min);
  const real_t inv_diag = 1.0 / lev.alpha;

  real_t alpha_ch = 0.0;
  for (int it = 0; it < iterations; ++it) {
    Box active = interior;
    if (opts_.communication_avoiding) {
      if (lev.margin < radius || !lev.b_ghosts_valid)
        exchange_for_smooth(comm, lev);
      active = grow(interior, lev.margin - radius);
    } else {
      exchange_for_smooth(comm, lev);
      lev.margin = 0;
    }
    profiler_.timed(lev.level, perf::Phase::kApplyOp,
                    [&] { apply_operator(lev, lev.Ax, lev.x, active); });
    profiler_.timed(lev.level, perf::Phase::kSmoothResidual, [&] {
      residual(lev.r, lev.b, lev.Ax, active);
      // Chebyshev recurrence on the diagonally preconditioned
      // residual (D^-1 A has spectrum in [lambda_min, lambda_max]).
      real_t beta_ch;
      if (it == 0) {
        beta_ch = 0.0;
        alpha_ch = 1.0 / theta;
      } else {
        beta_ch = 0.25 * (delta * alpha_ch) * (delta * alpha_ch);
        alpha_ch = 1.0 / (theta - beta_ch / alpha_ch);
      }
      if (lev.varcoef) {
        cheby_p_update_varcoef(lev.p, lev.r, lev.diag, beta_ch, active);
      } else {
        cheby_p_update(lev.p, lev.r, inv_diag, beta_ch, active);
      }
      axpy(lev.x, alpha_ch, lev.p, active);
    });
    if (opts_.communication_avoiding) lev.margin -= radius;
  }
}

void GmgSolver::bottom_solve(comm::Communicator& comm) {
  MgLevel& lev = levels_[static_cast<std::size_t>(bottom_level())];
  if (opts_.bottom == BottomSolverType::kSmooth) {
    smooth_level(comm, lev, opts_.bottom_smooths, /*with_residual=*/false);
  } else {
    profiler_.timed(lev.level, perf::Phase::kBottomSolve,
                    [&] { bottom_cg(comm, lev); });
  }
}

void GmgSolver::bottom_cg(comm::Communicator& comm, MgLevel& lev) {
  // Matrix-free conjugate gradient on the coarsest grid. The periodic
  // operator is singular with a constant null space; the RHS reaching
  // the bottom is a restricted residual (mean zero), so the Krylov
  // iteration stays in range(A).
  //
  // Scalars are per component, and a component stops updating where
  // its own CG loop exits (rr <= stop, or a pAp breakdown). Exchanges
  // and applyOp keep covering every component — a stopped component's
  // p no longer changes, so that perturbs nothing — while the
  // per-component updates skip it. Every stop decision derives from
  // allreduced scalars, so all ranks issue the same collectives in the
  // same (component) order.
  const Box interior = lev.interior();
  const std::size_t K = static_cast<std::size_t>(batch());

  // r = b - A x (x may be nonzero on the second visit of a W-cycle).
  if (lev.margin < lev.radius) {
    exchange_now(comm, lev, lev.x);
    lev.margin = lev.shape.bx;
  }
  apply_operator(lev, lev.Ax, lev.x, interior);
  residual(lev.r, lev.b, lev.Ax, interior);
  copy_interior(lev.p, lev.r);

  const real_t stop = opts_.bottom_cg_tolerance * opts_.bottom_cg_tolerance;
  std::vector<real_t> rr(K);
  std::vector<bool> live(K);
  std::size_t nlive = 0;
  for (std::size_t c = 0; c < K; ++c) {
    rr[c] = comm.allreduce_sum(dot_interior(lev.r, lev.r, static_cast<int>(c)));
    live[c] = rr[c] > stop;
    if (live[c]) ++nlive;
  }
  for (int it = 0; it < opts_.bottom_smooths && nlive > 0; ++it) {
    exchange_now(comm, lev, lev.p);
    apply_operator(lev, lev.Ax, lev.p, interior);  // Ax := A p
    for (std::size_t c = 0; c < K; ++c) {
      if (!live[c]) continue;
      const int comp = static_cast<int>(c);
      const real_t pAp = comm.allreduce_sum(dot_interior(lev.p, lev.Ax, comp));
      if (pAp == 0.0) {
        live[c] = false;
        --nlive;
        continue;
      }
      const real_t a = rr[c] / pAp;
      axpy_interior(lev.x, a, lev.p, comp);
      axpy_interior(lev.r, -a, lev.Ax, comp);
      const real_t rr_new = comm.allreduce_sum(dot_interior(lev.r, lev.r, comp));
      xpay_interior(lev.p, lev.r, rr_new / rr[c], comp);
      rr[c] = rr_new;
      if (!(rr[c] > stop)) {
        live[c] = false;
        --nlive;
      }
    }
  }
  lev.margin = 0;  // x changed; ghosts are stale
}

void GmgSolver::cycle_at(comm::Communicator& comm, int l) {
  if (l == bottom_level()) {
    bottom_solve(comm);
    return;
  }
  MgLevel& lev = levels_[static_cast<std::size_t>(l)];
  MgLevel& coarse = levels_[static_cast<std::size_t>(l + 1)];

  // Descent: where the plan fuses, the final smoothing sweep also
  // restricts r into the coarse RHS (one pass instead of three stages
  // — DESIGN.md §16); otherwise restriction runs as its own pass.
  BrickedArray* restrict_to =
      lev.plan.fuses_restriction() ? &coarse.b : nullptr;
  smooth_level(comm, lev, opts_.smooths, /*with_residual=*/true, restrict_to);
  if (restrict_to == nullptr) {
    profiler_.timed(l, perf::Phase::kRestriction,
                    [&] { restriction(coarse.b, lev.r); });
  }
  coarse.b_ghosts_valid = false;
  profiler_.timed(l + 1, perf::Phase::kInitZero, [&] { init_zero(coarse.x); });
  coarse.margin = coarse.shape.bx;  // zero ghosts are valid

  cycle_at(comm, l + 1);
  if (opts_.cycle == CycleType::kW) cycle_at(comm, l + 1);

  profiler_.timed(l, perf::Phase::kInterpIncrement,
                  [&] { interpolation_increment(lev.x, coarse.x); });
  lev.margin = 0;  // interior changed; ghosts are stale
  // Post-smoothing leaves no residual: nothing reads r before the next
  // descent or convergence check rewrites it.
  smooth_level(comm, lev, opts_.smooths, /*with_residual=*/false);
}

void GmgSolver::vcycle(comm::Communicator& comm) {
  // Umbrella span so the timeline shows cycle boundaries around the
  // per-phase spans Profiler::timed emits.
  trace::TraceSpan span("gmg.vcycle");
  cycle_at(comm, 0);
}

void GmgSolver::fmg(comm::Communicator& comm) {
  GMG_REQUIRE(batch() == 1, "FMG solves one right-hand side");
  trace::TraceSpan span("gmg.fmg");
  const int bottom = bottom_level();
  // Restrict the RHS itself down the hierarchy.
  for (int l = 0; l < bottom; ++l) {
    MgLevel& lev = levels_[static_cast<std::size_t>(l)];
    MgLevel& coarse = levels_[static_cast<std::size_t>(l + 1)];
    profiler_.timed(l, perf::Phase::kRestriction,
                    [&] { restriction(coarse.b, lev.b); });
    coarse.b_ghosts_valid = false;
  }
  // Solve the coarsest, then work upward: prolong as initial guess,
  // one cycle per level.
  MgLevel& coarsest = levels_[static_cast<std::size_t>(bottom)];
  init_zero(coarsest.x);
  coarsest.margin = coarsest.shape.bx;
  bottom_solve(comm);
  for (int l = bottom - 1; l >= 0; --l) {
    MgLevel& lev = levels_[static_cast<std::size_t>(l)];
    MgLevel& coarse = levels_[static_cast<std::size_t>(l + 1)];
    // FMG needs a higher-order prolongation for its initial guesses;
    // trilinear reads one coarse ghost layer.
    if (coarse.margin < 1) {
      profiler_.timed(l + 1, perf::Phase::kExchange,
                      [&] { exchange_now(comm, coarse, coarse.x); });
      coarse.margin = coarse.shape.bx;
    }
    profiler_.timed(l, perf::Phase::kInterpIncrement,
                    [&] { interpolation_trilinear_assign(lev.x, coarse.x); });
    lev.margin = 0;
    cycle_at(comm, l);
  }
}

void GmgSolver::residual_norms(comm::Communicator& comm,
                               const std::vector<bool>& active,
                               std::vector<real_t>& res) {
  MgLevel& fine = levels_.front();
  if (fine.margin < fine.radius) exchange_for_smooth(comm, fine);
  profiler_.timed(0, perf::Phase::kApplyOp, [&] {
    apply_operator(fine, fine.Ax, fine.x, fine.interior());
  });
  const int K = batch();
  std::vector<real_t> local(static_cast<std::size_t>(K));
  if (fine.plan.fuse_norm) {
    // Fused residual + max-norm: one pass instead of two, bitwise
    // identical to the split pair (fused_kernels.hpp).
    profiler_.timed(0, perf::Phase::kMaxNorm,
                    [&] { fine.plan.residual_max_norms(local.data()); });
  } else {
    profiler_.timed(0, perf::Phase::kResidual, [&] {
      residual(fine.r, fine.b, fine.Ax, fine.interior());
    });
    profiler_.timed(0, perf::Phase::kMaxNorm, [&] {
      for (int c = 0; c < K; ++c)
        local[static_cast<std::size_t>(c)] = max_norm(fine.r, c);
    });
  }
  for (std::size_t c = 0; c < local.size(); ++c) {
    if (active[c]) res[c] = comm.allreduce_max(local[c]);
  }
}

real_t GmgSolver::residual_norm(comm::Communicator& comm) {
  std::vector<real_t> res(static_cast<std::size_t>(batch()));
  residual_norms(comm, std::vector<bool>(res.size(), true), res);
  real_t worst = res.front();
  for (const real_t r : res) worst = exec::nan_max(worst, r);
  return worst;
}

real_t GmgSolver::residual_norm_l2(comm::Communicator& comm) {
  GMG_REQUIRE(batch() == 1,
              "the L2 residual norm covers one right-hand side");
  MgLevel& fine = levels_.front();
  if (fine.margin < fine.radius) exchange_for_smooth(comm, fine);
  apply_operator(fine, fine.Ax, fine.x, fine.interior());
  residual(fine.r, fine.b, fine.Ax, fine.interior());
  const real_t global_sq = comm.allreduce_sum(norm2_sq(fine.r));
  return std::sqrt(global_sq);
}

std::vector<real_t> GmgSolver::interior_component(int c) const {
  const MgLevel& fine = levels_.front();
  std::vector<real_t> out;
  out.reserve(static_cast<std::size_t>(fine.cells.volume()));
  for_each(fine.interior(), [&](index_t i, index_t j, index_t k) {
    out.push_back(fine.x.at(i, j, k, c));
  });
  return out;
}

std::vector<real_t> GmgSolver::solution(int c) const {
  GMG_REQUIRE(c >= 0 && c < batch(), "no such right-hand side");
  const std::size_t cc = static_cast<std::size_t>(c);
  if (cc < retired_solutions_.size() && !retired_solutions_[cc].empty())
    return retired_solutions_[cc];
  return interior_component(c);
}

SolveResult GmgSolver::solve(comm::Communicator& comm,
                             const SolveControl* control) {
  return solve(comm, {SolveSpec{opts_.tolerance, opts_.max_vcycles, control}})
      .front();
}

std::vector<SolveResult> GmgSolver::solve(comm::Communicator& comm,
                                          const std::vector<SolveSpec>& specs) {
  GMG_REQUIRE(!storage_detached_,
              "attach_field_storage() before solving a parked hierarchy");
  GMG_REQUIRE(static_cast<int>(specs.size()) == batch(),
              "need one SolveSpec per right-hand side");
  Timer timer;
  trace::counter_add("gmg.solves", 1);
  trace::counter_add("gmg.rhs", specs.size());
  const std::size_t K = specs.size();
  std::vector<SolveResult> results(K);
  std::vector<bool> active(K, true);
  std::vector<real_t> res(K, 0.0);
  retired_solutions_.clear();
  std::size_t live = K;

  const auto retire = [&](std::size_t c) {
    active[c] = false;
    --live;
    results[c].final_residual = res[c];
    results[c].converged =
        !results[c].cancelled && res[c] <= specs[c].tolerance;
    results[c].seconds = timer.elapsed();
    // The schedule runs on for the others and will overwrite x.
    if (live > 0) {
      retired_solutions_.resize(K);
      retired_solutions_[c] = interior_component(static_cast<int>(c));
    }
  };
  // Algorithm 1's loop condition, per component: retire the ones that
  // converged (or hit NaN) or spent their cycle budget.
  const auto retire_finished = [&] {
    for (std::size_t c = 0; c < K; ++c) {
      if (active[c] && !(res[c] > specs[c].tolerance &&
                         results[c].vcycles < specs[c].max_vcycles))
        retire(c);
    }
  };

  residual_norms(comm, active, res);
  for (std::size_t c = 0; c < K; ++c) results[c].history.push_back(res[c]);
  retire_finished();
  while (live > 0) {
    for (std::size_t c = 0; c < K; ++c) {
      const SolveControl* control = specs[c].control;
      if (!active[c] || control == nullptr) continue;
      // The abort decision must be unanimous: a rank that left the
      // loop while a peer entered vcycle() would deadlock the peer's
      // collectives. Reduce the local view once per cycle — all ranks
      // see the same max and retire the component together.
      const bool local =
          control->cancel.load(std::memory_order_relaxed) ||
          (control->deadline_ns != 0 &&
           trace::now_ns() >= control->deadline_ns);
      if (comm.allreduce_max(local ? 1.0 : 0.0) > 0.0) {
        results[c].cancelled = true;
        retire(c);
      }
    }
    if (live == 0) break;
    vcycle(comm);
    residual_norms(comm, active, res);
    for (std::size_t c = 0; c < K; ++c) {
      if (!active[c]) continue;
      results[c].history.push_back(res[c]);
      ++results[c].vcycles;
    }
    retire_finished();
  }
  return results;
}

}  // namespace gmg
