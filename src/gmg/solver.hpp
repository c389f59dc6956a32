// Geometric multigrid solver with fine-grain data blocking — the
// paper's core contribution (Algorithms 1 and 2), extended with the
// variants §IX lists as future work: alternative smoothers (weighted
// Jacobi, Chebyshev), a conjugate-gradient bottom solver, W-cycles,
// full multigrid (FMG), and a 4th-order (radius-2) operator.
//
// One schedule serves any number K of right-hand sides (DESIGN.md
// §15): the per-solve fields are K-wide, the kernels pick their K-inner
// variant from the field layout, and each right-hand side retires at
// exactly the cycle where a solve of it alone would stop. A K-wide
// solve is bitwise identical to K single-RHS solves; K = 1 is the
// paper's solver.
#pragma once

#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "brick/brick_arena.hpp"
#include "comm/simmpi.hpp"
#include "exec/runtime.hpp"
#include "gmg/level.hpp"
#include "perf/profiler.hpp"

namespace gmg {

/// Smoothing operator (paper §IV-C uses point Jacobi; §IX lists
/// alternatives as future work).
enum class Smoother {
  kPointJacobi,    // x += gamma (Ax - b), gamma = -1/(2 diag)
  kWeightedJacobi, // same with a configurable weight
  kChebyshev,      // polynomial smoother on D^-1 A eigenvalue bounds
  kRedBlackGS,     // red-black Gauss-Seidel (two colored half-sweeps)
};

enum class CycleType { kV, kW };

enum class BottomSolverType {
  kSmooth,             // the paper's 100 point-Jacobi iterations
  kConjugateGradient,  // matrix-free CG with global reductions
};

struct GmgOptions {
  /// Total number of grids in the V-cycle (the artifact's -l flag);
  /// the coarsest grid (index levels-1) hosts the bottom solver.
  /// Clamped so the coarsest subdomain still holds one whole brick.
  int levels = 6;
  /// Smoothing iterations per level per sweep (paper: 12).
  int smooths = 12;
  /// Bottom-solver budget: point-Jacobi iterations (paper: 100) or CG
  /// iterations.
  int bottom_smooths = 100;
  /// Convergence: max-norm of the residual (paper: 1e-10).
  real_t tolerance = 1e-10;
  /// Safety limit on V-cycles (the artifact's -n flag).
  int max_vcycles = 100;

  BrickShape brick = BrickShape::cube(8);
  /// Deep-ghost communication-avoiding smoothing (paper §V): exchange
  /// once per brick-depth/radius sweeps, computing redundantly into
  /// the ghost region. Off = exchange before every applyOp
  /// (Algorithm 2 as literally written).
  bool communication_avoiding = true;
  comm::BrickExchangeMode exchange_mode = comm::BrickExchangeMode::kPackFree;

  /// Upper bound on how many compatible requests the serve tier's
  /// coalescer may fuse into one K-wide solve through this hierarchy.
  /// 1 = no coalescing. Not part of the hierarchy cache key: a K-wide
  /// solve reuses the hierarchy's geometry unchanged.
  int max_batch = 1;

  /// The operator solved is A = identity_coef * I + laplacian_coef *
  /// Laplacian_h. The paper's model problem is (0, 1); an implicit
  /// heat step (I - nu*dt*Laplacian) u = rhs uses (1, -nu*dt).
  real_t identity_coef = 0.0;
  real_t laplacian_coef = 1.0;
  /// Laplacian discretization: 1 = the paper's 2nd-order 7-point
  /// star; 2 = 4th-order 13-point star (radius 2).
  int operator_radius = 1;

  Smoother smoother = Smoother::kPointJacobi;
  real_t jacobi_weight = 0.5;  // used by kWeightedJacobi
  /// Chebyshev smoothing interval on the spectrum of D^-1 A:
  /// [lambda_max * min_frac, lambda_max].
  real_t cheby_lambda_max = 1.9;
  real_t cheby_min_frac = 0.125;

  CycleType cycle = CycleType::kV;
  BottomSolverType bottom = BottomSolverType::kSmooth;
  real_t bottom_cg_tolerance = 1e-12;

  /// Route applyOp through the stencilgen-emitted kernels
  /// (src/dsl/generated/) instead of the hand-written ones — the
  /// "everything through the code generator" configuration BrickLib
  /// itself runs in. Constant-coefficient operators only.
  bool use_generated_kernels = false;

  /// Cross-stage kernel fusion for the V-cycle descent (DESIGN.md
  /// §16): where the smoother permits it, the final smooth + residual
  /// + restriction run as ONE pass over each fine brick, and
  /// residual_norm fuses the residual with its max-norm reduction.
  /// Jacobi/weighted Jacobi fuse fully; red-black GS fuses its
  /// residual+restriction tail; Chebyshev falls back to the split
  /// schedule (its recurrence consumes r every sweep). Value-neutral:
  /// fused results are bitwise identical to the split path. The
  /// GMG_FUSE_STAGES environment variable ("0" disables) overrides
  /// this at construction, mirroring GMG_EXEC_WORKERS.
  bool fuse_stages = true;
};

struct SolveResult {
  int vcycles = 0;
  real_t final_residual = 0;
  bool converged = false;
  /// The solve stopped early because its SolveControl was cancelled or
  /// its deadline passed (see GmgSolver::solve).
  bool cancelled = false;
  double seconds = 0;
  /// Residual max-norm before the first cycle and after each cycle.
  std::vector<real_t> history;
};

/// External control of an in-flight solve (the serve layer's
/// cancellation/deadline hook). One instance may be shared by every
/// rank of a solve: the abort decision is made *collectively* — each
/// rank contributes its local view through an allreduce once per cycle
/// — so all ranks leave the cycle loop together and no rank blocks in
/// a collective its peers never enter.
struct SolveControl {
  std::atomic<bool> cancel{false};
  /// Absolute deadline on the trace::now_ns() clock; 0 = none.
  std::uint64_t deadline_ns = 0;
};

/// One right-hand side's stopping rule in a K-wide solve.
struct SolveSpec {
  real_t tolerance = 1e-10;
  int max_vcycles = 100;
  /// Optional cancel/deadline hook for this right-hand side.
  const SolveControl* control = nullptr;
};

/// A right-hand side as a function of physical cell-center coordinates.
using RhsFunction = std::function<real_t(real_t, real_t, real_t)>;

class GmgSolver {
 public:
  /// Build the hierarchy for this rank of `decomp`. The physical
  /// domain is the unit cube; h at the finest level is
  /// 1/global_extent.x.
  GmgSolver(const GmgOptions& opts, const CartDecomp& decomp, int rank);

  int num_levels() const { return static_cast<int>(levels_.size()); }
  int bottom_level() const { return num_levels() - 1; }
  MgLevel& level(int l) { return levels_[static_cast<std::size_t>(l)]; }
  const MgLevel& level(int l) const {
    return levels_[static_cast<std::size_t>(l)];
  }
  const GmgOptions& options() const { return opts_; }
  int rank() const { return rank_; }
  /// Number of right-hand sides K the per-solve fields hold.
  int batch() const { return levels_.front().x.components(); }

  /// Per-request solve parameters that do not affect hierarchy setup
  /// (the serve layer reuses one cached hierarchy across requests with
  /// different accuracy targets).
  void set_solve_params(real_t tolerance, int max_vcycles) {
    opts_.tolerance = tolerance;
    opts_.max_vcycles = max_vcycles;
  }

  /// Initialize b on the finest level from a function of physical
  /// cell-center coordinates in [0,1)^3, and reset x to zero.
  void set_rhs(const RhsFunction& f) { set_rhs(&f, 1); }

  /// K = fs.size() right-hand sides: component c of b is fs[c]. Fields
  /// of another width are reallocated at width K first (use
  /// attach_field_storage to take them from an arena instead).
  void set_rhs(const std::vector<RhsFunction>& fs) {
    set_rhs(fs.data(), static_cast<int>(fs.size()));
  }

  /// Switch to the variable-coefficient operator
  /// A = identity_coef*I + div(beta grad .) with the cell-centered
  /// coefficient beta(x,y,z) > 0. The coefficient is evaluated on the
  /// finest level, volume-average restricted down the hierarchy, and
  /// its ghosts exchanged (hence the communicator). Requires
  /// operator_radius == 1.
  void set_coefficient(comm::Communicator& comm,
                       const std::function<real_t(real_t, real_t, real_t)>& f);

  /// Algorithm 1: cycle until the global residual max-norm drops
  /// below tolerance. With `control`, the loop additionally stops —
  /// collectively, at a cycle boundary — once the cancel flag is set
  /// or the deadline has passed on any rank (result.cancelled). The
  /// solver is re-entrant across calls: set_rhs() + solve() on a
  /// once-built hierarchy is bitwise identical to a fresh solver.
  /// Requires batch() == 1.
  SolveResult solve(comm::Communicator& comm,
                    const SolveControl* control = nullptr);

  /// Solve all K = batch() right-hand sides with one cycle schedule
  /// (specs.size() == K). Each component retires — result frozen, its
  /// solution snapshotted — at the cycle where its own single-RHS
  /// solve would stop, while the schedule runs on for the rest.
  /// results[c] is bitwise what solve() returns for component c alone,
  /// except `seconds`, which runs from solve start to c's retirement.
  std::vector<SolveResult> solve(comm::Communicator& comm,
                                 const std::vector<SolveSpec>& specs);

  /// Hand every per-solve field (x, b, Ax, r, and the Chebyshev/CG
  /// direction p) of every level to `arena`, leaving the hierarchy a
  /// storage-less skeleton: geometry, stencil coefficients, exchange
  /// engines, cached iteration plans, and the variable-coefficient
  /// operator (coef/diag) stay resident. The serve layer parks cached
  /// hierarchies this way so idle entries hold no field memory.
  /// Returns the element count of each buffer parked (none when
  /// already detached): an owner that drops the hierarchy takes those
  /// pages out of the pool with BrickArena::discard.
  std::vector<std::size_t> detach_field_storage(BrickArena& arena);

  /// Re-acquire the detached fields from `arena` at width `k` (zeroed,
  /// so a following set_rhs()/solve() behaves exactly like a fresh
  /// solver). No-op when fields of width k are already attached;
  /// attached fields of another width are freed, not parked (no owner
  /// would take them back).
  void attach_field_storage(BrickArena& arena, int k = 1);

  /// Whether the per-solve fields are currently detached.
  bool storage_detached() const { return storage_detached_; }

  /// One multigrid cycle rooted at the finest level (V or W according
  /// to options().cycle).
  void vcycle(comm::Communicator& comm);

  /// Full multigrid: restrict the RHS down the hierarchy, solve the
  /// coarsest, and work upward using prolonged solutions as initial
  /// guesses with one cycle per level. Typically reaches
  /// discretization accuracy in a single pass; follow with solve()
  /// for tighter algebraic tolerances. Requires batch() == 1.
  void fmg(comm::Communicator& comm);

  /// Global max-norm of the finest-level residual (collective); the
  /// largest over the K components.
  real_t residual_norm(comm::Communicator& comm);
  /// Global L2 norm of the finest-level residual (collective).
  /// Recomputes Ax; call after residual_norm or a cycle. Requires
  /// batch() == 1.
  real_t residual_norm_l2(comm::Communicator& comm);

  /// The finest-level solution field (K-wide when batch() > 1).
  const BrickedArray& solution() const { return levels_.front().x; }
  BrickedArray& solution() { return levels_.front().x; }
  /// Component c's finest-level solution after solve(), in
  /// for_each(interior) order: the snapshot taken when c retired
  /// while other components kept cycling, else the live field.
  std::vector<real_t> solution(int c) const;

  perf::Profiler& profiler() { return profiler_; }
  const perf::Profiler& profiler() const { return profiler_; }

 private:
  /// Apply this level's operator over `active` — dispatches through
  /// the level's resolved KernelPlan binding.
  void apply_operator(MgLevel& lev, BrickedArray& out, const BrickedArray& in,
                      const Box& active);

  /// Resolve every level's KernelPlan (kernel bindings + fusion
  /// predicate + sweep routine). Called from the constructor and again
  /// from set_coefficient.
  void resolve_kernel_plans();

  /// One smoothing block at `lev`: `iterations` sweeps of the selected
  /// smoother with CA-scheduled exchanges, dispatched through the
  /// level's resolved plan. A non-null `restrict_to` asks the sweep to
  /// fuse the descent restriction of r into it where the plan permits
  /// (cycle_at checks plan.fuses_restriction() to know whether the
  /// separate restriction pass is still needed).
  void smooth_level(comm::Communicator& comm, MgLevel& lev, int iterations,
                    bool with_residual, BrickedArray* restrict_to = nullptr);
  void jacobi_sweeps(comm::Communicator& comm, MgLevel& lev, int iterations,
                     bool with_residual, BrickedArray* restrict_to);
  void chebyshev_sweeps(comm::Communicator& comm, MgLevel& lev,
                        int iterations, bool with_residual,
                        BrickedArray* restrict_to);
  void gs_sweeps(comm::Communicator& comm, MgLevel& lev, int iterations,
                 bool with_residual, BrickedArray* restrict_to);

  void set_rhs(const RhsFunction* fs, int width);

  /// The exchange engine for `lev`'s fields at the current width.
  comm::BrickExchange& field_exchange(const MgLevel& lev);

  void bottom_solve(comm::Communicator& comm);
  /// Matrix-free CG with per-component scalars: each component stops
  /// updating where its own CG loop would exit.
  void bottom_cg(comm::Communicator& comm, MgLevel& lev);

  /// Per-component global residual max-norms on the finest level into
  /// res[c] for every c with active[c] (one collective each, ascending
  /// c; retired components are skipped on every rank alike).
  void residual_norms(comm::Communicator& comm,
                      const std::vector<bool>& active,
                      std::vector<real_t>& res);

  /// Give every level fields of width k — from `arena` when non-null,
  /// freshly allocated otherwise — and the matching exchange engine.
  void allocate_fields(int k, BrickArena* arena);
  void allocate_level_fields(MgLevel& lev, int k, BrickArena* arena) const;
  /// Run the setup-time schedule proof for the current width unless it
  /// already ran for this width and operator.
  void prove_width();
  /// Component c of the finest-level interior, for_each order.
  std::vector<real_t> interior_component(int c) const;

  /// The single sanctioned direct-exchange entry point outside the
  /// exchange_for_smooth family (gmg_lint rule exchange-in-schedule-fn
  /// forbids bare `lev.exchange->exchange(...)` calls in schedule
  /// code): one blocking round on `field`. Margin bookkeeping stays at
  /// the call sites — the callers' margin algebra is what the schedule
  /// verifier proves.
  void exchange_now(comm::Communicator& comm, MgLevel& lev,
                    BrickedArray& field);

  /// Recursive cycle body rooted at level l.
  void cycle_at(comm::Communicator& comm, int l);

  void exchange_for_smooth(comm::Communicator& comm, MgLevel& lev);

  /// Whether the configured smoother/bottom solver needs the p field.
  bool needs_p() const {
    return opts_.smoother == Smoother::kChebyshev ||
           opts_.bottom == BottomSolverType::kConjugateGradient;
  }

  /// The dry-run schedule walker (schedule_audit.cpp) replicates the
  /// sweep routines' margin algebra; it needs needs_p but must not
  /// mutate anything.
  friend class ScheduleWalker;

  /// State for one batch width K > 1, built on first use and kept for
  /// the hierarchy's lifetime: each level's stretched-shape exchange
  /// engine (one round moves all K components of every aggregated
  /// field) and whether the schedule proof ran at this width against
  /// the current operator.
  struct WideWidth {
    std::vector<std::unique_ptr<comm::BrickExchange>> exchange;
    bool proven = false;
  };

  GmgOptions opts_;
  int rank_;
  bool storage_detached_ = false;
  /// The schedule proof ran at K = 1 against the current operator.
  bool plain_proven_ = false;
  std::vector<MgLevel> levels_;
  std::map<int, WideWidth> wide_;
  /// Solutions of components that retired while others kept cycling
  /// (empty where the live field is still the answer).
  std::vector<std::vector<real_t>> retired_solutions_;
  perf::Profiler profiler_;
};

}  // namespace gmg
