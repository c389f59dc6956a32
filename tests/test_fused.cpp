// Cross-stage kernel fusion (DESIGN.md §16): the fused descent
// schedule — final smooth + residual + restriction in one pass, fused
// residual+max-norm convergence checks, and the GS residual tail —
// must be BITWISE identical to the split schedule, across smoothers,
// coefficients (constant and variable), brick dims, worker counts, and
// batched K-way solves. The one-pass Jacobi sweep must match applyOp
// followed by smooth(+residual) bitwise, over clipped ghost bricks and
// at any width, and never read its ping-pong partner. Plus the
// footprint machinery: the fused union footprint is derived constexpr
// and static_assert-ed, GMG_CHECK sees only the declared boxes during a
// fused run, and seeded undersized-ghost configurations and schedules
// are rejected at setup.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "check/footprint.hpp"
#include "check/schedule.hpp"
#include "check/shadow.hpp"
#include "common/rng.hpp"
#include "exec/runtime.hpp"
#include "gmg/fused_kernels.hpp"
#include "gmg/operators.hpp"
#include "gmg/schedule_audit.hpp"
#include "gmg/solver.hpp"
#include "tests/test_util.hpp"

namespace gmg {
namespace {

// ---- footprint derivation (compile-time) ---------------------------------

// The fused descent pass reads no fine-residual cell the split
// restriction would not: the pointwise center tap is one of the
// restriction octant's 8 taps, so the union IS the octant — and it
// fits even the smallest supported brick.
static_assert(check::same_footprint(fused::descent_footprint(),
                                    check::restriction_shape()),
              "fused descent footprint must equal the restriction octant");
static_assert(check::footprint_fits(fused::descent_footprint().extents(), 2,
                                    2, 2),
              "fused descent footprint must fit a 2^3 brick");
// A hypothetical fused kernel that also pulled a radius-3 star into
// the same pass would need 3 ghost layers — the same machinery reports
// that it does NOT fit a 2^3 brick's one-brick ghost depth.
static_assert(!check::footprint_fits(
                  check::star_shape(3).merged(check::restriction_shape())
                      .extents(),
                  2, 2, 2),
              "a widened fused union must be flagged as not fitting");

real_t sine_rhs(real_t x, real_t y, real_t z) {
  return std::sin(2 * M_PI * x) * std::sin(2 * M_PI * y) *
         std::sin(2 * M_PI * z);
}

real_t wavy_coef(real_t x, real_t y, real_t z) {
  return 1.0 + 0.5 * std::sin(2 * M_PI * x) * std::cos(2 * M_PI * y) +
         0.25 * std::sin(4 * M_PI * z);
}

GmgOptions base_options(index_t bdim, Smoother sm) {
  GmgOptions o;
  o.levels = 3;
  o.smooths = 2;
  o.bottom_smooths = 12;
  o.tolerance = 1e-10;
  o.max_vcycles = 4;
  o.brick = BrickShape::cube(bdim);
  o.smoother = sm;
  return o;
}

/// Run `vcycles` cycles on a fresh solver and capture the solution and
/// the residual-norm history (one norm before, one after each cycle).
struct RunOut {
  std::vector<real_t> sol;
  std::vector<real_t> history;
};

RunOut run_cycles(comm::Communicator& c, GmgOptions o, bool fuse,
                  bool varcoef, int vcycles) {
  o.fuse_stages = fuse;
  const Vec3 global{32, 32, 32};
  const CartDecomp decomp(global, {1, 1, 1});
  GmgSolver solver(o, decomp, 0);
  if (varcoef) solver.set_coefficient(c, wavy_coef);
  solver.set_rhs(sine_rhs);
  RunOut out;
  out.history.push_back(solver.residual_norm(c));
  for (int v = 0; v < vcycles; ++v) {
    solver.vcycle(c);
    out.history.push_back(solver.residual_norm(c));
  }
  const BrickedArray& x = solver.solution();
  for_each(Box::from_extent(global), [&](index_t i, index_t j, index_t k) {
    out.sol.push_back(x(i, j, k));
  });
  return out;
}

void expect_bitwise(const RunOut& a, const RunOut& b, const char* what) {
  ASSERT_EQ(a.history.size(), b.history.size()) << what;
  for (std::size_t i = 0; i < a.history.size(); ++i) {
    ASSERT_EQ(a.history[i], b.history[i])
        << what << ": residual history diverges at cycle " << i;
  }
  ASSERT_EQ(a.sol.size(), b.sol.size()) << what;
  int failures = 0;
  for (std::size_t i = 0; i < a.sol.size(); ++i) {
    if (a.sol[i] != b.sol[i] && failures++ < 3) {
      ADD_FAILURE() << what << ": solution diverges at flat index " << i;
    }
  }
  ASSERT_EQ(failures, 0) << what;
}

// ---- fused vs split bitwise identity -------------------------------------

struct FusedCase {
  Smoother smoother;
  index_t bdim;
  bool varcoef;
  const char* name;
};

// gtest prints a parameter into the ctest name; the default printer
// dumps the struct's bytes, padding included.
void PrintTo(const FusedCase& c, std::ostream* os) { *os << c.name; }

class FusedVsSplit : public ::testing::TestWithParam<FusedCase> {};

TEST_P(FusedVsSplit, BitwiseIdenticalSchedules) {
  const FusedCase fc = GetParam();
  comm::World world(1);
  world.run([&](comm::Communicator& c) {
    const GmgOptions o = base_options(fc.bdim, fc.smoother);
    const RunOut fusedr = run_cycles(c, o, /*fuse=*/true, fc.varcoef, 3);
    const RunOut split = run_cycles(c, o, /*fuse=*/false, fc.varcoef, 3);
    expect_bitwise(fusedr, split, fc.name);
  });
}

INSTANTIATE_TEST_SUITE_P(
    Schedules, FusedVsSplit,
    ::testing::Values(
        FusedCase{Smoother::kPointJacobi, 8, false, "jacobi-8"},
        FusedCase{Smoother::kPointJacobi, 4, false, "jacobi-4"},
        FusedCase{Smoother::kPointJacobi, 2, false, "jacobi-2"},
        FusedCase{Smoother::kWeightedJacobi, 4, false, "wjacobi-4"},
        FusedCase{Smoother::kWeightedJacobi, 4, true, "wjacobi-varcoef-4"},
        FusedCase{Smoother::kPointJacobi, 8, true, "jacobi-varcoef-8"},
        FusedCase{Smoother::kRedBlackGS, 4, false, "gs-4"},
        FusedCase{Smoother::kChebyshev, 4, false, "cheby-4"},
        FusedCase{Smoother::kChebyshev, 4, true, "cheby-varcoef-4"}),
    [](const ::testing::TestParamInfo<FusedCase>& info) {
      std::string n = info.param.name;
      for (char& ch : n)
        if (ch == '-') ch = '_';
      return n;
    });

TEST(FusedDescent, BitwiseIdenticalAcrossWorkerCounts) {
  // The fused pass must not introduce any worker-count dependence: the
  // pointwise rows, the per-brick restriction, and the fused max-norm
  // reduction all follow the same fixed chunk plans as the split path.
  class EngineGuard {
   public:
    ~EngineGuard() {
      exec::configure_default_engine(exec::resolved_default_workers());
    }
  } guard;
  comm::World world(1);
  world.run([&](comm::Communicator& c) {
    const GmgOptions o = base_options(4, Smoother::kPointJacobi);
    exec::configure_default_engine(1);
    const RunOut ref = run_cycles(c, o, /*fuse=*/true, false, 3);
    for (int workers : {2, 4}) {
      exec::configure_default_engine(workers);
      const RunOut got = run_cycles(c, o, /*fuse=*/true, false, 3);
      expect_bitwise(ref, got, "worker count");
    }
  });
}

TEST(FusedDescent, ResidualMaxNormPropagatesNaN) {
  // The fused residual + max-norm must agree with the split
  // residual() + max_norm() on poisoned data too: one NaN in b, in any
  // reduction chunk, makes the norm NaN.
  const Vec3 n{64, 64, 64};
  BrickedArray b = BrickedArray::create(n, BrickShape::cube(4));
  BrickedArray Ax(b.grid_ptr(), b.shape());
  BrickedArray r(b.grid_ptr(), b.shape());
  BrickedArray r_split(b.grid_ptr(), b.shape());
  b.fill(1.0);
  Ax.fill(0.25);
  EXPECT_EQ(fused::residual_max_norm(r, b, Ax), 0.75);
  for (const Vec3 cell : {Vec3{0, 0, 0}, Vec3{20, 50, 9}, Vec3{63, 63, 63}}) {
    b(cell.x, cell.y, cell.z) = std::nan("");
    residual(r_split, b, Ax, Box::from_extent(n));
    EXPECT_TRUE(std::isnan(max_norm(r_split)));
    EXPECT_TRUE(std::isnan(fused::residual_max_norm(r, b, Ax)))
        << "(" << cell.x << ',' << cell.y << ',' << cell.z << ')';
    EXPECT_TRUE(std::isnan(r(cell.x, cell.y, cell.z)));
    b(cell.x, cell.y, cell.z) = 1.0;
  }
}

TEST(FusedDescent, MultiRankMatchesSingleRankBitwise) {
  // The fusion point is strictly after the exchange/margin machinery,
  // so the fused schedule must preserve the multi-rank == single-rank
  // bitwise identity.
  const Vec3 global{32, 32, 32};
  std::vector<real_t> reference;
  {
    comm::World world(1);
    world.run([&](comm::Communicator& c) {
      reference =
          run_cycles(c, base_options(4, Smoother::kPointJacobi), true, false,
                     2)
              .sol;
    });
  }
  const CartDecomp decomp(global, {2, 2, 1});
  comm::World world(decomp.num_ranks());
  world.run([&](comm::Communicator& c) {
    GmgOptions o = base_options(4, Smoother::kPointJacobi);
    o.fuse_stages = true;
    GmgSolver solver(o, decomp, c.rank());
    solver.set_rhs(sine_rhs);
    for (int v = 0; v < 2; ++v) solver.vcycle(c);
    const Box my_box = decomp.subdomain_box(c.rank());
    const BrickedArray& x = solver.solution();
    int failures = 0;
    for_each(Box::from_extent(decomp.subdomain_extent()),
             [&](index_t i, index_t j, index_t k) {
               const index_t gi = my_box.lo.x + i, gj = my_box.lo.y + j,
                             gk = my_box.lo.z + k;
               // for_each order: k-major, i-minor.
               const real_t want = reference[static_cast<std::size_t>(
                   (gk * global.y + gj) * global.x + gi)];
               if (x(i, j, k) != want && failures++ < 3) {
                 ADD_FAILURE() << "rank " << c.rank() << " (" << i << ',' << j
                               << ',' << k << ')';
               }
             });
    ASSERT_EQ(failures, 0);
  });
}

// ---- K-wide solves --------------------------------------------------------

real_t rhs_b(real_t x, real_t y, real_t z) {
  return std::cos(2 * M_PI * x) * std::sin(4 * M_PI * y) * (0.5 + z);
}

real_t rhs_c(real_t x, real_t y, real_t z) {
  return x * (1 - x) + 0.25 * std::sin(2 * M_PI * (y + z));
}

TEST(FusedBatched, FusedVsSplitBitwiseAtK1AndK4) {
  // The K-inner fused kernels follow the level's KernelPlan like the
  // plain ones; a K-wide solve with fusion on must match one with
  // fusion off bitwise for every component.
  const CartDecomp decomp({32, 32, 32}, {1, 1, 1});
  for (int k : {1, 4}) {
    comm::World world(1);
    world.run([&](comm::Communicator& c) {
      std::vector<RhsFunction> fs;
      fs.emplace_back(sine_rhs);
      if (k == 4) {
        fs.emplace_back(rhs_b);
        fs.emplace_back(rhs_c);
        fs.emplace_back(sine_rhs);
      }
      std::vector<SolveSpec> specs(static_cast<std::size_t>(k));
      for (auto& s : specs) s.max_vcycles = 3;

      GmgOptions fused_o = base_options(4, Smoother::kPointJacobi);
      fused_o.fuse_stages = true;
      GmgOptions split_o = fused_o;
      split_o.fuse_stages = false;

      GmgSolver fused_bs(fused_o, decomp, 0);
      GmgSolver split_bs(split_o, decomp, 0);
      fused_bs.set_rhs(fs);
      split_bs.set_rhs(fs);
      const auto fr = fused_bs.solve(c, specs);
      const auto sr = split_bs.solve(c, specs);
      for (int comp = 0; comp < k; ++comp) {
        const std::size_t cc = static_cast<std::size_t>(comp);
        ASSERT_EQ(fr[cc].vcycles, sr[cc].vcycles) << "K=" << k;
        ASSERT_EQ(fr[cc].final_residual, sr[cc].final_residual) << "K=" << k;
        const std::vector<real_t> fx = fused_bs.solution(comp);
        const std::vector<real_t> sx = split_bs.solution(comp);
        ASSERT_EQ(fx.size(), sx.size());
        int failures = 0;
        for (std::size_t i = 0; i < fx.size(); ++i) {
          if (fx[i] != sx[i] && failures++ < 3) {
            ADD_FAILURE() << "K=" << k << " component " << comp
                          << " diverges at flat index " << i;
          }
        }
        ASSERT_EQ(failures, 0);
      }
    });
  }
}

// ---- GMG_CHECK: declared boxes honored -----------------------------------

TEST(FusedCheck, FusedVcycleIsHazardCleanUnderDetector) {
  // The fused kernels declare their access boxes (KernelScope) like
  // every other kernel; a checked fused V-cycle over both coefficient
  // regimes must record zero hazards — proving the fused passes touch
  // only the boxes they declared.
  check::set_enabled(true);
  check::reset();
  comm::World world(1);
  world.run([&](comm::Communicator& c) {
    for (const bool varcoef : {false, true}) {
      GmgOptions o = base_options(4, Smoother::kPointJacobi);
      o.fuse_stages = true;
      const CartDecomp decomp({32, 32, 32}, {1, 1, 1});
      GmgSolver solver(o, decomp, 0);
      if (varcoef) solver.set_coefficient(c, wavy_coef);
      solver.set_rhs(sine_rhs);
      solver.vcycle(c);
      EXPECT_LT(solver.residual_norm(c), 1e3);
    }
  });
  EXPECT_TRUE(check::hazards().empty());
  EXPECT_NO_THROW(check::require_clean("fused vcycle"));
  check::reset();
  check::set_enabled(false);
}

// ---- seeded bug: undersized ghost for the fused footprint ----------------

TEST(FusedSeededBug, WidenedFusedUnionRejectedBySetupCheck) {
  // Seeded configuration bug: pretend a fused kernel's union footprint
  // grew to include a radius-3 star (e.g. fusing the operator apply
  // into the same pass). On 2^3 bricks the one-brick ghost depth is 2
  // layers — the setup check must throw before any kernel runs.
  const auto widened =
      check::star_shape(3).merged(check::restriction_shape());
  EXPECT_THROW(check::require_footprint_fits("seeded fused union",
                                             widened.extents(),
                                             BrickShape::cube(2)),
               Error);
  // The real fused footprint passes the same gate on the same brick.
  EXPECT_NO_THROW(check::require_footprint_fits(
      "fused descent", fused::descent_footprint().extents(),
      BrickShape::cube(2)));
}

TEST(FusedSeededBug, OddBrickDimsRejectedByFusedSetupGuard) {
  // The per-brick 8->1 octant restriction requires even brick dims;
  // the guard fires even when the footprint itself would fit.
  EXPECT_THROW(fused::require_fused_fits(BrickShape{3, 3, 3}), Error);
  EXPECT_NO_THROW(fused::require_fused_fits(BrickShape::cube(2)));
}

// ---- one-pass Jacobi sweep --------------------------------------------------

/// Random values over a field's whole storage, ghost bricks included.
void randomize_storage(BrickedArray& f, std::uint64_t seed) {
  Rng rng(seed);
  real_t* p = f.data();
  for (std::size_t i = 0; i < f.size(); ++i) p[i] = rng.uniform();
}

void copy_storage(BrickedArray& dst, const BrickedArray& src) {
  ASSERT_EQ(dst.size(), src.size());
  std::memcpy(dst.data(), src.data(), src.size() * sizeof(real_t));
}

struct SweepCase {
  index_t bdim;
  int k;
};

void PrintTo(const SweepCase& c, std::ostream* os) {
  *os << "brick " << c.bdim << ", K=" << c.k;
}

class JacobiSweepVsSplit : public ::testing::TestWithParam<SweepCase> {};

TEST_P(JacobiSweepVsSplit, BitwiseIdenticalToApplyThenSmooth) {
  // The one-pass sweep against apply_op followed by smooth /
  // smooth_residual on the same data: over the interior and over the
  // CA-grown box whose edge bricks are clipped ghost bricks, with and
  // without the residual, at point and weighted Jacobi damping.
  const SweepCase sc = GetParam();
  const Vec3 n{16, 16, 16};
  const BrickShape shape = BrickShape::cube(sc.bdim);
  const auto grid = std::make_shared<BrickGrid>(
      Vec3{n.x / sc.bdim, n.y / sc.bdim, n.z / sc.bdim});
  const auto field = [&] { return BrickedArray::wide(grid, shape, sc.k); };
  BrickedArray x0 = field();
  BrickedArray b = field();
  randomize_storage(x0, 1);
  randomize_storage(b, 2);
  const real_t alpha = -6.0 * 256.0, beta = 256.0;  // h = 1/16
  const Box interior = Box::from_extent(n);
  for (const index_t grow_by : {index_t{0}, sc.bdim - 1}) {
    const Box active = grow(interior, grow_by);
    for (const real_t weight : {real_t{0.5}, real_t{2.0 / 3.0}}) {
      const real_t gamma = -weight / alpha;
      for (const bool with_r : {false, true}) {
        SCOPED_TRACE("grown by " + std::to_string(grow_by) + ", weight " +
                     std::to_string(weight) +
                     (with_r ? ", residual" : ", no residual"));
        BrickedArray xs = field(), Ax = field(), rs = field();
        copy_storage(xs, x0);
        randomize_storage(rs, 3);
        apply_op(Ax, xs, alpha, beta, active);
        if (with_r) {
          smooth_residual(xs, rs, Ax, b, gamma, active);
        } else {
          smooth(xs, Ax, b, gamma, active);
        }

        BrickedArray xf = field(), next = field(), rf = field();
        copy_storage(xf, x0);
        randomize_storage(rf, 3);
        fused::jacobi_sweep(next, with_r ? &rf : nullptr, xf, b, alpha, beta,
                            gamma, active);

        int failures = 0;
        for_each(active, [&](index_t i, index_t j, index_t k) {
          for (int c = 0; c < sc.k; ++c) {
            if (next.at(i, j, k, c) != xs.at(i, j, k, c) && failures++ < 3) {
              ADD_FAILURE() << "x diverges at (" << i << ',' << j << ',' << k
                            << ") component " << c;
            }
          }
        });
        ASSERT_EQ(failures, 0);
        // r matches everywhere (written on `active`, untouched
        // elsewhere), and the input iterate is left as it was.
        ASSERT_EQ(std::memcmp(rf.data(), rs.data(), rs.size() * sizeof(real_t)),
                  0);
        ASSERT_EQ(std::memcmp(xf.data(), x0.data(), x0.size() * sizeof(real_t)),
                  0);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, JacobiSweepVsSplit,
    ::testing::Values(SweepCase{2, 1}, SweepCase{2, 3}, SweepCase{2, 4},
                      SweepCase{4, 1}, SweepCase{4, 3}, SweepCase{4, 4},
                      SweepCase{8, 1}, SweepCase{8, 3}, SweepCase{8, 4}),
    [](const ::testing::TestParamInfo<SweepCase>& info) {
      return "b" + std::to_string(info.param.bdim) + "_k" +
             std::to_string(info.param.k);
    });

/// A solve's residual history and every component's solution.
struct SolveOut {
  std::vector<std::vector<real_t>> history;
  std::vector<std::vector<real_t>> sol;
};

SolveOut solve_k(comm::Communicator& c, const GmgOptions& o, int k,
                 bool poison_partner) {
  const CartDecomp decomp({32, 32, 32}, {1, 1, 1});
  GmgSolver solver(o, decomp, 0);
  const RhsFunction rhs[] = {sine_rhs, rhs_b, rhs_c};
  std::vector<RhsFunction> fs;
  for (int i = 0; i < k; ++i) fs.emplace_back(rhs[i % 3]);
  solver.set_rhs(fs);
  if (poison_partner) {
    // Whatever the ping-pong partner holds before a sweep must not
    // reach the result: only the sweep's `active` box of it is read
    // back, and the sweep writes all of that box first.
    for (int l = 0; l < solver.num_levels(); ++l) {
      MgLevel& lev = solver.level(l);
      lev.plan.jacobi_sweep = [&lev, inner = lev.plan.jacobi_sweep](
                                  perf::Profiler& prof, const Box& active,
                                  bool with_residual) {
        lev.Ax.fill(std::nan(""));
        inner(prof, active, with_residual);
      };
    }
  }
  std::vector<SolveSpec> specs(static_cast<std::size_t>(k));
  for (auto& sp : specs) sp.max_vcycles = 4;
  SolveOut out;
  for (const SolveResult& r : solver.solve(c, specs))
    out.history.push_back(r.history);
  for (int comp = 0; comp < k; ++comp) out.sol.push_back(solver.solution(comp));
  return out;
}

TEST(JacobiSweep, PoisonedPingPongPartnerLeavesSolveBitwiseUnchanged) {
  comm::World world(1);
  world.run([&](comm::Communicator& c) {
    for (const index_t bdim : {index_t{2}, index_t{4}}) {
      for (const int k : {1, 3}) {
        SCOPED_TRACE("brick " + std::to_string(bdim) + ", K=" +
                     std::to_string(k));
        const GmgOptions o = base_options(bdim, Smoother::kWeightedJacobi);
        const SolveOut clean = solve_k(c, o, k, /*poison_partner=*/false);
        const SolveOut poisoned = solve_k(c, o, k, /*poison_partner=*/true);
        for (int comp = 0; comp < k; ++comp) {
          const std::size_t cc = static_cast<std::size_t>(comp);
          ASSERT_EQ(clean.history[cc], poisoned.history[cc]);
          ASSERT_FALSE(std::isnan(poisoned.history[cc].back()));
          ASSERT_EQ(std::memcmp(clean.sol[cc].data(), poisoned.sol[cc].data(),
                                clean.sol[cc].size() * sizeof(real_t)),
                    0)
              << "component " << comp;
        }
      }
    }
  });
}

TEST(JacobiSweep, CheckedVcyclesAreHazardClean) {
  // The sweep declares its writes (the partner buffer and r) like
  // every other kernel; checked V-cycles at K = 1 and K = 3 record no
  // hazard.
  check::set_enabled(true);
  check::reset();
  comm::World world(1);
  world.run([&](comm::Communicator& c) {
    GmgOptions o = base_options(4, Smoother::kPointJacobi);
    o.fuse_stages = true;
    for (const int k : {1, 3}) solve_k(c, o, k, /*poison_partner=*/false);
  });
  EXPECT_TRUE(check::hazards().empty());
  EXPECT_NO_THROW(check::require_clean("one-pass Jacobi sweeps"));
  check::reset();
  check::set_enabled(false);
}

TEST(JacobiSweepSeededBug, SweepReadingPastValidGhostsRejected) {
  // Seeded schedule bug: one recorded sweep reads one layer deeper
  // than the exchange before it filled. The verifier must reject the
  // schedule and name the sweep. GMG_FUSE_STAGES is held unset so the
  // schedule has sweeps to mutate.
  const char* env = std::getenv("GMG_FUSE_STAGES");
  const std::string saved = env != nullptr ? env : "";
  unsetenv("GMG_FUSE_STAGES");
  const CartDecomp decomp({32, 32, 32}, {1, 1, 1});
  GmgSolver solver(base_options(4, Smoother::kPointJacobi), decomp, 0);
  if (env != nullptr) setenv("GMG_FUSE_STAGES", saved.c_str(), 1);

  check::Schedule sched = record_solver_schedule(solver);
  EXPECT_TRUE(check::ScheduleVerifier().check(sched).empty());
  const auto it = std::find_if(
      sched.steps.begin(), sched.steps.end(), [](const check::ScheduleStep& s) {
        return s.kernel == "kernel.jacobiSweep";
      });
  ASSERT_NE(it, sched.steps.end()) << "no one-pass sweep in the schedule";
  for (check::StepAccess& a : it->accesses) {
    if (!a.write && a.field == "x") a.box = grow(a.box, 1);
  }
  const std::vector<std::string> diags = check::ScheduleVerifier().check(sched);
  ASSERT_FALSE(diags.empty()) << "deep sweep read was not rejected";
  EXPECT_NE(diags.front().find("kernel.jacobiSweep"), std::string::npos)
      << diags.front();
  EXPECT_NE(diags.front().find("ghost layer(s) deep but only"),
            std::string::npos)
      << diags.front();
  EXPECT_THROW(check::ScheduleVerifier().verify(sched), Error);
}

}  // namespace
}  // namespace gmg
