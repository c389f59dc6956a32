// K-wide solves: GmgSolver with K right-hand sides must be BITWISE
// identical to K single-RHS solves — same iterates, same residual
// histories, same cycle counts — across every smoother, with and
// without communication avoidance, fused and split descent stages, and
// the variable-coefficient operator. Plus the per-component retirement
// machinery (tolerance, cycle budget, cancel), one hierarchy moving
// between widths, and the one-stretched-exchange-round-per-sweep
// property the K-wide layout exists to buy.
#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <vector>

#include "batch/batched_array.hpp"
#include "gmg/operators.hpp"
#include "gmg/solver.hpp"
#include "trace/trace.hpp"

namespace gmg {
namespace {

real_t rhs_a(real_t x, real_t y, real_t z) {
  return std::sin(2 * M_PI * x) * std::sin(2 * M_PI * y) *
         std::sin(2 * M_PI * z);
}

real_t rhs_b(real_t x, real_t y, real_t z) {
  return std::cos(2 * M_PI * x) * std::sin(4 * M_PI * y) * (0.5 + z);
}

real_t rhs_c(real_t x, real_t y, real_t z) {
  return x * (1 - x) + 0.25 * std::sin(2 * M_PI * (y + z));
}

real_t wavy_coef(real_t x, real_t y, real_t z) {
  return 1.0 + 0.5 * std::sin(2 * M_PI * x) * std::cos(2 * M_PI * y) +
         0.25 * std::sin(4 * M_PI * z);
}

GmgOptions small_options() {
  GmgOptions o;
  o.levels = 2;
  o.smooths = 2;
  o.bottom_smooths = 12;
  o.tolerance = 1e-10;
  o.max_vcycles = 3;
  o.brick = BrickShape::cube(4);
  return o;
}

/// One solo reference run on an existing hierarchy: solve for `f` and
/// capture the local interior in for_each(interior) order.
struct SoloRef {
  SolveResult result;
  std::vector<real_t> sol;
};

SoloRef run_solo(comm::Communicator& c, GmgSolver& solver, Vec3 extent,
                 const std::function<real_t(real_t, real_t, real_t)>& f,
                 real_t tolerance, int max_vcycles,
                 const SolveControl* control = nullptr) {
  solver.set_solve_params(tolerance, max_vcycles);
  solver.set_rhs(f);
  SoloRef ref;
  ref.result = solver.solve(c, control);
  const BrickedArray& x = solver.solution();
  for_each(Box::from_extent(extent), [&](index_t i, index_t j, index_t k) {
    ref.sol.push_back(x(i, j, k));
  });
  return ref;
}

/// Solve `fs` as one K-wide solve on `solver`, every component with
/// the same tolerance and cycle budget.
std::vector<SolveResult> run_wide(comm::Communicator& c, GmgSolver& solver,
                                  const std::vector<RhsFunction>& fs,
                                  real_t tolerance, int max_vcycles) {
  solver.set_rhs(fs);
  std::vector<SolveSpec> specs(fs.size());
  for (SolveSpec& s : specs) {
    s.tolerance = tolerance;
    s.max_vcycles = max_vcycles;
  }
  return solver.solve(c, specs);
}

void expect_component_matches_solo(const SoloRef& solo,
                                   const SolveResult& got,
                                   const GmgSolver& solver, int comp,
                                   int rank) {
  EXPECT_EQ(solo.result.vcycles, got.vcycles) << "component " << comp;
  EXPECT_EQ(solo.result.converged, got.converged) << "component " << comp;
  EXPECT_EQ(solo.result.cancelled, got.cancelled) << "component " << comp;
  EXPECT_EQ(solo.result.final_residual, got.final_residual)
      << "component " << comp;
  ASSERT_EQ(solo.result.history.size(), got.history.size())
      << "component " << comp;
  for (std::size_t i = 0; i < got.history.size(); ++i) {
    EXPECT_EQ(solo.result.history[i], got.history[i])
        << "component " << comp << " cycle " << i;
  }
  const std::vector<real_t> sol = solver.solution(comp);
  ASSERT_EQ(solo.sol.size(), sol.size()) << "component " << comp;
  int failures = 0;
  for (std::size_t i = 0; i < sol.size(); ++i) {
    if (sol[i] != solo.sol[i] && failures++ < 3) {
      ADD_FAILURE() << "rank " << rank << " component " << comp
                    << " solution mismatch at flat index " << i;
    }
  }
  ASSERT_EQ(failures, 0);
}

// ---------------------------------------------------------------------
// The bitwise matrix: smoother x CA x fusion x varcoef, 2 ranks, K=2.

struct MatrixCase {
  Smoother smoother;
  bool ca;
  bool fuse;
  bool varcoef;
};

std::string matrix_name(const MatrixCase& p) {
  std::string s;
  switch (p.smoother) {
    case Smoother::kPointJacobi: s = "PointJacobi"; break;
    case Smoother::kWeightedJacobi: s = "WeightedJacobi"; break;
    case Smoother::kChebyshev: s = "Chebyshev"; break;
    case Smoother::kRedBlackGS: s = "RedBlackGS"; break;
  }
  s += p.ca ? "_Ca" : "_NoCa";
  s += p.fuse ? "_Fused" : "_Split";
  s += p.varcoef ? "_VarCoef" : "_ConstCoef";
  return s;
}

// gtest prints a parameter into the ctest name; the default printer
// dumps the struct's bytes, padding included.
void PrintTo(const MatrixCase& p, std::ostream* os) { *os << matrix_name(p); }

std::string case_name(const ::testing::TestParamInfo<MatrixCase>& info) {
  return matrix_name(info.param);
}

class BatchedBitwise : public ::testing::TestWithParam<MatrixCase> {};

TEST_P(BatchedBitwise, TwoWayMatchesTwoSoloSolves) {
  const MatrixCase& p = GetParam();
  GmgOptions o = small_options();
  o.smoother = p.smoother;
  o.communication_avoiding = p.ca;
  // The K-wide cycle runs the same fused-descent plan as the solo
  // solves, so both fusion states must pair up bitwise.
  o.fuse_stages = p.fuse;
  const CartDecomp decomp({16, 16, 16}, {2, 1, 1});
  const Vec3 sub = decomp.subdomain_extent();
  comm::World world(2);
  world.run([&](comm::Communicator& c) {
    GmgSolver solver(o, decomp, c.rank());
    if (p.varcoef) solver.set_coefficient(c, wavy_coef);
    const SoloRef ra = run_solo(c, solver, sub, rhs_a, o.tolerance, o.max_vcycles);
    const SoloRef rb = run_solo(c, solver, sub, rhs_b, o.tolerance, o.max_vcycles);

    const std::vector<SolveResult> got =
        run_wide(c, solver, {rhs_a, rhs_b}, o.tolerance, o.max_vcycles);
    expect_component_matches_solo(ra, got[0], solver, 0, c.rank());
    expect_component_matches_solo(rb, got[1], solver, 1, c.rank());
  });
}

std::vector<MatrixCase> matrix_cases() {
  std::vector<MatrixCase> cases;
  for (Smoother s : {Smoother::kPointJacobi, Smoother::kWeightedJacobi,
                     Smoother::kChebyshev, Smoother::kRedBlackGS}) {
    for (bool ca : {false, true}) {
      for (bool fuse : {false, true}) {
        for (bool varcoef : {false, true}) {
          if (varcoef && s == Smoother::kRedBlackGS) continue;  // unsupported
          cases.push_back({s, ca, fuse, varcoef});
        }
      }
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Matrix, BatchedBitwise,
                         ::testing::ValuesIn(matrix_cases()), case_name);

// ---------------------------------------------------------------------
// Masked bottom CG: components freeze at their solo exit iterations.

TEST(BatchedBottomCg, ThreeWayBitwiseWithCgBottom) {
  GmgOptions o = small_options();
  o.bottom = BottomSolverType::kConjugateGradient;
  o.bottom_smooths = 30;
  o.max_vcycles = 4;
  const CartDecomp decomp({16, 16, 16}, {2, 1, 1});
  const Vec3 sub = decomp.subdomain_extent();
  comm::World world(2);
  world.run([&](comm::Communicator& c) {
    GmgSolver solver(o, decomp, c.rank());
    const SoloRef ra = run_solo(c, solver, sub, rhs_a, o.tolerance, o.max_vcycles);
    const SoloRef rb = run_solo(c, solver, sub, rhs_b, o.tolerance, o.max_vcycles);
    const SoloRef rc = run_solo(c, solver, sub, rhs_c, o.tolerance, o.max_vcycles);

    const std::vector<SolveResult> got = run_wide(
        c, solver, {rhs_a, rhs_b, rhs_c}, o.tolerance, o.max_vcycles);
    expect_component_matches_solo(ra, got[0], solver, 0, c.rank());
    expect_component_matches_solo(rb, got[1], solver, 1, c.rank());
    expect_component_matches_solo(rc, got[2], solver, 2, c.rank());
  });
}

// ---------------------------------------------------------------------
// Per-component early retirement: a loose-tolerance component retires
// cycles before its tight-tolerance batchmate, with the snapshot and
// result frozen at exactly the solo exit state.

TEST(BatchedRetirement, LooseComponentRetiresEarlyBitwise) {
  GmgOptions o = small_options();
  o.smooths = 4;
  o.max_vcycles = 40;
  const CartDecomp decomp({16, 16, 16}, {1, 1, 1});
  const Vec3 sub = decomp.subdomain_extent();
  comm::World world(1);
  world.run([&](comm::Communicator& c) {
    GmgSolver solver(o, decomp, 0);
    const SoloRef loose = run_solo(c, solver, sub, rhs_a, 1e-2, 40);
    const SoloRef tight = run_solo(c, solver, sub, rhs_b, 1e-9, 40);
    ASSERT_LT(loose.result.vcycles, tight.result.vcycles);

    solver.set_rhs({rhs_a, rhs_b});
    std::vector<SolveSpec> specs(2);
    specs[0].tolerance = 1e-2;
    specs[1].tolerance = 1e-9;
    specs[0].max_vcycles = specs[1].max_vcycles = 40;
    const std::vector<SolveResult> got = solver.solve(c, specs);
    expect_component_matches_solo(loose, got[0], solver, 0, 0);
    expect_component_matches_solo(tight, got[1], solver, 1, 0);
  });
}

TEST(BatchedRetirement, ExhaustedCycleBudgetMatchesSolo) {
  GmgOptions o = small_options();
  const CartDecomp decomp({16, 16, 16}, {1, 1, 1});
  const Vec3 sub = decomp.subdomain_extent();
  comm::World world(1);
  world.run([&](comm::Communicator& c) {
    GmgSolver solver(o, decomp, 0);
    const SoloRef capped = run_solo(c, solver, sub, rhs_a, 1e-14, 2);
    const SoloRef free = run_solo(c, solver, sub, rhs_b, 1e-6, 40);
    EXPECT_FALSE(capped.result.converged);

    solver.set_rhs({rhs_a, rhs_b});
    std::vector<SolveSpec> specs(2);
    specs[0].tolerance = 1e-14;
    specs[0].max_vcycles = 2;
    specs[1].tolerance = 1e-6;
    specs[1].max_vcycles = 40;
    const std::vector<SolveResult> got = solver.solve(c, specs);
    expect_component_matches_solo(capped, got[0], solver, 0, 0);
    expect_component_matches_solo(free, got[1], solver, 1, 0);
  });
}

TEST(BatchedRetirement, NonFiniteComponentRetiresWithoutPoisoningPeers) {
  // A NaN RHS in component 1 must retire that component unconverged
  // with a NaN residual, as the solo loop does, while its batchmate
  // still runs to the solo result bit for bit.
  GmgOptions o = small_options();
  o.max_vcycles = 6;
  const CartDecomp decomp({16, 16, 16}, {1, 1, 1});
  const Vec3 sub = decomp.subdomain_extent();
  const auto poisoned = [](real_t x, real_t y, real_t z) {
    return x < 0.05 && y < 0.05 && z < 0.05 ? std::nan("") : rhs_b(x, y, z);
  };
  comm::World world(1);
  world.run([&](comm::Communicator& c) {
    GmgSolver solver(o, decomp, 0);
    const SoloRef clean = run_solo(c, solver, sub, rhs_a, o.tolerance, 6);

    const std::vector<SolveResult> got =
        run_wide(c, solver, {rhs_a, poisoned}, o.tolerance, 6);
    expect_component_matches_solo(clean, got[0], solver, 0, 0);
    EXPECT_FALSE(got[1].converged);
    EXPECT_TRUE(std::isnan(got[1].final_residual));
    EXPECT_LE(got[1].vcycles, 1);
  });
}

TEST(BatchedRetirement, CancelledComponentRetiresOthersFinish) {
  GmgOptions o = small_options();
  o.max_vcycles = 40;
  o.tolerance = 1e-8;
  const CartDecomp decomp({16, 16, 16}, {1, 1, 1});
  const Vec3 sub = decomp.subdomain_extent();
  comm::World world(1);
  world.run([&](comm::Communicator& c) {
    SolveControl cancel_now;
    cancel_now.cancel.store(true);

    GmgSolver solver(o, decomp, 0);
    const SoloRef cancelled =
        run_solo(c, solver, sub, rhs_a, 1e-8, 40, &cancel_now);
    const SoloRef normal = run_solo(c, solver, sub, rhs_b, 1e-8, 40);
    EXPECT_TRUE(cancelled.result.cancelled);
    EXPECT_EQ(cancelled.result.vcycles, 0);

    solver.set_rhs({rhs_a, rhs_b});
    std::vector<SolveSpec> specs(2);
    specs[0].tolerance = specs[1].tolerance = 1e-8;
    specs[0].max_vcycles = specs[1].max_vcycles = 40;
    specs[0].control = &cancel_now;
    const std::vector<SolveResult> got = solver.solve(c, specs);
    EXPECT_TRUE(got[0].cancelled);
    expect_component_matches_solo(cancelled, got[0], solver, 0, 0);
    expect_component_matches_solo(normal, got[1], solver, 1, 0);
  });
}

// ---------------------------------------------------------------------
// One hierarchy, three widths: K=3, then K=1, then K=2 on the same
// solver. Every solve must match freshly built single-RHS solvers bit
// for bit — history, cycle count and solution — so nothing a wider or
// narrower solve leaves behind (fields, exchange engines, retired
// snapshots) leaks into the next.

TEST(BatchedWidths, OneHierarchySolvesAtK3ThenK1ThenK2Bitwise) {
  GmgOptions o = small_options();
  o.smoother = Smoother::kChebyshev;
  o.bottom = BottomSolverType::kConjugateGradient;
  o.bottom_smooths = 20;
  o.max_vcycles = 4;
  const CartDecomp decomp({16, 16, 16}, {2, 1, 1});
  const Vec3 sub = decomp.subdomain_extent();
  comm::World world(2);
  world.run([&](comm::Communicator& c) {
    const auto fresh = [&](const RhsFunction& f) {
      GmgSolver s(o, decomp, c.rank());
      return run_solo(c, s, sub, f, o.tolerance, o.max_vcycles);
    };
    const SoloRef ra = fresh(rhs_a);
    const SoloRef rb = fresh(rhs_b);
    const SoloRef rc = fresh(rhs_c);

    GmgSolver solver(o, decomp, c.rank());
    std::vector<SolveResult> got = run_wide(
        c, solver, {rhs_a, rhs_b, rhs_c}, o.tolerance, o.max_vcycles);
    ASSERT_EQ(solver.batch(), 3);
    expect_component_matches_solo(ra, got[0], solver, 0, c.rank());
    expect_component_matches_solo(rb, got[1], solver, 1, c.rank());
    expect_component_matches_solo(rc, got[2], solver, 2, c.rank());

    got = run_wide(c, solver, {rhs_b}, o.tolerance, o.max_vcycles);
    ASSERT_EQ(solver.batch(), 1);
    expect_component_matches_solo(rb, got[0], solver, 0, c.rank());

    got = run_wide(c, solver, {rhs_c, rhs_a}, o.tolerance, o.max_vcycles);
    ASSERT_EQ(solver.batch(), 2);
    expect_component_matches_solo(rc, got[0], solver, 0, c.rank());
    expect_component_matches_solo(ra, got[1], solver, 1, c.rank());
  });
}

// ---------------------------------------------------------------------
// The layout's reason to exist: a K-wide solve performs exactly as
// many ghost-exchange rounds as ONE single-RHS solve on the same
// schedule — each stretched round carries all K components.

TEST(BatchedExchange, KWaySolveUsesSoloExchangeRounds) {
  trace::clear();
  trace::set_enabled(true);
  GmgOptions o = small_options();
  const CartDecomp decomp({16, 16, 16}, {2, 1, 1});
  const Vec3 sub = decomp.subdomain_extent();

  // Pin the schedule: tolerance 0 never converges, so both runs do
  // exactly max_vcycles cycles regardless of K.
  const real_t tol = 0.0;
  const int cycles = 2;

  std::uint64_t solo_calls = 0;
  {
    comm::World world(2);
    world.run([&](comm::Communicator& c) {
      GmgSolver solver(o, decomp, c.rank());
      (void)run_solo(c, solver, sub, rhs_a, tol, cycles);
    });
    solo_calls = trace::collect().counter_total("exchange.calls");
  }
  ASSERT_GT(solo_calls, 0u);

  {
    comm::World world(2);
    world.run([&](comm::Communicator& c) {
      GmgSolver solver(o, decomp, c.rank());
      (void)run_wide(c, solver, {rhs_a, rhs_b, rhs_c}, tol, cycles);
    });
    const trace::Snapshot snap = trace::collect();
    EXPECT_EQ(snap.counter_total("exchange.calls"), solo_calls);
    EXPECT_EQ(snap.counter_total("gmg.solves"), 2u);  // one per rank
    EXPECT_EQ(snap.counter_total("gmg.rhs"), 6u);     // 3 per rank
  }
  trace::set_enabled(false);
  trace::clear();
}

// ---------------------------------------------------------------------
// Storage plumbing: arena-backed K-wide fields round-trip.

TEST(BatchedStorage, ArenaBackedSolveMatchesDirect) {
  GmgOptions o = small_options();
  const CartDecomp decomp({16, 16, 16}, {1, 1, 1});
  const Vec3 sub = decomp.subdomain_extent();
  comm::World world(1);
  world.run([&](comm::Communicator& c) {
    GmgSolver solver(o, decomp, 0);
    const SoloRef ra = run_solo(c, solver, sub, rhs_a, o.tolerance, o.max_vcycles);

    BrickArena arena;
    {
      solver.attach_field_storage(arena, 2);
      EXPECT_EQ(solver.batch(), 2);
      const std::vector<SolveResult> got =
          run_wide(c, solver, {rhs_a, rhs_b}, o.tolerance, o.max_vcycles);
      expect_component_matches_solo(ra, got[0], solver, 0, 0);
    }
    // Fields returned to the arena on detach; re-attaching at K=2
    // reuses them (zeroed) and still matches solo.
    solver.detach_field_storage(arena);
    EXPECT_GT(arena.stats().pooled_buffers, 0u);
    const std::uint64_t hits_before = arena.stats().hits;
    {
      solver.attach_field_storage(arena, 2);
      EXPECT_GT(arena.stats().hits, hits_before);
      const std::vector<SolveResult> got =
          run_wide(c, solver, {rhs_a, rhs_b}, o.tolerance, o.max_vcycles);
      expect_component_matches_solo(ra, got[0], solver, 0, 0);
    }
  });
}

TEST(BatchedKernels, MaxNormPropagatesNaNPerComponent) {
  // A NaN in one component's interior is that component's max-norm;
  // its neighbour in the same AoSoA row keeps its finite max. A NaN
  // in a ghost brick is outside the norm altogether.
  auto grid_arr = BrickedArray::create({8, 8, 8}, BrickShape::cube(4));
  BrickedArray a =
      BrickedArray::wide(grid_arr.grid_ptr(), BrickShape::cube(4), 2);
  for_each(Box::from_extent({8, 8, 8}), [&](index_t i, index_t j, index_t k) {
    a.at(i, j, k, 0) = -static_cast<real_t>(i + j + k);
    a.at(i, j, k, 1) = 0.5;
  });
  a.at(-1, 0, 0, 1) = std::nan("");
  EXPECT_EQ(max_norm(a, 0), 21.0);
  EXPECT_EQ(max_norm(a, 1), 0.5);
  for (const Vec3 cell : {Vec3{0, 0, 0}, Vec3{5, 2, 3}, Vec3{7, 7, 7}}) {
    a.at(cell.x, cell.y, cell.z, 1) = std::nan("");
    EXPECT_TRUE(std::isnan(max_norm(a, 1)));
    EXPECT_EQ(max_norm(a, 0), 21.0);
    a.at(cell.x, cell.y, cell.z, 1) = 0.5;
  }
}

TEST(BatchedArray, LayoutIsRhsInnermost) {
  // The AoSoA contract: (i,j,k,c) lives at stretched inner element
  // (i*K + c, j, k) — component index innermost within a brick row.
  auto grid_arr =
      BrickedArray::create({8, 8, 8}, BrickShape::cube(4));
  BrickedArray wide =
      BrickedArray::wide(grid_arr.grid_ptr(), BrickShape::cube(4), 2);
  const batch::BatchedBrickedArray a = batch::view(wide);
  wide.at(3, 1, 2, 0) = 10.0;
  wide.at(3, 1, 2, 1) = 20.0;
  EXPECT_EQ(wide(6, 1, 2), 10.0);
  EXPECT_EQ(wide(7, 1, 2), 20.0);
  EXPECT_EQ(a.at(3, 1, 2, 1), 20.0);
  EXPECT_EQ(wide.shape(), (BrickShape{8, 4, 4}));
  EXPECT_EQ(a.batch(), 2);
  EXPECT_EQ(a.base_shape(), BrickShape::cube(4));
}

}  // namespace
}  // namespace gmg
