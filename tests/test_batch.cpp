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
#include <cstring>
#include <functional>
#include <vector>

#include "common/rng.hpp"
#include "gmg/fused_kernels.hpp"
#include "gmg/kernel_plan.hpp"
#include "gmg/level.hpp"
#include "gmg/operators.hpp"
#include "gmg/operators_varcoef.hpp"
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
  // The AoSoA contract: (i,j,k,c) lives at stretched storage element
  // (i*K + c, j, k) — component index innermost within a brick row.
  auto grid_arr =
      BrickedArray::create({8, 8, 8}, BrickShape::cube(4));
  BrickedArray wide =
      BrickedArray::wide(grid_arr.grid_ptr(), BrickShape::cube(4), 2);
  wide.at(3, 1, 2, 0) = 10.0;
  wide.at(3, 1, 2, 1) = 20.0;
  EXPECT_EQ(wide(6, 1, 2), 10.0);
  EXPECT_EQ(wide(7, 1, 2), 20.0);
  EXPECT_EQ(wide.shape(), (BrickShape{8, 4, 4}));
  EXPECT_EQ(wide.components(), 2);
  EXPECT_EQ(wide.base_shape(), BrickShape::cube(4));
  // Flat storage: component c of the cell at plain element e sits at
  // element e*K + c, ghost bricks included.
  const std::size_t e = grid_arr.element_index(3, 1, 2);
  EXPECT_EQ(wide.data()[e * 2 + 1], 20.0);
}

// ---------------------------------------------------------------------
// K-wide solves of the 4th-order (radius-2) operator, which runs
// through the DSL engine rather than the 7-point star body.

TEST(BatchedRadiusTwo, TwoWayMatchesTwoSoloSolves) {
  GmgOptions o = small_options();
  o.operator_radius = 2;
  const CartDecomp decomp({16, 16, 16}, {2, 1, 1});
  const Vec3 sub = decomp.subdomain_extent();
  comm::World world(2);
  world.run([&](comm::Communicator& c) {
    GmgSolver solver(o, decomp, c.rank());
    const SoloRef ra = run_solo(c, solver, sub, rhs_a, o.tolerance, o.max_vcycles);
    const SoloRef rb = run_solo(c, solver, sub, rhs_b, o.tolerance, o.max_vcycles);

    const std::vector<SolveResult> got =
        run_wide(c, solver, {rhs_a, rhs_b}, o.tolerance, o.max_vcycles);
    expect_component_matches_solo(ra, got[0], solver, 0, c.rank());
    expect_component_matches_solo(rb, got[1], solver, 1, c.rank());
  });
}

// ---------------------------------------------------------------------
// Kernel-level stride contract: every kernel entry point that takes a
// K-wide field gives each component exactly the bits a plain (K = 1)
// run of the same kernel gives it — every storage element, ghost
// bricks included — over the interior, over CA-grown boxes whose edge
// bricks are clipped ghost bricks, and over a box that clips interior
// bricks.

struct StrideCase {
  index_t bdim;
  int k;
};

void PrintTo(const StrideCase& c, std::ostream* os) {
  *os << "brick " << c.bdim << ", K=" << c.k;
}

std::string stride_case_name(const ::testing::TestParamInfo<StrideCase>& info) {
  return "b" + std::to_string(info.param.bdim) + "_k" +
         std::to_string(info.param.k);
}

using Fields = std::vector<BrickedArray>;

template <typename... F>
Fields fields(F&&... f) {
  Fields v;
  (v.push_back(std::forward<F>(f)), ...);
  return v;
}

bool same_bits(real_t a, real_t b) {
  return std::memcmp(&a, &b, sizeof(real_t)) == 0;
}

class KStride : public ::testing::TestWithParam<StrideCase> {
 protected:
  index_t bdim() const { return GetParam().bdim; }
  int k() const { return GetParam().k; }
  BrickShape shape() const { return BrickShape::cube(bdim()); }

  std::shared_ptr<const BrickGrid> grid(index_t n) const {
    const index_t nb = n / bdim();
    return std::make_shared<BrickGrid>(Vec3{nb, nb, nb});
  }

  /// A K-wide field over `g` holding reproducible values in [lo, hi),
  /// ghost bricks included.
  BrickedArray wide(const std::shared_ptr<const BrickGrid>& g,
                    std::uint64_t seed, real_t lo = -1.0,
                    real_t hi = 1.0) const {
    BrickedArray f = BrickedArray::wide(g, shape(), k());
    Rng rng(seed);
    for (std::size_t i = 0; i < f.size(); ++i) f.data()[i] = rng.uniform(lo, hi);
    return f;
  }

  /// Component c of a K-wide field as a plain field over the same grid.
  BrickedArray component(const BrickedArray& w, int c) const {
    BrickedArray f(w.grid_ptr(), w.base_shape());
    const std::size_t kk = static_cast<std::size_t>(w.components());
    for (std::size_t e = 0; e < f.size(); ++e) f.data()[e] = w.data()[e * kk + c];
    return f;
  }

  Fields components(const Fields& wide, int c) const {
    Fields out;
    for (const BrickedArray& w : wide) out.push_back(component(w, c));
    return out;
  }

  /// Every element of component c of each wide field equals the
  /// matching plain field bit for bit.
  void expect_component_equal(const Fields& wide, const Fields& solo,
                              int c) const {
    ASSERT_EQ(wide.size(), solo.size());
    const std::size_t kk = static_cast<std::size_t>(k());
    for (std::size_t f = 0; f < wide.size(); ++f) {
      int failures = 0;
      for (std::size_t e = 0; e < solo[f].size(); ++e) {
        if (!same_bits(wide[f].data()[e * kk + c], solo[f].data()[e]) &&
            failures++ < 3) {
          ADD_FAILURE() << "field " << f << " component " << c
                        << " differs at plain element " << e;
        }
      }
      ASSERT_EQ(failures, 0);
    }
  }

  /// Run `kernel` on copies of the K-wide fields and, per component,
  /// on plain fields holding that component, then compare.
  template <typename Kernel>
  void expect_stride_equal(const Fields& init, Kernel&& kernel) const {
    Fields wide;
    for (const BrickedArray& w : init) {
      wide.push_back(BrickedArray::wide(w.grid_ptr(), w.base_shape(), k()));
      std::memcpy(wide.back().data(), w.data(), w.size() * sizeof(real_t));
    }
    std::vector<Fields> solo;
    for (int c = 0; c < k(); ++c) solo.push_back(components(init, c));
    kernel(wide);
    for (int c = 0; c < k(); ++c) {
      kernel(solo[static_cast<std::size_t>(c)]);
      expect_component_equal(wide, solo[static_cast<std::size_t>(c)], c);
    }
  }

  /// Active boxes of a 16^3 interior: the interior, grown by `reach`
  /// into the ghost bricks (edge items clipped ghost bricks), and an
  /// interior box that clips bricks on every face.
  std::vector<Box> boxes(index_t reach) const {
    const Box interior = Box::from_extent({16, 16, 16});
    std::vector<Box> out{interior, Box{{1, 2, 3}, {15, 13, 14}}};
    if (reach > 0) out.push_back(grow(interior, reach));
    return out;
  }
};

TEST_P(KStride, JacobiStages) {
  const auto g = grid(16);
  const real_t alpha = -6.0 * 256.0, beta = 256.0, gamma = -0.5 / alpha;
  for (const Box& active : boxes(bdim() - 1)) {
    SCOPED_TRACE(::testing::Message() << "active " << active.lo.x << ".."
                                      << active.hi.x);
    // x, Ax, b, r
    const Fields f = fields(wide(g, 1), wide(g, 2), wide(g, 3), wide(g, 4));
    expect_stride_equal(f, [&](Fields& v) {
      apply_op(v[1], v[0], alpha, beta, active);
    });
    expect_stride_equal(f, [&](Fields& v) {
      smooth(v[0], v[1], v[2], gamma, active);
    });
    expect_stride_equal(f, [&](Fields& v) {
      smooth_residual(v[0], v[3], v[1], v[2], gamma, active);
    });
    expect_stride_equal(f, [&](Fields& v) {
      residual(v[3], v[2], v[1], active);
    });
  }
}

TEST_P(KStride, Transfers) {
  const auto fine = grid(16);
  const auto coarse = grid(8);
  const Fields f = fields(wide(fine, 5), wide(coarse, 6));
  expect_stride_equal(f, [](Fields& v) { restriction(v[1], v[0]); });
  expect_stride_equal(f, [](Fields& v) {
    interpolation_increment(v[0], v[1]);
  });
}

TEST_P(KStride, GaussSeidel) {
  const auto g = grid(16);
  const real_t alpha = -6.0 * 256.0, beta = 256.0;
  for (const Box& active : boxes(bdim() - 1)) {
    for (const Vec3 origin : {Vec3{0, 0, 0}, Vec3{16, 0, 48}}) {
      const Fields f = fields(wide(g, 7), wide(g, 8));
      expect_stride_equal(f, [&](Fields& v) {
        gs_color_sweep(v[0], v[1], alpha, beta, 0, origin, active);
        gs_color_sweep(v[0], v[1], alpha, beta, 1, origin, active);
      });
    }
  }
}

TEST_P(KStride, ChebyshevUpdates) {
  const auto g = grid(16);
  for (const Box& active : boxes(bdim() - 1)) {
    const Fields f = fields(wide(g, 9), wide(g, 10));
    expect_stride_equal(f, [&](Fields& v) { axpy(v[0], 0.375, v[1], active); });
    expect_stride_equal(f, [&](Fields& v) {
      cheby_p_update(v[0], v[1], -1.0 / 1536.0, 0.625, active);
    });
  }
}

TEST_P(KStride, VariableCoefficient) {
  const auto g = grid(16);
  // Shared across components: the coefficient and the diagonal.
  BrickedArray coef(g, shape());
  BrickedArray diag(g, shape());
  Rng rng(11);
  for (std::size_t i = 0; i < coef.size(); ++i) {
    coef.data()[i] = rng.uniform(0.5, 1.5);
    diag.data()[i] = rng.uniform(-2.0, -1.0);
  }
  for (const Box& active : boxes(bdim() - 1)) {
    // x, Ax, b, r
    const Fields f =
        fields(wide(g, 12), wide(g, 13), wide(g, 14), wide(g, 15));
    expect_stride_equal(f, [&](Fields& v) {
      apply_op_varcoef(v[1], v[0], coef, 0.25, 1.0 / 16, active);
    });
    expect_stride_equal(f, [&](Fields& v) {
      smooth_residual_varcoef(v[0], v[3], v[1], v[2], diag, 0.5, active);
    });
    expect_stride_equal(f, [&](Fields& v) {
      smooth_varcoef(v[0], v[1], v[2], diag, 0.5, active);
    });
    expect_stride_equal(f, [&](Fields& v) {
      cheby_p_update_varcoef(v[0], v[3], diag, 0.625, active);
    });
  }
}

TEST_P(KStride, FusedDescent) {
  const auto fine = grid(16);
  const auto coarse = grid(8);
  BrickedArray diag(fine, shape());
  Rng rng(16);
  for (std::size_t i = 0; i < diag.size(); ++i) {
    diag.data()[i] = rng.uniform(-2.0, -1.0);
  }
  const real_t gamma = 0.5 / 1536.0;
  // The descent sweeps cover the interior: the interior itself and a
  // CA-grown box.
  for (const index_t reach : {index_t{0}, bdim() - 1}) {
    const Box active = grow(Box::from_extent({16, 16, 16}), reach);
    // x, r, coarse b, Ax, b
    const Fields f = fields(wide(fine, 17), wide(fine, 18), wide(coarse, 19),
                            wide(fine, 20), wide(fine, 21));
    expect_stride_equal(f, [&](Fields& v) {
      fused::smooth_residual_restrict(v[0], v[1], v[2], v[3], v[4], gamma,
                                      active);
    });
    expect_stride_equal(f, [&](Fields& v) {
      fused::smooth_residual_restrict_varcoef(v[0], v[1], v[2], v[3], v[4],
                                              diag, 0.5, active);
    });
  }
  const Fields f = fields(wide(fine, 22), wide(coarse, 23), wide(fine, 24),
                          wide(fine, 25));
  expect_stride_equal(f, [&](Fields& v) {
    fused::residual_restrict(v[0], v[1], v[2], v[3]);
  });
}

TEST_P(KStride, RadiusTwoApply) {
  // The radius-2 star through the level binding the solver calls.
  MgLevel lev;
  lev.radius = 2;
  lev.alpha = -7.5 * 256.0;
  lev.beta = (4.0 / 3.0) * 256.0;
  lev.beta2 = (-1.0 / 12.0) * 256.0;
  GmgOptions o;
  o.operator_radius = 2;
  resolve_level_kernels(o, lev);
  const auto g = grid(16);
  for (const Box& active : boxes(bdim() - 2)) {
    const Fields f = fields(wide(g, 26), wide(g, 27));
    expect_stride_equal(f, [&](Fields& v) { lev.plan.apply(v[1], v[0], active); });
  }
}

TEST_P(KStride, PerComponentReductions) {
  const auto g = grid(16);
  const BrickedArray a = wide(g, 28);
  const BrickedArray b = wide(g, 29);
  for (int c = 0; c < k(); ++c) {
    SCOPED_TRACE(::testing::Message() << "component " << c);
    const BrickedArray pa = component(a, c);
    const BrickedArray pb = component(b, c);
    EXPECT_TRUE(same_bits(max_norm(a, c), max_norm(pa, 0)));
    EXPECT_TRUE(same_bits(dot_interior(a, b, c), dot_interior(pa, pb, 0)));

    // The updates touch component c only.
    const Fields y = fields(wide(g, 30));
    Fields wy = fields(wide(g, 30));
    std::vector<Fields> solo;
    for (int cc = 0; cc < k(); ++cc) solo.push_back(components(y, cc));
    BrickedArray& sy = solo[static_cast<std::size_t>(c)][0];
    axpy_interior(wy[0], 0.375, a, c);
    axpy_interior(sy, 0.375, pa, 0);
    xpay_interior(wy[0], b, -0.625, c);
    xpay_interior(sy, pb, -0.625, 0);
    for (int cc = 0; cc < k(); ++cc) {
      expect_component_equal(wy, solo[static_cast<std::size_t>(cc)], cc);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Widths, KStride,
    ::testing::Values(StrideCase{2, 2}, StrideCase{2, 3}, StrideCase{2, 5},
                      StrideCase{4, 2}, StrideCase{4, 3}, StrideCase{4, 5},
                      StrideCase{8, 2}, StrideCase{8, 3}, StrideCase{8, 5}),
    stride_case_name);

}  // namespace
}  // namespace gmg
