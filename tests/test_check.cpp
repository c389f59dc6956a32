// Access-hazard detector (src/check layer 2): seeded-bug coverage.
//
// A deliberately planted undersized ghost depth (stencil radius >
// brick dimension) must be rejected at kernel launch / solver setup,
// checker on or off. Plus: write-write overlap across engine workers,
// corrupt iteration plans, the disabled-path no-op guarantee, and a
// full checker-enabled multi-rank V-cycle over every smoother that must
// come out clean.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <thread>
#include <vector>

#include "check/footprint.hpp"
#include "check/shadow.hpp"
#include "comm/simmpi.hpp"
#include "dsl/apply_brick.hpp"
#include "dsl/stencils.hpp"
#include "gmg/solver.hpp"

namespace gmg {
namespace {

bool has_kind(check::HazardKind kind) {
  for (const check::HazardRecord& h : check::hazards()) {
    if (h.kind == kind) return true;
  }
  return false;
}

class CheckDetector : public ::testing::Test {
 protected:
  void SetUp() override {
    check::set_enabled(true);
    check::reset();
  }
  void TearDown() override {
    check::reset();
    check::set_enabled(false);
  }
};

// ---- seeded bug: undersized ghost depth --------------------------------

TEST_F(CheckDetector, SeededUndersizedGhostRejectedAtLaunch) {
  // Radius-3 star on 2^3 bricks: taps reach past the one-brick ghost
  // layer. The footprint check fires before any memory is touched.
  BrickedArray out = BrickedArray::create({8, 8, 8}, BrickShape::cube(2));
  BrickedArray in = BrickedArray::create({8, 8, 8}, BrickShape::cube(2));
  const auto expr =
      dsl::star_stencil<3, 0>(std::array<real_t, 4>{1.0, 1.0, 1.0, 1.0});
  EXPECT_THROW(dsl::apply(expr, out, Box::from_extent({8, 8, 8}), in), Error);
}

TEST_F(CheckDetector, SeededUndersizedGhostRejectedAtSolverSetup) {
  // Red-black GS consumes 2 ghost layers per iteration; a 1^3 brick
  // provides 1. The solver constructor rejects the configuration.
  GmgOptions o;
  o.levels = 1;
  o.brick = BrickShape::cube(1);
  o.smoother = Smoother::kRedBlackGS;
  const CartDecomp decomp({8, 8, 8}, {1, 1, 1});
  EXPECT_THROW(GmgSolver(o, decomp, 0), Error);
}

TEST_F(CheckDetector, UndersizedGhostRejectedEvenWhenDetectorOff) {
  // The footprint check is a setup invariant, not a debug feature:
  // release builds with GMG_CHECK=0 still refuse to launch.
  check::set_enabled(false);
  BrickedArray out = BrickedArray::create({8, 8, 8}, BrickShape::cube(2));
  BrickedArray in = BrickedArray::create({8, 8, 8}, BrickShape::cube(2));
  const auto expr =
      dsl::star_stencil<3, 0>(std::array<real_t, 4>{1.0, 1.0, 1.0, 1.0});
  EXPECT_THROW(dsl::apply(expr, out, Box::from_extent({8, 8, 8}), in), Error);
}

// ---- concurrent write-write ----------------------------------------------

TEST_F(CheckDetector, CrossThreadWriteWriteOverlapIsFlagged) {
  BrickedArray f = BrickedArray::create({8, 8, 8}, BrickShape::cube(4));
  const Box lower{{0, 0, 0}, {8, 8, 6}};
  const Box upper{{0, 0, 4}, {8, 8, 8}};  // overlaps lower on z in [4,6)
  {
    check::KernelScope a("kernelA", {check::access(f, lower)});
    std::thread other([&] {
      check::KernelScope b("kernelB", {check::access(f, upper)});
    });
    other.join();
  }
  EXPECT_TRUE(has_kind(check::HazardKind::kWriteWriteOverlap));
}

TEST_F(CheckDetector, DisjointAndNestedWritesAreClean) {
  BrickedArray f = BrickedArray::create({8, 8, 8}, BrickShape::cube(4));
  const Box lower{{0, 0, 0}, {8, 8, 4}};
  const Box upper{{0, 0, 4}, {8, 8, 8}};  // half-open: truly disjoint
  {
    check::KernelScope a("kernelA", {check::access(f, lower)});
    std::thread other([&] {
      check::KernelScope b("kernelB", {check::access(f, upper)});
    });
    other.join();
    // Same-thread nesting over overlapping boxes is sequenced, not a
    // hazard (an enclosing kernel delegating to an inner launch).
    check::KernelScope nested("kernelA.inner",
                              {check::access(f, Box{{0, 0, 0}, {4, 4, 4}})});
  }
  EXPECT_EQ(check::hazard_count(), 0u);
}

// ---- corrupt iteration plans ---------------------------------------------

TEST_F(CheckDetector, ConcurrentWritesToDistinctFieldsAreClean) {
  // Overlap is per field: two threads writing the same box of two
  // different arrays (a sweep's x and r, say) is no hazard.
  BrickedArray f = BrickedArray::create({8, 8, 8}, BrickShape::cube(4));
  BrickedArray g(f.grid_ptr(), f.shape());
  const Box whole = Box::from_extent({8, 8, 8});
  {
    check::KernelScope a("kernelA", {check::access(f, whole)});
    std::thread other(
        [&] { check::KernelScope b("kernelB", {check::access(g, whole)}); });
    other.join();
  }
  EXPECT_EQ(check::hazard_count(), 0u);
}

TEST_F(CheckDetector, CorruptPlanIsFlagged) {
  std::vector<BrickPlanItem> items(3);
  items[0].id = 0;  // full brick, consistent with the prefix
  items[0].ihi = 4;
  items[0].jhi = 4;
  items[0].khi = 4;
  items[1].id = 0;  // duplicate id: two chunks would write one brick
  items[1].ihi = 4;
  items[1].jhi = 4;
  items[1].khi = 4;
  items[2].id = 7;  // clip bound escapes the brick
  items[2].ihi = 5;
  items[2].jhi = 4;
  items[2].khi = 4;
  check::validate_plan("test.plan", items.data(), items.size(),
                       /*num_full=*/2, Vec3{4, 4, 4});
  EXPECT_GE(check::hazard_count(), 2u);
  EXPECT_TRUE(has_kind(check::HazardKind::kCorruptPlan));
}

TEST_F(CheckDetector, WellFormedPlanIsClean) {
  BrickedArray f = BrickedArray::create({16, 16, 16}, BrickShape::cube(4));
  const auto plan = f.grid().iteration_plan(Box::from_extent({16, 16, 16}),
                                            Vec3{4, 4, 4});
  check::validate_plan("test.plan", plan->items.data(), plan->items.size(),
                       plan->num_full, Vec3{4, 4, 4});
  EXPECT_EQ(check::hazard_count(), 0u);
}

// ---- disabled path --------------------------------------------------------

TEST_F(CheckDetector, DisabledDetectorRecordsNothing) {
  check::set_enabled(false);
  BrickedArray f = BrickedArray::create({8, 8, 8}, BrickShape::cube(4));
  const Box whole = Box::from_extent({8, 8, 8});
  {
    check::KernelScope a("kernelA", {check::access(f, whole)});
    std::thread other(
        [&] { check::KernelScope b("kernelB", {check::access(f, whole)}); });
    other.join();
  }
  auto scope = check::scope_if_enabled("kernelC", {check::access(f, whole)});
  EXPECT_FALSE(scope.has_value());
  EXPECT_EQ(check::hazard_count(), 0u);
}

// ---- full solves must come out clean --------------------------------------

TEST_F(CheckDetector, CheckerEnabledVcycleRunsCleanForEverySmoother) {
  // Multi-rank with communication avoiding on: exercises the aggregated
  // ghost exchanges, the CA deep-ghost sweeps, and every instrumented
  // kernel. Any recorded hazard fails the test.
  const CartDecomp decomp({16, 16, 16}, {2, 2, 2});
  const std::array<Smoother, 4> smoothers{
      Smoother::kPointJacobi, Smoother::kWeightedJacobi, Smoother::kChebyshev,
      Smoother::kRedBlackGS};
  for (const Smoother sm : smoothers) {
    check::reset();
    comm::World world(decomp.num_ranks());
    world.run([&](comm::Communicator& c) {
      GmgOptions o;
      o.levels = 2;
      o.smooths = 4;
      o.bottom_smooths = 8;
      o.max_vcycles = 2;
      o.brick = BrickShape::cube(4);
      o.smoother = sm;
      o.communication_avoiding = true;
      GmgSolver solver(o, decomp, c.rank());
      solver.set_rhs([](real_t x, real_t y, real_t z) {
        return std::sin(2 * M_PI * x) * std::sin(2 * M_PI * y) *
               std::sin(2 * M_PI * z);
      });
      solver.vcycle(c);
      solver.vcycle(c);
      solver.residual_norm(c);
    });
    EXPECT_NO_THROW(check::require_clean("V-cycle"))
        << "smoother " << static_cast<int>(sm);
    EXPECT_EQ(check::hazard_count(), 0u);
  }
}

TEST_F(CheckDetector, CheckerEnabledGeneratedKernelSolveRunsClean) {
  const CartDecomp decomp({16, 8, 8}, {2, 1, 1});
  comm::World world(2);
  world.run([&](comm::Communicator& c) {
    GmgOptions o;
    o.levels = 1;
    o.smooths = 4;
    o.bottom_smooths = 8;
    o.max_vcycles = 2;
    o.brick = BrickShape::cube(4);
    o.use_generated_kernels = true;
    GmgSolver solver(o, decomp, c.rank());
    solver.set_rhs([](real_t, real_t, real_t) { return 1.0; });
    solver.vcycle(c);
    solver.residual_norm(c);
  });
  EXPECT_NO_THROW(check::require_clean("generated-kernel V-cycle"));
}

TEST_F(CheckDetector, RequireCleanThrowsWithHazardDetails) {
  BrickedArray f = BrickedArray::create({8, 8, 8}, BrickShape::cube(4));
  const Box whole = Box::from_extent({8, 8, 8});
  {
    check::KernelScope a("kernelA", {check::access(f, whole)});
    std::thread other(
        [&] { check::KernelScope b("kernelB", {check::access(f, whole)}); });
    other.join();
  }
  try {
    check::require_clean("unit");
    FAIL() << "require_clean did not throw";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("write-write-overlap"),
              std::string::npos);
  }
}

}  // namespace
}  // namespace gmg
