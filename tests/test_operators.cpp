// V-cycle operator correctness: brick kernels vs the independent
// array-layout reference, plus the algebraic invariants of the
// inter-grid transfer operators.
#include <gtest/gtest.h>

#include <cmath>

#include "baseline/operators_array.hpp"
#include "gmg/operators.hpp"
#include "tests/test_util.hpp"

namespace gmg {
namespace {

constexpr real_t kTol = 1e-12;  // FMA-contraction slack across layouts

class OperatorEquivalence : public ::testing::TestWithParam<index_t> {
 protected:
  void SetUp() override {
    bdim = GetParam();
    n = {2 * bdim, 2 * bdim, 2 * bdim};
    xa = Array3D(n, 1);
    ba = Array3D(n, 1);
    test::randomize(xa, 101);
    test::randomize(ba, 202);
    xa.fill_ghosts_periodic();
    ba.fill_ghosts_periodic();

    xb = test::to_bricks(xa, BrickShape::cube(bdim));
    xb.fill_ghosts_periodic();
    bb = BrickedArray(xb.grid_ptr(), xb.shape());
    bb.copy_from(ba);
    bb.fill_ghosts_periodic();
  }

  index_t bdim = 0;
  Vec3 n;
  Array3D xa, ba;
  BrickedArray xb, bb;
};

TEST_P(OperatorEquivalence, ApplyOp) {
  Array3D out_a(n, 1);
  BrickedArray out_b(xb.grid_ptr(), xb.shape());
  const real_t alpha = -6.0, beta = 1.0;
  baseline::apply_op(out_a, xa, alpha, beta, xa.interior());
  apply_op(out_b, xb, alpha, beta, Box::from_extent(n));
  test::expect_equal(out_b, out_a, kTol);
}

TEST_P(OperatorEquivalence, SmoothMatchesReference) {
  Array3D ax_a(n, 1);
  baseline::apply_op(ax_a, xa, -6.0, 1.0, xa.interior());
  BrickedArray ax_b(xb.grid_ptr(), xb.shape());
  apply_op(ax_b, xb, -6.0, 1.0, Box::from_extent(n));

  const real_t gamma = 1.0 / 12.0;
  baseline::smooth(xa, ax_a, ba, gamma, xa.interior());
  smooth(xb, ax_b, bb, gamma, Box::from_extent(n));
  test::expect_equal(xb, xa, kTol);
}

TEST_P(OperatorEquivalence, FusedSmoothResidual) {
  Array3D ax_a(n, 1), r_a(n, 1);
  baseline::apply_op(ax_a, xa, -6.0, 1.0, xa.interior());
  BrickedArray ax_b(xb.grid_ptr(), xb.shape());
  apply_op(ax_b, xb, -6.0, 1.0, Box::from_extent(n));
  BrickedArray r_b(xb.grid_ptr(), xb.shape());

  const real_t gamma = 1.0 / 12.0;
  baseline::smooth_residual(xa, r_a, ax_a, ba, gamma, xa.interior());
  smooth_residual(xb, r_b, ax_b, bb, gamma, Box::from_extent(n));
  test::expect_equal(xb, xa, kTol);
  test::expect_equal(r_b, r_a, kTol);
}

TEST_P(OperatorEquivalence, FusedEqualsUnfused) {
  // smooth+residual must equal residual-then-smooth done separately.
  BrickedArray ax(xb.grid_ptr(), xb.shape());
  apply_op(ax, xb, -6.0, 1.0, Box::from_extent(n));

  BrickedArray x2(xb.grid_ptr(), xb.shape());
  x2.copy_from(xa);
  BrickedArray r_fused(xb.grid_ptr(), xb.shape());
  BrickedArray r_sep(xb.grid_ptr(), xb.shape());

  const real_t gamma = 0.1;
  residual(r_sep, bb, ax, Box::from_extent(n));
  smooth(x2, ax, bb, gamma, Box::from_extent(n));
  smooth_residual(xb, r_fused, ax, bb, gamma, Box::from_extent(n));

  for_each(Box::from_extent(n), [&](index_t a, index_t b, index_t c) {
    ASSERT_EQ(xb(a, b, c), x2(a, b, c));
    ASSERT_EQ(r_fused(a, b, c), r_sep(a, b, c));
  });
}

TEST_P(OperatorEquivalence, Restriction) {
  const Vec3 cn{n.x / 2, n.y / 2, n.z / 2};
  if (cn.x < bdim) GTEST_SKIP() << "coarse level smaller than one brick";
  Array3D coarse_a(cn, 1);
  baseline::restriction(coarse_a, xa);

  BrickedArray coarse_b = BrickedArray::create(cn, BrickShape::cube(bdim));
  restriction(coarse_b, xb);
  test::expect_equal(coarse_b, coarse_a, kTol);
}

TEST_P(OperatorEquivalence, InterpolationIncrement) {
  const Vec3 cn{n.x / 2, n.y / 2, n.z / 2};
  if (cn.x < bdim) GTEST_SKIP() << "coarse level smaller than one brick";
  Array3D coarse_a(cn, 1);
  test::randomize(coarse_a, 303);
  BrickedArray coarse_b = BrickedArray::create(cn, BrickShape::cube(bdim));
  coarse_b.copy_from(coarse_a);

  baseline::interpolation_increment(xa, coarse_a);
  interpolation_increment(xb, coarse_b);
  test::expect_equal(xb, xa, kTol);
}

TEST_P(OperatorEquivalence, MaxNorm) {
  EXPECT_EQ(max_norm(xb), baseline::max_norm(xa));
  init_zero(xb);
  EXPECT_EQ(max_norm(xb), 0.0);
}

TEST(MaxNormProperties, NaNInAnyInteriorCellPropagates) {
  // 64^3 cells span several reduction chunks. A NaN in any interior
  // cell, whichever chunk and SIMD lane it lands in, is the norm; a
  // NaN in a ghost brick is not part of it.
  BrickedArray f = BrickedArray::create({64, 64, 64}, BrickShape::cube(4));
  f.fill(-2.0);
  EXPECT_EQ(max_norm(f), 2.0);
  f(-1, 5, 5) = std::nan("");
  EXPECT_EQ(max_norm(f), 2.0);
  for (const Vec3 cell : {Vec3{0, 0, 0}, Vec3{33, 17, 40}, Vec3{63, 63, 63}}) {
    f(cell.x, cell.y, cell.z) = std::nan("");
    EXPECT_TRUE(std::isnan(max_norm(f)))
        << "(" << cell.x << ',' << cell.y << ',' << cell.z << ')';
    f(cell.x, cell.y, cell.z) = -2.0;
  }
}

INSTANTIATE_TEST_SUITE_P(BrickDims, OperatorEquivalence,
                         ::testing::Values<index_t>(2, 4, 8));

// ---------------------------------------------------------------------------
// Algebraic invariants of the transfer operators.
// ---------------------------------------------------------------------------

TEST(TransferOperators, RestrictionOfConstantIsConstant) {
  BrickedArray fine = BrickedArray::create({16, 16, 16}, BrickShape::cube(4));
  fine.fill(3.5);
  BrickedArray coarse = BrickedArray::create({8, 8, 8}, BrickShape::cube(4));
  restriction(coarse, fine);
  for_each(Box::from_extent({8, 8, 8}), [&](index_t i, index_t j, index_t k) {
    ASSERT_DOUBLE_EQ(coarse(i, j, k), 3.5);
  });
}

TEST(TransferOperators, RestrictionPreservesMean) {
  Array3D fa({16, 16, 16}, 0);
  test::randomize(fa, 7);
  BrickedArray fine = test::to_bricks(fa, BrickShape::cube(4));
  BrickedArray coarse = BrickedArray::create({8, 8, 8}, BrickShape::cube(4));
  restriction(coarse, fine);
  real_t fine_sum = 0, coarse_sum = 0;
  for_each(Box::from_extent({16, 16, 16}),
           [&](index_t i, index_t j, index_t k) { fine_sum += fine(i, j, k); });
  for_each(Box::from_extent({8, 8, 8}), [&](index_t i, index_t j, index_t k) {
    coarse_sum += coarse(i, j, k);
  });
  EXPECT_NEAR(fine_sum / 4096.0, coarse_sum / 512.0, 1e-10);
}

TEST(TransferOperators, RestrictInterpolateIdentityOnCoarseFunctions) {
  // Interpolating a coarse field to fine and restricting back must
  // reproduce it exactly (piecewise-constant transfer pair).
  Array3D ca({8, 8, 8}, 0);
  test::randomize(ca, 9);
  BrickedArray coarse = test::to_bricks(ca, BrickShape::cube(4));
  BrickedArray fine = BrickedArray::create({16, 16, 16}, BrickShape::cube(4));
  init_zero(fine);
  interpolation_increment(fine, coarse);
  BrickedArray back = BrickedArray::create({8, 8, 8}, BrickShape::cube(4));
  restriction(back, fine);
  for_each(Box::from_extent({8, 8, 8}), [&](index_t i, index_t j, index_t k) {
    ASSERT_NEAR(back(i, j, k), coarse(i, j, k), 1e-14);
  });
}

TEST(TransferOperators, InterpolationIncrementsRatherThanOverwrites) {
  BrickedArray fine = BrickedArray::create({8, 8, 8}, BrickShape::cube(4));
  fine.fill(1.0);
  BrickedArray coarse = BrickedArray::create({4, 4, 4}, BrickShape::cube(4));
  coarse.fill(2.0);
  interpolation_increment(fine, coarse);
  for_each(Box::from_extent({8, 8, 8}), [&](index_t i, index_t j, index_t k) {
    ASSERT_DOUBLE_EQ(fine(i, j, k), 3.0);
  });
}

TEST(ApplyOpProperties, ConstantFieldIsInKernel) {
  // alpha = -6, beta = 1: A applied to a constant is zero (periodic).
  BrickedArray x = BrickedArray::create({16, 16, 16}, BrickShape::cube(8));
  x.fill(7.25);
  x.fill_ghosts_periodic();
  BrickedArray ax(x.grid_ptr(), x.shape());
  apply_op(ax, x, -6.0, 1.0, Box::from_extent({16, 16, 16}));
  for_each(Box::from_extent({16, 16, 16}),
           [&](index_t i, index_t j, index_t k) {
             ASSERT_NEAR(ax(i, j, k), 0.0, 1e-10);
           });
}

TEST(ApplyOpProperties, EigenfunctionOfDiscreteLaplacian) {
  // b = sin(2*pi*x)sin(2*pi*y)sin(2*pi*z) at cell centers is an exact
  // eigenfunction: A b = lambda b, lambda = 6(cos(2*pi*h)-1)/h^2.
  const index_t nn = 32;
  const real_t h = 1.0 / static_cast<real_t>(nn);
  BrickedArray b = BrickedArray::create({nn, nn, nn}, BrickShape::cube(8));
  for_each(Box::from_extent({nn, nn, nn}),
           [&](index_t i, index_t j, index_t k) {
             const real_t px = (i + 0.5) * h, py = (j + 0.5) * h,
                          pz = (k + 0.5) * h;
             b(i, j, k) = std::sin(2 * M_PI * px) * std::sin(2 * M_PI * py) *
                          std::sin(2 * M_PI * pz);
           });
  b.fill_ghosts_periodic();
  BrickedArray ab(b.grid_ptr(), b.shape());
  apply_op(ab, b, -6.0 / (h * h), 1.0 / (h * h), Box::from_extent({nn, nn, nn}));
  const real_t lambda = 6.0 * (std::cos(2 * M_PI * h) - 1.0) / (h * h);
  for_each(Box::from_extent({nn, nn, nn}),
           [&](index_t i, index_t j, index_t k) {
             ASSERT_NEAR(ab(i, j, k), lambda * b(i, j, k), 1e-6);
           });
}

}  // namespace
}  // namespace gmg
