#include "baseline/operators_array.hpp"

#include <cmath>
#include <cstring>
#include <limits>

#include "common/error.hpp"

namespace gmg::baseline {

void apply_op(Array3D& Ax, const Array3D& x, real_t alpha, real_t beta,
              const Box& region) {
  GMG_REQUIRE(x.ghost() >= 1, "applyOp needs one ghost layer");
  const index_t sy = x.stride_y(), sz = x.stride_z();
#pragma omp parallel for collapse(2) schedule(static)
  for (index_t k = region.lo.z; k < region.hi.z; ++k) {
    for (index_t j = region.lo.y; j < region.hi.y; ++j) {
      const real_t* __restrict xp = &x(region.lo.x, j, k);
      real_t* __restrict op = &Ax(region.lo.x, j, k);
      const index_t n = region.hi.x - region.lo.x;
#pragma omp simd
      for (index_t i = 0; i < n; ++i) {
        op[i] = alpha * xp[i] +
                beta * (xp[i + 1] + xp[i - 1] + xp[i + sy] + xp[i - sy] +
                        xp[i + sz] + xp[i - sz]);
      }
    }
  }
}

void smooth(Array3D& x, const Array3D& Ax, const Array3D& b, real_t gamma,
            const Box& region) {
#pragma omp parallel for collapse(2) schedule(static)
  for (index_t k = region.lo.z; k < region.hi.z; ++k) {
    for (index_t j = region.lo.y; j < region.hi.y; ++j) {
      real_t* __restrict xp = &x(region.lo.x, j, k);
      const real_t* __restrict ap = &Ax(region.lo.x, j, k);
      const real_t* __restrict bp = &b(region.lo.x, j, k);
      const index_t n = region.hi.x - region.lo.x;
#pragma omp simd
      for (index_t i = 0; i < n; ++i) xp[i] += gamma * (ap[i] - bp[i]);
    }
  }
}

void smooth_residual(Array3D& x, Array3D& r, const Array3D& Ax,
                     const Array3D& b, real_t gamma, const Box& region) {
#pragma omp parallel for collapse(2) schedule(static)
  for (index_t k = region.lo.z; k < region.hi.z; ++k) {
    for (index_t j = region.lo.y; j < region.hi.y; ++j) {
      real_t* __restrict xp = &x(region.lo.x, j, k);
      real_t* __restrict rp = &r(region.lo.x, j, k);
      const real_t* __restrict ap = &Ax(region.lo.x, j, k);
      const real_t* __restrict bp = &b(region.lo.x, j, k);
      const index_t n = region.hi.x - region.lo.x;
#pragma omp simd
      for (index_t i = 0; i < n; ++i) {
        const real_t ax = ap[i];
        const real_t rhs = bp[i];
        rp[i] = rhs - ax;
        xp[i] += gamma * (ax - rhs);
      }
    }
  }
}

void residual(Array3D& r, const Array3D& b, const Array3D& Ax,
              const Box& region) {
#pragma omp parallel for collapse(2) schedule(static)
  for (index_t k = region.lo.z; k < region.hi.z; ++k) {
    for (index_t j = region.lo.y; j < region.hi.y; ++j) {
      real_t* __restrict rp = &r(region.lo.x, j, k);
      const real_t* __restrict ap = &Ax(region.lo.x, j, k);
      const real_t* __restrict bp = &b(region.lo.x, j, k);
      const index_t n = region.hi.x - region.lo.x;
#pragma omp simd
      for (index_t i = 0; i < n; ++i) rp[i] = bp[i] - ap[i];
    }
  }
}

void restriction(Array3D& coarse, const Array3D& fine) {
  const Vec3 ce = coarse.extent(), fe = fine.extent();
  GMG_REQUIRE(fe.x == 2 * ce.x && fe.y == 2 * ce.y && fe.z == 2 * ce.z,
              "fine extent must be twice the coarse extent");
#pragma omp parallel for collapse(2) schedule(static)
  for (index_t k = 0; k < ce.z; ++k) {
    for (index_t j = 0; j < ce.y; ++j) {
      for (index_t i = 0; i < ce.x; ++i) {
        const index_t fi = 2 * i, fj = 2 * j, fk = 2 * k;
        coarse(i, j, k) =
            0.125 * (fine(fi, fj, fk) + fine(fi + 1, fj, fk) +
                     fine(fi, fj + 1, fk) + fine(fi + 1, fj + 1, fk) +
                     fine(fi, fj, fk + 1) + fine(fi + 1, fj, fk + 1) +
                     fine(fi, fj + 1, fk + 1) + fine(fi + 1, fj + 1, fk + 1));
      }
    }
  }
}

void interpolation_increment(Array3D& fine, const Array3D& coarse) {
  const Vec3 ce = coarse.extent(), fe = fine.extent();
  GMG_REQUIRE(fe.x == 2 * ce.x && fe.y == 2 * ce.y && fe.z == 2 * ce.z,
              "fine extent must be twice the coarse extent");
#pragma omp parallel for collapse(2) schedule(static)
  for (index_t k = 0; k < fe.z; ++k) {
    for (index_t j = 0; j < fe.y; ++j) {
      for (index_t i = 0; i < fe.x; ++i) {
        fine(i, j, k) += coarse(i / 2, j / 2, k / 2);
      }
    }
  }
}

void init_zero(Array3D& a) {
  std::memset(a.data(), 0, a.size() * sizeof(real_t));
}

real_t max_norm(const Array3D& a) {
  real_t m = 0.0;
  int nan = 0;  // the max reduction drops NaN; carry it separately
  const Box region = a.interior();
#pragma omp parallel for collapse(2) schedule(static) reduction(max : m) \
    reduction(| : nan)
  for (index_t k = region.lo.z; k < region.hi.z; ++k) {
    for (index_t j = region.lo.y; j < region.hi.y; ++j) {
      for (index_t i = region.lo.x; i < region.hi.x; ++i) {
        const real_t v = std::abs(a(i, j, k));
        m = std::max(m, v);
        nan |= v != v;
      }
    }
  }
  return nan ? std::numeric_limits<real_t>::quiet_NaN() : m;
}

}  // namespace gmg::baseline
