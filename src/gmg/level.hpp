// One level of the multigrid hierarchy: geometry, fields, stencil
// coefficients, and the exchange engine for this rank's subdomain.
#pragma once

#include <memory>

#include "brick/bricked_array.hpp"
#include "comm/exchange.hpp"
#include "common/types.hpp"
#include "gmg/kernel_plan.hpp"
#include "mesh/decomposition.hpp"

namespace gmg {

struct MgLevel {
  int level = 0;     // 0 = finest
  real_t h = 0;      // grid spacing
  Vec3 cells;        // subdomain interior extent at this level
  Vec3 global;       // global extent at this level
  Box rank_box;      // this rank's box in global cell coordinates
  BrickShape shape;

  // Stencil coefficients (paper §IV-C): A = alpha*center + beta*faces,
  // Jacobi weight gamma. For the 4th-order operator (radius 2) the
  // face taps split into distance-1 (beta) and distance-2 (beta2)
  // coefficients.
  real_t alpha = 0, beta = 0, beta2 = 0, gamma = 0;
  int radius = 1;

  std::shared_ptr<const BrickGrid> grid;
  // Per-solve fields. With K right-hand sides they are K-wide
  // (components() == K, bricked_array.hpp); at K = 1 they are plain.
  BrickedArray x;   // solution / correction
  BrickedArray b;   // right-hand side
  BrickedArray Ax;  // operator application scratch
  BrickedArray r;   // residual
  BrickedArray p;   // Chebyshev/CG direction (allocated when needed)

  // Variable-coefficient mode (set_coefficient): cell-centered
  // coefficient field and the per-cell operator diagonal.
  bool varcoef = false;
  BrickedArray coef;
  BrickedArray diag;

  // Ghost exchange for plain fields; the solver keeps the stretched
  // engines K-wide fields need (GmgSolver::field_exchange).
  std::unique_ptr<comm::BrickExchange> exchange;

  // Resolved kernel bindings for this level's (brick dims, coefficient
  // kind, smoother, fused-vs-split) configuration — see
  // kernel_plan.hpp. Rebuilt by set_coefficient when varcoef flips.
  KernelPlan plan;

  // Communication-avoiding bookkeeping: how many ghost cell layers of
  // x are still valid (0 = must exchange before the next applyOp), and
  // whether b's ghosts are current (needed when smoothing extends into
  // the ghost region).
  index_t margin = 0;
  bool b_ghosts_valid = false;

  Box interior() const { return Box::from_extent(cells); }
};

}  // namespace gmg
