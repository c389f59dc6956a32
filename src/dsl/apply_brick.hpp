// Apply a DSL expression over bricked storage — the fine-grain
// data-blocking engine of the paper.
//
// The iteration is brick-by-brick. Inside a brick, cells whose taps
// stay in-brick run through a unit-stride SIMD loop over contiguous
// memory (this is what fine-grain blocking buys: one address stream
// per brick instead of one per (j,k) row — paper §III). Cells on the
// brick boundary resolve their out-of-brick taps through the brick
// adjacency table, exactly like BrickLib's generated code.
//
// The engine takes an *active region* in cell coordinates that may
// extend into the ghost bricks: this is what makes communication-
// avoiding smoothing possible (compute redundantly into the ghost
// region, shrinking by the stencil radius each sweep — paper §V).
//
// A K-wide output (DESIGN.md §15) runs the same loops at component
// stride K over the base brick plan: each cell evaluates the expression
// once per component, inputs of the output's width supplying that
// component and plain inputs shared by all K. The expression is
// element-independent, so under the repo-wide -ffp-contract=off pin
// every component's result is bitwise equal to a plain apply of it.
#pragma once

#include <array>
#include <optional>
#include <tuple>
#include <type_traits>

#include "brick/brick_plan.hpp"
#include "brick/bricked_array.hpp"
#include "check/footprint.hpp"
#include "check/shadow.hpp"
#include "dsl/expr.hpp"

namespace gmg::dsl {

namespace detail {

/// Where component c of storage element e of each input slot lives. An
/// input of the output's width holds its components at stride K
/// (element e*K + c, bricked_array.hpp); a plain input read by a K-wide
/// output — a variable coefficient, say — is shared by every component
/// at stride 1. At unit stride both are element e.
template <typename KS, int NSlots>
struct SlotStrides {
  KS K;
  std::array<bool, NSlots> shared;

  template <int Slot>
  std::size_t element(std::size_t e, index_t c) const {
    if constexpr (std::is_same_v<KS, UnitStride>) {
      return e;
    } else {
      return shared[Slot] ? e
                          : e * static_cast<std::size_t>(K) +
                                static_cast<std::size_t>(c);
    }
  }
};

/// Accessor for one brick: resolves local coordinates that step out of
/// [0,B)^3 through the adjacency table. |tap| must be <= B, i.e. the
/// stencil radius may not exceed the brick dimension (true for every
/// operator in the paper: radius 1, bricks 4 or 8).
template <typename BD, typename KS, int NSlots>
struct BrickAccessor {
  std::array<const real_t*, NSlots> field;  // storage base per slot
  SlotStrides<KS, NSlots> strides;
  const std::int32_t* adj;                  // 27 adjacency entries
  std::int32_t id;                          // current brick

  template <int Slot>
  real_t load(index_t li, index_t lj, index_t lk, index_t c) const {
    const int sx = li < 0 ? -1 : (li >= BD::bx ? 1 : 0);
    const int sy = lj < 0 ? -1 : (lj >= BD::by ? 1 : 0);
    const int sz = lk < 0 ? -1 : (lk >= BD::bz ? 1 : 0);
    std::int32_t b = id;
    if (sx != 0 || sy != 0 || sz != 0) {
      b = adj[direction_index(sx, sy, sz)];
      GMG_ASSERT(b >= 0);
      li -= sx * BD::bx;
      lj -= sy * BD::by;
      lk -= sz * BD::bz;
    }
    return field[Slot][strides.template element<Slot>(
        static_cast<std::size_t>(b) * BD::volume +
            static_cast<std::size_t>((lk * BD::by + lj) * BD::bx + li),
        c)];
  }
};

/// Accessor for rows whose taps provably stay inside the brick: plain
/// contiguous loads, vectorizable.
template <typename BD, typename KS, int NSlots>
struct FastAccessor {
  std::array<const real_t*, NSlots> brick;  // base pointer of this brick
  SlotStrides<KS, NSlots> strides;

  template <int Slot>
  real_t load(index_t li, index_t lj, index_t lk, index_t c) const {
    return brick[Slot][strides.template element<Slot>(
        static_cast<std::size_t>((lk * BD::by + lj) * BD::bx + li), c)];
  }
};

/// One component's view of an accessor: what the expression tree
/// evaluates against.
template <typename Acc>
struct ComponentAccessor {
  const Acc& acc;
  index_t c;

  template <int Slot>
  real_t load(index_t li, index_t lj, index_t lk) const {
    return acc.template load<Slot>(li, lj, lk, c);
  }
};

template <bool Increment, typename BD, typename KS, typename Expr,
          typename... Fields>
void apply_bricks_impl(BD, KS K, const Expr& expr, BrickedArray& out,
                       const Box& active, const Fields&... inputs) {
  const BrickGrid& grid = out.grid();
  const auto check_grid = [&](const BrickedArray& f) {
    GMG_REQUIRE(&f.grid() == &grid,
                "all fields of one apply must share a brick grid");
  };
  (check_grid(inputs), ...);

  // Footprint-vs-ghost-depth check (src/check): an undersized ghost
  // depth is a setup failure here, not a silent out-of-ghost read in
  // the accessor. Taps are in base cells at any width.
  const Extents ext = expr.extents();
  check::require_footprint_fits("dsl::apply",
                                ext, BrickShape{BD::bx, BD::by, BD::bz});

  constexpr int kSlots = sizeof...(Fields);
  const std::array<const real_t*, kSlots> bases{inputs.data()...};
  const SlotStrides<KS, kSlots> strides{
      K, {(inputs.components() != out.components())...}};

  // Access-hazard scope: out is written over `active`.
  std::optional<check::KernelScope> scope;
  if (check::enabled()) {
    scope.emplace("dsl.apply",
                  std::vector<check::Access>{check::access(
                      out, stretched_box(active, out.components()))});
  }

  // Taps of the outermost active cells must still hit existing bricks
  // (the plan itself validates the active region's own brick cover).
  {
    const Box tap_region{
        {floor_div(active.lo.x + ext.lo[0], BD::bx),
         floor_div(active.lo.y + ext.lo[1], BD::by),
         floor_div(active.lo.z + ext.lo[2], BD::bz)},
        {floor_div(active.hi.x - 1 + ext.hi[0], BD::bx) + 1,
         floor_div(active.hi.y - 1 + ext.hi[1], BD::by) + 1,
         floor_div(active.hi.z - 1 + ext.hi[2], BD::bz) + 1}};
    GMG_REQUIRE(grid.extended_box().covers(tap_region),
                "stencil taps reach beyond the ghost bricks");
  }

  const auto plan = grid.iteration_plan(active, Vec3{BD::bx, BD::by, BD::bz});
  real_t* const out_base = out.data();
  const std::size_t bvol =
      static_cast<std::size_t>(BD::volume) * static_cast<std::size_t>(K);
  for_each_plan_brick<BD>(
      "dsl.apply", *plan, [&](const BrickPlanItem& it, auto full) {
        constexpr bool kFull = decltype(full)::value;
        const std::int32_t id = it.id;
        real_t* __restrict ob = out_base + static_cast<std::size_t>(id) * bvol;

        // Active cell region clipped to this brick (local coords) —
        // whole-brick constants for the plan's full bricks.
        const index_t ilo = kFull ? 0 : it.ilo;
        const index_t ihi = kFull ? BD::bx : it.ihi;
        const index_t jlo = kFull ? 0 : it.jlo;
        const index_t jhi = kFull ? BD::by : it.jhi;
        const index_t klo = kFull ? 0 : it.klo;
        const index_t khi = kFull ? BD::bz : it.khi;

        const BrickAccessor<BD, KS, kSlots> slow{bases, strides, it.adj, id};
        std::array<const real_t*, kSlots> brick_bases{};
        for (int s = 0; s < kSlots; ++s) {
          const auto u = static_cast<std::size_t>(s);
          brick_bases[u] =
              bases[u] + static_cast<std::size_t>(id) *
                             (strides.shared[u]
                                  ? static_cast<std::size_t>(BD::volume)
                                  : bvol);
        }
        const FastAccessor<BD, KS, kSlots> fast{brick_bases, strides};

        for (index_t lk = klo; lk < khi; ++lk) {
          const bool zin = (lk + ext.lo[2] >= 0) && (lk + ext.hi[2] < BD::bz);
          for (index_t lj = jlo; lj < jhi; ++lj) {
            const bool yin = (lj + ext.lo[1] >= 0) && (lj + ext.hi[1] < BD::by);
            real_t* __restrict orow = ob + (lk * BD::by + lj) * BD::bx * K;
            // Every component of cell li, each evaluating the same
            // expression tree against its own slot elements.
            const auto cell = [&](const auto& acc, index_t li) {
              for (index_t c = 0; c < K; ++c) {
                const real_t v = expr.eval(
                    ComponentAccessor<std::decay_t<decltype(acc)>>{acc, c},
                    li, lj, lk);
                if constexpr (Increment)
                  orow[li * K + c] += v;
                else
                  orow[li * K + c] = v;
              }
            };
            if (zin && yin) {
              // Row interior in y/z: split x into shell|core|shell so
              // the core is a pure in-brick SIMD loop.
              const index_t core_lo =
                  std::max<index_t>(ilo, static_cast<index_t>(-ext.lo[0]));
              const index_t core_hi = std::min<index_t>(
                  ihi, BD::bx - static_cast<index_t>(ext.hi[0]));
              for (index_t li = ilo; li < std::min(core_lo, ihi); ++li) {
                cell(slow, li);
              }
              if (core_lo < core_hi) {
#pragma omp simd
                for (index_t li = core_lo; li < core_hi; ++li) {
                  cell(fast, li);
                }
              }
              for (index_t li = std::max(core_hi, ilo); li < ihi; ++li) {
                cell(slow, li);
              }
            } else {
              for (index_t li = ilo; li < ihi; ++li) {
                cell(slow, li);
              }
            }
          }
        }
      });
}

/// Shape checks and the brick-dims / stride dispatch shared by apply
/// and apply_increment.
template <bool Increment, typename Expr, typename... Fields>
void apply_fields(const Expr& expr, BrickedArray& out, const Box& active,
                  const Fields&... inputs) {
  const auto check_shape = [&](const BrickedArray& f) {
    GMG_REQUIRE(f.shape() == out.shape() || f.shape() == out.base_shape(),
                "brick shape mismatch");
  };
  (check_shape(inputs), ...);
  with_brick_dims(out.base_shape(), [&](auto bd) {
    with_stride(out.components(), [&](auto K) {
      apply_bricks_impl<Increment>(bd, K, expr, out, active, inputs...);
    });
  });
}

}  // namespace detail

/// out(i,j,k) = expr over `active` (cell coordinates; may extend into
/// the ghost bricks for communication-avoiding sweeps). A K-wide `out`
/// evaluates expr once per component: inputs of its width supply that
/// component, plain inputs are shared by all K.
template <typename Expr, typename... Fields>
void apply(const Expr& expr, BrickedArray& out, const Box& active,
           const Fields&... inputs) {
  detail::apply_fields<false>(expr, out, active, inputs...);
}

/// out(i,j,k) += expr over `active`.
template <typename Expr, typename... Fields>
void apply_increment(const Expr& expr, BrickedArray& out, const Box& active,
                     const Fields&... inputs) {
  detail::apply_fields<true>(expr, out, active, inputs...);
}

}  // namespace gmg::dsl
