// Ghost-exchange correctness: after exchange(), every ghost cell must
// equal the periodically wrapped global field value, for all rank
// grids, brick shapes, and exchange modes — on the first exchange and
// on every later one through the same engine.
#include <gtest/gtest.h>

#include <string>

#include "comm/exchange.hpp"
#include "comm/simmpi.hpp"
#include "common/rng.hpp"
#include "tests/test_util.hpp"

namespace gmg::comm {
namespace {

/// Build the global field: deterministic value per global cell.
real_t global_value(Vec3 g, Vec3 cell) {
  return static_cast<real_t>(((cell.z * g.y + cell.y) * g.x + cell.x) % 977) +
         0.25;
}

struct BrickCase {
  Vec3 rank_grid;
  index_t bdim;
  BrickExchangeMode mode;
};

std::string grid_name(Vec3 g) {
  return std::to_string(g.x) + "x" + std::to_string(g.y) + "x" +
         std::to_string(g.z);
}

std::string case_name(const BrickCase& p) {
  const char* mode = p.mode == BrickExchangeMode::kPackFree ? "PackFree"
                     : p.mode == BrickExchangeMode::kPacked ? "Packed"
                                                            : "PerBrick";
  return grid_name(p.rank_grid) + "_b" + std::to_string(p.bdim) + "_" + mode;
}

// gtest prints a parameter into the ctest name; the default printer
// dumps the struct's bytes, padding included.
void PrintTo(const BrickCase& p, std::ostream* os) { *os << case_name(p); }

std::string brick_case_name(const ::testing::TestParamInfo<BrickCase>& info) {
  return case_name(info.param);
}

class BrickExchangeTest : public ::testing::TestWithParam<BrickCase> {};

TEST_P(BrickExchangeTest, GhostsMatchPeriodicWrap) {
  const auto [rank_grid, bdim, mode] = GetParam();
  const index_t sub = 2 * bdim;  // two bricks per axis per rank
  const Vec3 global{sub * rank_grid.x, sub * rank_grid.y, sub * rank_grid.z};
  const CartDecomp decomp(global, rank_grid);

  World world(decomp.num_ranks());
  world.run([&](Communicator& c) {
    const Box my_box = decomp.subdomain_box(c.rank());
    BrickedArray field =
        BrickedArray::create({sub, sub, sub}, BrickShape::cube(bdim));
    for_each(Box::from_extent({sub, sub, sub}),
             [&](index_t i, index_t j, index_t k) {
               field(i, j, k) = global_value(
                   global, {my_box.lo.x + i, my_box.lo.y + j, my_box.lo.z + k});
             });

    BrickExchange ex(field.grid_ptr(), field.shape(), decomp, c.rank(), mode);
    ex.exchange(c, field);

    const auto wrap = [](index_t v, index_t n) { return ((v % n) + n) % n; };
    int failures = 0;
    const Box whole = grow(Box::from_extent({sub, sub, sub}), bdim);
    for_each(whole, [&](index_t i, index_t j, index_t k) {
      const Vec3 gcell{wrap(my_box.lo.x + i, global.x),
                       wrap(my_box.lo.y + j, global.y),
                       wrap(my_box.lo.z + k, global.z)};
      const real_t want = global_value(global, gcell);
      if (field(i, j, k) != want && failures++ < 3) {
        ADD_FAILURE() << "rank " << c.rank() << " ghost (" << i << ',' << j
                      << ',' << k << "): got " << field(i, j, k) << " want "
                      << want;
      }
    });
    ASSERT_EQ(failures, 0);
  });
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, BrickExchangeTest,
    ::testing::Values(
        BrickCase{{1, 1, 1}, 4, BrickExchangeMode::kPackFree},
        BrickCase{{2, 1, 1}, 4, BrickExchangeMode::kPackFree},
        BrickCase{{1, 2, 1}, 4, BrickExchangeMode::kPackFree},
        BrickCase{{2, 2, 2}, 4, BrickExchangeMode::kPackFree},
        BrickCase{{2, 2, 1}, 2, BrickExchangeMode::kPackFree},
        BrickCase{{3, 1, 1}, 2, BrickExchangeMode::kPackFree},
        BrickCase{{2, 2, 2}, 2, BrickExchangeMode::kPacked},
        BrickCase{{2, 1, 1}, 4, BrickExchangeMode::kPacked},
        BrickCase{{2, 2, 2}, 2, BrickExchangeMode::kPerBrick},
        BrickCase{{1, 2, 2}, 4, BrickExchangeMode::kPerBrick},
        BrickCase{{2, 2, 2}, 8, BrickExchangeMode::kPackFree}),
    brick_case_name);

// The solvers build one BrickExchange per level and call exchange()
// on it every sweep. A second round on the same engine must refresh
// every ghost from the owners' new values — no stale ghost survives,
// whatever the mode (the packed staging buffers are reused too).
class BrickExchangeReuse : public ::testing::TestWithParam<BrickCase> {};

TEST_P(BrickExchangeReuse, SecondExchangeRefreshesEveryGhost) {
  const auto [rank_grid, bdim, mode] = GetParam();
  const index_t sub = 2 * bdim;
  const Vec3 global{sub * rank_grid.x, sub * rank_grid.y, sub * rank_grid.z};
  const CartDecomp decomp(global, rank_grid);

  World world(decomp.num_ranks());
  world.run([&](Communicator& c) {
    const Box my_box = decomp.subdomain_box(c.rank());
    BrickedArray field =
        BrickedArray::create({sub, sub, sub}, BrickShape::cube(bdim));
    const auto fill_owned = [&](real_t scale) {
      for_each(Box::from_extent({sub, sub, sub}),
               [&](index_t i, index_t j, index_t k) {
                 field(i, j, k) =
                     scale * global_value(global, {my_box.lo.x + i,
                                                   my_box.lo.y + j,
                                                   my_box.lo.z + k});
               });
    };
    BrickExchange ex(field.grid_ptr(), field.shape(), decomp, c.rank(), mode);
    fill_owned(1.0);
    ex.exchange(c, field);
    fill_owned(-3.0);
    ex.exchange(c, field);

    const auto wrap = [](index_t v, index_t n) { return ((v % n) + n) % n; };
    int failures = 0;
    for_each(grow(Box::from_extent({sub, sub, sub}), bdim),
             [&](index_t i, index_t j, index_t k) {
               const Vec3 g{wrap(my_box.lo.x + i, global.x),
                            wrap(my_box.lo.y + j, global.y),
                            wrap(my_box.lo.z + k, global.z)};
               const real_t want = -3.0 * global_value(global, g);
               if (field(i, j, k) != want && failures++ < 3) {
                 ADD_FAILURE() << "rank " << c.rank() << " ghost (" << i
                               << ',' << j << ',' << k << "): got "
                               << field(i, j, k) << " want " << want;
               }
             });
    ASSERT_EQ(failures, 0);
  });
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, BrickExchangeReuse,
    ::testing::Values(BrickCase{{1, 1, 1}, 4, BrickExchangeMode::kPackFree},
                      BrickCase{{2, 1, 1}, 4, BrickExchangeMode::kPackFree},
                      BrickCase{{2, 2, 2}, 2, BrickExchangeMode::kPackFree},
                      BrickCase{{2, 2, 2}, 2, BrickExchangeMode::kPacked},
                      BrickCase{{2, 1, 1}, 4, BrickExchangeMode::kPerBrick}),
    brick_case_name);

TEST(BrickExchangeMultiField, AggregatesFieldsInOneRound) {
  const Vec3 rank_grid{2, 1, 1};
  const index_t bdim = 4, sub = 8;
  const Vec3 global{16, 8, 8};
  const CartDecomp decomp(global, rank_grid);
  World world(2);
  world.run([&](Communicator& c) {
    const Box my_box = decomp.subdomain_box(c.rank());
    BrickedArray f1 =
        BrickedArray::create({sub, sub, sub}, BrickShape::cube(bdim));
    BrickedArray f2(f1.grid_ptr(), f1.shape());
    for_each(Box::from_extent({sub, sub, sub}),
             [&](index_t i, index_t j, index_t k) {
               const Vec3 g{my_box.lo.x + i, my_box.lo.y + j, my_box.lo.z + k};
               f1(i, j, k) = global_value(global, g);
               f2(i, j, k) = -2.0 * global_value(global, g);
             });
    BrickExchange ex(f1.grid_ptr(), f1.shape(), decomp, c.rank());
    const auto msgs_before = c.messages_sent();
    ex.exchange(c, {&f1, &f2});
    // Aggregation: at most one message per remote neighbor direction,
    // regardless of field count.
    EXPECT_LE(c.messages_sent() - msgs_before,
              static_cast<std::uint64_t>(ex.remote_neighbor_count()));

    const auto wrap = [](index_t v, index_t n) { return ((v % n) + n) % n; };
    for (index_t i : {index_t{-1}, sub, sub + 1}) {
      const Vec3 g{wrap(my_box.lo.x + i, global.x), 0, 0};
      ASSERT_EQ(f1(i, 0, 0), global_value(global, g));
      ASSERT_EQ(f2(i, 0, 0), -2.0 * global_value(global, g));
    }
  });
}

TEST(BrickExchangeAccounting, BytesMatchGhostVolume) {
  const index_t bdim = 4, sub = 8;
  const CartDecomp decomp({16, 16, 16}, {2, 2, 2});
  BrickedArray f = BrickedArray::create({sub, sub, sub},
                                        BrickShape::cube(bdim));
  BrickExchange ex(f.grid_ptr(), f.shape(), decomp, 0);
  // Total ghost volume: (sub+2*bdim)^3 - sub^3 cells, 8 B each.
  const std::uint64_t shell =
      static_cast<std::uint64_t>((sub + 2 * bdim) * (sub + 2 * bdim) *
                                 (sub + 2 * bdim) -
                                 sub * sub * sub) *
      sizeof(real_t);
  EXPECT_EQ(ex.bytes_per_exchange(), shell);
  // 2x2x2 rank grid: every one of the 26 directions is remote.
  EXPECT_EQ(ex.remote_bytes_per_exchange(), shell);
  EXPECT_EQ(ex.remote_neighbor_count(), 26);
}

TEST(BrickExchangeAccounting, SingleRankHasNoRemoteTraffic) {
  // Every direction wraps onto the rank itself: all ghost bytes are
  // local copies and no message is ever sent.
  const index_t bdim = 2, sub = 8;
  const CartDecomp decomp({sub, sub, sub}, {1, 1, 1});
  World world(1);
  world.run([&](Communicator& c) {
    BrickedArray f =
        BrickedArray::create({sub, sub, sub}, BrickShape::cube(bdim));
    BrickExchange ex(f.grid_ptr(), f.shape(), decomp, 0);
    const std::uint64_t shell =
        static_cast<std::uint64_t>((sub + 2 * bdim) * (sub + 2 * bdim) *
                                       (sub + 2 * bdim) -
                                   sub * sub * sub) *
        sizeof(real_t);
    EXPECT_EQ(ex.bytes_per_exchange(), shell);
    EXPECT_EQ(ex.remote_bytes_per_exchange(), 0u);
    EXPECT_EQ(ex.remote_neighbor_count(), 0);
    const auto msgs_before = c.messages_sent();
    ex.exchange(c, f);
    EXPECT_EQ(c.messages_sent(), msgs_before);
  });
}

TEST(BrickExchangeAccounting, SlabSplitCountsOnlyCrossRankDirections) {
  // 2x1x1 ranks: the 18 directions with an x component cross to the
  // other rank; the 8 in the x = 0 plane wrap onto this rank.
  const index_t bdim = 4, sub = 8;
  const CartDecomp decomp({2 * sub, sub, sub}, {2, 1, 1});
  BrickedArray f =
      BrickedArray::create({sub, sub, sub}, BrickShape::cube(bdim));
  BrickExchange ex(f.grid_ptr(), f.shape(), decomp, 1);
  const std::uint64_t x_faces =
      static_cast<std::uint64_t>(2 * bdim * (sub + 2 * bdim) *
                                 (sub + 2 * bdim)) *
      sizeof(real_t);
  EXPECT_EQ(ex.remote_neighbor_count(), 18);
  EXPECT_EQ(ex.remote_bytes_per_exchange(), x_faces);
  EXPECT_LT(ex.remote_bytes_per_exchange(), ex.bytes_per_exchange());
}

struct ArrayCase {
  Vec3 rank_grid;
  index_t ghost;
};

std::string case_name(const ArrayCase& p) {
  return grid_name(p.rank_grid) + "_g" + std::to_string(p.ghost);
}

void PrintTo(const ArrayCase& p, std::ostream* os) { *os << case_name(p); }

class ArrayExchangeTest : public ::testing::TestWithParam<ArrayCase> {};

TEST_P(ArrayExchangeTest, GhostsMatchPeriodicWrap) {
  const auto [rank_grid, ghost] = GetParam();
  const index_t sub = 8;
  const Vec3 global{sub * rank_grid.x, sub * rank_grid.y, sub * rank_grid.z};
  const CartDecomp decomp(global, rank_grid);

  World world(decomp.num_ranks());
  world.run([&](Communicator& c) {
    const Box my_box = decomp.subdomain_box(c.rank());
    Array3D field({sub, sub, sub}, ghost);
    for_each(field.interior(), [&](index_t i, index_t j, index_t k) {
      field(i, j, k) = global_value(
          global, {my_box.lo.x + i, my_box.lo.y + j, my_box.lo.z + k});
    });
    ArrayExchange ex({sub, sub, sub}, ghost, decomp, c.rank());
    ex.exchange(c, field);

    const auto wrap = [](index_t v, index_t n) { return ((v % n) + n) % n; };
    int failures = 0;
    for_each(field.whole(), [&](index_t i, index_t j, index_t k) {
      const Vec3 g{wrap(my_box.lo.x + i, global.x),
                   wrap(my_box.lo.y + j, global.y),
                   wrap(my_box.lo.z + k, global.z)};
      if (field(i, j, k) != global_value(global, g) && failures++ < 3) {
        ADD_FAILURE() << "rank " << c.rank() << " ghost (" << i << ',' << j
                      << ',' << k << ')';
      }
    });
    ASSERT_EQ(failures, 0);
  });
}

INSTANTIATE_TEST_SUITE_P(Shapes, ArrayExchangeTest,
                         ::testing::Values(ArrayCase{{1, 1, 1}, 1},
                                           ArrayCase{{2, 1, 1}, 1},
                                           ArrayCase{{2, 2, 2}, 1},
                                           ArrayCase{{1, 2, 1}, 3},
                                           ArrayCase{{2, 2, 2}, 2},
                                           ArrayCase{{4, 1, 1}, 2}),
                         [](const ::testing::TestParamInfo<ArrayCase>& info) {
                           return case_name(info.param);
                         });

}  // namespace
}  // namespace gmg::comm
