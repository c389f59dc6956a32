// Setup-time schedule verification (DESIGN.md §18): parity between the
// static prover and the runtime GMG_CHECK detector across the solver
// configuration matrix, plus seeded schedule-hazard classes that the
// verifier must reject at setup with a sourced diagnostic — a dropped
// exchange, an undeclared fused write box, a masked plan scheduling a
// covered brick, a retired batch component whose collectives resurrect,
// a reordered reduction group, duplicated fused chunk writes, and
// hand-built schedules with a too-shallow exchange, an over-reaching
// read, an undescribed level, an out-of-width reduction and a double
// retirement.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <string>
#include <vector>

#include "amr/composite_audit.hpp"
#include "amr/composite_solver.hpp"
#include "amr/hierarchy.hpp"
#include "check/schedule.hpp"
#include "check/shadow.hpp"
#include "gmg/schedule_audit.hpp"
#include "gmg/solver.hpp"

namespace gmg {
namespace {

real_t sine_rhs(real_t x, real_t y, real_t z) {
  return std::sin(2 * M_PI * x) * std::sin(2 * M_PI * y) *
         std::sin(2 * M_PI * z);
}
real_t bump_rhs(real_t x, real_t y, real_t z) {
  return std::cos(2 * M_PI * x) * std::sin(4 * M_PI * y) *
         std::cos(2 * M_PI * z);
}

GmgOptions matrix_options(Smoother sm, bool fuse) {
  GmgOptions o;
  o.levels = 3;
  o.smooths = 4;
  o.bottom_smooths = 10;
  o.brick = BrickShape::cube(4);
  o.smoother = sm;
  o.fuse_stages = fuse;
  o.max_vcycles = 2;
  o.tolerance = 0;  // run the full cycle budget
  return o;
}

const Smoother kSmoothers[] = {Smoother::kPointJacobi,
                               Smoother::kWeightedJacobi,
                               Smoother::kChebyshev, Smoother::kRedBlackGS};

const char* smoother_tag(Smoother s) {
  switch (s) {
    case Smoother::kPointJacobi: return "jacobi";
    case Smoother::kWeightedJacobi: return "weighted";
    case Smoother::kChebyshev: return "chebyshev";
    case Smoother::kRedBlackGS: return "rbgs";
  }
  return "?";
}

// ---- parity: the prover accepts exactly what GMG_CHECK runs clean ------

// For every smoother x fusion state, the statically recorded schedule
// proves clean AND the same configuration's instrumented solve leaves
// the hazard detector empty. The two layers watch the same invariants
// from opposite ends; this pins them together.
TEST(ScheduleParity, StaticProofMatchesCheckedRunAcrossMatrix) {
  const CartDecomp decomp({32, 32, 32}, {1, 1, 1});
  for (const Smoother sm : kSmoothers) {
    for (const bool fuse : {false, true}) {
      SCOPED_TRACE(std::string(smoother_tag(sm)) +
                   (fuse ? " fused" : " split"));
      comm::World world(1);
      world.run([&](comm::Communicator& c) {
        // The constructor already runs the static proof (it throws on
        // any hazard); re-check explicitly so a clean run asserts an
        // empty diagnostic list, not just the absence of a throw.
        GmgSolver solver(matrix_options(sm, fuse), decomp, 0);
        const check::Schedule sched = record_solver_schedule(solver);
        EXPECT_TRUE(check::ScheduleVerifier().check(sched).empty());
        const check::Schedule fmg = record_fmg_schedule(solver);
        EXPECT_TRUE(check::ScheduleVerifier().check(fmg).empty());

        check::set_enabled(true);
        check::reset();
        solver.set_rhs(sine_rhs);
        solver.solve(c);
        EXPECT_TRUE(check::hazards().empty());
        check::reset();
        check::set_enabled(false);
      });
    }
  }
}

TEST(ScheduleParity, BatchedScheduleProvesCleanAndRunsClean) {
  GmgOptions o = matrix_options(Smoother::kPointJacobi, true);
  o.bottom = BottomSolverType::kConjugateGradient;
  o.max_batch = 4;
  const CartDecomp decomp({32, 32, 32}, {1, 1, 1});
  comm::World world(1);
  world.run([&](comm::Communicator& c) {
    GmgSolver solver(o, decomp, 0);
    solver.set_rhs({sine_rhs, bump_rhs, sine_rhs, bump_rhs});
    const check::Schedule sched = record_solver_schedule(solver);
    EXPECT_EQ(sched.num_components, 4);
    EXPECT_TRUE(check::ScheduleVerifier().check(sched).empty());

    check::set_enabled(true);
    check::reset();
    solver.set_rhs({sine_rhs, bump_rhs, sine_rhs, bump_rhs});
    std::vector<SolveSpec> specs(4);
    for (auto& s : specs) {
      s.tolerance = 1e-8;
      s.max_vcycles = 4;
    }
    solver.solve(c, specs);
    EXPECT_TRUE(check::hazards().empty());
    check::reset();
    check::set_enabled(false);
  });
}

TEST(ScheduleParity, CompositeAmrScheduleProvesCleanAndRunsClean) {
  amr::AmrOptions ao;
  ao.gmg = matrix_options(Smoother::kPointJacobi, true);
  ao.gmg.levels = 4;
  ao.patch = Box{{8, 8, 8}, {24, 24, 24}};
  ao.patch_smooths = 4;
  ao.correction_vcycles = 2;
  ao.tolerance = 1e-8;
  ao.max_cycles = 4;
  const CartDecomp decomp({32, 32, 32}, {1, 1, 1});
  comm::World world(1);
  world.run([&](comm::Communicator& c) {
    amr::AmrHierarchy h(ao, decomp, 0);
    const check::Schedule sched = amr::record_composite_schedule(h);
    EXPECT_TRUE(check::ScheduleVerifier().check(sched).empty());

    check::set_enabled(true);
    check::reset();
    h.set_rhs(bump_rhs);
    amr::CompositeSolver(h).solve(c);
    EXPECT_TRUE(check::hazards().empty());
    check::reset();
    check::set_enabled(false);
  });
}

// ---- seeded hazards: each class rejected with a sourced diagnostic -----

// A fused Jacobi schedule. The fused-stage seeds below need fused
// steps to mutate, so GMG_FUSE_STAGES (which ci/tier1.sh sets to 0 for
// its fusion-off rerun of this suite) is held unset while the solver
// is built.
check::Schedule jacobi_schedule() {
  const char* env = std::getenv("GMG_FUSE_STAGES");
  const std::string saved = env != nullptr ? env : "";
  unsetenv("GMG_FUSE_STAGES");
  const CartDecomp decomp({32, 32, 32}, {1, 1, 1});
  GmgSolver solver(matrix_options(Smoother::kPointJacobi, true), decomp, 0);
  if (env != nullptr) setenv("GMG_FUSE_STAGES", saved.c_str(), 1);
  return record_solver_schedule(solver);
}

void expect_rejected(const check::Schedule& sched, const char* substring) {
  const std::vector<std::string> diags =
      check::ScheduleVerifier().check(sched);
  ASSERT_FALSE(diags.empty()) << "mutated schedule was not rejected";
  EXPECT_NE(diags.front().find(substring), std::string::npos)
      << "diagnostic missing '" << substring << "': " << diags.front();
  EXPECT_THROW(check::ScheduleVerifier().verify(sched), Error);
}

// Hazard class 1: a ghost read whose matching exchange was dropped.
TEST(ScheduleSeededBug, DroppedExchangeRejected) {
  check::Schedule sched = jacobi_schedule();
  const auto it = std::find_if(
      sched.steps.begin(), sched.steps.end(), [](const check::ScheduleStep& s) {
        return s.kind == check::StepKind::kExchange;
      });
  ASSERT_NE(it, sched.steps.end());
  sched.steps.erase(it);
  expect_rejected(sched,
                  "a matching completed exchange must precede this read");
}

// Hazard class 2: a fused stage writing a box its EffectSummary never
// declared.
TEST(ScheduleSeededBug, UndeclaredFusedWriteBoxRejected) {
  check::Schedule sched = jacobi_schedule();
  const auto it = std::find_if(
      sched.steps.begin(), sched.steps.end(), [](const check::ScheduleStep& s) {
        return s.kind == check::StepKind::kKernel &&
               s.kernel.find("fused") != std::string::npos;
      });
  ASSERT_NE(it, sched.steps.end()) << "no fused step in the schedule";
  check::StepAccess rogue = check::write_access(
      "r", it->level, Box{{0, 0, 0}, {4, 4, 4}}, "scratch");
  it->accesses.push_back(rogue);
  expect_rejected(sched, "declares no write effect for that role");
}

// Hazard class 3: duplicated fused chunk writes — two parallel chunks
// of one launch landing on the same brick tile.
TEST(ScheduleSeededBug, OverlappingFusedChunksRejected) {
  check::Schedule sched = jacobi_schedule();
  const auto it = std::find_if(
      sched.steps.begin(), sched.steps.end(), [](const check::ScheduleStep& s) {
        return s.chunk_writes.size() > 1;
      });
  ASSERT_NE(it, sched.steps.end()) << "no chunked fused step";
  it->chunk_writes.push_back(it->chunk_writes.front());
  expect_rejected(sched, "repeats brick tile");
}

// Hazard class 4: a masked plan scheduling a brick the level mask
// declares covered by refinement.
TEST(ScheduleSeededBug, CoveredBrickScheduledRejected) {
  amr::AmrOptions ao;
  ao.gmg = matrix_options(Smoother::kPointJacobi, true);
  ao.gmg.levels = 4;
  ao.patch = Box{{8, 8, 8}, {24, 24, 24}};
  ao.patch_smooths = 4;
  ao.correction_vcycles = 1;
  const CartDecomp decomp({32, 32, 32}, {1, 1, 1});
  amr::AmrHierarchy h(ao, decomp, 0);
  check::Schedule sched = amr::record_composite_schedule(h);
  const auto it = std::find_if(
      sched.steps.begin(), sched.steps.end(), [](const check::ScheduleStep& s) {
        return !s.covered_bricks.empty() && !s.scheduled_bricks.empty();
      });
  ASSERT_NE(it, sched.steps.end()) << "no masked step in the schedule";
  it->scheduled_bricks.push_back(it->covered_bricks.front());
  expect_rejected(sched, "declares covered by refinement");
}

check::Schedule batched_schedule() {
  GmgOptions o = matrix_options(Smoother::kPointJacobi, true);
  o.bottom = BottomSolverType::kConjugateGradient;
  o.max_batch = 4;
  const CartDecomp decomp({32, 32, 32}, {1, 1, 1});
  static GmgSolver* solver = nullptr;
  if (solver == nullptr) {
    solver = new GmgSolver(o, decomp, 0);
    solver->set_rhs({sine_rhs, bump_rhs, sine_rhs, bump_rhs});
  }
  return record_solver_schedule(*solver);
}

// Hazard class 5: a retired component's retirement-masked collectives
// resurface — retirement would desynchronize the collective count.
TEST(ScheduleSeededBug, RetiredComponentReductionRejected) {
  check::Schedule sched = batched_schedule();
  const auto retire = std::find_if(
      sched.steps.begin(), sched.steps.end(), [](const check::ScheduleStep& s) {
        return s.kind == check::StepKind::kRetire;
      });
  ASSERT_NE(retire, sched.steps.end()) << "no retirement in the schedule";
  const int retired = retire->component;
  // The first retirement-masked reduction in its group after the
  // retirement: rewriting its component to the retired one keeps the
  // group non-decreasing, isolating the resurrection diagnostic.
  const auto red = std::find_if(
      retire, sched.steps.end(), [&](const check::ScheduleStep& s) {
        return s.kind == check::StepKind::kReduction && s.retirement_masked &&
               s.component != retired;
      });
  ASSERT_NE(red, sched.steps.end());
  red->component = retired;
  expect_rejected(sched, "retirement must not resurrect");
}

// Hazard class 6: components reduced out of order within one group —
// ranks would disagree on the collective sequence.
TEST(ScheduleSeededBug, ReorderedReductionGroupRejected) {
  check::Schedule sched = batched_schedule();
  // Find two same-group reductions with ascending components and swap
  // them (the interleaved bottom-CG group reduces 0,0,1,1,...).
  for (std::size_t i = 0; i + 1 < sched.steps.size(); ++i) {
    check::ScheduleStep& a = sched.steps[i];
    if (a.kind != check::StepKind::kReduction) continue;
    for (std::size_t j = i + 1; j < sched.steps.size(); ++j) {
      check::ScheduleStep& b = sched.steps[j];
      if (b.kind != check::StepKind::kReduction ||
          b.reduction_group != a.reduction_group)
        continue;
      if (b.component > a.component) {
        std::swap(a.component, b.component);
        expect_rejected(sched, "reorder the collective sequence");
        return;
      }
    }
  }
  FAIL() << "no ascending same-group reduction pair found";
}

// Hand-built schedules for the rules the walkers never trip on their
// own: one level of 16^3 cells with a 4-layer ghost capacity, and a
// Jacobi-like sweep reading `x` `reach` layers past the interior.
check::ScheduleRecorder one_level_recorder(const char* name) {
  check::ScheduleRecorder rec(name);
  check::LevelInfo L;
  L.level = 0;
  L.interior = Box::from_extent({16, 16, 16});
  L.ghost_depth = 4;
  rec.add_level(L);
  rec.set_initial("x", 0, 0);
  rec.set_initial("b", 0, 0);
  return rec;
}

void add_sweep(check::ScheduleRecorder& rec, int level, int declared_reach,
               int reach) {
  const Box interior = Box::from_extent({16, 16, 16});
  auto& step = rec.kernel("kernel.smooth", level,
                          check::EffectSummary{"kernel.smooth"}
                              .writes("x")
                              .reads("x", declared_reach)
                              .reads("b", 0));
  step.accesses.push_back(check::read_access("x", level, interior, reach, "x"));
  step.accesses.push_back(check::read_access("b", level, interior, 0, "b"));
  step.accesses.push_back(check::write_access("x", level, interior, "x"));
}

// Hazard class 7: an exchange that fills fewer ghost layers than the
// following sweep reads. The same sweep after a deep enough exchange
// proves clean.
TEST(ScheduleSeededBug, ShallowExchangeRejected) {
  check::ScheduleRecorder shallow = one_level_recorder("seeded.shallow");
  shallow.exchange(0, {"x"}, 1);
  add_sweep(shallow, 0, 2, 2);
  expect_rejected(shallow.take(), "2 ghost layer(s) deep but only 1 are valid");

  check::ScheduleRecorder deep = one_level_recorder("seeded.deep");
  deep.exchange(0, {"x"}, 2);
  add_sweep(deep, 0, 2, 2);
  EXPECT_TRUE(check::ScheduleVerifier().check(deep.take()).empty());
}

// Hazard class 8: a recorded read reaching further than the kernel's
// EffectSummary declares — the summary would under-state what the
// exchange must provide.
TEST(ScheduleSeededBug, ReadReachBeyondSummaryRejected) {
  check::ScheduleRecorder rec = one_level_recorder("seeded.reach");
  rec.exchange(0, {"x"}, 4);
  add_sweep(rec, 0, 1, 2);
  expect_rejected(rec.take(), "declares only 1");
}

// Hazard class 9: a kernel on a level the schedule never described.
TEST(ScheduleSeededBug, KernelOnUndeclaredLevelRejected) {
  check::ScheduleRecorder rec = one_level_recorder("seeded.level");
  rec.exchange(1, {"x"}, 4);
  add_sweep(rec, 1, 1, 1);
  expect_rejected(rec.take(), "with no LevelInfo");
}

// Hazard class 10: a batched reduction for a component beyond the
// batch width, and a component retired twice.
TEST(ScheduleSeededBug, ReductionOutsideBatchWidthRejected) {
  check::ScheduleRecorder rec("seeded.width");
  rec.set_num_components(2);
  const int group = rec.next_reduction_group();
  rec.reduction("allreduce.max", 0, 0, group);
  rec.reduction("allreduce.max", 0, 2, group);
  expect_rejected(rec.take(), "outside the batch width 2");
}

TEST(ScheduleSeededBug, DoubleRetirementRejected) {
  check::ScheduleRecorder rec("seeded.retire");
  rec.set_num_components(2);
  rec.retire(1);
  rec.retire(1);
  expect_rejected(rec.take(), "retires component 1 twice");
}

// ---- the GMG_VERIFY_SCHEDULE gate --------------------------------------

TEST(ScheduleGate, VerificationCountsOnlyWhenEnabled) {
  const CartDecomp decomp({16, 16, 16}, {1, 1, 1});
  const bool was = check::verify_schedule_enabled();

  check::set_verify_schedule_enabled(false);
  const std::uint64_t before = check::schedules_verified();
  { GmgSolver off(matrix_options(Smoother::kPointJacobi, true), decomp, 0); }
  EXPECT_EQ(check::schedules_verified(), before);

  check::set_verify_schedule_enabled(true);
  { GmgSolver on(matrix_options(Smoother::kPointJacobi, true), decomp, 0); }
  EXPECT_GT(check::schedules_verified(), before);

  check::set_verify_schedule_enabled(was);
}

}  // namespace
}  // namespace gmg
