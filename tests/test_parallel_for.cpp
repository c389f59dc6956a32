// Engine::parallel_for_chunks semantics (chunk coverage, exception
// propagation, nested calls, arbitrary worker counts), the engine's
// lifecycle and rank attribution, and
// the exec runtime facade: deterministic tree reductions that are
// bitwise identical across worker counts and across the engine-pool /
// legacy-OpenMP modes, all the way up to full solver runs.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <thread>
#include <vector>

#include "comm/simmpi.hpp"
#include "common/error.hpp"
#include "exec/engine.hpp"
#include "exec/runtime.hpp"
#include "gmg/solver.hpp"
#include "tests/test_util.hpp"
#include "trace/trace.hpp"

namespace gmg::exec {
namespace {

TEST(PlanChunks, BoundariesPartitionTheRange) {
  for (std::int64_t n : {std::int64_t{1}, std::int64_t{7}, std::int64_t{64},
                         std::int64_t{1000}, std::int64_t{1} << 20}) {
    for (std::int64_t grain : {std::int64_t{1}, std::int64_t{16},
                               std::int64_t{1} << 15}) {
      const int chunks = Engine::plan_chunks(n, grain);
      ASSERT_GE(chunks, 1);
      ASSERT_LE(chunks, Engine::kMaxChunks);
      EXPECT_EQ(Engine::chunk_bound(n, chunks, 0), 0);
      EXPECT_EQ(Engine::chunk_bound(n, chunks, chunks), n);
      for (int c = 0; c < chunks; ++c) {
        EXPECT_LE(Engine::chunk_bound(n, chunks, c),
                  Engine::chunk_bound(n, chunks, c + 1));
      }
    }
  }
  EXPECT_EQ(Engine::plan_chunks(0, 1), 0);
  EXPECT_EQ(Engine::plan_chunks(-5, 1), 0);
  // The clamp: a huge range never exceeds kMaxChunks chunks.
  EXPECT_EQ(Engine::plan_chunks(std::int64_t{1} << 40, 1), Engine::kMaxChunks);
}

TEST(PlanChunks, PlanIsIndependentOfWorkerCount) {
  // Nothing about the plan involves an engine at all — it is a pure
  // function of (n, grain). This is what makes chunked reductions
  // reproducible: document it as a regression test.
  const int chunks = Engine::plan_chunks(1 << 20, 1 << 15);
  EXPECT_EQ(chunks, 32);
  EXPECT_EQ(Engine::chunk_bound(1 << 20, chunks, 7), 7 * (1 << 15));
}

TEST(ParallelFor, EveryElementVisitedExactlyOnce) {
  for (int workers : {1, 2, 8}) {
    Engine eng(workers);
    const std::int64_t n = 100000;
    std::vector<std::atomic<int>> hits(static_cast<size_t>(n));
    for (auto& h : hits) h.store(0);
    eng.parallel_for_chunks(
        "test.cover", n, 1000,
        [&](int, std::int64_t b, std::int64_t e) {
          for (std::int64_t i = b; i < e; ++i)
            hits[static_cast<size_t>(i)].fetch_add(1);
        });
    for (std::int64_t i = 0; i < n; ++i)
      ASSERT_EQ(hits[static_cast<size_t>(i)].load(), 1) << "index " << i;
  }
}

TEST(ParallelFor, EmptyAndSingleChunkRanges) {
  Engine eng(2);
  int calls = 0;
  eng.parallel_for_chunks("test.empty", 0, 16,
                          [&](int, std::int64_t, std::int64_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  // n < grain: one chunk, runs inline on the caller.
  eng.parallel_for_chunks("test.single", 5, 16,
                          [&](int c, std::int64_t b, std::int64_t e) {
                            ++calls;
                            EXPECT_EQ(c, 0);
                            EXPECT_EQ(b, 0);
                            EXPECT_EQ(e, 5);
                          });
  EXPECT_EQ(calls, 1);
}

TEST(ParallelFor, FirstExceptionPropagatesToCaller) {
  Engine eng(4);
  std::atomic<int> ran{0};
  EXPECT_THROW(
      eng.parallel_for_chunks("test.throw", 1 << 16, 1,
                              [&](int c, std::int64_t, std::int64_t) {
                                ran.fetch_add(1);
                                if (c % 3 == 0) throw std::runtime_error("chunk failed");
                              }),
      std::runtime_error);
  // Every claimed chunk finished before the rethrow (no torn state).
  EXPECT_GT(ran.load(), 0);
  // The engine is still usable afterwards.
  std::atomic<int> ok{0};
  eng.parallel_for_chunks("test.after", 64, 1,
                          [&](int, std::int64_t b, std::int64_t e) {
                            ok.fetch_add(static_cast<int>(e - b));
                          });
  EXPECT_EQ(ok.load(), 64);
}

TEST(ParallelFor, NestedCallInsideAChunkCompletes) {
  // A parallel_for_chunks issued from inside a chunk — possibly on a
  // worker — shares the same pool. The issuing thread claims chunks
  // itself, so this must finish even on a single-worker engine.
  for (int workers : {1, 2}) {
    Engine eng(workers);
    std::atomic<std::int64_t> sum{0};
    eng.parallel_for_chunks(
        "outer", 4, 1, [&](int, std::int64_t ob, std::int64_t oe) {
          for (std::int64_t o = ob; o < oe; ++o) {
            eng.parallel_for_chunks(
                "inner", 1000, 10, [&](int, std::int64_t b, std::int64_t e) {
                  for (std::int64_t i = b; i < e; ++i) sum += i;
                });
          }
        });
    EXPECT_EQ(sum.load(), 4 * (1000 * 999 / 2));
  }
}

TEST(ParallelFor, ConcurrentSubmittersShareThePool) {
  Engine eng(4);
  std::atomic<std::int64_t> total{0};
  std::vector<std::thread> submitters;
  for (int t = 0; t < 4; ++t) {
    submitters.emplace_back([&] {
      for (int rep = 0; rep < 20; ++rep) {
        eng.parallel_for_chunks("multi", 10000, 100,
                                [&](int, std::int64_t b, std::int64_t e) {
                                  total.fetch_add(e - b);
                                });
      }
    });
  }
  for (auto& t : submitters) t.join();
  EXPECT_EQ(total.load(), std::int64_t{4} * 20 * 10000);
}

// --- the engine object itself -----------------------------------------

TEST(ExecEngine, WorkerCountIsValidatedAndReported) {
  EXPECT_THROW(Engine(0), Error);
  EXPECT_THROW(Engine(-2), Error);
  for (int workers : {1, 3}) {
    Engine eng(workers);
    EXPECT_EQ(eng.workers(), workers);
  }
}

TEST(ExecEngine, DestructorJoinsIdleAndUsedWorkers) {
  // Build and tear down engines back to back: never used, used once,
  // and used until a chunk threw. None may hang or leak a worker.
  for (int round = 0; round < 20; ++round) {
    { Engine idle(3); }
    std::atomic<std::int64_t> covered{0};
    {
      Engine used(3);
      used.parallel_for_chunks("test.used", 4096, 64,
                               [&](int, std::int64_t b, std::int64_t e) {
                                 covered.fetch_add(e - b);
                               });
    }
    EXPECT_EQ(covered.load(), 4096);
    {
      Engine failed(2);
      EXPECT_THROW(failed.parallel_for_chunks(
                       "test.fail", 256, 1,
                       [](int, std::int64_t, std::int64_t) {
                         throw std::runtime_error("chunk failed");
                       }),
                   std::runtime_error);
    }
  }
}

TEST(ExecEngine, EachChunkRunsOnceWithItsPlannedBounds) {
  // fn(c, begin, end) receives exactly the plan's chunk c, once, on any
  // worker count: the chunk id is what reductions index partials by.
  const std::int64_t n = 100003;
  const std::int64_t grain = 1000;
  const int chunks = Engine::plan_chunks(n, grain);
  ASSERT_GT(chunks, 1);
  for (int workers : {1, 2, 4}) {
    Engine eng(workers);
    std::vector<std::atomic<int>> seen(static_cast<std::size_t>(chunks));
    for (auto& v : seen) v.store(0);
    std::atomic<int> bad_bounds{0};
    eng.parallel_for_chunks("test.plan", n, grain,
                            [&](int c, std::int64_t b, std::int64_t e) {
                              seen[static_cast<std::size_t>(c)].fetch_add(1);
                              if (b != Engine::chunk_bound(n, chunks, c) ||
                                  e != Engine::chunk_bound(n, chunks, c + 1))
                                bad_bounds.fetch_add(1);
                            });
    EXPECT_EQ(bad_bounds.load(), 0) << workers << " workers";
    for (int c = 0; c < chunks; ++c)
      EXPECT_EQ(seen[static_cast<std::size_t>(c)].load(), 1)
          << "chunk " << c << ", " << workers << " workers";
  }
}

TEST(ExecEngine, ChunksRunUnderTheSubmittingRank) {
  // simmpi rank threads share the default pool. A chunk claimed by a
  // pool worker must be attributed (trace rank) to the rank that
  // submitted it, and collectives between kernels must not deadlock
  // against chunks still held by the pool.
  const int ranks = 4;
  std::atomic<int> misattributed{0};
  std::atomic<std::int64_t> covered{0};
  comm::World world(ranks);
  world.run([&](comm::Communicator& c) {
    for (int rep = 0; rep < 10; ++rep) {
      default_engine().parallel_for_chunks(
          "test.rank", 1 << 14, 256,
          [&](int, std::int64_t b, std::int64_t e) {
            if (trace::current_rank() != c.rank()) misattributed.fetch_add(1);
            covered.fetch_add(e - b);
          });
      c.barrier();
    }
  });
  EXPECT_EQ(misattributed.load(), 0);
  EXPECT_EQ(covered.load(), std::int64_t{ranks} * 10 * (1 << 14));
}

// --- runtime facade -------------------------------------------------

class RuntimeGuard {
 public:
  ~RuntimeGuard() {
    set_kernel_runtime(KernelRuntime::kEnginePool);
    configure_default_engine(resolved_default_workers());
  }
};

TEST(Runtime, ReduceSumBitwiseIdenticalAcrossWorkersAndModes) {
  RuntimeGuard guard;
  const std::int64_t n = 1 << 20;
  auto chunk_sum = [](std::int64_t b, std::int64_t e) {
    double s = 0;
    for (std::int64_t i = b; i < e; ++i)
      s += std::sin(static_cast<double>(i)) * 1e-3;
    return s;
  };
  set_kernel_runtime(KernelRuntime::kEnginePool);
  configure_default_engine(1);
  const double ref = parallel_reduce_sum<double>("r", n, 1 << 12, chunk_sum);
  for (int workers : {2, 8}) {
    configure_default_engine(workers);
    const double got = parallel_reduce_sum<double>("r", n, 1 << 12, chunk_sum);
    EXPECT_EQ(ref, got) << "workers=" << workers;  // bitwise, not NEAR
  }
  set_kernel_runtime(KernelRuntime::kOpenMP);
  EXPECT_EQ(ref, parallel_reduce_sum<double>("r", n, 1 << 12, chunk_sum));
}

TEST(Runtime, ReduceMaxMatchesSerialScan) {
  RuntimeGuard guard;
  const std::int64_t n = 12345;
  auto chunk_max = [](std::int64_t b, std::int64_t e) {
    double m = 0;
    for (std::int64_t i = b; i < e; ++i)
      m = std::max(m, std::fabs(std::sin(static_cast<double>(i) * 0.7)));
    return m;
  };
  configure_default_engine(3);
  const double got = parallel_reduce_max<double>("m", n, 100, chunk_max);
  EXPECT_EQ(got, chunk_max(0, n));
}

TEST(Runtime, ReduceMaxPropagatesNaNFromAnyChunk) {
  // std::max keeps its first argument when the second is NaN, so a
  // plain max tree drops a NaN partial unless it lands leftmost.
  RuntimeGuard guard;
  const std::int64_t n = 6400;
  configure_default_engine(3);
  for (std::int64_t poisoned : {std::int64_t{0}, std::int64_t{3000},
                                n - 1}) {
    auto chunk_max = [&](std::int64_t b, std::int64_t e) {
      return poisoned >= b && poisoned < e ? std::nan("") : 1.0;
    };
    for (KernelRuntime mode :
         {KernelRuntime::kEnginePool, KernelRuntime::kOpenMP}) {
      set_kernel_runtime(mode);
      EXPECT_TRUE(std::isnan(parallel_reduce_max<double>("m", n, 100,
                                                         chunk_max)))
          << "poisoned index " << poisoned;
    }
  }
  EXPECT_EQ(nan_max(1.0, 2.0), std::max(1.0, 2.0));
  EXPECT_EQ(nan_max(2.0, 1.0), std::max(2.0, 1.0));
}

TEST(Runtime, NestedParallelForCompletesInBothModes) {
  // A kernel body that itself calls exec::parallel_for (an AMR patch
  // sweep inside a per-patch loop, say) must finish and cover its range
  // whichever runtime is selected.
  RuntimeGuard guard;
  configure_default_engine(2);
  for (KernelRuntime mode :
       {KernelRuntime::kEnginePool, KernelRuntime::kOpenMP}) {
    set_kernel_runtime(mode);
    std::atomic<std::int64_t> covered{0};
    parallel_for("outer", 4, 1, [&](std::int64_t ob, std::int64_t oe) {
      for (std::int64_t o = ob; o < oe; ++o) {
        parallel_for("inner", 5000, 10, [&](std::int64_t b, std::int64_t e) {
          covered.fetch_add(e - b);
        });
      }
    });
    EXPECT_EQ(covered.load(), 4 * 5000);
  }
}

// --- solver determinism --------------------------------------------

GmgOptions determinism_options() {
  GmgOptions o;
  o.levels = 3;
  o.smooths = 4;
  o.bottom_smooths = 16;
  o.tolerance = 1e-30;  // never met: run exactly max_vcycles cycles
  o.max_vcycles = 3;
  o.brick = BrickShape::cube(4);
  return o;
}

SolveResult run_solve(std::vector<real_t>* solution_out) {
  const CartDecomp decomp({32, 32, 32}, {1, 1, 1});
  SolveResult res;
  comm::World world(1);
  world.run([&](comm::Communicator& c) {
    GmgSolver solver(determinism_options(), decomp, 0);
    solver.set_rhs([](real_t x, real_t y, real_t z) {
      return std::sin(2 * M_PI * x) * std::sin(2 * M_PI * y) *
             std::sin(2 * M_PI * z);
    });
    res = solver.solve(c);
    if (solution_out) {
      const BrickedArray& x = solver.solution();
      solution_out->clear();
      for_each(Box::from_extent({32, 32, 32}),
               [&](index_t i, index_t j, index_t k) {
                 solution_out->push_back(x(i, j, k));
               });
    }
  });
  return res;
}

TEST(Determinism, SolveBitwiseIdenticalAcrossWorkerCounts) {
  RuntimeGuard guard;
  set_kernel_runtime(KernelRuntime::kEnginePool);
  configure_default_engine(1);
  std::vector<real_t> ref_x;
  const SolveResult ref = run_solve(&ref_x);
  ASSERT_EQ(ref.history.size(), 4u);  // initial + 3 cycles
  for (int workers : {2, 5}) {
    configure_default_engine(workers);
    std::vector<real_t> x;
    const SolveResult got = run_solve(&x);
    ASSERT_EQ(got.history.size(), ref.history.size()) << "workers=" << workers;
    for (size_t i = 0; i < ref.history.size(); ++i)
      EXPECT_EQ(ref.history[i], got.history[i])
          << "workers=" << workers << " cycle " << i;  // bitwise
    ASSERT_EQ(x.size(), ref_x.size());
    for (size_t i = 0; i < ref_x.size(); ++i)
      ASSERT_EQ(ref_x[i], x[i]) << "workers=" << workers << " elem " << i;
  }
}

TEST(Determinism, SolveBitwiseIdenticalToOpenMPRuntime) {
  RuntimeGuard guard;
  set_kernel_runtime(KernelRuntime::kEnginePool);
  configure_default_engine(3);
  std::vector<real_t> pool_x;
  const SolveResult pool = run_solve(&pool_x);
  set_kernel_runtime(KernelRuntime::kOpenMP);
  std::vector<real_t> omp_x;
  const SolveResult omp = run_solve(&omp_x);
  ASSERT_EQ(pool.history.size(), omp.history.size());
  for (size_t i = 0; i < pool.history.size(); ++i)
    EXPECT_EQ(pool.history[i], omp.history[i]) << "cycle " << i;
  ASSERT_EQ(pool_x.size(), omp_x.size());
  for (size_t i = 0; i < pool_x.size(); ++i)
    ASSERT_EQ(pool_x[i], omp_x[i]) << "elem " << i;
}

}  // namespace
}  // namespace gmg::exec
