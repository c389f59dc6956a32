// amr_patch: the amr_refine problem on one rank — a 64^3 coarse grid
// plus one 2x patch over the localized source, solved by
// amr::CompositeSolver to relative tolerance 1e-9. src/amr carries the
// work; comm does little (one rank). Scored as Munch et al. score
// locally refined multigrid: time to solution at matched error, the
// error being checked against the uniform-128^3 reference (0.00219801,
// BENCH_amr.json).
//
// The solve runs its kernels serially on one thread, and every time
// reported is that thread's CPU time, which leaves out the time the
// host gave to other guests.
//
// The problem is fixed by that reference, so the seed only scales it:
// each solve multiplies the source by a seeded power of two, which
// scales every value of the (linear, relatively converged) solve
// exactly, leaving error / scale bitwise unchanged.
#include <cmath>
#include <memory>

#include "amr/composite_solver.hpp"
#include "amr/hierarchy.hpp"
#include "amr/composite_audit.hpp"
#include "gmg/schedule_audit.hpp"
#include "comm/simmpi.hpp"
#include "common/rng.hpp"
#include "probes.hpp"
#include "trace/trace.hpp"

namespace perfbench {
namespace {

using gmg::real_t;

constexpr gmg::index_t kCoarse = 64;
constexpr real_t kNu = 1e-3;
constexpr real_t kSigma = 0.05;
constexpr real_t kReferenceError = 0.00219801;
constexpr real_t kErrorMatch = 5e-6;  // relative; the reference has 6 digits
constexpr int kSetupReps = 25;
constexpr int kMinSolves = 3;

real_t exact_u(real_t x, real_t y, real_t z) {
  const real_t dx = x - 0.5, dy = y - 0.5, dz = z - 0.5;
  return std::exp(-(dx * dx + dy * dy + dz * dz) / (2 * kSigma * kSigma));
}

real_t source(real_t x, real_t y, real_t z) {
  const real_t s2 = kSigma * kSigma;
  const real_t dx = x - 0.5, dy = y - 0.5, dz = z - 0.5;
  const real_t r2 = dx * dx + dy * dy + dz * dz;
  const real_t u = std::exp(-r2 / (2 * s2));
  return u - kNu * u * (r2 / (s2 * s2) - 3 / s2);
}

gmg::amr::AmrOptions options() {
  const gmg::index_t s = kCoarse;
  gmg::amr::AmrOptions a;
  a.gmg.levels = 6;
  a.gmg.smooths = 8;
  a.gmg.bottom_smooths = 50;
  a.gmg.brick = gmg::BrickShape::cube(8);
  a.gmg.identity_coef = 1.0;
  a.gmg.laplacian_coef = -kNu;
  a.patch = gmg::Box{{s / 4, s / 4, s / 4}, {3 * s / 4, 3 * s / 4, 3 * s / 4}};
  a.tolerance = 1e-9;
  return a;
}

/// Max |u_h / scale - u| over the inner half of the patch, away from
/// interface pollution (global fine cells at spacing 1/(2s)).
real_t scaled_error(const gmg::amr::AmrHierarchy& h, real_t scale) {
  const gmg::index_t s = kCoarse;
  const gmg::Box inner{{3 * s / 4, 3 * s / 4, 3 * s / 4},
                       {5 * s / 4, 5 * s / 4, 5 * s / 4}};
  const gmg::MgLevel& P = h.patch();
  const gmg::Vec3 plo = h.geometry().part_fine.lo;
  const real_t hf = P.h;
  real_t err = 0;
  gmg::for_each(inner, [&](gmg::index_t i, gmg::index_t j, gmg::index_t k) {
    const real_t u = exact_u((i + 0.5) * hf, (j + 0.5) * hf, (k + 0.5) * hf);
    err = std::max(err,
                   std::abs(P.x(i - plo.x, j - plo.y, k - plo.z) / scale - u));
  });
  return err;
}

}  // namespace

void run_amr_patch(const Args& args, Result& out, SpanLog* log) {
  const gmg::CartDecomp decomp({kCoarse, kCoarse, kCoarse}, {1, 1, 1});
  if (log) probe_host_bandwidth(out);

  std::vector<double> setup, hierarchy_s, solve_s, solve_wall_s, req_s,
      traced_solve_s, cycles, cycle_s, residual_s;
  real_t max_err = 0;
  double verify_s = 0;

  gmg::comm::World world(1);
  world.run([&](gmg::comm::Communicator& comm) {
    gmg::Rng rng(args.seed);
    std::unique_ptr<gmg::amr::AmrHierarchy> hier;
    std::unique_ptr<gmg::amr::CompositeSolver> solver;
    for (int rep = 0; rep < kSetupReps; ++rep) {
      solver.reset();
      hier.reset();
      const double t0 = thread_cpu_s();
      hier = std::make_unique<gmg::amr::AmrHierarchy>(options(), decomp, 0);
      const double t1 = thread_cpu_s();
      solver = std::make_unique<gmg::amr::CompositeSolver>(*hier);
      setup.push_back(thread_cpu_s() - t0);
      hierarchy_s.push_back(t1 - t0);
    }

    const double start = now_s();
    const double untraced_until =
        start + (log ? args.seconds / 2 : args.seconds);
    for (int n = 0;; ++n) {
      const double t = now_s();
      const bool traced = log != nullptr && t >= untraced_until;
      if (!(t < start + args.seconds || n < kMinSolves ||
            (traced && traced_solve_s.size() < kMinSolves)))
        break;
      if (log) gmg::trace::set_enabled(traced);
      SpanLog* tlog = traced ? log : nullptr;

      const real_t scale =
          std::ldexp(1.0, static_cast<int>(rng.uniform_int(-3, 3)));
      Scope req(tlog, "request", -1);
      const double t_req = thread_cpu_s();
      {
        Scope span(tlog, "set_rhs", req.id());
        hier->set_rhs([scale](real_t x, real_t y, real_t z) {
          return scale * source(x, y, z);
        });
      }
      const double t_solve = thread_cpu_s(), w_solve = now_s();
      gmg::amr::CompositeResult r;
      {
        Scope span(tlog, "solve", req.id());
        hier->solver().profiler().clear();
        r = solver->solve(comm);
        span.close();
        if (tlog) {
          // The correction V-cycles run inside the composite cycle; the
          // coarse solver's profiler holds their per-level totals.
          for (int l = 0; l < hier->solver().num_levels(); ++l)
            log->derived("vcycle.level", span.id(),
                         hier->solver().profiler().level_total(l));
        }
      }
      const double solve_dt = thread_cpu_s() - t_solve;
      const double solve_wall = now_s() - w_solve;
      real_t err = 0;
      {
        Scope span(tlog, "verify", req.id());
        err = scaled_error(*hier, scale);
      }
      req.close();
      const double req_dt = thread_cpu_s() - t_req;

      ++out.attempted;
      (traced ? traced_solve_s : solve_s).push_back(solve_dt);
      if (!traced) {
        req_s.push_back(req_dt);
        solve_wall_s.push_back(solve_wall);
      }
      cycles.push_back(r.cycles);
      cycle_s.push_back(solve_dt / std::max(1, r.cycles));
      max_err = std::max(max_err, err);
      const real_t rel = r.final_residual / r.initial_residual;
      if (!std::isfinite(r.final_residual) || !(rel <= 1e-9) ||
          !(std::abs(err / kReferenceError - 1) <= kErrorMatch)) {
        ++out.failed;
        out.wrong("amr solve " + std::to_string(n) + ": relative residual " +
                  number(rel) + ", error " + number(err) +
                  " (reference " + number(kReferenceError) + ")");
      }
    }
    gmg::trace::set_enabled(false);
    if (!log) return;

    for (int rep = 0; rep < 5; ++rep) {
      const double t0 = thread_cpu_s();
      solver->composite_residual(comm);
      residual_s.push_back(thread_cpu_s() - t0);
    }
    const double t0 = thread_cpu_s();
    gmg::verify_solver_schedule(hier->solver());
    gmg::amr::verify_composite_schedule(*hier);
    verify_s = thread_cpu_s() - t0;
    probe_kernels(hier->solver(), out);
    probe_exec_dispatch(out);
    probe_levels(hier->solver(), comm, out, log, -1);
  });

  out.samples["setups"] = static_cast<std::int64_t>(setup.size());
  out.samples["solves"] = static_cast<std::int64_t>(solve_s.size());
  if (!log) {
    out.metric("setup_s", median(setup), "s");
    out.metric("solve_s", median(solve_s), "s");
    out.metric("solve_wall_s", median(solve_wall_s), "s");
    out.latency(req_s);
    out.metric("max_error", max_err, "1");
    return;
  }
  out.samples["traced_solves"] =
      static_cast<std::int64_t>(traced_solve_s.size());
  out.metric("trace.overhead_pct",
             100 * (median(traced_solve_s) / median(solve_s) - 1), "%");
  out.metric("amr.hierarchy_s", median(hierarchy_s), "s");
  out.metric("amr.cycle_s", median(cycle_s), "s");
  out.metric("amr.cycles", median(cycles), "count");
  out.metric("amr.composite_residual_s", median(residual_s), "s");
  out.metric("check.verify_s", verify_s, "s");
  out.metric("check.verify_share", verify_s / median(setup), "1");
  out.metric("unattributed.request_pct", log->unattributed_pct("request"),
             "%");
  out.metric("gmg.solve_unattributed_pct", log->unattributed_pct("solve"),
             "%");
  out.metric("unattributed.level_pct", log->unattributed_pct("level"), "%");
}

}  // namespace perfbench
