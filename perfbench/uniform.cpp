// uniform_4rank: the paper's model problem — periodic 3-D Poisson with
// a sine right-hand side, tolerance 1e-10 — on 128x128x64 cells over a
// 2x2x1 simmpi rank grid (64^3 per rank, 4^3 bricks, 4 levels). The
// solver is built once; then seeded right-hand sides are solved
// through it back to back (closed loop, one caller). Kernels and the
// halo exchange carry the time; serve, front, batch and amr do not run.
// The traced run then probes serve_socket's server (probe_serve), so the
// serve, batch and front layers are measured on a gated workload.
//
// Each rank is one thread running its kernels serially (one core per
// rank), and every time reported is the slowest rank's thread CPU
// time: the rank's own work, its halo copies and collectives included,
// waits for other ranks and for the host left out.
#include <cmath>
#include <memory>

#include "comm/simmpi.hpp"
#include "common/rng.hpp"
#include "gmg/solver.hpp"
#include "probes.hpp"
#include "trace/trace.hpp"

namespace perfbench {
namespace {

using gmg::real_t;

const gmg::Vec3 kGlobal{128, 128, 64};
const gmg::Vec3 kRankGrid{2, 2, 1};
constexpr real_t kTolerance = 1e-10;
constexpr real_t kMaxError = 1e-9;
constexpr int kSetupReps = 25;
constexpr int kMinSolves = 3;
constexpr double kServeProbeSeconds = 5;

gmg::GmgOptions options() {
  gmg::GmgOptions o;
  o.levels = 4;
  o.brick = gmg::BrickShape::cube(4);
  o.tolerance = kTolerance;
  return o;
}

/// One seeded right-hand side: +-sin(2 pi x + a) sin(2 pi y + b)
/// sin(4 pi z + c) (z spans [0, 1/2), so its lowest periodic mode has
/// wave number 2). Any phase keeps it an eigenfunction of the discrete
/// Laplacian, so the exact discrete solution is b / lambda.
struct SineRhs {
  real_t sign = 1, a = 0, b = 0, c = 0;

  static SineRhs draw(gmg::Rng& rng) {
    SineRhs r;
    r.sign = rng.uniform() < 0 ? -1 : 1;
    r.a = rng.uniform(0, 2 * M_PI);
    r.b = rng.uniform(0, 2 * M_PI);
    r.c = rng.uniform(0, 2 * M_PI);
    return r;
  }
  real_t operator()(real_t x, real_t y, real_t z) const {
    return sign * std::sin(2 * M_PI * x + a) * std::sin(2 * M_PI * y + b) *
           std::sin(4 * M_PI * z + c);
  }
};

real_t eigenvalue(real_t h) {
  const auto mode = [h](real_t k) {
    return (2 * std::cos(2 * M_PI * k * h) - 2) / (h * h);
  };
  return mode(1) + mode(1) + mode(2);
}

/// Max |x - b/lambda| over this rank's interior.
real_t local_error(const gmg::GmgSolver& s, const SineRhs& f) {
  const gmg::MgLevel& lev = s.level(0);
  const real_t h = lev.h;
  const real_t inv_lambda = 1 / eigenvalue(h);
  const gmg::Vec3 lo = lev.rank_box.lo;
  real_t err = 0;
  gmg::for_each(lev.interior(), [&](gmg::index_t i, gmg::index_t j,
                                    gmg::index_t k) {
    const real_t want = f((lo.x + i + 0.5) * h, (lo.y + j + 0.5) * h,
                          (lo.z + k + 0.5) * h) *
                        inv_lambda;
    err = std::max(err, std::abs(s.solution()(i, j, k) - want));
  });
  return err;
}

/// GmgSolver::solve's loop (Algorithm 1) driven from here, so each
/// residual_norm and V-cycle gets its own span; the solver's profiler
/// supplies the per-level phase totals inside each.
gmg::SolveResult traced_solve(gmg::GmgSolver& s, gmg::comm::Communicator& comm,
                              SpanLog* log, int parent,
                              std::uint64_t& vcycle_bytes,
                              std::uint64_t& vcycle_msgs) {
  const auto attach_profile = [&](int span) {
    for (int l = 0; l < s.num_levels(); ++l) {
      if (s.profiler().level_total(l) == 0) continue;
      const int lev = log->derived("vcycle.level", span,
                                   s.profiler().level_total(l));
      for (int p = 0; p < static_cast<int>(gmg::perf::Phase::kCount); ++p) {
        const auto phase = static_cast<gmg::perf::Phase>(p);
        if (!s.profiler().has(l, phase)) continue;
        log->derived(phase == gmg::perf::Phase::kExchange ? "exchange"
                                                          : "kernel",
                     lev, s.profiler().total(l, phase));
      }
    }
    s.profiler().clear();
  };
  SpanLog* rlog = comm.rank() == 0 ? log : nullptr;
  gmg::SolveResult r;
  s.profiler().clear();
  const auto norm = [&] {
    Scope span(rlog, "residual_norm", parent);
    const real_t v = s.residual_norm(comm);
    span.close();
    if (rlog) attach_profile(span.id());
    return v;
  };
  real_t res = norm();
  while (res > s.options().tolerance && r.vcycles < s.options().max_vcycles) {
    const std::uint64_t b0 = comm.bytes_sent(), m0 = comm.messages_sent();
    {
      Scope span(rlog, "vcycle", parent);
      s.vcycle(comm);
      span.close();
      if (rlog) attach_profile(span.id());
    }
    vcycle_bytes += comm.bytes_sent() - b0;
    vcycle_msgs += comm.messages_sent() - m0;
    res = norm();
    ++r.vcycles;
  }
  r.final_residual = res;
  r.converged = res <= s.options().tolerance;
  return r;
}

}  // namespace

void run_uniform_4rank(const Args& args, Result& out, SpanLog* log) {
  const gmg::CartDecomp decomp(kGlobal, kRankGrid);
  const int nranks = static_cast<int>(kRankGrid.volume());
  if (log) probe_host_bandwidth(out);

  std::vector<double> setup, ctor0, solve_s, solve_wall_s, req_s,
      traced_solve_s, vcycles;
  real_t max_err = 0;
  double verify_s = 0, bytes_per_vcycle = 0, msgs_per_vcycle = 0;

  gmg::comm::World world(nranks);
  world.run([&](gmg::comm::Communicator& comm) {
    const bool root = comm.rank() == 0;
    gmg::Rng rng(args.seed);
    std::unique_ptr<gmg::GmgSolver> solver;
    for (int rep = 0; rep < kSetupReps; ++rep) {
      solver.reset();
      comm.barrier();
      const double t0 = thread_cpu_s();
      solver = std::make_unique<gmg::GmgSolver>(options(), decomp,
                                                comm.rank());
      const double mine = thread_cpu_s() - t0;
      const double slowest = comm.allreduce_max(mine);
      if (root) {
        setup.push_back(slowest);
        ctor0.push_back(mine);
      }
    }

    // The traced run spends its first half untraced, as the baseline
    // trace.overhead_pct compares against.
    const double start = now_s();
    const double untraced_until =
        start + (log ? args.seconds / 2 : args.seconds);
    std::uint64_t vc_bytes = 0, vc_msgs = 0;
    for (int n = 0;; ++n) {
      // Rank 0 decides whether to go on and whether this solve is
      // traced; every rank follows (0 stop, 1 untraced, 2 traced).
      double decision = 0;
      if (root) {
        const double t = now_s();
        const bool traced = log != nullptr && t >= untraced_until;
        const bool go = t < start + args.seconds || n < kMinSolves ||
                        (traced && traced_solve_s.size() < kMinSolves);
        decision = go ? (traced ? 2 : 1) : 0;
      }
      decision = comm.allreduce_max(decision);
      if (decision == 0) break;
      const bool traced = decision == 2;
      if (log) gmg::trace::set_enabled(traced);

      const SineRhs f = SineRhs::draw(rng);
      comm.barrier();
      Scope req(root && traced ? log : nullptr, "request", -1);
      const double t_req = thread_cpu_s();
      {
        Scope span(req.id() >= 0 ? log : nullptr, "set_rhs", req.id());
        solver->set_rhs(f);
      }
      const double t_solve = thread_cpu_s(), w_solve = now_s();
      gmg::SolveResult r;
      {
        Scope span(req.id() >= 0 ? log : nullptr, "solve", req.id());
        r = traced ? traced_solve(*solver, comm, log, span.id(), vc_bytes,
                                  vc_msgs)
                   : solver->solve(comm);
      }
      const double solve_dt = comm.allreduce_max(thread_cpu_s() - t_solve);
      const double solve_wall = comm.allreduce_max(now_s() - w_solve);
      real_t err = 0;
      {
        Scope span(req.id() >= 0 ? log : nullptr, "verify", req.id());
        err = comm.allreduce_max(local_error(*solver, f));
      }
      const double req_dt = comm.allreduce_max(thread_cpu_s() - t_req);
      req.close();
      if (!root) continue;
      ++out.attempted;
      (traced ? traced_solve_s : solve_s).push_back(solve_dt);
      if (!traced) {
        req_s.push_back(req_dt);
        solve_wall_s.push_back(solve_wall);
      }
      vcycles.push_back(r.vcycles);
      max_err = std::max(max_err, err);
      if (!std::isfinite(r.final_residual) || r.final_residual > kTolerance ||
          !(err <= kMaxError)) {
        ++out.failed;
        out.wrong("uniform solve " + std::to_string(n) + ": residual " +
                  number(r.final_residual) + ", error " +
                  number(err));
      }
    }
    gmg::trace::set_enabled(false);
    if (!log) return;

    bytes_per_vcycle = comm.allreduce_sum(static_cast<double>(vc_bytes));
    msgs_per_vcycle = comm.allreduce_sum(static_cast<double>(vc_msgs));
    if (root) {
      verify_s = probe_verify(*solver);
      probe_kernels(*solver, out);
      probe_exec_dispatch(out);
    }
    comm.barrier();
    probe_levels(*solver, comm, out, log, -1);
  });

  if (log) probe_serve(args.seed, kServeProbeSeconds, out, log);
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
  const double traced_vcycles = static_cast<double>(log->count("vcycle"));
  out.samples["traced_solves"] =
      static_cast<std::int64_t>(traced_solve_s.size());
  out.metric("trace.overhead_pct",
             100 * (median(traced_solve_s) / median(solve_s) - 1), "%");
  out.metric("gmg.vcycle_s", log->total_seconds("vcycle") / traced_vcycles,
             "s");
  out.metric("gmg.residual_norm_s",
             log->total_seconds("residual_norm") /
                 static_cast<double>(log->count("residual_norm")),
             "s");
  out.metric("gmg.vcycles", median(vcycles), "count");
  out.metric("gmg.ctor_s", median(ctor0), "s");
  out.metric("comm.bytes_per_vcycle", bytes_per_vcycle / traced_vcycles,
             "B");
  out.metric("comm.msgs_per_vcycle", msgs_per_vcycle / traced_vcycles,
             "count");
  out.metric("check.verify_s", verify_s, "s");
  out.metric("check.verify_share", verify_s / median(setup), "1");
  out.metric("unattributed.request_pct", log->unattributed_pct("request"),
             "%");
  out.metric("gmg.solve_unattributed_pct", log->unattributed_pct("solve"),
             "%");
  out.metric("unattributed.vcycle_pct", log->unattributed_pct("vcycle"), "%");
  out.metric("unattributed.level_pct", log->unattributed_pct("level"), "%");
}

}  // namespace perfbench
