#include "probes.hpp"

#include <algorithm>
#include <string>

#include "arch/kernel_costs.hpp"
#include "common/aligned.hpp"
#include "exec/runtime.hpp"
#include "gmg/fused_kernels.hpp"
#include "gmg/operators.hpp"
#include "gmg/schedule_audit.hpp"

namespace perfbench {

using gmg::arch::Op;

namespace {

/// Levels probe_levels reports (the deepest hierarchy here has 4).
constexpr int kReportedLevels = 4;

/// Median thread CPU seconds of `fn` (which runs on the calling thread)
/// over at least `min_reps` calls and at least `min_total` seconds of
/// calls (capped at 2000 calls).
template <typename Fn>
double time_median(Fn&& fn, int min_reps = 5, double min_total = 0.05) {
  std::vector<double> t;
  const double start = now_s();
  while (static_cast<int>(t.size()) < min_reps ||
         (now_s() - start < min_total && t.size() < 2000)) {
    const double t0 = thread_cpu_s();
    fn();
    t.push_back(thread_cpu_s() - t0);
  }
  return median(t);
}

}  // namespace

void probe_host_bandwidth(Result& out) {
  const Host host = host_info();
  const double array_mib = std::max(64.0, 4.0 * host.l3_mib);
  const auto n = static_cast<std::int64_t>(array_mib * 1024 * 1024 / 8);
  gmg::AlignedBuffer<double> a(static_cast<std::size_t>(n), false),
      b(static_cast<std::size_t>(n), false),
      c(static_cast<std::size_t>(n), false);
  const std::int64_t grain = std::max<std::int64_t>(1, n / 64);
  // First touch on the pool threads that run the triad.
  gmg::exec::parallel_for("perfbench.bw_init", n, grain,
                          [&](std::int64_t lo, std::int64_t hi) {
                            for (std::int64_t i = lo; i < hi; ++i) {
                              a[i] = 0;
                              b[i] = static_cast<double>(i % 17);
                              c[i] = static_cast<double>(i % 31);
                            }
                          });
  double best = 0;
  for (int rep = 0; rep < 5; ++rep) {
    const double t0 = now_s();
    gmg::exec::parallel_for("perfbench.bw_triad", n, grain,
                            [&](std::int64_t lo, std::int64_t hi) {
                              for (std::int64_t i = lo; i < hi; ++i)
                                a[i] = b[i] + 3.0 * c[i];
                            });
    const double secs = now_s() - t0;
    best = std::max(best, 3.0 * static_cast<double>(n) * 8.0 / secs / 1e9);
  }
  if (!(a[n / 2] >= 0)) out.wrong("bandwidth probe produced a NaN");
  out.metric("host.bw_gbs", best, "GB/s");
  out.metric("host.bw_array_mib", array_mib, "MiB");
  out.metric("host.l3_mib", host.l3_mib, "MiB");
}

void probe_exec_dispatch(Result& out) {
  // The engine pool directly: the workloads' kernels run serially, so
  // exec::parallel_for would not reach it.
  gmg::exec::Engine& pool = gmg::exec::default_engine();
  const std::int64_t n = pool.workers() + 1;
  std::vector<double> t;
  for (int rep = 0; rep < 2000; ++rep) {
    const double t0 = now_s();
    pool.parallel_for_chunks("perfbench.dispatch", n, 1,
                             [](int, std::int64_t, std::int64_t) {});
    t.push_back(now_s() - t0);
  }
  out.metric("exec.dispatch_us", median(t) * 1e6, "us");
}

void probe_kernels(gmg::GmgSolver& s, Result& out) {
  gmg::MgLevel& f = s.level(0);
  gmg::MgLevel& c = s.level(1);
  const gmg::Box active = f.interior();
  const double cells = static_cast<double>(f.cells.volume());
  const double bw = out.metrics.at("host.bw_gbs").first;

  // The fused descent writes x, r and the coarse RHS in one pass:
  // smooth+residual's traffic plus restriction's coarse write, without
  // restriction's re-read of r (8 B per fine cell).
  const double fused_bytes = gmg::arch::bytes_per_point(Op::kSmoothResidual) +
                             gmg::arch::bytes_per_point(Op::kRestriction) / 8 -
                             8.0;
  struct Kernel {
    const char* name;
    double points;
    double bytes_per_point;
    std::function<void()> call;
  };
  const Kernel kernels[] = {
      {"applyOp", cells, gmg::arch::bytes_per_point(Op::kApplyOp),
       [&] { gmg::apply_op(f.Ax, f.x, f.alpha, f.beta, active); }},
      {"smooth_residual", cells,
       gmg::arch::bytes_per_point(Op::kSmoothResidual),
       [&] { gmg::smooth_residual(f.x, f.r, f.Ax, f.b, f.gamma, active); }},
      {"fused_descent", cells, fused_bytes,
       [&] {
         gmg::fused::smooth_residual_restrict(f.x, f.r, c.b, f.Ax, f.b, f.gamma,
                                       active);
       }},
      {"restriction", gmg::arch::points_for(Op::kRestriction, cells),
       gmg::arch::bytes_per_point(Op::kRestriction),
       [&] { gmg::restriction(c.b, f.r); }},
      {"interp_incr", cells, gmg::arch::bytes_per_point(Op::kInterpIncrement),
       [&] { gmg::interpolation_increment(f.x, c.x); }},
  };
  for (const Kernel& k : kernels) {
    const double secs = time_median(k.call, 10, 0.2);
    const double gst = k.points / secs / 1e9;
    const std::string base = std::string("kernel.") + k.name;
    out.metric(base + ".gstencil_s", gst, "GStencil/s");
    out.metric(base + ".bw_frac", gst * k.bytes_per_point / bw, "1");
  }
}

void probe_levels(gmg::GmgSolver& s, gmg::comm::Communicator& comm,
                  Result& out, SpanLog* log, int parent) {
  constexpr int kReps = 15;
  const bool record = comm.rank() == 0;
  SpanLog* rlog = record ? log : nullptr;
  for (int l = 0; l < kReportedLevels; ++l) {
    const std::string lname = "L" + std::to_string(l);
    if (l >= s.num_levels()) {
      if (record) {
        out.metric("level." + lname + ".kernels_s", 0, "s");
        out.metric("comm." + lname + ".exchange_s", 0, "s");
      }
      continue;
    }
    gmg::MgLevel& lev = s.level(l);
    const gmg::Box active = lev.interior();
    std::vector<double> kern, exch;
    for (int rep = 0; rep < kReps; ++rep) {
      comm.barrier();
      Scope level(rlog, "level", parent);
      double t0 = now_s();
      {
        Scope k(rlog, "kernel", level.id());
        lev.plan.apply(lev.Ax, lev.x, active);
        lev.plan.smooth_residual(active);
      }
      kern.push_back(now_s() - t0);
      t0 = now_s();
      {
        Scope e(rlog, "exchange", level.id());
        lev.exchange->exchange(comm, lev.x);
      }
      exch.push_back(now_s() - t0);
    }
    if (record) {
      out.metric("level." + lname + ".kernels_s", median(kern), "s");
      out.metric("comm." + lname + ".exchange_s", median(exch), "s");
    }
  }
  comm.barrier();
}

double probe_verify(const gmg::GmgSolver& s) {
  return time_median([&] { gmg::verify_solver_schedule(s); }, 3, 0.0);
}

}  // namespace perfbench
