// Layer probes of the traced run: each times direct calls into one
// module's public functions and records the result as per-layer
// metrics (and spans) on the caller's Result / SpanLog.
#pragma once

#include "comm/simmpi.hpp"
#include "gmg/solver.hpp"
#include "harness.hpp"

namespace perfbench {

/// STREAM-triad bandwidth with each of the three arrays at least 4x
/// the last-level cache (and at least 64 MiB), run through
/// exec::parallel_for as the kernels are (serially, on one thread):
/// host.bw_gbs, plus host.bw_array_mib / host.l3_mib stating both sizes.
void probe_host_bandwidth(Result& out);

/// One empty parallel_for_chunks on the default engine pool:
/// exec.dispatch_us.
void probe_exec_dispatch(Result& out);

/// GStencil/s and fraction of host.bw_gbs for the five V-cycle kernels
/// on `s.level(0)` (restriction / interpolation against level 1):
/// kernel.<k>.gstencil_s, kernel.<k>.bw_frac. Rank-local; call with
/// the other ranks idle. Scribbles on the level fields. Requires
/// probe_host_bandwidth() to have run first.
void probe_kernels(gmg::GmgSolver& s, Result& out);

/// Collective over every rank of `comm`: per level, one smoothing
/// sweep's kernel calls (applyOp + smooth_residual through the level's
/// resolved KernelPlan) and one blocking ghost exchange of x:
/// level.L<l>.kernels_s, comm.L<l>.exchange_s (rank 0's medians; levels
/// the hierarchy does not have report 0). Spans nest level -> kernel /
/// exchange. Scribbles on the level fields.
void probe_levels(gmg::GmgSolver& s, gmg::comm::Communicator& comm,
                  Result& out, SpanLog* log, int parent);

/// verify_solver_schedule() on the built solver: check.verify_s.
double probe_verify(const gmg::GmgSolver& s);

/// serve_socket's server and open-loop traffic (seeded by `seed`) for
/// `seconds`, traced: the gen.*, serve.*, batch.* and front.* metrics
/// and unattributed.serve_pct. Every answer is checked as in the
/// workload and counts toward attempted / failed.
void probe_serve(std::uint64_t seed, double seconds, Result& out,
                 SpanLog* log);

}  // namespace perfbench
