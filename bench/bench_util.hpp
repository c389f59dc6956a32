// Shared helpers for the paper-reproduction bench harnesses: live host
// kernel measurements, host-architecture calibration, and output
// conventions (stdout tables plus CSV sidecars for plotting).
#pragma once

#include <iostream>
#include <string>

#include "arch/arch_spec.hpp"
#include "arch/kernel_costs.hpp"
#include "brick/bricked_array.hpp"
#include "common/options.hpp"
#include "common/table.hpp"
#include "common/timer.hpp"
#include "gmg/operators.hpp"
#include "mesh/array3d.hpp"
#include "perf/movement.hpp"

namespace gmg::bench {

inline void section(const std::string& title) {
  std::cout << "\n=== " << title << " ===\n";
}

inline void note(const std::string& text) { std::cout << text << "\n"; }

/// Best-of-k wall time of one invocation of a V-cycle kernel on the
/// live host, on a cubic subdomain of extent n with bdim^3 bricks.
/// Fields are pre-initialized; ghosts are periodic-filled once.
double measure_host_kernel(arch::Op op, index_t n, index_t bdim,
                           int repetitions = 3);

/// Best-of-k wall times for the fused descent tail (DESIGN.md §16) vs
/// its split stages on the live host: smooth+residual and restriction
/// as two passes, and the fused smooth+residual+restriction as one.
/// Same fields, same interior, interleaved best-of passes.
struct FusedDescentTimes {
  double split_smooth_residual = 0;
  double split_restriction = 0;
  double fused = 0;
  double split_sum() const { return split_smooth_residual + split_restriction; }
};
FusedDescentTimes measure_fused_descent(index_t n, index_t bdim,
                                        int repetitions = 3);

/// One communication-avoiding Jacobi block (DESIGN.md §16): the
/// bdim radius-1 sweeps one exchange pays for, each over the interior
/// grown by the margin left, with the residual written on every sweep.
/// `split` runs applyOp then smooth+residual per sweep; `fused` runs
/// the one-pass sweep into the Ax buffer and swaps it with x. Medians
/// over `runs` interleaved runs, in seconds of the calling thread's
/// CPU time (run it with one kernel worker so that is all the work).
struct FusedSweepTimes {
  double split = 0;
  double fused = 0;
};
FusedSweepTimes measure_fused_sweep(index_t n, index_t bdim, int runs = 9);

/// JSON object describing the host a bench ran on: logical cores,
/// kernel workers, CPU model and build type.
std::string host_json(int workers);

/// The host ArchSpec with its per-kernel efficiencies filled from live
/// measurements:
///   frac_roofline[op]        = achieved bandwidth / STREAM bandwidth
///   frac_theoretical_ai[op]  = compulsory traffic / simulated traffic
///                              under a host-sized LRU cache
/// (the reproduction's analogue of the paper's profiler-derived
/// Tables III and V columns).
arch::ArchSpec calibrated_host(index_t n = 64);

/// Parse the shared `--trace-out <path>` flag (empty string when not
/// given). Unknown flags are an error, matching the Options policy.
std::string parse_trace_out(int argc, const char* const argv[],
                            const char* program);

/// Same, but on a caller-provided Options so a bench can register its
/// own flags (e.g. amr_refine's -s/-b) next to --trace-out.
std::string parse_trace_out(Options& opts, int argc,
                            const char* const argv[], const char* program);

/// When `path` is non-empty: collect the trace accumulated so far and
/// write the Chrome trace-event JSON to `path` plus the aggregated
/// metrics sidecar to `path` with ".json" replaced by ".metrics.json".
void finish_trace(const std::string& path);

}  // namespace gmg::bench
