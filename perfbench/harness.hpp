// Shared plumbing of the repository benchmark: arguments, the result
// record each workload fills, sample statistics, the host block, and
// the in-memory span log the traced run keeps.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

/// Median of `v` (mean of the two middle values for even sizes).
double median(std::vector<double> v);
/// Nearest-rank percentile, p in (0, 1].
double percentile(std::vector<double> v, double p);
/// The tail percentile a sample count resolves: p99 when at least ten
/// samples lie beyond it, else the highest percentile with ten beyond
/// it (p78 for 45 samples), but never below the median.
double tail_fraction(std::size_t n);

/// `v` with all its significant digits (%.17g).
std::string number(double v);
/// `s` as a JSON string literal (control characters become spaces).
std::string quoted(const std::string& s);

/// Seconds on the steady clock since an arbitrary origin.
double now_s();

/// CPU seconds the calling thread has run (CLOCK_THREAD_CPUTIME_ID).
/// The kernel leaves out time the thread waited: blocked, runnable but
/// not scheduled, or on a vCPU the hypervisor gave to another guest.
/// The workloads run their kernels serially on each thread, so this is
/// the time a call takes on a core of its own.
double thread_cpu_s();

/// Peak resident set of this process (VmHWM), MiB.
double peak_rss_mb();

/// What one run reports: the verdict, the failure accounting, the
/// metrics (name -> value, unit), the sample counts behind them, and
/// the reasons for every failed check.
struct Result {
  bool correct = true;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::map<std::string, std::pair<double, std::string>> metrics;
  std::map<std::string, std::int64_t> samples;
  std::vector<std::string> errors;

  void metric(const std::string& name, double value, const std::string& unit) {
    metrics[name] = {value, unit};
  }
  /// A wrong answer: fails the run.
  void wrong(const std::string& why);
  /// req_p50_s and req_p99_s over request latencies; req_p99_s is the
  /// tail_fraction() percentile, recorded as samples.req_tail_percentile.
  void latency(const std::vector<double>& seconds);
};

/// Facts about the machine and build that every result records.
struct Host {
  int nproc = 0;
  double l3_mib = 0;  // last-level cache, from sysfs
  int exec_workers = 0;
  /// How exec::parallel_for runs kernels ("omp" or "pool") and, for
  /// "omp", with how many threads.
  std::string kernel_runtime;
  int kernel_threads = 0;
  std::string build_type;
};
Host host_info();

/// Spans the benchmark records around its own calls into the library
/// (the traced run only). A span is either timed (opened and closed
/// here) or derived: a duration the library reported for work inside
/// a timed span (a profiler phase total, a server-side queue time),
/// which has no start of its own. Spans stay in memory until
/// write_json() at the end of the run.
class SpanLog {
 public:
  int open(const std::string& name, int parent);
  void close(int id);
  /// A span timed elsewhere (start on the now_s() clock), or a derived
  /// one (start < 0).
  int add(const std::string& name, int parent, double start, double seconds);
  int derived(const std::string& name, int parent, double seconds) {
    return add(name, parent, -1, seconds);
  }

  /// Over every span called `name`: 100 * (1 - children / self), the
  /// share of the parent's time no child span accounts for.
  double unattributed_pct(const std::string& name) const;
  /// Sum of durations of every span called `name`.
  double total_seconds(const std::string& name) const;
  std::size_t count(const std::string& name) const;

  void write_json(const std::string& path) const;

 private:
  struct Span {
    std::string name;
    int parent = -1;
    double start = -1;  // -1 for derived spans
    double seconds = 0;
  };
  std::vector<Span> spans_;
};

/// RAII span on an optional log (null log: no-op, no clock read).
class Scope {
 public:
  Scope(SpanLog* log, const std::string& name, int parent)
      : log_(log), id_(log ? log->open(name, parent) : -1) {}
  ~Scope() { close(); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  int id() const { return id_; }
  void close() {
    if (log_ && !closed_) log_->close(id_);
    closed_ = true;
  }

 private:
  SpanLog* log_;
  int id_;
  bool closed_ = false;
};

// Workloads. Each fills `out` with its end-to-end metrics (untraced
// run) or its per-layer metrics (traced run, `log` non-null).
void run_uniform_4rank(const Args& args, Result& out, SpanLog* log);
void run_amr_patch(const Args& args, Result& out, SpanLog* log);
void run_serve_socket(const Args& args, Result& out, SpanLog* log);

}  // namespace perfbench
