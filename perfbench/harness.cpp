#include "harness.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cmath>
#include <fstream>
#include <iomanip>
#include <sstream>
#include <thread>
#include <time.h>

#include "exec/runtime.hpp"

#ifdef _OPENMP
#include <omp.h>
#endif

namespace perfbench {

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto rank =
      static_cast<std::size_t>(std::ceil(p * static_cast<double>(v.size())));
  return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}

std::string number(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

double tail_fraction(std::size_t n) {
  if (n == 0) return 0.99;
  return std::clamp(1.0 - 10.0 / static_cast<double>(n), 0.5, 0.99);
}

std::string quoted(const std::string& s) {
  std::string o = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') o += '\\';
    o += static_cast<unsigned char>(c) < 0x20 ? ' ' : c;
  }
  return o + "\"";
}

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double thread_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream is(line.substr(6));
      double kib = 0;
      is >> kib;
      return kib / 1024.0;
    }
  }
  return 0;
}

void Result::wrong(const std::string& why) {
  correct = false;
  if (errors.size() < 20) errors.push_back(why);
}

void Result::latency(const std::vector<double>& seconds) {
  const double tail = tail_fraction(seconds.size());
  metric("req_p50_s", median(seconds), "s");
  metric("req_p99_s", percentile(seconds, tail), "s");
  samples["req_tail_percentile"] = std::lround(100 * tail);
}

namespace {

/// Size of the largest cache sysfs lists for cpu0, MiB.
double llc_mib() {
  double best = 0;
  for (int idx = 0; idx < 8; ++idx) {
    std::ifstream in("/sys/devices/system/cpu/cpu0/cache/index" +
                     std::to_string(idx) + "/size");
    std::string s;
    if (!(in >> s) || s.empty()) continue;
    double v = std::atof(s.c_str());
    const char unit = s.back();
    if (unit == 'K') v /= 1024.0;
    if (unit == 'G') v *= 1024.0;
    if (unit != 'K' && unit != 'M' && unit != 'G') v /= 1024.0 * 1024.0;
    best = std::max(best, v);
  }
  return best;
}

}  // namespace

Host host_info() {
  Host h;
  h.nproc = static_cast<int>(std::thread::hardware_concurrency());
  h.l3_mib = llc_mib();
  h.exec_workers = gmg::exec::resolved_default_workers();
  const bool omp =
      gmg::exec::kernel_runtime() == gmg::exec::KernelRuntime::kOpenMP;
  h.kernel_runtime = omp ? "omp" : "pool";
#ifdef _OPENMP
  h.kernel_threads = omp ? omp_get_max_threads() : h.exec_workers + 1;
#else
  h.kernel_threads = omp ? 1 : h.exec_workers + 1;
#endif
  h.build_type = GMG_PERFBENCH_BUILD_TYPE;
  return h;
}

int SpanLog::open(const std::string& name, int parent) {
  spans_.push_back({name, parent, now_s(), 0});
  return static_cast<int>(spans_.size()) - 1;
}

void SpanLog::close(int id) {
  Span& s = spans_[static_cast<std::size_t>(id)];
  s.seconds = now_s() - s.start;
}

int SpanLog::add(const std::string& name, int parent, double start,
                 double seconds) {
  spans_.push_back({name, parent, start, seconds});
  return static_cast<int>(spans_.size()) - 1;
}

double SpanLog::unattributed_pct(const std::string& name) const {
  std::vector<char> selected(spans_.size(), 0);
  double self = 0, children = 0;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].name != name) continue;
    selected[i] = 1;
    self += spans_[i].seconds;
  }
  for (const Span& s : spans_)
    if (s.parent >= 0 && selected[static_cast<std::size_t>(s.parent)])
      children += s.seconds;
  return self > 0 ? 100.0 * (1.0 - children / self) : 0;
}

double SpanLog::total_seconds(const std::string& name) const {
  double t = 0;
  for (const Span& s : spans_)
    if (s.name == name) t += s.seconds;
  return t;
}

std::size_t SpanLog::count(const std::string& name) const {
  return static_cast<std::size_t>(std::count_if(
      spans_.begin(), spans_.end(),
      [&](const Span& s) { return s.name == name; }));
}

void SpanLog::write_json(const std::string& path) const {
  std::ofstream os(path);
  os << std::setprecision(9) << "{\"spans\": [\n";
  double t0 = 0;
  for (const Span& s : spans_)
    if (s.start >= 0 && (t0 == 0 || s.start < t0)) t0 = s.start;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    os << "  {\"id\": " << i << ", \"parent\": " << s.parent
       << ", \"name\": " << quoted(s.name) << ", \"start_s\": "
       << (s.start < 0 ? -1.0 : s.start - t0)
       << ", \"seconds\": " << s.seconds << "}"
       << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  os << "]}\n";
}

}  // namespace perfbench
