// gmg_perfbench: the repository benchmark program.
//
//   gmg_perfbench --workload <uniform_4rank|amr_patch|serve_socket>
//                 --seed <n> --seconds <s> --trace <0|1>
//
// --trace 0 measures the end-to-end metrics with library tracing off;
// --trace 1 is the separate traced run that measures the per-layer
// metrics and writes its spans to .bench_build/. Prints one JSON line
// with the host block, sample counts and any failed checks, then the
// result line {"correct", "attempted", "failed", "metrics"}. Exits 1
// on a wrong answer, 2 on a usage error.
#include <cmath>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <iostream>
#include <sstream>
#include <string>

#include "harness.hpp"
#include "trace/trace.hpp"

using namespace perfbench;

namespace {

bool parse(int argc, char** argv, Args& a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (k == "--seconds") {
      a.seconds = std::atof(v.c_str());
    } else if (k == "--trace") {
      a.trace = v == "1";
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !a.workload.empty() && a.seconds > 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse(argc, argv, args)) {
    std::cerr << "usage: gmg_perfbench --workload <uniform_4rank|amr_patch|"
                 "serve_socket> --seed <n> --seconds <s> --trace <0|1>\n";
    return 2;
  }
  if (host_info().kernel_threads != 1) {
    std::cerr << "gmg_perfbench: kernels must run serially; set "
                 "GMG_EXEC_RUNTIME=omp OMP_NUM_THREADS=1 (perfbench/run.py "
                 "does)\n";
    return 2;
  }
  gmg::trace::set_enabled(false);
  Result out;
  SpanLog spans;
  SpanLog* log = args.trace ? &spans : nullptr;
  try {
    if (args.workload == "uniform_4rank") {
      run_uniform_4rank(args, out, log);
    } else if (args.workload == "amr_patch") {
      run_amr_patch(args, out, log);
    } else if (args.workload == "serve_socket") {
      run_serve_socket(args, out, log);
    } else {
      std::cerr << "unknown workload " << args.workload << "\n";
      return 2;
    }
  } catch (const std::exception& e) {
    std::cerr << "gmg_perfbench: " << e.what() << "\n";
    return 1;
  }
  if (!args.trace) out.metric("peak_rss_mb", peak_rss_mb(), "MiB");
  for (auto& [name, m] : out.metrics) {
    if (std::isfinite(m.first)) continue;
    out.wrong(name + " is not finite");
    m.first = 0;  // keeps the result line valid JSON
  }
  if (log) {
    std::filesystem::create_directories(".bench_build");
    spans.write_json(".bench_build/perfbench-spans-" + args.workload + "-" +
                     std::to_string(args.seed) + ".json");
  }

  const Host host = host_info();
  std::ostringstream info;
  info << "{\"host\": {\"nproc\": " << host.nproc
       << ", \"l3_mib\": " << number(host.l3_mib)
       << ", \"exec_workers\": " << host.exec_workers
       << ", \"kernel_runtime\": " << quoted(host.kernel_runtime)
       << ", \"kernel_threads\": " << host.kernel_threads
       << ", \"build_type\": " << quoted(host.build_type)
       << "}, \"workload\": " << quoted(args.workload)
       << ", \"seed\": " << args.seed
       << ", \"seconds\": " << number(args.seconds)
       << ", \"trace\": " << (args.trace ? 1 : 0) << ", \"samples\": {";
  const char* sep = "";
  for (const auto& [k, v] : out.samples) {
    info << sep << quoted(k) << ": " << v;
    sep = ", ";
  }
  info << "}, \"errors\": [";
  sep = "";
  for (const std::string& e : out.errors) {
    info << sep << quoted(e);
    sep = ", ";
  }
  info << "]}";
  std::cout << info.str() << "\n";

  std::ostringstream res;
  res << "{\"correct\": " << (out.correct ? "true" : "false")
      << ", \"attempted\": " << out.attempted << ", \"failed\": "
      << out.failed << ", \"metrics\": {";
  sep = "";
  for (const auto& [k, v] : out.metrics) {
    res << sep << quoted(k) << ": {\"value\": " << number(v.first)
        << ", \"unit\": " << quoted(v.second) << "}";
    sep = ", ";
  }
  res << "}}";
  std::cout << res.str() << std::endl;
  return out.correct ? 0 : 1;
}
