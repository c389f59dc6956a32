#!/usr/bin/env python3
"""Repository benchmark: build the gmg libraries and the benchmark program
from source, run one workload, and print its result.

    python3 perfbench/run.py --workload uniform_4rank --seed 1 \
        --seconds 20 --trace 0

Run from the root of a checkout. The build goes to .bench_build/perfbench
(configured once, then brought up to date on every run). The last line of
standard output is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end metrics; with
--trace 1 they are its per_layer metrics, a layer the workload does not
run reporting 0. The line before it records the host, commit, source
digest, build type, seed, sample counts, the CPU share stolen by other
guests during the run, the metrics gmg_perfbench measured beyond those, and
every failed check; the same record is written to
.bench_build/perfbench-result-<workload>-<seed>-<trace>.json.

Exit codes: 0 correct, 1 a wrong answer or a failed build or run, 2 usage.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "gmg_perfbench")
WORKLOADS = ("uniform_4rank", "amr_patch", "serve_socket")
RUN_TIMEOUT_S = 170
# Kernels run serially on the thread that calls them (OpenMP teams of
# one), so no workload runs more busy threads than it has ranks or
# executors, and a thread's CPU time is the time its work takes.
KERNEL_ENV = {"GMG_EXEC_RUNTIME": "omp", "OMP_NUM_THREADS": "1",
              "OMP_DYNAMIC": "false", "OMP_WAIT_POLICY": "passive"}


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources (src/) not found next to perfbench/")
    jobs = str(os.cpu_count() or 1)
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "gmg_perfbench",
                  "-j", jobs])
    # Compiler temporaries stay inside the checkout too.
    tmp = os.path.join(ROOT, ".bench_build", "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    for cmd in steps:
        # Build chatter goes to stderr: stdout carries only results.
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              env=env)
        if proc.returncode != 0:
            fail("build step failed: " + " ".join(cmd))


def source_digest():
    """sha256 over the library and benchmark sources (the checkout the
    benchmark runs in is not a git repository)."""
    h = hashlib.sha256()
    for top in ("src", "perfbench", "CMakeLists.txt"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in sorted(files):
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()[:16]


def commit():
    try:
        # Never report the commit of a repository enclosing the checkout.
        env = dict(os.environ,
                   GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown"


def cpu_times():
    """Aggregate CPU jiffies from /proc/stat (None where unavailable)."""
    try:
        with open("/proc/stat") as fh:
            return [int(x) for x in fh.readline().split()[1:]]
    except (OSError, ValueError):
        return None


def steal_pct(before, after):
    """Share of CPU time the hypervisor gave to other guests between two
    cpu_times() readings: a run with a large share measured a slowed
    host, not the program."""
    if not before or not after or len(before) < 8:
        return None
    d = [b - a for a, b in zip(before, after)]
    return round(100.0 * d[7] / max(1, sum(d)), 2)


def spec_metrics(trace):
    """(name, unit) of the metrics the result line must carry, from
    BENCHMARK.json; None when the file is absent."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return None
    with open(path) as fh:
        spec = json.load(fh)
    return [(m["name"], m["unit"])
            for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    build()
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    start, cpu0 = time.monotonic(), cpu_times()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S,
                              env=dict(os.environ, **KERNEL_ENV))
    except subprocess.TimeoutExpired:
        fail("%s did not finish within %d s" % (args.workload, RUN_TIMEOUT_S))
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if len(lines) < 2:
        fail("gmg_perfbench exited %d without a result" % proc.returncode)
    info, result = json.loads(lines[-2]), json.loads(lines[-1])

    measured = result["metrics"]
    wanted = spec_metrics(args.trace)
    if wanted is None:
        wanted = [(k, v["unit"]) for k, v in sorted(measured.items())]
    metrics, not_run = {}, []
    for name, unit in wanted:
        if name in measured:
            if measured[name]["unit"] != unit:
                fail("%s measured in %s, BENCHMARK.json says %s"
                     % (name, measured[name]["unit"], unit))
            metrics[name] = measured[name]
        elif args.trace:
            metrics[name] = {"value": 0, "unit": unit}
            not_run.append(name)
        else:
            fail("end-to-end metric %s missing from %s"
                 % (name, args.workload))
    names = {n for n, _ in wanted}
    info.update({
        "commit": commit(),
        "source_digest": source_digest(),
        "run_wall_s": round(time.monotonic() - start, 3),
        "host_steal_pct": steal_pct(cpu0, cpu_times()),
        "extra_metrics": {k: v for k, v in measured.items() if k not in names},
        "layers_not_run": not_run,
    })
    out = {"correct": bool(result["correct"]) and proc.returncode == 0,
           "attempted": int(result["attempted"]),
           "failed": int(result["failed"]),
           "metrics": metrics}
    record = os.path.join(ROOT, ".bench_build", "perfbench-result-%s-%d-%d.json"
                          % (args.workload, args.seed, args.trace))
    with open(record, "w") as fh:
        json.dump({"info": info, "result": out}, fh, indent=1)
    print(json.dumps(info))
    print(json.dumps(out))
    sys.exit(0 if out["correct"] else 1)


if __name__ == "__main__":
    main()
