#!/usr/bin/env python3
"""Builds the perfbench binary from this checkout and runs one workload.

    python3 perfbench/run.py --workload oltp_wire --seed 1 --seconds 15 --trace 0

Run from the root of a checkout. The engine and the benchmark are compiled
into .bench_build/ (CMake, RelWithDebInfo, the repository's own flags); a
no-op rebuild costs about a second. Scratch files (WAL, heap file, trace
dump) go to .bench_build/work-<pid>/, which is removed at exit except for
the trace dump, copied to .bench_build/traces/.

The last line of standard output is the result object:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
Build logs and progress go to standard error. The exit code is non-zero
when the build fails, the run fails, or any output check fails.
"""

import argparse
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
WORKLOADS = ("oltp_wire", "analytic_wire", "whatif_plan")
RUN_TIMEOUT_S = 170


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        configure = ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B",
                     BUILD_DIR, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"] + generator
        if subprocess.call(configure, stdout=sys.stderr) != 0:
            shutil.rmtree(BUILD_DIR, ignore_errors=True)
            return False
    compile_cmd = ["cmake", "--build", BUILD_DIR, "--target", "perfbench",
                   "-j", jobs]
    return subprocess.call(compile_cmd, stdout=sys.stderr) == 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    if not os.path.exists(os.path.join(ROOT, "CMakeLists.txt")) or not build():
        print("perfbench: build failed", file=sys.stderr)
        return 2

    workdir = os.path.join(BUILD_ROOT, "work-%d" % os.getpid())
    trace_dir = os.path.join(BUILD_ROOT, "traces")
    os.makedirs(workdir, exist_ok=True)
    os.makedirs(trace_dir, exist_ok=True)
    cmd = [os.path.join(BUILD_DIR, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--dir", workdir]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        # subprocess.run kills the child and waits for it before raising.
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 3
    finally:
        dump = os.path.join(workdir, "trace.csv")
        if os.path.exists(dump):
            shutil.copyfile(dump, os.path.join(
                trace_dir, "%s-seed%d.csv" % (args.workload, args.seed)))
        shutil.rmtree(workdir, ignore_errors=True)

    sys.stdout.write(proc.stdout.decode())
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
