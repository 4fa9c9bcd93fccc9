#!/usr/bin/env python3
"""Run one workload of the hpcmon end-to-end benchmark.

    python3 e2ebench/run.py --workload <ingest_10k|live_1k> --seed <n> \
        --seconds <s> --trace <0|1>

Builds e2ebench/ (which compiles the hpcmon libraries from ../src) into
.bench_build/e2ebench on first use, runs the benchmark in
.bench_work/<workload>-seed<n>, and passes its output through: the last line
on stdout is the JSON result. Build output goes to stderr. Exits non-zero,
printing no result, when the sources are missing, the build fails, a
correctness oracle fails, or the run overruns its time limit.
"""
import argparse
import fcntl
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "e2ebench")
BUILD = os.path.join(ROOT, ".bench_build", "e2ebench")
WORK = os.path.join(ROOT, ".bench_work")
RUN_TIMEOUT_S = 170


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("error: hpcmon sources not found at %s/src" % ROOT, file=sys.stderr)
        sys.exit(2)
    os.makedirs(BUILD, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    # One build at a time per checkout; concurrent runs wait for it.
    with open(os.path.join(BUILD, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
            steps.append(["cmake", "-S", PACKAGE, "-B", BUILD,
                          "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
        steps.append(["cmake", "--build", BUILD, "-j", jobs,
                      "--target", "e2e_pipeline"])
        for cmd in steps:
            if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
                print("error: build step failed: %s" % " ".join(cmd), file=sys.stderr)
                sys.exit(2)
    return os.path.join(BUILD, "e2e_pipeline")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["ingest_10k", "live_1k"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    binary = build()
    workdir = os.path.join(WORK, "%s-seed%d" % (args.workload, args.seed))
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace,
           "--workdir", workdir]
    sys.stdout.flush()
    proc = subprocess.Popen(cmd)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("error: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        code = 1
    # WAL and tier directories are large; the spans file stays.
    for entry in os.listdir(workdir):
        path = os.path.join(workdir, entry)
        if os.path.isdir(path):
            shutil.rmtree(path, ignore_errors=True)
    sys.exit(code)


if __name__ == "__main__":
    main()
