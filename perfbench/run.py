#!/usr/bin/env python3
"""Simulator host-throughput benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

Run from the root of a source tree. Builds the simulator libraries and the
simbench program from source into .bench_build/ (incremental after the first
run), runs one workload in its own process and relays its output; the last
line of stdout is the result JSON. Exits non-zero, without a result, when
the build or the run fails.
"""

import argparse
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD_DIR = os.path.join(ROOT, ".bench_build")
EXE = os.path.join(BUILD_DIR, "simbench")
WORKLOADS = ("bicgstab-busy", "heat-torus")
RUN_LIMIT_S = 160  # a run must end within 180 s, build included


def build():
    """Configure and build incrementally; build output goes to stderr."""
    jobs = str(min(4, os.cpu_count() or 1))
    for cmd in (["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                 "-DCMAKE_BUILD_TYPE=Release"],
                ["cmake", "--build", BUILD_DIR, "--target", "simbench",
                 "-j", jobs]):
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("run.py: build failed: " + " ".join(cmd))


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, choices=("0", "1"))
    args = p.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        sys.exit("run.py: --seed must be >= 0 and --seconds > 0")

    build()
    tmp = os.path.join(BUILD_DIR, "tmp", "%s-%d" % (args.workload, os.getpid()))
    os.makedirs(tmp)
    try:
        # Bound the run so a hang cannot outlive the limit; on timeout
        # subprocess.run kills the child and waits for it.
        proc = subprocess.run(
            [EXE, "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", repr(args.seconds), "--trace", args.trace,
             "--tmp", tmp],
            stdout=subprocess.PIPE, text=True, timeout=RUN_LIMIT_S)
    except subprocess.TimeoutExpired:
        sys.exit("run.py: simbench exceeded %d s" % RUN_LIMIT_S)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        sys.exit("run.py: simbench exited with %d" % proc.returncode)
    sys.stdout.write(proc.stdout)


if __name__ == "__main__":
    main()
