#!/usr/bin/env python3
"""Runs one workload of the BDI benchmark.

Builds the program's libraries and the benchmark's executables from source
(CMake, Release), generates the workload's seeded inputs with perfbench_gen,
then measures them with perfbench_run, whose last stdout line is the JSON
result. Build output goes to stderr.

    python3 perfbench/run.py --workload integrate --seed 13 --seconds 25 --trace 0

Everything it writes stays under the build directory: $CARGO_TARGET_DIR when
set, else .bench_build, relative to the repository root.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("integrate", "serve-read", "serve-mixed")
TARGETS = ("perfbench_gen", "perfbench_run", "perfbench_test")
# A run must end within 180 s; the measuring window plus set-up, drains
# and checks stay well inside that.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    return 2


def call(command, timeout, capture=False):
    """Runs a command with its stdout sent to stderr (or captured)."""
    return subprocess.run(
        command,
        cwd=ROOT,
        stdout=subprocess.PIPE if capture else sys.stderr,
        stderr=sys.stderr,
        timeout=timeout,
        check=False,
        text=True,
    )


def build(build_dir):
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        configured = call(
            ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
            BUILD_TIMEOUT_S,
        )
        if configured.returncode != 0:
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    built = call(
        ["cmake", "--build", build_dir, "-j", jobs, "--target", *TARGETS],
        BUILD_TIMEOUT_S,
    )
    return built.returncode == 0


def main():
    # On SIGTERM, unwind: subprocess.run kills and reaps the running child,
    # and the work directory is removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=13)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        return fail("--seed must be >= 0 and --seconds > 0")
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        return fail("program sources (src/) not found next to perfbench/")

    out_root = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    build_dir = os.path.join(out_root, "perfbench")
    if not build(build_dir):
        return fail("build failed")
    binary = lambda name: os.path.join(build_dir, name)
    if call([binary("perfbench_test")], 60).returncode != 0:
        return fail("statistics helper tests failed")

    work = os.path.join(out_root, "work", "%s-%d" % (args.workload, os.getpid()))
    corpus = os.path.join(work, "corpus")
    scratch = os.path.join(work, "scratch")
    os.makedirs(corpus)
    os.makedirs(scratch)
    try:
        started = time.monotonic()
        generated = call(
            [binary("perfbench_gen"), "--workload", args.workload,
             "--seed", str(args.seed), "--out", corpus],
            RUN_TIMEOUT_S,
        )
        if generated.returncode != 0:
            return fail("input generation failed")
        print("# seed %d, inputs generated in %.2f s"
              % (args.seed, time.monotonic() - started), flush=True)
        measured = subprocess.run(
            [binary("perfbench_run"), "--workload", args.workload,
             "--corpus", corpus, "--work", scratch,
             "--seconds", repr(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT,
            timeout=RUN_TIMEOUT_S - (time.monotonic() - started),
            check=False,
        )
        return measured.returncode
    except subprocess.TimeoutExpired:
        return fail("timed out")
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
