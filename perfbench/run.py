#!/usr/bin/env python3
"""Build and run the pipeline benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload products-sage --seed 1 \
        --seconds 10 --trace 0
    python3 perfbench/run.py --selftest

The benchmark is compiled from source into $CARGO_TARGET_DIR/perfbench
(default .bench_build/perfbench) on every call; an up-to-date build costs
about a second. Build output goes to stderr, so the last stdout line is
the benchmark's JSON result. Exits non-zero, printing no result, when the
build or the run fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 170


def build(build_dir):
    steps = [["cmake", "-S", HERE, "-B", build_dir,
              "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", build_dir, "-j", "4"]]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    return True


def git_revision():
    try:
        out = subprocess.run(["git", "-C", HERE, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main(argv):
    build_dir = os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                             "perfbench")
    if not build(build_dir):
        print("perfbench: build failed", file=sys.stderr)
        return 1
    if argv == ["--selftest"]:
        binary, args = "perfbench_selftest", []
    else:
        binary, args = "pipeline_bench", argv
    env = dict(os.environ, PERFBENCH_GIT_REV=git_revision())
    try:
        return subprocess.run([os.path.join(build_dir, binary)] + args,
                              env=env, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
