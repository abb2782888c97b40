#!/usr/bin/env python3
"""Builds and runs the end-to-end DIO benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload burst_walfsync --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --selftest      # the benchmark's own tests

The benchmark is built from source (perfbench/CMakeLists.txt, which compiles
the DIO libraries from src/) into $CARGO_TARGET_DIR/perfbench, default
.bench_build/perfbench. Build output goes to stderr; the last line of stdout
is the run's JSON result. Exits with the benchmark's exit code: 0 when every
correctness check passed, non-zero otherwise or when the build fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    return os.path.join(target, "perfbench")


def run_quiet(cmd):
    """Runs a build step with its output on stderr; returns the exit code."""
    proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
    return proc.returncode


def build(out, targets):
    if not os.path.exists(os.path.join(ROOT, "src", "service", "dio_service.h")):
        print("perfbench: DIO sources not found next to perfbench/", file=sys.stderr)
        return 2
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        code = run_quiet(["cmake", "-S", HERE, "-B", out,
                          "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
        if code != 0:
            return code
    cmd = ["cmake", "--build", out, "-j", "4"]
    for target in targets:
        cmd += ["--target", target]
    return run_quiet(cmd)


def main(argv):
    out = build_dir()
    if argv == ["--selftest"]:
        code = build(out, [])
        if code != 0:
            return code
        return run_quiet(["ctest", "--test-dir", out, "--output-on-failure"])
    code = build(out, ["dio_perfbench"])
    if code != 0:
        print("perfbench: build failed", file=sys.stderr)
        return code
    workdir = os.path.join(out, "run")
    cmd = [os.path.join(out, "dio_perfbench"), *argv, "--workdir", workdir]
    sys.stdout.flush()
    proc = subprocess.Popen(cmd)
    try:
        return proc.wait()
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
