#!/usr/bin/env python3
"""Build and run colop's wall-clock benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload search_certify|launch_bound|bulk_run \
        --seed N --seconds S --trace 0|1

Configures and builds perfbench/ (the colop libraries from src/ plus the
driver, Release) into $CARGO_TARGET_DIR/perfbench, default .bench_build,
then runs the driver.  Build output goes to stderr; the driver's stdout is
passed through, ending with one JSON result line.  Exits non-zero without
a result when the build, the run or the result line fails.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 175
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def build(build_dir):
    """Configure once, then build incrementally; True on success."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"] + generator
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            return False
    compile_cmd = ["cmake", "--build", build_dir, "-j", jobs]
    return subprocess.run(compile_cmd, stdout=sys.stderr).returncode == 0


def main():
    root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.abspath(os.path.join(root, "perfbench"))
    if not build(build_dir):
        print("perfbench: build failed", file=sys.stderr)
        return 1
    binary = os.path.join(build_dir, "colop_perfbench")
    try:
        proc = subprocess.run([binary] + sys.argv[1:], stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"perfbench: driver exited {proc.returncode}", file=sys.stderr)
        return 1
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        result = None
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        print("perfbench: malformed result line", file=sys.stderr)
        return 1
    print("\n".join(lines), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
