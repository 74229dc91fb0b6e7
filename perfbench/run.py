#!/usr/bin/env python3
"""Build and run the tess end-to-end benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload insitu_uniform --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --selftest

The first call in a checkout configures and builds the perfbench/ CMake
package (Release; it compiles the library from src/) into
.bench_build/perfbench; later calls only re-run the incremental build.
Build output goes to stderr, so the last line on stdout is the benchmark's JSON
result. Exits non-zero, printing no result, when the build or run fails.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(OUT, "perfbench")
RUN_TIMEOUT_S = 175


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs],
                   stdout=sys.stderr, check=True)


def main(argv):
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 1
    if argv == ["--selftest"]:
        cmd = [os.path.join(BUILD, "perfbench_selftest")]
    else:
        cmd = [os.path.join(BUILD, "perfbench"), *argv, "--out", OUT]
    try:
        return subprocess.run(cmd, cwd=OUT, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
