#!/usr/bin/env python3
"""Build and run the Hydride compile benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload cold|warm|mixed --seed N \
        --seconds S --trace 0|1

Builds perfbench/ (which builds the Hydride libraries from ../src) into
.bench_build/perfbench, then runs the benchmark binary with the same
arguments. The binary prints a human-readable report and, as the last
line of standard output, one JSON object with the metrics. Every other
argument is passed through (see perfbench/main.cpp).
"""

import os
import shutil
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "hydride_perfbench")


def build():
    """Configure once, then build incrementally; build output goes to
    stderr so the last stdout line stays the benchmark's JSON."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: Hydride sources (src/) not found next to "
                 "perfbench/")
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD_DIR, "--target",
                    "hydride_perfbench", "-j", jobs],
                   check=True, stdout=sys.stderr)


def main():
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as err:
        sys.exit("perfbench: build failed: %s" % err)
    # The library reads HYDRIDE_* knobs (tracing, metrics, journal,
    # fault injection); the benchmark measures the program without them.
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("HYDRIDE_")}
    proc = subprocess.Popen([BINARY] + sys.argv[1:], cwd=ROOT, env=env)

    def forward(signum, _frame):
        # The binary kills its compiling child and removes its work
        # directory on SIGINT/SIGTERM; wait for it to do so.
        proc.send_signal(signum)

    signal.signal(signal.SIGINT, forward)
    signal.signal(signal.SIGTERM, forward)
    sys.exit(proc.wait())


if __name__ == "__main__":
    main()
