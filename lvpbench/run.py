#!/usr/bin/env python3
"""Build and run lvpbench, the benchmark of record (README.md here).

    python3 lvpbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 lvpbench/run.py --regen --seeds N[,N...] [--scale full|smoke]

Run from the repository root. The first run configures and builds
lvpbench/CMakeLists.txt (the simulator libraries from src/ plus the
benchmark) into .bench_build/lvpbench; later runs only rebuild what
changed. Build output goes to standard error, so the last line of
standard output is the benchmark's JSON result. The arguments go to
the binary unchanged; it parses them strictly.

Exit status: 1 when the sources are missing or the build fails,
otherwise the binary's own (2 on a usage error).
"""

import fcntl
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(".bench_build", "lvpbench")


def build():
    """Configure once, then build; serialized by a lock file."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("run.py: simulator sources not found next to " + BENCH_DIR,
              file=sys.stderr)
        sys.exit(1)
    os.makedirs(BUILD_DIR, exist_ok=True)
    with open(os.path.join(BUILD_DIR, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", BUILD_DIR, "--target", "lvpbench",
                      "-j", str(min(4, os.cpu_count() or 1))])
        for cmd in steps:
            if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
                print("run.py: build step failed: " + " ".join(cmd),
                      file=sys.stderr)
                sys.exit(1)
    return os.path.join(BUILD_DIR, "lvpbench")


def main():
    proc = subprocess.Popen([build()] + sys.argv[1:])
    try:
        return proc.wait()
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


if __name__ == "__main__":
    sys.exit(main())
