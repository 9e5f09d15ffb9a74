#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \\
        --trace <0|1> [--size full|tiny]

Configures and builds perfbench/ (the simulator libraries from src/ plus
the perfbench binary) into perfbench/build with CMake, then runs the
binary with the same arguments. Build output goes to stderr, so the last
line of stdout is the binary's JSON result. Exits non-zero, without a
result, when the build fails (for example when src/ is absent).
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD = os.path.join(HERE, "build")
BINARY = os.path.join(BUILD, "perfbench")


def build():
    """Configure (once) and build; returns True on success."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", HERE, "-B", BUILD, *generator,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            print("perfbench: build step failed: " + " ".join(cmd),
                  file=sys.stderr)
            return False
    return True


def main():
    if not build():
        return 1
    sys.stdout.flush()
    return subprocess.run([BINARY, *sys.argv[1:]]).returncode


if __name__ == "__main__":
    sys.exit(main())
