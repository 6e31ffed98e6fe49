#!/usr/bin/env python3
"""Builds the end-to-end benchmark from source and runs one workload.

Usage, from the root of the repository:

    python3 e2ebench/run.py --workload NAME --seed N --seconds S --trace 0|1

The build goes to $CARGO_TARGET_DIR/e2ebench (default .bench_build/e2ebench)
and is a no-op once up to date; its output goes to stderr. The run's last
line of stdout is the result JSON (see README.md).
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    if not (os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt"))
            and os.path.isfile(os.path.join(ROOT, "tools", "rdx_serve.cc"))):
        print("e2ebench: the engine sources (src/, tools/rdx_serve.cc) are "
              "missing next to e2ebench/; nothing to build", file=sys.stderr)
        return 2

    work = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(work):
        work = os.path.join(ROOT, work)
    build = os.path.join(work, "e2ebench")
    if not os.path.isfile(os.path.join(build, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if subprocess.call(configure, stdout=sys.stderr) != 0:
            return 2
    if subprocess.call(["cmake", "--build", build, "-j4"],
                       stdout=sys.stderr) != 0:
        return 2

    # The daemon's socket lives in the run directory; a path relative to
    # the working directory keeps it under the 108-byte sun_path limit.
    work_rel = os.path.relpath(work, os.getcwd())
    binary = os.path.join(build, "rdx_e2e")
    args = [binary] + sys.argv[1:] + [
        "--serve-bin", os.path.join(build, "rdx_serve"),
        "--work-dir", work_rel]
    sys.stdout.flush()
    os.execv(binary, args)


if __name__ == "__main__":
    sys.exit(main())
