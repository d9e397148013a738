#!/usr/bin/env python3
"""Builds serve_bench from this checkout's sources and runs it.

    python3 servebench/run.py --workload sharegpt_chat --seed 1 --seconds 20 --trace 0
    python3 servebench/run.py --workload sharegpt_chat --seed 1 --seconds 20 --trace 1
    python3 servebench/run.py --paper-check --seed 1 --seconds 20

The build (CMake over servebench/CMakeLists.txt, which compiles the needed
libraries from src/) lives in .bench_build/ at the repository root; the
first run configures and compiles, later runs only re-check it. Run files --
the disk tier's backing file and the Chrome traces of --trace 1 -- go to
.bench_build/work/. Build output goes to stderr, so the last line of stdout
is serve_bench's JSON result. Exits non-zero, without a result, when the
sources are missing or the build fails.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
BUILD = os.path.join(REPO, ".bench_build")
# Stops a run that hangs; the build is not timed.
RUN_TIMEOUT_S = 170


def build():
    if not os.path.isfile(os.path.join(REPO, "src", "CMakeLists.txt")):
        print("serve_bench: repository sources not found at " + os.path.join(REPO, "src"),
              file=sys.stderr)
        return None
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            return None
    jobs = str(min(4, os.cpu_count() or 1))
    compile_cmd = ["cmake", "--build", BUILD, "--target", "serve_bench", "-j", jobs]
    if subprocess.run(compile_cmd, stdout=sys.stderr).returncode != 0:
        return None
    return os.path.join(BUILD, "serve_bench")


def main():
    binary = build()
    if binary is None:
        return 1
    work_dir = os.path.join(BUILD, "work")
    os.makedirs(work_dir, exist_ok=True)
    try:
        return subprocess.run([binary, *sys.argv[1:], "--work-dir", work_dir],
                              timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("serve_bench: run exceeded %d s and was stopped" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
