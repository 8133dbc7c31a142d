#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload campaign-equal-evals|serve-repeat \
        --seed N --seconds S --trace 0|1 [perfbench options...]

Run from the root of a checkout. The first run configures and builds
perfbench/CMakeLists.txt (the library straight from src/) into .bench_build/;
later runs rebuild only what changed. The build log goes to stderr, so the
last line of stdout is the benchmark's JSON result. The exit status is the
benchmark's: 0 when every check passed, 1 when an op failed a check, 2 on a
usage or set-up error; a failed build exits non-zero without a result.
"""
import fcntl
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build"
BINARY = BUILD_DIR / "perfbench"


def build():
    """Configures once and builds the perfbench target; returns the exit code."""
    BUILD_DIR.mkdir(exist_ok=True)
    with open(BUILD_DIR / ".lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not (BUILD_DIR / "Makefile").exists():
            steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", str(BUILD_DIR), "--target", "perfbench",
                      "-j", "4"])
        for step in steps:
            code = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode
            if code != 0:
                return code
    return 0


def main(argv):
    code = build()
    if code != 0:
        print(f"perfbench: build failed ({code})", file=sys.stderr)
        return code
    cmd = [str(BINARY), "--workdir", str(Path(".bench_build") / "work")] + argv
    return subprocess.run(cmd, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
