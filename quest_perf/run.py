#!/usr/bin/env python3
"""Build quest_perf from this checkout, then run one workload.

    python3 quest_perf/run.py --workload <name> --seed <n> --seconds <s> \\
        --trace <0|1> [--json file] [--chrome-trace file]

Run it from the root of a checkout. The build goes to
.bench_build/quest_perf (configured once, then brought up to date on
every run) and its output goes to stderr, so the last line of stdout is
the benchmark's own JSON result. Every argument is passed through to the
quest_perf binary. Exits non-zero, printing no result, when the build
fails or the checkout has no src/ beside quest_perf/.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "quest_perf"

# A shared machine: build with a few jobs, never more than four.
BUILD_JOBS = str(min(4, os.cpu_count() or 1))

# Compiler and tool temporaries stay inside the checkout too.
ENV = dict(os.environ, TMPDIR=str(BUILD / "tmp"))


def run(cmd):
    result = subprocess.run([str(c) for c in cmd], stdout=sys.stderr,
                            env=ENV)
    if result.returncode != 0:
        sys.exit(f"quest_perf: {' '.join(map(str, cmd))} failed "
                 f"({result.returncode})")


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        sys.exit(f"quest_perf: {ROOT} has no src/ to build; run from a "
                 "full checkout")
    (BUILD / "tmp").mkdir(parents=True, exist_ok=True)
    if not (BUILD / "CMakeCache.txt").is_file():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        run(["cmake", "-S", HERE, "-B", BUILD,
             "-DCMAKE_BUILD_TYPE=Release", *generator])
    run(["cmake", "--build", BUILD, "--target", "quest_perf",
         "-j", BUILD_JOBS])


def main():
    build()
    binary = BUILD / "quest_perf"
    result = subprocess.run([str(binary), "--workdir", str(BUILD / "work"),
                             *sys.argv[1:]], env=ENV)
    sys.exit(result.returncode)


if __name__ == "__main__":
    main()
