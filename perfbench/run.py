#!/usr/bin/env python3
"""Builds the perfbench harness from source and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>
    python3 perfbench/run.py --selftest

Run it from the root of a checkout. The build tree is .bench_build/perfbench
(built on the first run, checked in about a second afterwards); on-disk
state of a run lives under .bench_build/perfbench-work and is removed when
the run ends; a traced run writes its spans and per-layer metrics to
.bench_build/perfbench-trace/<workload>-seed<n>.json. Build output goes to
stderr, so the last line of stdout is the harness's JSON result. The exit
code is the harness's (0 only when every output check passed), or 1 when
the build fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_ROOT = os.path.join(os.getcwd(), ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
# Compile jobs: enough for a reasonable first build, few enough to leave
# memory for neighbours.
JOBS = str(max(1, min(4, (os.cpu_count() or 2) - 1)))


def build():
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD_DIR, "--target", "perfbench", "-j", JOBS],
    ]
    for cmd in steps:
        result = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if result.returncode != 0:
            print("perfbench: build step failed: " + " ".join(cmd),
                  file=sys.stderr)
            return False
    return True


def main(argv):
    if not build():
        return 1
    binary = os.path.join(BUILD_DIR, "perfbench")
    args = list(argv)
    if "--selftest" not in args:
        args += ["--workdir", os.path.join(BUILD_ROOT, "perfbench-work")]
        if "--trace" in args and args[args.index("--trace") + 1:][:1] == ["1"]:
            trace_dir = os.path.join(BUILD_ROOT, "perfbench-trace")
            os.makedirs(trace_dir, exist_ok=True)
            workload = args[args.index("--workload") + 1] \
                if "--workload" in args else "unknown"
            seed = args[args.index("--seed") + 1] if "--seed" in args else "0"
            args += ["--trace_out",
                     os.path.join(trace_dir,
                                  "%s-seed%s.json" % (workload, seed))]
    sys.stdout.flush()
    return subprocess.run([binary] + args).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
