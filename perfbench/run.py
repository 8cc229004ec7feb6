#!/usr/bin/env python3
"""End-to-end benchmark of the SHG toolchain.

Builds perfbench/ (which compiles the library from the repository's
sources) into .bench_build/ and runs one workload, or all four in turn
when --workload is left out:

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The last stdout line is one JSON object: correct, attempted, failed and the
metrics (end-to-end with --trace 0, per-layer with --trace 1). Result files
with the host stamp, and the span dump of traced runs, land in
.bench_build/results/.

  python3 perfbench/run.py --record [--workload NAME]

re-records perfbench/reference.txt (output digests and exact work counters
of every workload, or of one, on every seed variant) from the current
sources.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
RESULTS = os.path.join(ROOT, ".bench_build", "results")
BINARY = os.path.join(BUILD, "shg_perfbench")
REFERENCE = os.path.join(HERE, "reference.txt")
WORKLOADS = ["campaign", "sim_large", "dse_greedy", "serve_mix"]
VARIANTS = 16  # seeds map onto this many input variants (main.cpp)
# A run may outlast --seconds by its minimum passes and traced probes.
RUN_MARGIN_S = 160


def fail(message):
    sys.stderr.write("perfbench: %s\n" % message)
    sys.exit(1)


def build():
    steps = [["cmake", "--build", BUILD, "-j", str(min(4, os.cpu_count() or 1))]]
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.insert(0, ["cmake", "-S", HERE, "-B", BUILD,
                         "-DCMAKE_BUILD_TYPE=Release"])
    for step in steps:
        proc = subprocess.run(step, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout)
            fail("build failed")


def commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "none (not a git checkout)"
    proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True)
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def record(workloads):
    lines = {}
    if os.path.exists(REFERENCE):
        with open(REFERENCE) as f:
            for line in f:
                if line.strip():
                    lines[tuple(line.split()[:2])] = line.strip()
    for workload in workloads:
        for variant in range(VARIANTS):
            proc = subprocess.run([BINARY, "--workload", workload, "--seed",
                                   str(variant), "--record"],
                                  stdout=subprocess.PIPE, text=True)
            if proc.returncode != 0:
                fail("recording %s %d failed" % (workload, variant))
            lines[(workload, str(variant))] = proc.stdout.strip()
            print(proc.stdout.strip(), flush=True)
    with open(REFERENCE, "w") as f:
        for workload in WORKLOADS:
            for variant in range(VARIANTS):
                if (workload, str(variant)) in lines:
                    f.write(lines[(workload, str(variant))] + "\n")


def run(workload, args):
    timeout = args.seconds + RUN_MARGIN_S
    try:
        proc = subprocess.run(
            [BINARY, "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--benchmark", os.path.join(ROOT, "BENCHMARK.json"),
             "--reference", REFERENCE, "--results", RESULTS,
             "--commit", commit()],
            stdout=subprocess.PIPE, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        fail("run exceeded %g s" % timeout)
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0:
        fail("benchmark exited with code %d" % proc.returncode)
    try:
        json.loads(lines[-1])
    except ValueError:
        fail("no result line")
    print(proc.stdout, end="", flush=True)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="default: all four, one after another")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args()
    workloads = [args.workload] if args.workload else WORKLOADS

    build()
    if args.record:
        record(workloads)
        return
    os.makedirs(RESULTS, exist_ok=True)
    for workload in workloads:
        run(workload, args)


if __name__ == "__main__":
    main()
