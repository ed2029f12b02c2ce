#!/usr/bin/env python3
"""OpenIMA benchmark: build the harness from source, run one workload.

    python3 perfbench/run.py --workload train_full --seed 1 --seconds 10 --trace 0

Run from the root of a repository checkout. The harness (perfbench/*.cc,
linked against the library built from src/) is configured and built as a
Release build under .bench_build/perfbench the first time; later runs only
rebuild what changed. --trace 0 prints the end-to-end metrics, --trace 1
the per-layer metrics of a traced replay (see perfbench/README.md).

The last line of standard output is one JSON object with exactly the keys
correct, attempted, failed and metrics. Each run's full record (metrics,
prediction checksum, failed checks, provenance) is also written to
.bench_build/perfbench/results/. A ledger of prediction checksums per
(binary, workload, seed) checks that every run of one seed with one build —
traced or untraced — predicts exactly the same classes.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
OUT_DIR = os.path.join(BUILD_DIR, "out")
RESULTS_DIR = os.path.join(BUILD_DIR, "results")
LEDGER = os.path.join(BUILD_DIR, "checksums.json")
BINARY = os.path.join(BUILD_DIR, "openima_perfbench")
WORKLOADS = ("train_full", "train_sampled", "train_dp", "serve")
# The whole run, build included, must end well inside 180 s.
HARNESS_TIMEOUT_S = 170


def die(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    for needed in ("CMakeLists.txt", os.path.join("src", "core", "openima.h"),
                   os.path.join("perfbench", "CMakeLists.txt")):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            die("%s not found: run from the root of a repository checkout"
                % needed)
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target",
                  "openima_perfbench", "-j", jobs])
    for cmd in steps:
        # Build output goes to stderr: stdout carries only the results.
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            die("build failed: " + " ".join(cmd))


def binary_digest():
    h = hashlib.sha256()
    with open(BINARY, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()[:16]


def git_sha():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    return out.stdout.strip() if out.returncode == 0 else "none"


def check_ledger(key, workload, seed, checksum):
    """True when `checksum` agrees with every earlier run of this seed."""
    ledger = {}
    if os.path.isfile(LEDGER):
        with open(LEDGER) as f:
            ledger = json.load(f)
    runs = ledger.setdefault(key, {}).setdefault(workload, {})
    seen = runs.setdefault(str(seed), checksum)
    with open(LEDGER, "w") as f:
        json.dump(ledger, f, indent=1, sort_keys=True)
    return seen == checksum


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    leaked = sorted(k for k in os.environ if k.startswith("OPENIMA_"))
    if leaked:
        die("refusing to run with %s set" % ", ".join(leaked))
    build()
    os.makedirs(OUT_DIR, exist_ok=True)
    os.makedirs(RESULTS_DIR, exist_ok=True)

    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--out-dir", OUT_DIR]
    started = time.monotonic()
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=HARNESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die("harness did not finish within %d s" % HARNESS_TIMEOUT_S)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        die("harness exited with code %d" % proc.returncode)
    record = json.loads(lines[-1])
    for line in lines[:-1]:
        print(line)

    key = binary_digest()
    if not check_ledger(key, args.workload, args.seed, record["checksum"]):
        record["correct"] = False
        record["problems"].append(
            "check failed: prediction checksum differs from an earlier run "
            "of seed %d with this build" % args.seed)
    for problem in record["problems"]:
        print("perfbench: " + problem, file=sys.stderr)

    record["provenance"]["git_sha"] = git_sha()
    record["provenance"]["binary"] = key
    record["provenance"]["wall_s"] = time.monotonic() - started
    name = "%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace)
    with open(os.path.join(RESULTS_DIR, name), "w") as f:
        json.dump(record, f, indent=1)

    result = {k: record[k] for k in ("correct", "attempted", "failed",
                                     "metrics")}
    print(json.dumps(result))


if __name__ == "__main__":
    main()
