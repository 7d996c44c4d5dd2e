#!/usr/bin/env python3
"""CloudMedia benchmark runner.

Builds the simulator and the benchmark binary from this checkout, runs one
workload repeatedly for a fixed time (each repetition in its own process),
checks every output, and prints one JSON result as the last line of stdout:

    python3 perfbench/run.py --workload cs_week_discrete --seed 42 \
        --seconds 30 --trace 0

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer metrics from traced repetitions. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD_DIR, "perfbench")
# Repetitions run even when one takes longer than --seconds, so a median
# exists; traced repetitions cost two runs each, so fewer are required.
MIN_REPS = {False: 3, True: 1}
# Every repetition must end within this many seconds of the first one
# starting, which keeps a whole invocation under three minutes.
RUN_BUDGET_S = 165.0


def median(values):
    return statistics.median(values)


def quartiles(values):
    """First quartile, median and third quartile, as the acceptance check
    computes them."""
    return statistics.quantiles(values, n=4)


def relative_spread(values):
    """Distance between the first and third quartile, as a share of the
    median."""
    q1, _, q3 = quartiles(values)
    return (q3 - q1) / median(values)


def log(message):
    print(message, file=sys.stderr, flush=True)


def require_sources():
    needed = ["CMakeLists.txt", "src", "profiles", "goldens", "BENCHMARK.json"]
    missing = [p for p in needed if not os.path.exists(os.path.join(ROOT, p))]
    if missing:
        log("perfbench: the checkout lacks " + ", ".join(missing) +
            "; run from a full source checkout")
        sys.exit(2)


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD_DIR, "--target", "perfbench",
                    "-j", jobs], check=True, stdout=sys.stderr)


def source_hash():
    """Content hash of the simulator and benchmark sources, which names the
    code measured when the checkout carries no git metadata."""
    digest = hashlib.sha256()
    for top in ("src", os.path.join("perfbench", "src")):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()[:16]


def commit():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def run_rep(workload, seed, trace, out_dir, timeout):
    """One repetition in its own process; returns its record, or None when
    the process failed (its stderr is forwarded)."""
    cmd = [BINARY, "--workload=" + workload, "--seed=" + str(seed),
           "--root=" + ROOT, "--out=" + out_dir]
    if trace:
        cmd.append("--trace")
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        log("perfbench: repetition timed out")
        return None
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        log("perfbench: repetition exited with code %d" % proc.returncode)
        return None
    return json.loads(lines[-1])


def aggregate(records, declared, failed_frac):
    """Median of each declared metric over the repetitions. Per-layer
    metrics a workload does not exercise read 0 and are listed apart."""
    metrics, absent = {}, []
    for entry in declared:
        name = entry["name"]
        if name == "failed_frac":
            value = failed_frac
        else:
            values = [r["metrics"][name] for r in records if name in r["metrics"]]
            if values:
                value = median(values)
            else:
                absent.append(name)
                value = 0.0
        metrics[name] = {"value": value, "unit": entry["unit"]}
    return metrics, absent


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    require_sources()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        log("perfbench: unknown workload %r (one of %s)" %
            (args.workload, ", ".join(names)))
        return 2
    trace = bool(args.trace)
    declared = spec["per_layer"] if trace else spec["end_to_end"]

    build()

    out_dir = os.path.join(BUILD_DIR, "out", "%s-%d" % (args.workload, os.getpid()))
    records, attempted, failed, failures = [], 0, 0, []
    start = time.monotonic()
    longest = 0.0
    try:
        while True:
            elapsed = time.monotonic() - start
            if len(records) >= MIN_REPS[trace] and elapsed + longest > args.seconds:
                break
            if records and elapsed + longest > RUN_BUDGET_S:
                break
            rep_start = time.monotonic()
            record = run_rep(args.workload, args.seed, trace, out_dir,
                             RUN_BUDGET_S - elapsed)
            longest = max(longest, time.monotonic() - rep_start)
            if record is None:
                attempted += 1
                failed += 1
                failures.append("repetition %d did not finish" % (len(records) + 1))
                break
            records.append(record)
            attempted += record["attempted"]
            failed += record["failed"]
            failures += record["failures"]
        if trace and records:
            spans = os.path.join(BUILD_DIR, "spans")
            os.makedirs(spans, exist_ok=True)
            shutil.copyfile(os.path.join(out_dir, "spans.csv"),
                            os.path.join(spans, "%s-seed%d.csv" % (args.workload, args.seed)))
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    if not records:
        log("perfbench: no repetition finished")
        return 1

    metrics, absent = aggregate(records, declared, failed / max(attempted, 1))
    calib = [r["metrics"]["host.calib_ns"] for r in records]
    spread = {}
    if len(records) >= 2:
        for name in metrics:
            values = [r["metrics"][name] for r in records if name in r["metrics"]]
            if len(values) == len(records) and median(values) != 0:
                spread[name] = relative_spread(values)
    print(json.dumps({"record": {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "repetitions": len(records),
        "nproc": os.cpu_count(),
        "compiler": records[0]["compiler"],
        "build_type": records[0]["build_type"],
        "commit": commit(),
        "source_hash": source_hash(),
        "host.calib_ns": median(calib),
        "per_repetition": [r["metrics"] for r in records],
        "spread_over_repetitions": spread,
        "not_measured_here": absent,
        "failures": failures[:20],
    }}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
