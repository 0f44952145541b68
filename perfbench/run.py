#!/usr/bin/env python3
"""PeerHood benchmark: builds the stack from this checkout's sources, runs
one workload for a fixed wall-clock budget, checks the program's outputs and
prints the result as the last line of standard output:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones. The
workloads are described in perfbench/driver.cpp. The build goes to
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench).
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("mobility-chaos", "churn")

END_TO_END = {
    "op_p50_ms": "ms",
    "op_p99_ms": "ms",
    "throughput_per_s": "1/s",
    "setup_s": "s",
}

PER_LAYER = {
    "medium_frames_per_op": "1/op",
    "medium_bytes_per_op": "B/op",
    "medium_inquiries_per_op": "1/op",
    "medium_drops_per_op": "1/op",
    "quality_evals_per_op": "1/op",
    "quality_cache_hit_share": "ratio",
    "fault_drops_per_op": "1/op",
    "net_frames_checked_per_op": "1/op",
    "net_corrupt_drops_per_op": "1/op",
    "fetches_per_op": "1/op",
    "not_modified_share": "ratio",
    "snapshot_cache_hit_share": "ratio",
    "handshakes_per_op": "1/op",
    "relayed_frames_per_op": "1/op",
    "handovers_per_op": "1/op",
    "reconnections_per_op": "1/op",
    "predictive_handover_share": "ratio",
    "session_restarts_per_op": "1/op",
    "outage_s_per_op": "s/op",
    "delivery_ratio": "ratio",
}


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    """Configures (once) and builds the driver; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "scenario", "scenario.hpp")):
        fail("PeerHood sources not found at " + os.path.join(ROOT, "src"))
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    out = os.path.join(target, "perfbench")
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", out, "-j", jobs])
    for step in steps:
        # Build output goes to stderr: stdout carries only the result.
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build step failed: " + " ".join(step))
    return os.path.join(out, "perfbench_driver")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    driver = build()
    command = [driver, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds)]
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True,
                              timeout=args.seconds + 120)
    except subprocess.TimeoutExpired:
        fail("driver did not finish in time")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail("driver exited with code %d" % proc.returncode)
    raw = json.loads(lines[-1])

    failed_checks = sorted(k for k, ok in raw["checks"].items() if not ok)
    if failed_checks:
        print("perfbench: failed checks: " + ", ".join(failed_checks),
              file=sys.stderr)
    correct = (not failed_checks and bool(raw["checks"])
               and raw["windows"] > 0 and raw["setups"] > 0)

    if args.trace:
        metrics = {name: {"value": raw["layers"][name], "unit": unit}
                   for name, unit in PER_LAYER.items()}
    else:
        metrics = {name: {"value": raw[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
    print(json.dumps({
        "correct": correct,
        "attempted": max(1, int(raw["attempted"])),
        "failed": int(raw["failed"]),
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
