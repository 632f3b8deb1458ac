#!/usr/bin/env python3
"""Steadiness self-check: the deterministic per-layer work counters repeat
exactly across two traced runs of one seed, and change with the seed.

    python3 perfbench/check_counters.py [--seconds S] [WORKLOAD ...]

Run from the root of a checkout. For each workload (default: all three)
this makes three traced runs through perfbench/run.py: seed 1 twice and
seed 2 once. It fails (exit 1) when a run is not correct, when a counter
differs between the two seed-1 runs, or when no counter differs between
seed 1 and seed 2.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("packet_convert", "fluid_trace", "repair_storm")
# Per-layer metrics that are counts or ratios of counts, not host times.
COUNTERS = (
    "routing.pairs_computed", "routing.hit_ratio", "routing.pairs_evicted",
    "fluid.reallocs", "fluid.full_resolve_ratio", "fluid.links_per_realloc",
    "packet.events", "packet.events_per_pkt", "packet.heap_max",
    "packet.drops", "control.compiles", "control.repairs",
    "control.repair.evict_ratio", "conv_exec.steps",
    "conv_exec.step_attempts", "conv_exec.replan_pairs",
)


def counters(workload, seed, seconds):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "1"],
        capture_output=True, text=True, check=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        sys.exit(f"{workload} seed {seed}: run not correct\n{out.stderr}")
    return {name: result["metrics"][name]["value"] for name in COUNTERS}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("workloads", nargs="*", default=WORKLOADS)
    args = parser.parse_args()
    failures = 0
    for workload in args.workloads:
        first = counters(workload, 1, args.seconds)
        again = counters(workload, 1, args.seconds)
        other = counters(workload, 2, args.seconds)
        unsteady = [n for n in COUNTERS if first[n] != again[n]]
        moved = [n for n in COUNTERS if first[n] != other[n]]
        if unsteady:
            print(f"FAIL {workload}: counters differ across runs of one "
                  f"seed: {', '.join(unsteady)}")
            failures += 1
        if not moved:
            print(f"FAIL {workload}: no counter changes with the seed")
            failures += 1
        if not unsteady and moved:
            print(f"ok   {workload}: {len(COUNTERS)} counters repeat; "
                  f"{len(moved)} change with the seed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
