#!/usr/bin/env python3
"""Measure how steady the benchmark's metrics are.

Runs every chosen workload repeatedly in two interleaved sets (A and B) with
the same seeds, then prints per workload and metric each set's median,
quartiles and quartile spread (IQR / median), and the gap between the two
sets' medians (B / A - 1). Run from the root of a source checkout:

    python3 qosbench/steadiness.py --runs 10
    python3 qosbench/steadiness.py --workloads city_sharded --runs 5

Seeds run from 1 to --runs, without tracing, for BENCHMARK.json's
run_seconds unless --seconds says otherwise. The spreads and gaps are the
evidence for the end-to-end bounds in BENCHMARK.json: every spread and
every gap should stay well inside its metric's bound. Each run's full output
is kept under the build directory ($CARGO_TARGET_DIR, default .bench_build)
in steadiness/.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def run_once(workload, seed, seconds, log_dir):
    command = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    start = time.monotonic()
    done = subprocess.run(command, capture_output=True, text=True)
    elapsed = time.monotonic() - start
    with open(os.path.join(log_dir, f"{workload}-{seed}-{int(start * 1000)}.log"), "w") as log:
        log.write(done.stdout)
        log.write(done.stderr)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.exit(f"steadiness: {workload} seed {seed} failed (exit {done.returncode}):\n"
                 + done.stderr[-2000:])
    result = json.loads(lines[-1])
    result["elapsed_s"] = elapsed
    return result


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else float("nan")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+",
                        help="default: the workloads BENCHMARK.json lists")
    parser.add_argument("--runs", type=int, default=10, help="runs per set and workload")
    parser.add_argument("--seconds", type=int,
                        help="default: BENCHMARK.json's run_seconds")
    args = parser.parse_args()

    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    if not args.workloads:
        args.workloads = [w["name"] for w in bench["workloads"]]
    if args.seconds is None:
        args.seconds = bench["run_seconds"]
    log_dir = os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "steadiness")
    os.makedirs(log_dir, exist_ok=True)

    seeds = list(range(1, args.runs + 1))
    results = {w: {"A": [], "B": []} for w in args.workloads}
    for i, seed in enumerate(seeds):
        order = ("A", "B") if i % 2 == 0 else ("B", "A")
        for label in order:
            for workload in args.workloads:
                r = run_once(workload, seed, args.seconds, log_dir)
                results[workload][label].append(r)
                print(f"# set {label} {workload} seed {seed}: correct={r['correct']} "
                      f"attempted={r['attempted']} failed={r['failed']} "
                      f"({r['elapsed_s']:.1f} s)", flush=True)

    verdict = 0
    print(f"\n{'workload':14} {'metric':34} {'set':3} {'median':>12} {'q1':>12} "
          f"{'q3':>12} {'spread':>8} {'gap':>8} {'bound':>6}")
    for workload in args.workloads:
        sets = results[workload]
        shares = {label: sorted({r["failed"] / r["attempted"] for r in runs})
                  for label, runs in sets.items()}
        wrong = sum(not r["correct"] for runs in sets.values() for r in runs)
        names = list(sets["A"][0]["metrics"])
        for name in names:
            meds = {}
            for label in ("A", "B"):
                values = [r["metrics"][name]["value"] for r in sets[label]]
                med, q1, q3, rel = spread(values)
                meds[label] = med
                gap = (meds["B"] / meds["A"] - 1.0) if label == "B" and meds["A"] else None
                bound = bounds.get(name)
                gap_text = f"{gap:+8.2%}" if gap is not None else " " * 8
                bound_text = f"{bound:6.2f}" if bound is not None else " " * 6
                print(f"{workload:14} {name:34} {label:3} {med:12.6g} {q1:12.6g} "
                      f"{q3:12.6g} {rel:8.2%} {gap_text} {bound_text}")
                if bound is not None and rel > bound:
                    verdict = 1
                if bound is not None and gap is not None and abs(gap) > bound:
                    verdict = 1
        print(f"{workload:14} failed shares A={shares['A']} B={shares['B']}; "
              f"incorrect runs: {wrong}")
        if shares["A"] != shares["B"] or wrong:
            verdict = 1
    print("\nsteady within bounds" if verdict == 0 else "\nNOT steady within bounds")
    return verdict


if __name__ == "__main__":
    sys.exit(main())
