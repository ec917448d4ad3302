#!/usr/bin/env python3
"""Build the qosbench program from source and run one workload.

Run from the root of a source checkout:

    python3 qosbench/run.py --workload fig3 --seed 1 --seconds 10 --trace 0

The program is configured and built with CMake into $CARGO_TARGET_DIR (default
`.bench_build`) under the checkout; later runs only re-check that build. Build
output goes to stderr, so the program's result JSON stays the last line of
stdout. Traced runs write the benchmark's own spans next to the build.

BENCHMARK.json is the one list of metric names and units: every metric the
program reports must be listed there with the same unit, every end-to-end
metric must be reported, and a per-layer metric the workload does not
exercise reads 0.
"""
import argparse
import fcntl
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def build(build_root):
    """Configure (once) and build the program; returns the binary path."""
    build_dir = os.path.join(build_root, "qosbench")
    os.makedirs(build_dir, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(os.path.join(build_root, "qosbench.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", build_dir,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", build_dir, "--target", "qosbench",
                      "-j", jobs])
        for step in steps:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
            if done.returncode != 0:
                if step[1] == "-S":
                    # A failed configure leaves a cache that would skip it next time.
                    cache = os.path.join(build_dir, "CMakeCache.txt")
                    if os.path.exists(cache):
                        os.remove(cache)
                sys.exit("qosbench: build step failed: " + " ".join(step))
    return os.path.join(build_dir, "qosbench")


def listed_metrics(result_line, trace):
    """The program's result with its metrics in BENCHMARK.json's list."""
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        listed = json.load(f)["per_layer" if trace else "end_to_end"]
    result = json.loads(result_line)
    units = {m["name"]: m["unit"] for m in listed}
    for name, metric in result["metrics"].items():
        if units.get(name) != metric["unit"]:
            sys.exit(f"qosbench: {name} [{metric['unit']}] is not a listed metric")
    metrics = {}
    for m in listed:
        if m["name"] in result["metrics"]:
            metrics[m["name"]] = result["metrics"][m["name"]]
        elif trace:
            metrics[m["name"]] = {"value": 0, "unit": m["unit"]}
        else:
            sys.exit(f"qosbench: the program did not report {m['name']}")
    result["metrics"] = metrics
    return json.dumps(result)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    build_root = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    binary = build(build_root)
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace,
               "--out", build_root]
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        sys.stdout.write(done.stdout)
        return done.returncode or 1
    for line in lines[:-1]:
        print(line)
    print(listed_metrics(lines[-1], args.trace == "1"), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
