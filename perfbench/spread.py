#!/usr/bin/env python3
"""Run workloads over several seeds and report each metric's spread.

    python3 perfbench/spread.py [--seeds 10] [--trace 0] [--first-seed 1] [workload ...]

Run from the repository root. For every workload (default: all in
BENCHMARK.json) it runs perfbench/run.py once per seed, one run at a time,
and prints, per metric, the median and the distance between the first and
third quartile as a share of the median -- the spread a metric's bound in
BENCHMARK.json must exceed. It also prints each run's trajectory
fingerprints and any run that failed. Raw results go to
perfbench/out/spread-<workload>.jsonl.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds, trace):
    command = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(command, capture_output=True, text=True, cwd=ROOT)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        return None, done.stderr.strip().splitlines()[-5:], []
    trajectories = sorted({l for l in lines if l.startswith("trajectory: ")})
    timed = [l for l in lines if l.startswith("timed calls: ")]
    return json.loads(lines[-1]), trajectories, timed


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("workloads", nargs="*")
    args = parser.parse_args()
    workloads = args.workloads or [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)

    for workload in workloads:
        values = {}
        fingerprints = set()
        raw_path = os.path.join(HERE, "out", f"spread-{workload}.jsonl")
        with open(raw_path, "a") as raw:
            for seed in range(args.first_seed, args.first_seed + args.seeds):
                result, extra, timed = run_once(workload, seed, bench["run_seconds"], args.trace)
                if result is None:
                    print(f"{workload} seed {seed}: FAILED: {extra}")
                    continue
                record = {"seed": seed, "result": result, "trajectories": extra, "timed": timed}
                raw.write(json.dumps(record) + "\n")
                fingerprints.update(extra)
                if not result["correct"] or result["failed"]:
                    print(f"{workload} seed {seed}: incorrect, {result['failed']} failed")
                for name, m in result["metrics"].items():
                    values.setdefault(name, []).append(m["value"])
        print(f"== {workload}: {args.seeds} seeds, {len(fingerprints)} distinct trajectories")
        for fp in fingerprints:
            print(f"   {fp}")
        for name, vs in values.items():
            med = statistics.median(vs)
            if len(vs) >= 2 and med:
                q1, _, q3 = statistics.quantiles(vs, n=4)
                spread = (q3 - q1) / med
            else:
                spread = float("nan")
            bound = bounds.get(name)
            verdict = "" if bound is None else ("ok" if spread < bound / 3 else "WIDE")
            print(f"   {name:28s} median {med:<14.6g} spread {spread:7.3f}  "
                  f"bound {bound}  {verdict}")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
