#!/usr/bin/env python3
"""Run the benchmark on several seeds and report each metric's spread.

For every metric: the median over the runs and the distance between the
first and third quartile (statistics.quantiles(values, n=4)) as a share of
the median, next to the metric's bound from BENCHMARK.json. A benchmark is
steady when every spread stays below a third of its bound.

    python3 perfbench/spread.py --workload serve-topk --seeds 1-5 [--trace 0]

Run from the root of the checkout. Prints one line per run and a table.
A run whose result line does not hold exactly the metrics and units that
BENCHMARK.json lists for its trace mode stops the script.
A run that exits nonzero stops the script: it had a wrong answer, or its
load generator fell behind its schedule on every try, and such a run has
no valid figures.
"""

import argparse
import json
import statistics
import subprocess
import sys


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace", default="0")
    ap.add_argument("--seconds", type=int)
    args = ap.parse_args()

    bench = json.load(open("BENCHMARK.json"))
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"] + bench["per_layer"]}
    listed = bench["end_to_end"] if args.trace == "0" else bench["per_layer"]
    want = {m["name"]: m["unit"] for m in listed}
    values = {}
    for seed in seeds(args.seeds):
        cmd = bench["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", args.trace,
        ]
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        lines = out.stdout.strip().splitlines()
        if out.returncode != 0 or not lines:
            sys.exit(f"seed {seed}: exit {out.returncode}\n{out.stderr[-2000:]}")
        result = json.loads(lines[-1])
        if not result["correct"]:
            sys.exit(f"seed {seed}: wrong answers")
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        if got != want:
            sys.exit(f"seed {seed}: result metrics {got} are not BENCHMARK.json's {want}")
        short = {k: round(v["value"], 4) for k, v in result["metrics"].items()}
        print(f"seed {seed}: failed {result['failed']}/{result['attempted']} {short}", flush=True)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        # The workload's own metrics, without a bound, ride in the line before.
        info = json.loads(lines[-2]) if len(lines) > 1 else {}
        for name, m in info.get("by_name", {}).items():
            values.setdefault(f"{name} (by name)", []).append(m["value"])

    print(f"\n{'metric':<36} {'median':>14} {'iqr/median':>11} {'bound':>6}")
    for name, vs in values.items():
        med = statistics.median(vs)
        q1, _, q3 = statistics.quantiles(vs, n=4) if len(vs) > 1 else (med, med, med)
        spread = (q3 - q1) / abs(med) if med else float("nan")
        bound = bounds.get(name)
        flag = "" if bound is None or spread < bound / 3 else "  <-- over a third of the bound"
        print(f"{name:<36} {med:>14.6g} {spread:>11.4f} {bound if bound is not None else '-':>6}{flag}")


if __name__ == "__main__":
    main()
