#!/usr/bin/env python3
"""Runs workloads over several seeds and reports each metric's spread.

Usage, from the root of a checkout:

    python3 perfbench/spread.py --seeds 1-10 [--seconds 20] [--trace 0] \\
        [--save set1.json] [--against set0.json] [workload ...]
    python3 perfbench/spread.py --load set1.json --against set0.json

For each workload and end-to-end metric it prints the median over the runs
and the spread: the distance between the first and third quartile (as
`statistics.quantiles(values, n=4)` gives them) as a share of the median.
A spread above the metric's bound in BENCHMARK.json is marked `!`; one above
a third of the bound is marked `~`. A third is the margin to aim for: two
sets whose medians each sit anywhere inside their quartiles can then still
differ by less than the bound. Rows `raw.<metric>` give the same metrics
from wall times before host-speed scaling, and `host_speed` the run's
calibration speed (1.0 is the reference), so a reader sees how much of the
hosts' noise the scaling took out.

`--save` writes the runs' values to a file; `--load` reads them instead of
running. `--against` compares the medians with an earlier saved set and
prints by how much each metric got worse (a share of the earlier median,
negative when it got better), marked `!` when that is more than the bound.
All workloads run by default; the runs of one seed are made back to back.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_set(args):
    values = {}
    for seed in args.seeds:
        for w in args.workloads:
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", w,
                   "--seed", str(seed), "--seconds", str(args.seconds), "--trace", args.trace]
            run = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
            if run.returncode != 0:
                sys.exit(f"{w} seed {seed}: exit {run.returncode}")
            lines = run.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            detail = json.loads(lines[-2])
            if not result["correct"] or result["failed"]:
                print(f"{w} seed {seed}: NOT CORRECT ({result['failed']} failed)", flush=True)
            for name, m in result["metrics"].items():
                values.setdefault(w, {}).setdefault(name, []).append(m["value"])
            # The wall times before host-speed scaling, for comparison.
            for name, v in detail.get("raw", {}).items():
                values[w].setdefault("raw." + name, []).append(v)
            if "host_speed" in detail:
                values[w].setdefault("host_speed", []).append(detail["host_speed"])
            print(f"{w} seed {seed}: " + " ".join(
                f"{n}={m['value']:.4g}" for n, m in result["metrics"].items()), flush=True)
    return values


def spread(v):
    med = statistics.median(v)
    if len(v) < 2 or not med:
        return med, 0.0
    q = statistics.quantiles(v, n=4)
    return med, (q[2] - q[0]) / med


def main():
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        bench = json.load(f)
    p = argparse.ArgumentParser()
    p.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    p.add_argument("--seconds", type=int, default=bench["run_seconds"])
    p.add_argument("--trace", default="0")
    p.add_argument("--save")
    p.add_argument("--load")
    p.add_argument("--against")
    p.add_argument("workloads", nargs="*", default=[w["name"] for w in bench["workloads"]])
    args = p.parse_args()
    metrics = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}

    if args.load:
        with open(args.load) as f:
            values = json.load(f)
    else:
        values = run_set(args)
    if args.save:
        with open(args.save, "w") as f:
            json.dump(values, f, indent=1)
    before = None
    if args.against:
        with open(args.against) as f:
            before = json.load(f)

    head = f"\n{'workload':<12} {'metric':<34} {'median':>12} {'spread':>8} {'bound':>6}"
    print(head + (f" {'worse by':>9}" if before else ""))
    for w, by_metric in values.items():
        for name, v in by_metric.items():
            med, s = spread(v)
            m = metrics.get(name, {})
            bound = m.get("bound")
            flag = "  "
            if bound is not None:
                flag = " !" if s > bound else " ~" if s > bound / 3 else "  "
            line = f"{w:<12} {name:<34} {med:>12.4f} {s:>8.3f} {bound if bound is not None else '-':>6}{flag}"
            old = (before or {}).get(w, {}).get(name)
            if old:
                base = statistics.median(old)
                worse = (med - base) / base if base else 0.0
                if m.get("better") == "higher":
                    worse = -worse
                mark = " !" if bound is not None and worse > bound else ""
                line += f" {worse:>+9.3f}{mark}"
            print(line)


if __name__ == "__main__":
    main()
