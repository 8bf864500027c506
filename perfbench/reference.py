#!/usr/bin/env python3
"""Reference figures: several seeded runs per workload, summarised.

Usage, from the root of a plastiproj checkout:

    python3 perfbench/reference.py [--seeds 1-10] [--trace 0|1]

Runs ``run.py`` once per workload of BENCHMARK.json and seed, one run at a
time, with the run length from BENCHMARK.json, and prints one markdown row
per metric: the median, the first and third quartiles, and the spread
(third minus first quartile, as a share of the median).  For end-to-end
metrics it also prints the bound and whether the spread is below a third of
it, the steadiness the benchmark is tuned to.  Every run's JSON line is appended to
``perfbench/results/reference.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    os.makedirs(os.path.join(HERE, "results"), exist_ok=True)
    log = os.path.join(HERE, "results", "reference.jsonl")
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    for workload in (w["name"] for w in bench["workloads"]):
        runs = []
        for seed in parse_seeds(args.seeds):
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(bench["run_seconds"]),
                   "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}", file=sys.stderr)
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            with open(log, "a") as fh:
                fh.write(json.dumps({"workload": workload, "seed": seed,
                                     "trace": args.trace, **result}) + "\n")
            runs.append(result)
        failed = sorted({r["failed"] / r["attempted"] for r in runs})
        print(f"\n### {workload}: {len(runs)} runs, correct={all(r['correct'] for r in runs)},"
              f" failed shares {failed}\n")
        print("| metric | unit | median | q1 | q3 | spread | bound | steady |")
        print("| --- | --- | --- | --- | --- | --- | --- | --- |")
        for name, first in runs[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in runs]
            med = statistics.median(values)
            if len(values) > 1:
                q1, _, q3 = statistics.quantiles(values, n=4)
            else:
                q1 = q3 = med
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds.get(name)
            steady = "" if bound is None else ("yes" if spread < bound / 3 else "NO")
            print(f"| {name} | {first['unit']} | {med:.6g} | {q1:.6g} | {q3:.6g} | "
                  f"{spread:.4f} | {'' if bound is None else bound} | {steady} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
