#!/usr/bin/env python3
"""Benchmark of the plastiproj CLI drivers, end to end and layer by layer.

Usage, from the root of a plastiproj checkout:

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Writes the workload's config for the seed and starts a fresh process
(``worker.py``) that times set-up, then makes whole driver calls until S
seconds have passed, checking each call's outputs.  With ``--trace 0`` it
reports the median over the calls of each end-to-end metric.  With
``--trace 1`` it alternates processes that make one untraced call and one
traced call until S seconds have passed, and reports the median of each
per-layer metric plus the tracing overhead.  The config, the environment,
every call's record and (traced) the span file go to
``perfbench/results/<workload>_seed<N>_trace<0|1>/``.  The last line of
standard output is one JSON object: correct, attempted, failed and metrics.
Exit code 2 means the checkout has no plastiproj sources or the arguments
are wrong; 1 means a worker crashed, no driver call returned, or the run
passed the time limit.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# every run ends within this many seconds, whatever --seconds asks
HARD_LIMIT_S = 170.0
# BLAS threads per worker; fixed so that a call's time does not depend on
# how the machine's other load moves OpenBLAS's thread count
BLAS_THREADS = "1"


def environment(workload: str, cfg: dict) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        "machine": platform.machine(),
        "workload": workloads.describe(workload, cfg),
    }


def run_worker(workload, config_path, out_dir, deadline, seconds=0.0, traced=False):
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
           "--config", config_path, "--out", out_dir, "--seconds", repr(seconds)]
    env = dict(os.environ, OPENBLAS_NUM_THREADS=BLAS_THREADS,
               OMP_NUM_THREADS=BLAS_THREADS, MKL_NUM_THREADS=BLAS_THREADS)
    proc = subprocess.run(cmd + (["--trace"] if traced else []), cwd=ROOT, env=env,
                          stdout=subprocess.PIPE, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def median_of(records, key):
    return statistics.median(r[key] for r in records)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.DRIVERS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "plastiproj", "harness_cli.py")):
        print(f"perfbench: no plastiproj sources in {ROOT}/src; run it from the root of "
              "a plastiproj checkout", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    wanted = bench["per_layer"] if args.trace else bench["end_to_end"]

    begin = time.monotonic()
    deadline = begin + HARD_LIMIT_S
    run_dir = os.path.join(HERE, "results", f"{args.workload}_seed{args.seed}_trace{args.trace}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    cfg = workloads.make_config(args.workload, args.seed)
    config_path = os.path.join(run_dir, "config.json")
    with open(config_path, "w") as fh:
        json.dump(cfg, fh, indent=2)
    env = environment(args.workload, cfg)
    print("environment: " + json.dumps(env))

    out_dir = os.path.join(run_dir, "out")
    plain, traced = [], []
    try:
        if args.trace:
            while not plain or time.monotonic() - begin < args.seconds:
                plain.append(run_worker(args.workload, config_path, out_dir, deadline))
                traced.append(run_worker(args.workload, config_path, out_dir, deadline,
                                         traced=True))
        else:
            plain.append(run_worker(args.workload, config_path, out_dir, deadline,
                                    seconds=max(0.0, args.seconds - (time.monotonic() - begin))))
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {args.workload}: {exc}", file=sys.stderr)
        return 1

    workers = plain + traced
    calls = [c for w in workers for c in w["calls"]]
    attempted = sum(w["rows"] * len(w["calls"]) for w in workers)
    failed = sum(c["failed"] for c in calls)
    # a row that failed its check, or a driver that raised, makes the run wrong
    correct = failed == 0
    for c in calls:
        for problem in c["problems"]:
            print(f"perfbench: {args.workload}: {problem}", file=sys.stderr)

    def completed(group):
        """Calls of the group whose driver returned; times of raised calls are not kept."""
        return [c for w in group for c in w["calls"] if c["completed"]]

    if not completed(plain) or (args.trace and not completed(traced)):
        print(f"perfbench: {args.workload}: no driver call returned", file=sys.stderr)
        return 1
    untraced_wall = median_of(completed(plain), "wall_s")
    if args.trace:
        values = {name: statistics.median(w["layers"][name] for w in traced)
                  for name in traced[0]["layers"]}
        values["trace.wall_s"] = median_of(completed(traced), "wall_s")
        values["trace.untraced_wall_s"] = untraced_wall
        values["trace.overhead_s"] = values["trace.wall_s"] - untraced_wall
        values["trace.overhead_share"] = values["trace.overhead_s"] / untraced_wall
    else:
        values = {
            "wall_s": untraced_wall,
            "cpu_s": median_of(completed(plain), "cpu_s"),
            # the first call's reading: later calls reuse the process's memory
            "peak_rss_mb": statistics.median(w["calls"][0]["peak_rss_mb"] for w in plain),
            "setup_s": statistics.median(t for w in plain for t in w["setup_s"]),
        }
    missing = {m["name"] for m in wanted} ^ set(values)
    if missing:
        raise RuntimeError(f"metrics and BENCHMARK.json disagree on {sorted(missing)}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    summary = {"correct": correct, "attempted": attempted, "failed": failed,
               "metrics": metrics}
    with open(os.path.join(run_dir, "result.json"), "w") as fh:
        json.dump({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                   "seconds": args.seconds, "environment": env, "workers": workers,
                   **summary}, fh, indent=1)
    for name, m in metrics.items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}")
    print(f"{args.workload}: {len(workers)} processes, {len(calls)} driver calls, "
          f"{attempted} rows, {failed} failed")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
