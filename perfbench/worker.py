"""Driver calls of one workload, in a process of its own.

Usage: python3 perfbench/worker.py --workload W --config C --out DIR
                                   [--seconds S] [--trace]

Times a burst of set-ups (``parse_config`` plus ``stepper.initial_state``),
then makes the workload's driver call, times it and checks every output
row.  Repeats both until S seconds have passed since the first call began.
The process's peak resident memory is read right after each call, before
its checks; the first call's reading belongs to one call of this workload
alone.  With
``--trace`` it makes a single call with the calls into each layer recorded
as spans, computes the per-layer metrics from them and writes the spans to
``DIR/../spans.npz``.  The last line of standard output is one JSON record.
``run.py`` starts this script, one fresh process per set of calls.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

# A set-up burst repeats the set-up until SETUP_BURST_S has passed (at least
# SETUP_MIN_REPS times); its mean time per set-up is one sample.  On a shared
# virtual machine the CPU can switch between a fast and a slow speed for a
# second or more at a time: a median of single sub-millisecond set-ups then
# reports whichever speed the burst fell in, while the mean over a
# one-second burst averages the two.
SETUP_BURST_S = 1.0
SETUP_MIN_REPS = 3


def time_setup(harness_cli, stepper, config_path, tracer=None):
    """(config of the last set-up, mean seconds per set-up over one burst)"""
    reps = 0
    begin = time.perf_counter()
    while reps < SETUP_MIN_REPS or time.perf_counter() - begin < SETUP_BURST_S:
        cfg = harness_cli.parse_config(config_path)
        if tracer is not None:
            spans.wrap_data(tracer, cfg.spec)
        stepper.initial_state(cfg.spec)
        reps += 1
    return cfg, (time.perf_counter() - begin) / reps


def trajectory(result) -> dict:
    """The arrays of a ``cmd_run`` result that the fem_run check reads."""
    return {
        "sigma": result.sigma_series(),
        "sigma_star": result.sigma_star_series(),
        "v": result.v_series(),
        "nodes": result.mesh.nodes,
        "triangles": result.mesh.triangles,
    }


def check_outputs(workload, raw_cfg, out_dir, result):
    if workload == "fem_run":
        return checks.check_fem_run(raw_cfg, out_dir, trajectory(result))
    if workload == "fem_stability":
        return checks.check_fem_stability(raw_cfg, out_dir)
    if workload == "zero_d_convergence":
        return checks.check_zero_d_convergence(raw_cfg, out_dir)
    return checks.check_verify_suites(raw_cfg, out_dir, result)


def call_driver(driver, workload, raw_cfg, cfg, out_dir, n_rows) -> dict:
    """One timed driver call on a clean output directory, then its checks."""
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)
    printed = io.StringIO()
    raised = None
    cpu0 = time.process_time()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(printed):
            result = driver(cfg, out_dir)
    except Exception:  # a raising driver fails every row of the call
        raised = traceback.format_exc()
    record = {"wall_s": time.perf_counter() - t0, "cpu_s": time.process_time() - cpu0,
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    with open(os.path.join(out_dir, "stdout.txt"), "w") as fh:
        fh.write(printed.getvalue())
    if raised is not None:
        print(raised, file=sys.stderr)
        record.update(failed=n_rows, completed=False, problems=["driver raised"])
    else:
        problems = check_outputs(workload, raw_cfg, out_dir, result)
        bad = [f"row {k}: {'; '.join(p)}" for k, p in enumerate(problems) if p]
        record.update(failed=len(bad), completed=True, problems=bad[:10])
    return record


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="driver calls of one benchmark workload")
    ap.add_argument("--workload", required=True, choices=sorted(workloads.DRIVERS))
    ap.add_argument("--config", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--seconds", type=float, default=0.0,
                    help="keep calling until this long after the first call began")
    ap.add_argument("--trace", action="store_true", help="trace a single call")
    args = ap.parse_args(argv)

    from plastiproj import harness_cli, stepper

    with open(args.config) as fh:
        raw_cfg = json.load(fh)
    driver_name = workloads.DRIVERS[args.workload]
    tracer = None
    if args.trace:
        op_spans = {"fem_run": ("stepper.step",),
                    "fem_stability": ("stepper.run",),
                    "zero_d_convergence": ("stepper.run",),
                    "verify_suites": ("verify.proj_prop", "verify.chart",
                                      "verify.oracle", "verify.vi")}[args.workload]
        tracer = spans.Tracer(op_spans)
        spans.install(tracer)

    driver = getattr(harness_cli, driver_name)
    if tracer is not None:
        driver = tracer.spanned(f"harness_cli.{driver_name}", driver)

    n_rows = checks.expected_rows(args.workload, raw_cfg)
    record = {"rows": n_rows, "setup_s": [], "calls": []}
    # a set-up burst before every call, so that the set-up samples spread over
    # the whole run, as the calls do
    begin = None
    while begin is None or (tracer is None and time.perf_counter() - begin < args.seconds):
        cfg, mean_s = time_setup(harness_cli, stepper, args.config, tracer)
        record["setup_s"].append(mean_s)
        call_index = len(tracer) if tracer is not None else 0
        begin = begin or time.perf_counter()
        record["calls"].append(
            call_driver(driver, args.workload, raw_cfg, cfg, args.out, n_rows))
    if tracer is not None:
        record["layers"] = spans.layer_metrics(tracer, call_index)
        tracer.save(os.path.join(os.path.dirname(os.path.abspath(args.out)), "spans.npz"))
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
