#!/usr/bin/env python3
"""Self-test of the output checks: each must catch one corrupted output.

Usage, from the root of a plastiproj checkout:  python3 perfbench/selftest.py

Runs every workload's driver on a small config, requires its checks to pass
on the clean output, then corrupts one row at a time and requires the check
to fail on exactly that row: a stress pushed outside the yield set, a last
velocity moved off the direct solve, a non-finite CSV cell, a flipped
``energy_ok``, a 0d error off by 1e-3, and a verify row with a loosened
``tol``.  Prints one PASS/FAIL line per case; exits 1 if any case fails.
Takes a few seconds; writes under ``perfbench/results/selftest/``.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import checks  # noqa: E402
import workloads  # noqa: E402
from worker import check_outputs, trajectory  # noqa: E402

from plastiproj import harness_cli  # noqa: E402

WORK = os.path.join(HERE, "results", "selftest")


def small_config(workload: str) -> dict:
    cfg = workloads.make_config(workload, seed=1)
    if workload == "fem_run":
        cfg["mesh"].update(nx=8, ny=8)
        cfg["N"] = 10
        cfg["output"] = {"vtk_stride": 5}
    elif workload == "fem_stability":
        cfg["mesh"].update(nx=8, ny=8)
        cfg["study"]["dt_list"] = [1.0, 0.5, 0.1]
    elif workload == "zero_d_convergence":
        cfg["study"]["ref_N"] = 2000
    else:
        cfg["verify"] = {"n_samples": 200, "n_oracle_cases": 2, "oracle_samples": 2000,
                         "n_vi_setups": 5, "n_vi_witnesses": 20}
    return cfg


def run_driver(workload: str, cfg: dict):
    out = os.path.join(WORK, workload, "out")
    os.makedirs(out)
    path = os.path.join(WORK, workload, "config.json")
    with open(path, "w") as fh:
        json.dump(cfg, fh)
    driver = getattr(harness_cli, workloads.DRIVERS[workload])
    with contextlib.redirect_stdout(io.StringIO()):
        result = driver(harness_cli.parse_config(path), out)
    return out, result


def edit_cell(src_dir: str, table: str, row: int, column: str, edit) -> str:
    """Copy of src_dir whose table has one cell replaced by edit(cell)."""
    dst = src_dir + "_corrupt"
    shutil.rmtree(dst, ignore_errors=True)
    shutil.copytree(src_dir, dst)
    path = os.path.join(dst, table)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    col = rows[0].index(column)
    rows[row + 1][col] = edit(rows[row + 1][col])
    with open(path, "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)
    return dst


def failing_rows(problems) -> list[int]:
    return [k for k, p in enumerate(problems) if p]


def main() -> int:
    shutil.rmtree(WORK, ignore_errors=True)
    ok = True

    def report(case: str, problems, expected: list[int]) -> None:
        nonlocal ok
        got = failing_rows(problems)
        passed = got == expected
        ok = ok and passed
        detail = "; ".join(p for k in got for p in problems[k])[:160]
        print(f"{'PASS' if passed else 'FAIL'} {case}: failing rows {got}, "
              f"expected {expected}" + (f" ({detail})" if detail else ""))

    for workload in workloads.DRIVERS:
        cfg = small_config(workload)
        out, result = run_driver(workload, cfg)
        report(f"{workload} clean output", check_outputs(workload, cfg, out, result), [])

        if workload == "fem_run":
            traj = trajectory(result)
            bad = dict(traj, sigma=traj["sigma"].copy())
            bad["sigma"][4, 0] = [0.75, 0.0, -0.75]  # |dev| = 1.06 > g = 1
            report("fem_run stress pushed outside the yield set",
                   checks.check_fem_run(cfg, out, bad), [4])
            bad = dict(traj, v=traj["v"].copy())
            bad["v"][-1] *= 1.0 + 1e-6
            report("fem_run last velocity off the direct solve by 1e-6",
                   checks.check_fem_run(cfg, out, bad), [cfg["N"]])
            bad_dir = edit_cell(out, "norms.csv", 7, "v_l2", lambda c: "nan")
            report("fem_run non-finite norms.csv cell",
                   checks.check_fem_run(cfg, bad_dir, traj), [7])
        elif workload == "fem_stability":
            bad_dir = edit_cell(out, "stability.csv", 1, "energy_ok", lambda c: "0")
            report("fem_stability flipped energy_ok",
                   checks.check_fem_stability(cfg, bad_dir), [1])
        elif workload == "zero_d_convergence":
            bad_dir = edit_cell(out, "convergence.csv", 2, "err_sigma_LinfH",
                                lambda c: "%.17g" % (float(c) + 1e-3))
            report("zero_d_convergence error off by 1e-3",
                   checks.check_zero_d_convergence(cfg, bad_dir), [2])
        else:
            bad_dir = edit_cell(out, "verify.csv", 19, "tol",
                                lambda c: "%.17g" % (10.0 * float(c)))
            report("verify_suites loosened tol",
                   checks.check_verify_suites(cfg, bad_dir, result), [19])
    print("self-test " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
