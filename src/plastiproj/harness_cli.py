"""Config parsing, study drivers, and CSV/VTK output.

Subcommands: run | stability | convergence | verify, each taking
--config <path> and --out <dir>.  Exit codes: 0 success, 1 verification
failure, 2 configuration error, numerical failure, outputs that cannot be
written or memory that runs out.

Configs are JSON; every data function is referenced by catalog name plus
parameters so a run is reproducible from the file alone.  Every config
object is read through ``catalog.Fields``.  CSV layouts are frozen and
documented in the README.  Every cell but verify.csv's ``max_violation``,
which is NaN for a suite that computes NaN (see the README), is checked
finite before its table is written; floats are formatted with %.17g, so
repeated runs with the same config are byte-identical.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass, field

import numpy as np

from . import tensor_core as tc
from . import verify as verify_mod
from .catalog import MAX_INTEGER, ConfigError, Fields, JsonObject, UnknownFunction, data_fn
from .fem2d import SIDES, FemSpace, build_rect_mesh, write_vtk
from .scenarios import explicit_blowup_spec
from .stepper import (
    FP_MAX_ITER,
    SCHEMES,
    ProblemSpec,
    Trajectory,
    _check_nested,
    _Engine,
    _initial_state,
    _quad_forms,
    convergence_errors,
    discrete_norms,
    energy_report,
    run,
)

# the sample counts a config's ``verify`` block may set, each >= 1
VERIFY_COUNTS = ("n_samples", "n_oracle_cases", "oracle_samples", "n_vi_setups",
                 "n_vi_witnesses")


def _write_csv(path, columns: dict) -> None:
    """A CSV of the equal-length ``columns`` under their keys, each formatted by its
    dtype: text as it is, integers and booleans as integers, floats as %.17g."""
    cols = [np.asarray(col) for col in columns.values()]
    row = ",".join({"f": "%.17g", "b": "%d"}.get(col.dtype.kind, "%s") for col in cols) + "\n"
    with open(path, "w") as fh:
        fh.write(",".join(columns) + "\n")
        fh.writelines(map(row.__mod__, zip(*(col.tolist() for col in cols))))


def _columns(rows: list[dict]) -> dict:
    return {key: [row[key] for row in rows] for key in rows[0]}


# -- configuration -------------------------------------------------------------


@dataclass
class RunConfig:
    spec: ProblemSpec
    scheme: str = "projection"
    dt_list: list[float] = field(default_factory=list)
    ref_n: int = 0
    seed: int = 0
    vtk_stride: int = 0
    verify_params: dict = field(default_factory=dict)


def _build_fn(cfg: Fields, key: str, role: str):
    fn = cfg.section(key, {"name": "constant"})
    name, params = fn.get("name"), fn.section("params")
    fn.close()
    try:
        return data_fn(role, name, params)
    except UnknownFunction as exc:
        raise fn.error("name", str(exc)) from None


def _dt_list(study: Fields, total_t: float) -> list[float]:
    """``study.dt_list``: strictly decreasing, each dt > 0 and a divisor of T,
    since a study runs N = round(T / dt) steps: else dt would become T / N.
    N is bounded as the integer fields are."""
    dts = study.array("dt_list", [], "a list of finite numbers").tolist()
    for dt in dts:
        n = total_t / dt if dt > 0.0 else math.nan
        if not (math.isfinite(n) and abs(round(n) * dt - total_t) <= 1e-9 * total_t):
            raise study.error("dt_list", f"each dt must be > 0 and divide T = {total_t!r}, got {dt!r}")
        if round(n) > MAX_INTEGER:
            raise study.error("dt_list", f"T / dt must be <= 2**53, got {dt!r}")
    if any(b >= a for a, b in zip(dts, dts[1:])):
        raise study.error("dt_list", "must be strictly decreasing")
    return dts


def parse_config(path) -> RunConfig:
    try:
        with open(path) as fh:
            raw = json.load(fh, object_pairs_hook=JsonObject.of)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}:{exc.lineno}:{exc.colno}: invalid JSON: {exc.msg}") from exc
    except (ValueError, RecursionError) as exc:
        # e.g. an integer literal of 5000 digits, or lists nested past the recursion limit
        raise ConfigError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: expected a JSON object, got {type(raw).__name__}")

    cfg = Fields(raw, "")
    mode = cfg.get("mode", "fem")
    if mode not in ("fem", "0d"):
        raise cfg.error("mode", f"must be 'fem' or '0d', got {mode!r}")
    nu = cfg.number("nu")
    total_t = cfg.number("T")
    n_steps = cfg.number("N", integer=True, lowest=1)
    if total_t / n_steps == 0.0:
        raise cfg.error("N", f"T / N underflows to 0 with T = {total_t!r}, got {n_steps}")
    scheme = cfg.get("scheme", "projection")
    if scheme not in SCHEMES:
        raise cfg.error("scheme", f"must be one of {'/'.join(SCHEMES)}, got {scheme!r}")

    f_fn = _build_fn(cfg, "f", "vector")
    h_fn = _build_fn(cfg, "h", "tensor")
    p_fn = _build_fn(cfg, "p", "tensor")
    g_fn = _build_fn(cfg, "g", "scalar")  # a constant g defaults to 1
    v0_fn = s0_fn = None
    if cfg.get("v0", None) is not None:
        v0_fn = _build_fn(cfg, "v0", "vector")
    if cfg.get("sigma0", None) is not None:
        s0_fn = _build_fn(cfg, "sigma0", "tensor")

    # the mesh fields are checked in 0d mode too, where they go unused
    mesh = cfg.section("mesh")
    nx, ny = (mesh.number(key, 8, integer=True, lowest=1) for key in ("nx", "ny"))
    lx, ly = mesh.number("lx", 1.0), mesh.number("ly", 1.0)
    sides = mesh.get("gamma1", ["left"])
    if not (isinstance(sides, list) and sides
            and all(isinstance(side, str) and side in SIDES for side in sides)):
        raise mesh.error("gamma1", f"expected a nonempty list from {'/'.join(SIDES)}, got {sides!r}")
    mesh.close()
    study = cfg.section("study")
    dt_list = _dt_list(study, total_t)
    ref_n = study.number("ref_N", 0, integer=True, lowest=0)
    if ref_n and total_t / ref_n == 0.0:
        raise study.error("ref_N", f"T / ref_N underflows to 0 with T = {total_t!r}, got {ref_n}")
    if ref_n and any(round(total_t / dt) >= ref_n for dt in dt_list):
        raise study.error("ref_N", "must be strictly finer than every study dt")
    study.close()
    output = cfg.section("output")
    vtk_stride = output.number("vtk_stride", 0, integer=True, lowest=0)
    output.close()
    verify_cfg = cfg.section("verify")
    # the counts left out take the defaults of verify.run_all
    counts = {key: verify_cfg.number(key, integer=True, lowest=1)
              for key in VERIFY_COUNTS if key in verify_cfg.obj}
    verify_cfg.close()
    seed = cfg.number("seed", 0, integer=True, lowest=0)
    cfg.close()

    space = None
    if mode == "fem":
        try:
            space = FemSpace(build_rect_mesh(nx, ny, lx, ly, tuple(sides)))
        except ValueError as exc:  # e.g. element areas that underflow to 0
            raise ConfigError(f"field 'mesh': {exc}") from exc
    spec = ProblemSpec(nu=nu, T=total_t, N=n_steps, space=space,
                       f=f_fn, h=h_fn, p=p_fn, g=g_fn, v0=v0_fn, sigma0=s0_fn)

    # data validation: a finite g >= 0 on a t-sample grid; at t = 0, finite data, feasible stress
    eng = _Engine(spec)
    eng.g_at(np.linspace(0.0, total_t, 17))
    _initial_state(eng)
    return RunConfig(spec=spec, scheme=scheme, dt_list=dt_list, ref_n=ref_n, seed=seed,
                     vtk_stride=vtk_stride, verify_params=counts)


# -- study drivers --------------------------------------------------------------


def _slack_min(eng: _Engine, sigma: np.ndarray, t: np.ndarray) -> np.ndarray:
    """The least yield slack of each state of ``sigma`` (m, k, 3) at its time of ``t`` (m,)."""
    return tc.yield_slack_arr(sigma, eng.p_at(t), eng.g_at(t)).min(axis=-1)


def _finite_row(row: dict, where: str) -> dict:
    """``row``, or a RuntimeError naming its first non-finite cell and ``where``."""
    for key, value in row.items():
        if not math.isfinite(value):
            raise RuntimeError(f"non-finite {key} at {where}")
    return row


def _warn_unconverged(traj: Trajectory, where: str = "") -> None:
    """One stderr line if an implicit step stopped at the Picard iteration cap."""
    steps = np.flatnonzero(~traj.fp_converged)
    if len(steps):
        print(f"warning: {where}implicit step {steps[0]} did not converge within "
              f"{FP_MAX_ITER} Picard iterations ({len(steps)} of {traj.spec.N} steps)",
              file=sys.stderr)


def cmd_run(cfg: RunConfig, out_dir) -> Trajectory:
    os.makedirs(out_dir, exist_ok=True)
    traj = run(cfg.spec, cfg.scheme)
    _warn_unconverged(traj)
    eng, space, n = _Engine(cfg.spec), traj.space, np.arange(traj.spec.N + 1)
    areas = np.ones(1) if space is None else space.mesh.areas
    t, (v_l2, sigma_l2, slack) = n * traj.spec.dt, np.zeros((3, len(n)))
    for rows in traj.row_chunks():
        s = traj.sigma[rows]
        sigma_l2[rows] = np.sqrt(np.maximum((areas * tc.frob_inner_arr(s, s)).sum(-1), 0.0))
        if space is not None:
            v_l2[rows] = np.sqrt(np.maximum(_quad_forms(space.mass, traj.v[rows]), 0.0))
        slack[rows] = _slack_min(eng, s, t[rows])
    # the frozen cg_iters column: the factored solve makes no iterations
    table = {"n": n, "t": t, "v_l2": v_l2, "sigma_l2": sigma_l2, "yield_slack_min": slack,
             "cg_iters": np.zeros_like(n)}
    bad = np.flatnonzero(~np.isfinite([t, v_l2, sigma_l2, slack]).all(axis=0))
    if len(bad):
        _finite_row({key: col[bad[0]] for key, col in table.items()}, f"step {bad[0]}")
    _write_csv(os.path.join(out_dir, "norms.csv"), table)
    if cfg.vtk_stride > 0 and traj.mesh is not None:
        for k in range(0, len(n), cfg.vtk_stride):
            write_vtk(os.path.join(out_dir, f"snapshot_{k:06d}.vtk"), traj.mesh, traj.v[k],
                      traj.sigma[k])
    return traj


def cmd_stability(cfg: RunConfig, out_dir) -> list[dict]:
    if cfg.spec.space is None:
        raise ConfigError("field 'mode': the stability study needs 'fem', got '0d'")
    if not cfg.dt_list:
        raise ConfigError("field 'study.dt_list' is required for the stability study")
    os.makedirs(out_dir, exist_ok=True)
    rows = []
    for dt in cfg.dt_list:
        n = round(cfg.spec.T / dt)
        spec = cfg.spec.with_steps(n)
        traj = run(spec, cfg.scheme)
        _warn_unconverged(traj, f"dt={dt}: ")
        en = energy_report(traj)
        rows.append(_finite_row(
            {"dt": spec.dt, "N": n, **discrete_norms(traj).as_dict(),
             "energy_lhs_max": float(en.lhs.max()), "energy_rhs": en.rhs, "energy_ok": en.ok},
            f"dt={dt}"))
    _write_csv(os.path.join(out_dir, "stability.csv"), _columns(rows))
    return rows


def cmd_convergence(cfg: RunConfig, out_dir) -> list[dict]:
    if not cfg.dt_list:
        raise ConfigError("field 'study.dt_list' is required for the convergence study")
    if cfg.ref_n <= 0:
        raise ConfigError("field 'study.ref_N' is required for the convergence study")
    steps = [round(cfg.spec.T / dt) for dt in cfg.dt_list]
    for n in steps:  # before the reference run, which is the costly part
        _check_nested(cfg.ref_n, n)
    os.makedirs(out_dir, exist_ok=True)
    ref = run(cfg.spec.with_steps(cfg.ref_n), cfg.scheme)
    _warn_unconverged(ref, f"N={cfg.ref_n}: ")
    rows = []
    prev = None
    for n in steps:
        coarse = run(cfg.spec.with_steps(n), cfg.scheme)
        _warn_unconverged(coarse, f"N={n}: ")
        errs = convergence_errors(ref, coarse)
        orders = {}
        for key in errs:
            if prev is None or errs[key] == 0.0 or prev[key] == 0.0:
                orders["order_" + key[4:]] = 0.0  # sentinel: no ratio available
            else:
                # the observed slope of log e over log dt
                orders["order_" + key[4:]] = (math.log2(prev[key] / errs[key])
                                              / math.log2(n / prev["N"]))
        rows.append(_finite_row({"N": n, "dt": cfg.spec.T / n, **errs, **orders}, f"N={n}"))
        prev = rows[-1]
    _write_csv(os.path.join(out_dir, "convergence.csv"), _columns(rows))
    return rows


def explicit_demo_report() -> dict:
    """Non-gating demonstration: explicit stress treatment, energy growth."""
    spec = explicit_blowup_spec()
    traj = run(spec, "explicit")
    space = traj.space
    e0 = space.l2_norm(traj.v[1])
    e1 = space.l2_norm(traj.v[-1])
    return {"initial_v_l2": e0, "final_v_l2": e1,
            "growth": e1 / max(e0, 1e-300)}


def cmd_verify(cfg: RunConfig, out_dir) -> int:
    os.makedirs(out_dir, exist_ok=True)
    results = verify_mod.run_all(**cfg.verify_params, seed=cfg.seed)
    for res in results:
        # a negative tolerance can never pass; it falls through as a failure
        status = "PASS" if res.passed else "FAIL"
        print(f"{status} {res.name}: max violation {res.max_violation:.3e} (tol {res.tol:.1e})")
    demo = explicit_demo_report()
    print(f"INFO explicit_blowup_demo (non-gating): velocity growth factor "
          f"{demo['growth']:.3e} over one run")
    _write_csv(os.path.join(out_dir, "verify.csv"), _columns([
        {"suite": r.name, "max_violation": r.max_violation, "tol": r.tol, "passed": r.passed}
        for r in results]))
    return 0 if all(r.passed for r in results) else 1


# -- entry point -----------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="plastiproj",
        description="Projection time stepping for perfect plasticity with a "
                    "moving von Mises constraint set.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("run", "stability", "convergence", "verify"):
        sp = sub.add_parser(name)
        sp.add_argument("--config", required=True)
        sp.add_argument("--out", default=".")
    args = parser.parse_args(argv)

    try:
        # a run that overflows fails a finiteness check and is reported as
        # one line below; numpy's own warnings would only repeat it
        with np.errstate(over="ignore", invalid="ignore"):
            cfg = parse_config(args.config)
            if args.command == "run":
                cmd_run(cfg, args.out)
                return 0
            if args.command == "stability":
                cmd_stability(cfg, args.out)
                return 0
            if args.command == "convergence":
                cmd_convergence(cfg, args.out)
                return 0
            return cmd_verify(cfg, args.out)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:  # a non-finite solve, trial stress, norm or table cell
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # the outputs cannot be written, e.g. --out names a file
        print(f"output error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # e.g. the columns of a run with too many steps
        print(f"out of memory: {str(exc) or 'an allocation failed'}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
