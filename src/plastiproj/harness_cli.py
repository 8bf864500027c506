"""Config parsing, study drivers, and CSV/VTK output.

Subcommands: run | stability | convergence | verify, each taking
--config <path>, --out <dir>, optional --seed <int>.  Exit codes: 0 success,
1 verification failure, 2 configuration error or numerical failure.

Configs are JSON; every data function is referenced by catalog name plus
parameters so a run is reproducible from the file alone.  CSV layouts are
frozen and documented in the README; all numeric cells are finite and
formatted with %.17g, so repeated runs with the same config and seed are
byte-identical.
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
from .catalog import ConfigError, scalar_fn, tensor_fn, vector_fn
from .fem2d import SIDES, FemSpace, build_rect_mesh, write_vtk
from .scenarios import explicit_blowup_spec
from .stepper import (
    FP_MAX_ITER,
    SCHEMES,
    ProblemSpec,
    Trajectory,
    discrete_norms,
    energy_report,
    initial_state,
    run,
)

_FMT = "%.17g"


def _fmt(x) -> str:
    if isinstance(x, str):
        return x
    if isinstance(x, (bool, np.bool_)):
        return "1" if x else "0"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return _FMT % float(x)


def _write_csv(path, header: list[str], rows: list[list]) -> None:
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


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


def _require(obj: dict, key: str, where: str):
    if key not in obj:
        raise ConfigError(f"missing required field {key!r} in {where}")
    return obj[key]


def _number(obj: dict, key: str, kind, where: str, default=None, lowest=None,
            prefix: str = ""):
    """``kind(obj[key])``; it must be finite and > 0, or >= ``lowest`` if given.

    A missing key takes ``default``, or is an error when there is none.
    """
    name = prefix + key
    raw = _require(obj, key, where) if default is None else obj.get(key, default)
    try:
        value = kind(raw)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"field {name!r}: expected a number, got {raw!r}") from exc
    if lowest is not None:
        if not value >= lowest:
            raise ConfigError(f"field {name!r}: must be >= {lowest}, got {raw!r}")
    elif not (math.isfinite(value) and value > 0.0):
        raise ConfigError(f"field {name!r}: must be finite and > 0, got {raw!r}")
    return value


def _sides(mesh_cfg: dict) -> tuple[str, ...]:
    """``mesh.gamma1``: a nonempty list of sides, by default the left one."""
    raw = mesh_cfg.get("gamma1", ["left"])
    if not (isinstance(raw, list) and raw and all(side in SIDES for side in raw)):
        raise ConfigError(f"field 'mesh.gamma1': expected a nonempty list from "
                          f"{'/'.join(SIDES)}, got {raw!r}")
    return tuple(raw)


def _build_fn(obj, role: str, builder, where: str):
    if not isinstance(obj, dict) or "name" not in obj:
        raise ConfigError(f"{where}: expected {{'name': ..., 'params': {{...}}}} for {role}")
    return builder(obj["name"], obj.get("params", {}))


def _dt_list(raw, total_t: float) -> list[float]:
    """``study.dt_list``: each dt finite, > 0 and a divisor of T.

    A study runs N = round(T / dt) steps, so a dt that does not divide T
    would silently become T / N.
    """
    try:
        dts = [float(v) for v in raw]
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"field 'study.dt_list': expected a list of numbers, got {raw!r}") from exc
    for dt in dts:
        n = total_t / dt if dt > 0.0 else math.nan
        if not (math.isfinite(n) and abs(round(n) * dt - total_t) <= 1e-9 * total_t):
            raise ConfigError(f"field 'study.dt_list': each dt must be > 0 and divide "
                              f"T = {total_t!r}, got {dt!r}")
    return dts


def parse_config(path) -> RunConfig:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}:{exc.lineno}:{exc.colno}: invalid JSON: {exc.msg}") from exc

    mode = raw.get("mode", "fem")
    if mode not in ("fem", "0d"):
        raise ConfigError(f"mode must be 'fem' or '0d', got {mode!r}")
    nu = _number(raw, "nu", float, path)
    total_t = _number(raw, "T", float, path)
    n_steps = _number(raw, "N", int, path, lowest=1)
    scheme = raw.get("scheme", "projection")
    if scheme not in SCHEMES:
        raise ConfigError(f"unknown scheme {scheme!r}")

    f_fn = _build_fn(raw.get("f", {"name": "constant"}), "f", vector_fn, path)
    h_fn = _build_fn(raw.get("h", {"name": "constant"}), "h", tensor_fn, path)
    p_fn = _build_fn(raw.get("p", {"name": "constant"}), "p", tensor_fn, path)
    g_fn = _build_fn(raw.get("g", {"name": "constant", "params": {"value": 1.0}}),
                     "g", scalar_fn, path)
    v0_fn = s0_fn = None
    if raw.get("v0") is not None:
        vf = _build_fn(raw["v0"], "v0", vector_fn, path)
        v0_fn = lambda pts: vf(0.0, pts)
    if raw.get("sigma0") is not None:
        sf = _build_fn(raw["sigma0"], "sigma0", tensor_fn, path)
        s0_fn = lambda pts: sf(0.0, pts)

    # the mesh fields are checked in 0d mode too, where they go unused
    mesh_cfg = raw.get("mesh", {})
    mesh_args = (
        _number(mesh_cfg, "nx", int, path, default=8, lowest=1, prefix="mesh."),
        _number(mesh_cfg, "ny", int, path, default=8, lowest=1, prefix="mesh."),
        _number(mesh_cfg, "lx", float, path, default=1.0, prefix="mesh."),
        _number(mesh_cfg, "ly", float, path, default=1.0, prefix="mesh."),
        _sides(mesh_cfg),
    )
    space = None
    if mode == "fem":
        try:
            space = FemSpace(build_rect_mesh(*mesh_args))
        except ValueError as exc:  # e.g. element areas that underflow to 0
            raise ConfigError(f"field 'mesh': {exc}") from exc
    spec = ProblemSpec(nu=nu, T=total_t, N=n_steps, space=space,
                       f=f_fn, h=h_fn, p=p_fn, g=g_fn, v0=v0_fn, sigma0=s0_fn)

    # data validation: g >= 0 on a t-sample grid, sigma0 feasible at t = 0
    pts = spec.pts
    for t in np.linspace(0.0, total_t, 17):
        gv = np.asarray(g_fn(float(t), pts), dtype=float)
        if (gv < 0.0).any():
            raise ConfigError(f"field 'g': negative yield radius at t={t}")
    initial_state(spec)

    study = raw.get("study", {})
    dt_list = _dt_list(study.get("dt_list", []), total_t)
    if dt_list and any(b >= a for a, b in zip(dt_list, dt_list[1:])):
        raise ConfigError("field 'study.dt_list': must be strictly decreasing")
    ref_n = int(study.get("ref_N", 0))
    if ref_n:
        for dt in dt_list:
            if round(total_t / dt) >= ref_n:
                raise ConfigError("field 'study.ref_N': must be strictly finer than every study dt")

    return RunConfig(
        spec=spec, scheme=scheme, dt_list=dt_list, ref_n=ref_n,
        seed=int(raw.get("seed", 0)),
        vtk_stride=int(raw.get("output", {}).get("vtk_stride", 0)),
        verify_params=raw.get("verify", {}),
    )


# -- study drivers --------------------------------------------------------------


def _slack_min(traj: Trajectory, state) -> float:
    spec = traj.spec
    p_n = np.asarray(spec.p(state.t, spec.pts))
    g_n = np.asarray(spec.g(state.t, spec.pts))
    return float(tc.yield_slack_arr(state.sigma, p_n, g_n).min())


def _warn_unconverged(traj: Trajectory, where: str = "") -> None:
    """One stderr line if an implicit step stopped at the Picard iteration cap."""
    steps = [s.n for s in traj.states if not s.fp_converged]
    if steps:
        print(f"warning: {where}implicit step {steps[0]} did not converge within "
              f"{FP_MAX_ITER} Picard iterations ({len(steps)} of {traj.spec.N} steps)",
              file=sys.stderr)


def cmd_run(cfg: RunConfig, out_dir) -> Trajectory:
    os.makedirs(out_dir, exist_ok=True)
    traj = run(cfg.spec, cfg.scheme)
    _warn_unconverged(traj)
    rows = []
    for state in traj.states:
        if traj.space is not None:
            v_l2 = traj.space.l2_norm(state.v)
            s_l2 = traj.space.stress_l2(state.sigma)
        else:
            v_l2 = 0.0
            s_l2 = float(np.sqrt(tc.frob_inner_arr(state.sigma, state.sigma).sum()))
        row = [state.n, state.t, v_l2, s_l2, _slack_min(traj, state)]
        if not all(math.isfinite(x) for x in row[2:]):
            raise RuntimeError(f"non-finite norm at step {state.n}")
        # the frozen cg_iters column: the factored solve makes no iterations
        rows.append(row + [0])
        if cfg.vtk_stride > 0 and traj.mesh is not None and state.n % cfg.vtk_stride == 0:
            write_vtk(
                os.path.join(out_dir, f"snapshot_{state.n:06d}.vtk"),
                traj.mesh,
                point_vectors={"velocity": state.v},
                cell_tensors={"stress": state.sigma},
            )
    _write_csv(os.path.join(out_dir, "norms.csv"),
               ["n", "t", "v_l2", "sigma_l2", "yield_slack_min", "cg_iters"], rows)
    return traj


def cmd_stability(cfg: RunConfig, out_dir) -> list[dict]:
    if cfg.spec.mode != "fem":
        raise ConfigError("stability study requires fem mode")
    if not cfg.dt_list:
        raise ConfigError("field 'study.dt_list' is required for the stability study")
    os.makedirs(out_dir, exist_ok=True)
    rows = []
    reports = []
    for dt in cfg.dt_list:
        n = max(1, round(cfg.spec.T / dt))
        spec = cfg.spec.with_steps(n)
        traj = run(spec, cfg.scheme)
        _warn_unconverged(traj, f"dt={dt}: ")
        rep = discrete_norms(traj)
        en = energy_report(traj)
        vals = rep.as_dict()
        if not all(math.isfinite(v) for v in vals.values()):
            raise RuntimeError(f"non-finite norm at dt={dt}")
        rows.append([spec.dt, n] + list(vals.values())
                    + [float(en.lhs.max()), en.rhs, en.ok])
        reports.append({"dt": spec.dt, "N": n, **vals,
                        "energy_lhs_max": float(en.lhs.max()),
                        "energy_rhs": en.rhs, "energy_ok": en.ok})
    header = (["dt", "N", "dual_norm_dv", "linf_H_vbar", "l2_V_vbar", "gap_v",
               "linf_H_sigma_star", "linf_H_sigma", "gap_sigma", "h1_H_sigma_hat",
               "energy_lhs_max", "energy_rhs", "energy_ok"])
    _write_csv(os.path.join(out_dir, "stability.csv"), header, rows)
    return reports


def _check_nested(n_ref: int, n_c: int) -> None:
    if n_ref % n_c != 0 or n_ref <= n_c:
        raise ConfigError(f"reference N={n_ref} must be a strict multiple of study N={n_c}")


def convergence_errors(ref: Trajectory, coarse: Trajectory) -> dict[str, float]:
    """Errors of a coarse trajectory against a nested finer reference.

    L-infinity errors compare the piecewise-linear time interpolants on the
    full reference grid (the coarse interpolant is evaluated between its own
    nodes, so the kink error near constraint activation is seen); the V-norm
    error integrates the difference of the piecewise-constant velocities
    over the reference grid.
    """
    n_ref, n_c = ref.spec.N, coarse.spec.N
    _check_nested(n_ref, n_c)
    stride = n_ref // n_c
    areas = ref.mesh.areas if ref.mesh is not None else np.ones(1)

    def coarse_hat(series, j):
        # hat interpolant of the coarse series at reference time j * dt_ref
        k, r = divmod(j, stride)
        if r == 0:
            return series[k]
        w = r / stride
        return (1.0 - w) * series[k] + w * series[k + 1]

    # squared H norms of the stress error, one coarse interval at a time:
    # row r of a block is reference node k * stride + r
    sig_c = coarse.sigma_series()
    sig_r = ref.sigma_series()
    w = (np.arange(stride) / stride)[:, None, None]
    d = sig_c[n_c] - sig_r[n_ref]
    err_sq = (areas * tc.frob_inner_arr(d, d)).sum()
    for k in range(n_c):
        d = (1.0 - w) * sig_c[k]
        d += w * sig_c[k + 1]
        d -= sig_r[k * stride:(k + 1) * stride]
        err_sq = max(err_sq, (areas * tc.frob_inner_arr(d, d)).sum(axis=-1).max())
    err_sigma = float(np.sqrt(err_sq))
    if ref.space is not None:
        v_c = coarse.v_series()
        v_r = ref.v_series()
        err_v = max(
            ref.space.l2_norm(coarse_hat(v_c, j) - v_r[j]) for j in range(n_ref + 1)
        )
        dt_ref = ref.spec.dt
        acc = 0.0
        for j in range(1, n_ref + 1):
            k = -(-j * n_c // n_ref)  # ceil(j * n_c / n_ref)
            diff = coarse.states[k].v - ref.states[j].v
            acc += dt_ref * ref.space.v_norm(diff) ** 2
        err_v_l2v = math.sqrt(acc)
    else:
        err_v = 0.0
        err_v_l2v = 0.0
    return {"err_sigma_LinfH": err_sigma, "err_v_LinfH": err_v, "err_v_L2V": err_v_l2v}


def cmd_convergence(cfg: RunConfig, out_dir) -> list[dict]:
    if not cfg.dt_list:
        raise ConfigError("field 'study.dt_list' is required for the convergence study")
    if cfg.ref_n <= 0:
        raise ConfigError("field 'study.ref_N' is required for the convergence study")
    steps = [max(1, round(cfg.spec.T / dt)) for dt in cfg.dt_list]
    for n in steps:  # before the reference run, which is the costly part
        _check_nested(cfg.ref_n, n)
    os.makedirs(out_dir, exist_ok=True)
    ref = run(cfg.spec.with_steps(cfg.ref_n), cfg.scheme)
    _warn_unconverged(ref, f"N={cfg.ref_n}: ")
    rows = []
    results = []
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
                orders["order_" + key[4:]] = math.log2(prev[key] / errs[key])
        rows.append([n, cfg.spec.T / n] + list(errs.values()) + list(orders.values()))
        results.append({"N": n, **errs, **orders})
        prev = errs
    header = ["N", "dt", "err_sigma_LinfH", "err_v_LinfH", "err_v_L2V",
              "order_sigma_LinfH", "order_v_LinfH", "order_v_L2V"]
    _write_csv(os.path.join(out_dir, "convergence.csv"), header, rows)
    return results


def explicit_demo_report() -> dict:
    """Non-gating demonstration: explicit stress treatment, energy growth."""
    spec = explicit_blowup_spec()
    traj = run(spec, "explicit")
    space = traj.space
    e0 = space.l2_norm(traj.states[1].v)
    e1 = space.l2_norm(traj.states[-1].v)
    return {"initial_v_l2": e0, "final_v_l2": e1,
            "growth": e1 / max(e0, 1e-300)}


def cmd_verify(cfg: RunConfig, out_dir) -> int:
    os.makedirs(out_dir, exist_ok=True)
    vp = cfg.verify_params
    results = verify_mod.run_all(
        n_samples=int(vp.get("n_samples", 10_000)),
        n_oracle_cases=int(vp.get("n_oracle_cases", 100)),
        oracle_samples=int(vp.get("oracle_samples", 100_000)),
        n_vi_setups=int(vp.get("n_vi_setups", 1_000)),
        n_vi_witnesses=int(vp.get("n_vi_witnesses", 100)),
        seed=cfg.seed,
    )
    rows = []
    failed = False
    for res in results:
        # a negative tolerance can never pass; it falls through as a failure
        status = "PASS" if res.passed else "FAIL"
        print(f"{status} {res.name}: max violation {res.max_violation:.3e} (tol {res.tol:.1e})")
        rows.append([res.name, res.max_violation, res.tol, res.passed])
        failed = failed or not res.passed
    demo = explicit_demo_report()
    print(f"INFO explicit_blowup_demo (non-gating): velocity growth factor "
          f"{demo['growth']:.3e} over one run")
    _write_csv(os.path.join(out_dir, "verify.csv"),
               ["suite", "max_violation", "tol", "passed"], rows)
    return 1 if failed else 0


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
        sp.add_argument("--seed", type=int, default=None)
    args = parser.parse_args(argv)

    try:
        # a run that overflows fails a finiteness check and is reported as
        # one line below; numpy's own warnings would only repeat it
        with np.errstate(over="ignore", invalid="ignore"):
            cfg = parse_config(args.config)
            if args.seed is not None:
                cfg.seed = args.seed
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
    except RuntimeError as exc:  # a non-finite solve, trial stress or norm
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
