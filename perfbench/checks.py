"""Output checks made apart from plastiproj, one verdict per operation.

An operation is one row of the driver's output table: a step in
``norms.csv``, a dt in ``stability.csv`` or ``convergence.csv``, a suite in
``verify.csv``.  Each check returns one list of problems per expected row;
an empty list means the row passed.  Nothing here imports plastiproj: the
reference values come from this file's own numpy and scipy, from closed
forms, or from properties the method guarantees.  The configs are those of
``workloads.py``, so the data functions are the catalog's ``constant`` and
``radial_deviatoric`` and are read straight from the config.
"""

from __future__ import annotations

import csv
import math
import os

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import spsolve

YIELD_RTOL = 1e-10        # |dev(sigma + p)| <= g (1 + YIELD_RTOL)
PROJECTION_RTOL = 1e-12   # projected stress against its closed form
SOLVE_RTOL = 1e-8         # last velocity against a sparse direct solve
STABILITY_FACTOR = 10.0   # per-dt norms within this factor of the finest dt
ZERO_D_ATOL = 1e-9        # reported 0d error against the closed form

# Every suite row of `plastiproj verify`, in output order, with the tolerance
# that verify.py documents for it.  A row whose tol differs has been loosened
# (or tightened) and fails, even when it reports passed = 1.
VERIFY_TOLS = {}
for _d in (2, 3):
    VERIFY_TOLS.update({
        f"proj_prop_i_d{_d}": 1e-12,
        f"proj_prop_ii_d{_d}": 1e-10,
        f"proj_prop_iii_d{_d}": 1e-10,
        f"proj_prop_iv_d{_d}": 1e-10,
        f"proj_scalar_vs_vectorized_d{_d}": 1e-12,
        f"chart_isometry_d{_d}": 1e-12,
        f"chart_orthogonality_d{_d}": 1e-12,
        f"chart_roundtrip_d{_d}": 1e-12,
        f"chart_membership_agree_d{_d}": 1e-12,
    })
VERIFY_TOLS["projection_argmin_oracle"] = 1e-12
VERIFY_TOLS["stress_update_vi"] = 1e-10

NORMS_HEADER = ["n", "t", "v_l2", "sigma_l2", "yield_slack_min", "cg_iters"]
STABILITY_HEADER = ["dt", "N", "dual_norm_dv", "linf_H_vbar", "l2_V_vbar", "gap_v",
                    "linf_H_sigma_star", "linf_H_sigma", "gap_sigma", "h1_H_sigma_hat",
                    "energy_lhs_max", "energy_rhs", "energy_ok"]
CONVERGENCE_HEADER = ["N", "dt", "err_sigma_LinfH", "err_v_LinfH", "err_v_L2V",
                      "order_sigma_LinfH", "order_v_LinfH", "order_v_L2V"]
VERIFY_HEADER = ["suite", "max_violation", "tol", "passed"]


def expected_rows(workload: str, cfg: dict) -> int:
    if workload == "fem_run":
        return cfg["N"] + 1
    if workload in ("fem_stability", "zero_d_convergence"):
        return len(cfg["study"]["dt_list"])
    return len(VERIFY_TOLS)


# -- table reading -------------------------------------------------------------


def _read_table(path: str, header: list[str], n_rows: int, numeric_from: int = 0):
    """Rows of a CSV as floats (columns before ``numeric_from`` kept as text).

    Returns the rows, padded with None for missing ones, and the per-row
    problem lists.  A wrong header fails every row; a non-finite or
    unparsable cell fails its row.
    """
    problems: list[list[str]] = [[] for _ in range(n_rows)]
    rows: list = [None] * n_rows
    if not os.path.isfile(path):
        for p in problems:
            p.append(f"{os.path.basename(path)} missing")
        return rows, problems
    with open(path, newline="") as fh:
        table = list(csv.reader(fh))
    if not table or table[0] != header:
        for p in problems:
            p.append(f"{os.path.basename(path)}: unexpected header")
        return rows, problems
    body = table[1:]
    for k in range(n_rows):
        if k >= len(body):
            problems[k].append("row missing")
            continue
        raw = body[k]
        if len(raw) != len(header):
            problems[k].append(f"{len(raw)} cells, expected {len(header)}")
            continue
        try:
            vals = raw[:numeric_from] + [float(c) for c in raw[numeric_from:]]
        except ValueError:
            problems[k].append("unparsable cell")
            continue
        if not all(math.isfinite(v) for v in vals[numeric_from:]):
            problems[k].append("non-finite cell")
            continue
        rows[k] = vals
    if len(body) > n_rows:
        problems[-1].append(f"{len(body) - n_rows} extra rows")
    return rows, problems


def _const(cfg: dict, role: str, default):
    spec = cfg.get(role, {"name": "constant"})
    if spec["name"] != "constant":
        raise ValueError(f"checks read {role!r} only as a catalog constant")
    return np.asarray(spec.get("params", {}).get("value", default), dtype=float)


def _dev_norm(s: np.ndarray) -> np.ndarray:
    """Frobenius norm of the deviator of packed (s00, s01, s11) tensors."""
    return np.sqrt(0.5 * (s[..., 0] - s[..., 2]) ** 2 + 2.0 * s[..., 1] ** 2)


# -- fem_run ---------------------------------------------------------------------


def _p1_system(nodes: np.ndarray, tris: np.ndarray):
    """Consistent P1 mass M, strain stiffness K, and per-element strain rows.

    Basis gradients come from the inverse transpose of each element's
    Jacobian.  ``bmat[e]`` maps the element's six dofs (vx0, vy0, ..., vy2) to
    (e11, e22, e12), so (sigma, E(phi)) = s00 e11 + s11 e22 + 2 s01 e12.
    """
    p = nodes[tris]
    jac = np.stack([p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]], axis=2)   # columns
    area = 0.5 * np.abs(np.linalg.det(jac))
    g12 = np.linalg.inv(jac).transpose(0, 2, 1)                       # columns: grad l1, l2
    grads = np.stack([-(g12[:, :, 0] + g12[:, :, 1]), g12[:, :, 0], g12[:, :, 1]], axis=1)
    m = len(tris)
    bmat = np.zeros((m, 3, 6))
    bmat[:, 0, 0::2] = grads[:, :, 0]
    bmat[:, 1, 1::2] = grads[:, :, 1]
    bmat[:, 2, 0::2] = 0.5 * grads[:, :, 1]
    bmat[:, 2, 1::2] = 0.5 * grads[:, :, 0]
    weights = np.array([1.0, 1.0, 2.0])
    k_loc = area[:, None, None] * np.einsum("eai,a,eaj->eij", bmat, weights, bmat)
    m_scalar = (np.ones((3, 3)) + np.eye(3)) / 12.0
    m_loc = np.zeros((m, 6, 6))
    m_loc[:, 0::2, 0::2] = area[:, None, None] * m_scalar
    m_loc[:, 1::2, 1::2] = area[:, None, None] * m_scalar
    dofs = np.repeat(2 * tris, 2, axis=1) + np.tile([0, 1], 3)
    rows = np.repeat(dofs, 6, axis=1).ravel()
    cols = np.tile(dofs, (1, 6)).ravel()
    n = 2 * len(nodes)
    mass = sp.coo_matrix((m_loc.ravel(), (rows, cols)), shape=(n, n)).tocsr()
    stiff = sp.coo_matrix((k_loc.ravel(), (rows, cols)), shape=(n, n)).tocsr()
    return mass, stiff, bmat, area, dofs


def last_step_error(cfg: dict, nodes, tris, v_prev, v_last, sigma_prev) -> float:
    """Relative distance of the last velocity from a direct solve of its step.

    The projection step solves (M/dt + (nu + dt) K) v = M v_prev / dt + F
    - S(sigma_prev + dt h) on the dofs off the clamped left edge.
    """
    if cfg["mesh"]["gamma1"] != ["left"] or cfg.get("scheme", "projection") != "projection":
        raise ValueError("the direct-solve check covers the projection scheme clamped on the left")
    dt, nu = cfg["T"] / cfg["N"], cfg["nu"]
    f = _const(cfg, "f", [0.0, 0.0])
    h = _const(cfg, "h", [0.0, 0.0, 0.0])
    mass, stiff, bmat, area, dofs = _p1_system(nodes, tris)
    n = 2 * len(nodes)
    body = np.zeros(n)
    np.add.at(body, dofs, np.tile(f, 3)[None, :] * (area / 3.0)[:, None])
    s = sigma_prev + dt * h
    s_voigt = np.column_stack([s[:, 0], s[:, 2], 2.0 * s[:, 1]])
    stress = np.zeros(n)
    np.add.at(stress, dofs, area[:, None] * np.einsum("eai,ea->ei", bmat, s_voigt))
    rhs = mass @ v_prev / dt + body - stress
    free = np.repeat(nodes[:, 0] != 0.0, 2)
    a = (mass / dt + (nu + dt) * stiff).tocsr()[free][:, free]
    ref = np.zeros(n)
    ref[free] = spsolve(a.tocsc(), rhs[free])
    return float(np.linalg.norm(v_last - ref) / np.linalg.norm(ref))


def check_fem_run(cfg: dict, out_dir: str, traj: dict) -> list[list[str]]:
    """Per step: the CSV row, yield feasibility and the projection's closed form.

    ``traj`` holds the run's ``sigma`` and ``sigma_star`` series, shape
    (N+1, m, 3), the velocity series ``v`` (N+1, dofs), and the mesh
    ``nodes`` and ``triangles``.
    """
    n_rows = expected_rows("fem_run", cfg)
    rows, problems = _read_table(os.path.join(out_dir, "norms.csv"), NORMS_HEADER, n_rows)
    for k, row in enumerate(rows):
        if row is None:
            continue
        if row[0] != k:
            problems[k].append(f"row n = {row[0]:g}, expected {k}")
        if row[4] < -YIELD_RTOL:
            problems[k].append(f"yield_slack_min {row[4]:.3e} below -{YIELD_RTOL:g}")

    p = _const(cfg, "p", [0.0, 0.0, 0.0])
    g = float(_const(cfg, "g", 1.0))
    sig = traj["sigma"] + p
    star = traj["sigma_star"] + p
    if sig.shape[0] != n_rows:
        for k in range(n_rows):
            problems[k].append(f"trajectory has {sig.shape[0]} states, expected {n_rows}")
        return problems
    radius = _dev_norm(sig)
    radius_star = _dev_norm(star)
    feasible = radius <= g * (1.0 + YIELD_RTOL)
    scale = np.maximum(1.0, np.abs(star).max(axis=-1))
    unchanged = np.abs(sig - star).max(axis=-1) <= PROJECTION_RTOL * scale
    tr, tr_star = sig[..., 0] + sig[..., 2], star[..., 0] + star[..., 2]
    keeps_sph = np.abs(tr - tr_star) <= PROJECTION_RTOL * scale
    on_surface = np.abs(radius - g) <= PROJECTION_RTOL * max(g, 1.0)
    # the clipped deviator is the trial deviator scaled by g / |dev(sigma* + p)|
    dev = np.stack([0.5 * (sig[..., 0] - sig[..., 2]), sig[..., 1]], axis=-1)
    dev_star = np.stack([0.5 * (star[..., 0] - star[..., 2]), star[..., 1]], axis=-1)
    shrink = g / np.maximum(radius_star, g)
    aligned = np.abs(dev - shrink[..., None] * dev_star).max(axis=-1) <= PROJECTION_RTOL * scale
    inside = radius_star <= g
    projected = np.where(inside, unchanged, keeps_sph & on_surface & aligned)
    for k in range(n_rows):
        if not feasible[k].all():
            worst = float((radius[k] - g).max())
            problems[k].append(f"stress outside the yield set by {worst:.3e}")
        if not projected[k].all():
            problems[k].append(f"{int((~projected[k]).sum())} elements differ from "
                               "the closed-form projection")
    n = n_rows - 1
    err = last_step_error(cfg, traj["nodes"], traj["triangles"], traj["v"][n - 1],
                          traj["v"][n], traj["sigma"][n - 1])
    if not err <= SOLVE_RTOL:
        problems[n].append(f"last velocity differs from a direct solve by {err:.3e}")
    return problems


# -- fem_stability -----------------------------------------------------------------


def check_fem_stability(cfg: dict, out_dir: str) -> list[list[str]]:
    """Per dt: the energy inequality holds and the norms stay bounded."""
    dts = cfg["study"]["dt_list"]
    rows, problems = _read_table(os.path.join(out_dir, "stability.csv"),
                                 STABILITY_HEADER, len(dts))
    col = {name: i for i, name in enumerate(STABILITY_HEADER)}
    finest = rows[-1]
    for k, row in enumerate(rows):
        if row is None:
            continue
        n = max(1, round(cfg["T"] / dts[k]))
        if row[col["N"]] != n or abs(row[col["dt"]] - cfg["T"] / n) > 1e-15:
            problems[k].append(f"row dt={row[col['dt']]:g} N={row[col['N']]:g}, expected N={n}")
        if not row[col["energy_lhs_max"]] <= row[col["energy_rhs"]]:
            problems[k].append("energy_lhs_max exceeds energy_rhs")
        if row[col["energy_ok"]] != 1.0:
            problems[k].append("energy_ok is not 1")
        for name in ("linf_H_vbar", "linf_H_sigma"):
            if finest is None:
                problems[k].append(f"{name}: finest dt row unusable")
                continue
            ratio = row[col[name]] / finest[col[name]]
            if not 1.0 / STABILITY_FACTOR <= ratio <= STABILITY_FACTOR:
                problems[k].append(f"{name} is {ratio:.3g} times the finest dt's")
    return problems


# -- zero_d_convergence ----------------------------------------------------------------


def radial_0d_error(cfg: dict, n_coarse: int) -> float:
    """Closed-form err_sigma_LinfH of the 0d radial case at n_coarse steps.

    With drive a diag(1, -1) and yield radius g the stress is
    sigma(t) = min(a t, g / sqrt 2) diag(1, -1), exactly at every step of
    the projection scheme.  The error is the H (Frobenius) distance between
    the hat interpolant of the coarse nodes and sigma on the reference grid.
    """
    if cfg["h"]["name"] != "radial_deviatoric" or np.any(_const(cfg, "p", [0.0] * 3)):
        raise ValueError("the closed form covers radial deviatoric drive with p = 0")
    a = float(cfg["h"].get("params", {}).get("amplitude", 1.0))
    g = float(_const(cfg, "g", 1.0))
    total_t, n_ref = cfg["T"], cfg["study"]["ref_N"]
    t_ref = np.arange(n_ref + 1) * (total_t / n_ref)
    t_c = np.arange(n_coarse + 1) * (total_t / n_coarse)
    cap = g / math.sqrt(2.0)
    hat = np.interp(t_ref, t_c, np.minimum(a * t_c, cap))
    return math.sqrt(2.0) * float(np.abs(hat - np.minimum(a * t_ref, cap)).max())


def check_zero_d_convergence(cfg: dict, out_dir: str) -> list[list[str]]:
    """Per dt: the reported stress error equals the closed form's."""
    dts = cfg["study"]["dt_list"]
    rows, problems = _read_table(os.path.join(out_dir, "convergence.csv"),
                                 CONVERGENCE_HEADER, len(dts))
    col = {name: i for i, name in enumerate(CONVERGENCE_HEADER)}
    for k, row in enumerate(rows):
        if row is None:
            continue
        n = round(cfg["T"] / dts[k])
        if row[col["N"]] != n:
            problems[k].append(f"row N={row[col['N']]:g}, expected {n}")
            continue
        exact = radial_0d_error(cfg, n)
        got = row[col["err_sigma_LinfH"]]
        if not abs(got - exact) <= ZERO_D_ATOL:
            problems[k].append(f"err_sigma_LinfH {got:.12g} vs closed form {exact:.12g}")
        if row[col["err_v_LinfH"]] != 0.0 or row[col["err_v_L2V"]] != 0.0:
            problems[k].append("0d velocity errors are not 0")
    return problems


# -- verify_suites -----------------------------------------------------------------------


def check_verify_suites(cfg: dict, out_dir: str, exit_code: int) -> list[list[str]]:
    """Per suite: the row passed, within the documented tolerance."""
    names = list(VERIFY_TOLS)
    rows, problems = _read_table(os.path.join(out_dir, "verify.csv"), VERIFY_HEADER,
                                 len(names), numeric_from=1)
    for k, row in enumerate(rows):
        if exit_code != 0:
            problems[k].append(f"verify exited with {exit_code}")
        if row is None:
            continue
        name, violation, tol, passed = row
        if name != names[k]:
            problems[k].append(f"suite {name!r}, expected {names[k]!r}")
            continue
        if tol != VERIFY_TOLS[name]:
            problems[k].append(f"tol {tol:g} differs from the documented {VERIFY_TOLS[name]:g}")
        if passed != 1.0 or not violation <= VERIFY_TOLS[name]:
            problems[k].append(f"failed: max violation {violation:.3e}")
    return problems
