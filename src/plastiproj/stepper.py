"""Time stepping for the viscous perfect-plasticity evolution.

Three step variants share the same stress update and per-element projection:

* ``projection`` (the default): substitute the explicit trial-stress update
  into the momentum equation, giving a single SPD solve per step with matrix
  M/dt + (nu + dt) K, then project the trial stress onto the moving
  constraint set.  Unconditionally stable, one linear solve per step.  The
  matrix is constant over a run, so it is factored once and each step's
  solve reuses the factor.
* ``implicit``: the projected stress itself enters the momentum equation;
  solved by Picard iteration (momentum solve with matrix M/dt + nu K, then
  re-project) started from a projection step.
* ``explicit``: the previous stress enters the momentum equation; only
  conditionally stable, kept as a demonstration reference.

All three run through one step kernel, ``_step``; the scheme only picks the
stress that enters the momentum equation.

Two scenario modes: ``fem`` (P1 velocity / P0 stress on a rectangle) and
``0d`` (a single stress tensor driven by prescribed data, the pointwise
sweeping process; the momentum equation is dropped, so there is no strain
rate and the stress source h alone drives the stress).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Callable

import numpy as np
from scipy.sparse.linalg import eigsh

from . import tensor_core as tc
from .catalog import ConfigError
from .fem2d import (
    FemSpace,
    Mesh2D,
    body_load,
    build_rect_mesh,
    apply_dirichlet,
    stress_load,
    strain_of,
)
# cg_solve is not called here; perfbench/spans.py wraps stepper.cg_solve by name
from .linalg import SparseSym, cg_solve, factorized_solve, spmv  # noqa: F401

SCHEMES = ("projection", "implicit", "explicit")

# relative feasibility slack absorbing projection roundoff
FEASIBILITY_TOL = 1e-10

# Picard iteration of the implicit scheme: stop when successive stresses are
# this close in the H norm, or after this many momentum solves
FP_TOL = 1e-10
FP_MAX_ITER = 200


@dataclass
class ProblemSpec:
    """All continuous data of one run.

    Data functions are vectorized: f(t, pts)->(k,2), h/p(t, pts)->(k,3)
    packed tensors, g(t, pts)->(k,).  In 0d mode they are evaluated at the
    single dummy point (0, 0).
    """

    nu: float
    T: float
    N: int
    mode: str  # "fem" | "0d"
    f: Callable[[float, np.ndarray], np.ndarray]
    h: Callable[[float, np.ndarray], np.ndarray]
    p: Callable[[float, np.ndarray], np.ndarray]
    g: Callable[[float, np.ndarray], np.ndarray]
    v0: Callable[[np.ndarray], np.ndarray] | None = None
    sigma0: Callable[[np.ndarray], np.ndarray] | None = None
    nx: int = 8
    ny: int = 8
    lx: float = 1.0
    ly: float = 1.0
    gamma1: tuple[str, ...] = ("left",)

    def __post_init__(self):
        if not (math.isfinite(self.nu) and self.nu > 0.0):
            raise ValueError("nu must be finite and > 0")
        if not (math.isfinite(self.T) and self.T > 0.0):
            raise ValueError("T must be finite and > 0")
        if self.N < 1:
            raise ValueError("N must be >= 1")
        if self.mode not in ("fem", "0d"):
            raise ValueError(f"unknown mode {self.mode!r}")

    @property
    def dt(self) -> float:
        return self.T / self.N

    def with_steps(self, n: int) -> "ProblemSpec":
        return replace(self, N=n)


@dataclass
class SchemeState:
    n: int
    t: float
    v: np.ndarray | None          # dof vector (fem) or None (0d)
    sigma_star: np.ndarray        # (m, 3)
    sigma: np.ndarray             # (m, 3)
    fp_iters: int = 0
    fp_converged: bool = True


@dataclass
class Trajectory:
    spec: ProblemSpec
    scheme: str
    states: list[SchemeState]
    mesh: Mesh2D | None = None
    space: FemSpace | None = None

    @property
    def times(self) -> np.ndarray:
        return np.array([s.t for s in self.states])

    def sigma_series(self) -> np.ndarray:
        return np.stack([s.sigma for s in self.states])

    def sigma_star_series(self) -> np.ndarray:
        return np.stack([s.sigma_star for s in self.states])

    def v_series(self) -> np.ndarray | None:
        if self.states[0].v is None:
            return None
        return np.stack([s.v for s in self.states])


@dataclass
class NormReport:
    dual_norm_dv: float
    linf_H_vbar: float
    l2_V_vbar: float
    gap_v: float
    linf_H_sigma_star: float
    linf_H_sigma: float
    gap_sigma: float
    h1_H_sigma_hat: float

    def as_dict(self) -> dict[str, float]:
        return dict(self.__dict__)


def time_average(fn, n: int, dt: float, pts: np.ndarray, quad_points: int = 4) -> np.ndarray:
    """Composite midpoint average of fn over (t_{n-1}, t_n)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if quad_points < 1:
        raise ValueError("quad_points must be >= 1")
    t0 = (n - 1) * dt
    sub = dt / quad_points
    mids = t0 + sub * (np.arange(quad_points) + 0.5)
    acc = None
    for t in mids:
        val = np.asarray(fn(float(t), pts), dtype=float)
        acc = val if acc is None else acc + val
    return acc / quad_points


class _Engine:
    """Per-run context: mesh, matrices, constrained operators.

    A given ``space`` is reused, so an analysis of a finished run builds no
    second mesh.  The step matrices and their factors are built on first
    use, so an engine made only for ``initial_state`` or the energy report
    assembles no step matrix, and a projection run never builds ``a_visc``.
    """

    def __init__(self, spec: ProblemSpec, space: FemSpace | None = None):
        self.spec = spec
        if spec.mode == "fem":
            self.space = space or FemSpace(
                build_rect_mesh(spec.nx, spec.ny, spec.lx, spec.ly, spec.gamma1))
            self.mesh = self.space.mesh
            self.pts = self.mesh.centroids
            self.mask = self.space.mask
        else:
            self.mesh = None
            self.space = None
            self.pts = np.zeros((1, 2))
            self.mask = None

    def _step_matrix(self, visc: float) -> SparseSym:
        """M/dt + visc K with the constrained dofs eliminated."""
        # times the reciprocal, as the values of a / dt would differ in the last bit
        a = self.space.mass * (1.0 / self.spec.dt) + self.space.strain_stiff * visc
        return apply_dirichlet(a, self.mask)

    @cached_property
    def a_proj(self) -> SparseSym:
        return self._step_matrix(self.spec.nu + self.spec.dt)

    @cached_property
    def a_visc(self) -> SparseSym:
        return self._step_matrix(self.spec.nu)

    @cached_property
    def solve_proj(self):
        return factorized_solve(self.a_proj)

    @cached_property
    def solve_visc(self):
        return factorized_solve(self.a_visc)

    # -- data samples -------------------------------------------------------

    def f_load(self, n: int) -> np.ndarray:
        fvals = time_average(self.spec.f, n, self.spec.dt, self.pts)
        load = body_load(self.mesh, fvals)
        return np.where(self.mask, 0.0, load)

    def h_avg(self, n: int) -> np.ndarray:
        return time_average(self.spec.h, n, self.spec.dt, self.pts)

    def p_at(self, t: float) -> np.ndarray:
        return np.asarray(self.spec.p(t, self.pts), dtype=float)

    def g_at(self, t: float) -> np.ndarray:
        g = np.asarray(self.spec.g(t, self.pts), dtype=float)
        if (g < 0.0).any():
            # parse_config samples g on [0, T] only; t_N = N dt can pass T
            raise ConfigError(f"field 'g': negative yield radius at t={t}")
        return g

    # -- momentum solve -----------------------------------------------------

    def solve_momentum(self, solve, prev: SchemeState, n: int,
                       sigma_term: np.ndarray) -> np.ndarray:
        """Velocity of step n from a factored step-matrix ``solve``."""
        spec = self.spec
        rhs = spmv(self.space.mass, prev.v) / spec.dt + self.f_load(n)
        rhs -= stress_load(self.mesh, sigma_term)
        v = solve(np.where(self.mask, 0.0, rhs))
        if not np.all(np.isfinite(v)):
            raise RuntimeError(f"momentum solve at step {n} gave a non-finite velocity")
        return v


def initial_state(spec: ProblemSpec, engine: _Engine | None = None) -> SchemeState:
    eng = engine or _Engine(spec)
    if spec.mode == "fem":
        v0 = np.zeros(eng.mesh.n_dofs)
        if spec.v0 is not None:
            v0 = np.asarray(spec.v0(eng.mesh.nodes), dtype=float).reshape(-1)
        v0 = np.where(eng.mask, 0.0, v0)
    else:
        v0 = None
    if spec.sigma0 is not None:
        s0 = np.asarray(spec.sigma0(eng.pts), dtype=float).reshape(len(eng.pts), 3)
    else:
        s0 = np.zeros((len(eng.pts), 3))
    g0 = eng.g_at(0.0)
    slack = tc.yield_slack_arr(s0, eng.p_at(0.0), g0)
    tol = FEASIBILITY_TOL * np.maximum(1.0, g0)
    if np.any(slack < -tol):
        raise ValueError(
            f"initial stress violates the yield constraint by {-slack.min():.3e}"
        )
    # the trial stress at step 0 is defined to equal the initial stress
    return SchemeState(n=0, t=0.0, v=v0, sigma_star=s0.copy(), sigma=s0.copy())


def _step(prev: SchemeState, eng: _Engine, n: int, scheme: str) -> SchemeState:
    """Step n of ``scheme``: momentum solve, trial stress, projection.

    The momentum equation sees sigma_{n-1} + dt h_n (projection, matrix
    M/dt + (nu + dt) K), sigma_{n-1} (explicit, M/dt + nu K), or the
    projected stress itself (implicit: a projection step, then Picard
    iteration with M/dt + nu K).
    """
    dt = eng.spec.dt
    t_n = n * dt
    h_n, p_n, g_n = eng.h_avg(n), eng.p_at(t_n), eng.g_at(t_n)

    def update(v):
        # trial stress sigma* = sigma_{n-1} + dt (E(v) + h_n) and its projection
        rate = h_n if v is None else strain_of(eng.mesh, v) + h_n
        sigma_star = prev.sigma + dt * rate
        if not np.isfinite(sigma_star).all():
            raise RuntimeError(f"trial stress at step {n} is non-finite")
        return sigma_star, tc.project_constraint_arr(sigma_star, p_n, g_n)

    if eng.spec.mode == "0d":
        # no momentum coupling: every scheme is one projection, and the
        # implicit fixed point is reached at once
        return SchemeState(n, t_n, None, *update(None), fp_iters=int(scheme == "implicit"))
    if scheme == "explicit":
        v = eng.solve_momentum(eng.solve_visc, prev, n, prev.sigma)
    else:
        v = eng.solve_momentum(eng.solve_proj, prev, n, prev.sigma + dt * h_n)
    sigma_star, sigma = update(v)
    if scheme != "implicit":
        return SchemeState(n, t_n, v, sigma_star, sigma)
    areas = eng.mesh.areas
    for it in range(1, FP_MAX_ITER + 1):
        v = eng.solve_momentum(eng.solve_visc, prev, n, sigma)
        sigma_star, sigma_next = update(v)
        diff = sigma_next - sigma
        dist = math.sqrt(max((areas * tc.frob_inner_arr(diff, diff)).sum(), 0.0))
        sigma = sigma_next
        if dist <= FP_TOL:
            return SchemeState(n, t_n, v, sigma_star, sigma, fp_iters=it)
    return SchemeState(n, t_n, v, sigma_star, sigma, fp_iters=FP_MAX_ITER,
                       fp_converged=False)


def step_projection(prev: SchemeState, eng: _Engine, n: int) -> SchemeState:
    return _step(prev, eng, n, "projection")


def step_implicit(prev: SchemeState, eng: _Engine, n: int) -> SchemeState:
    return _step(prev, eng, n, "implicit")


def step_explicit(prev: SchemeState, eng: _Engine, n: int) -> SchemeState:
    return _step(prev, eng, n, "explicit")


def run(spec: ProblemSpec, scheme: str = "projection") -> Trajectory:
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}; expected one of {SCHEMES}")
    # looked up per run, so a wrapper installed on a step function sees every step
    step = {"projection": step_projection, "implicit": step_implicit,
            "explicit": step_explicit}[scheme]
    eng = _Engine(spec)
    states = [initial_state(spec, eng)]
    for n in range(1, spec.N + 1):
        states.append(step(states[-1], eng, n))
    return Trajectory(spec=spec, scheme=scheme, states=states,
                      mesh=eng.mesh, space=eng.space)


# -- interpolants -------------------------------------------------------------


def _field_of(state: SchemeState, which: str) -> np.ndarray:
    if which == "v":
        if state.v is None:
            raise ValueError("trajectory has no velocity (0d mode)")
        return state.v
    if which == "sigma":
        return state.sigma
    if which == "sigma_star":
        return state.sigma_star
    raise ValueError(f"unknown field {which!r}")


def interpolant_eval(traj: Trajectory, t: float, kind: str, which: str) -> np.ndarray:
    """Piecewise linear (hat) or right-constant (bar) reconstruction in time.

    bar uses the half-open intervals (t_{k-1}, t_k]; a bar query at t = 0
    returns the first step value by right-continuity.
    """
    spec = traj.spec
    if t < 0.0 or t > spec.T * (1.0 + 1e-12):
        raise ValueError(f"t={t} outside [0, {spec.T}]")
    dt = spec.dt
    if kind == "hat":
        k = min(int(math.ceil(t / dt - 1e-12)), spec.N)
        if k <= 0:
            return _field_of(traj.states[0], which)
        w = (t - (k - 1) * dt) / dt
        a = _field_of(traj.states[k - 1], which)
        b = _field_of(traj.states[k], which)
        return (1.0 - w) * a + w * b
    if kind == "bar":
        k = max(1, min(int(math.ceil(t / dt - 1e-12)), spec.N))
        return _field_of(traj.states[k], which)
    raise ValueError(f"unknown interpolant kind {kind!r}")


# -- discrete norms ------------------------------------------------------------


def discrete_norms(traj: Trajectory) -> NormReport:
    """The monitored stability norms for a fem-mode trajectory.

    Interval integrals are closed-form: for a linear-in-time difference
    (hat minus bar) each interval contributes (dt/3)||x_k - x_{k-1}||^2, and
    the square of a hat function integrates to
    (dt/3)(||a||^2 + (a,b) + ||b||^2).
    """
    if traj.space is None:
        raise ValueError("discrete norms need a fem-mode trajectory")
    spec, space = traj.spec, traj.space
    dt = spec.dt
    areas = traj.mesh.areas
    mass = space.mass

    def h_inner(a, b):
        return float((areas * tc.frob_inner_arr(a, b)).sum())

    dual_sq = 0.0
    l2v_sq = 0.0
    gap_v = 0.0
    linf_v = 0.0
    linf_ss = 0.0
    linf_s = 0.0
    gap_sigma = 0.0
    h1_sq = 0.0
    for n in range(1, spec.N + 1):
        s_prev, s_cur = traj.states[n - 1], traj.states[n]
        dv = (s_cur.v - s_prev.v) / dt
        r = spmv(mass, dv)
        dual_sq += dt * space.dual_norm(r) ** 2
        l2v_sq += dt * space.v_norm(s_cur.v) ** 2
        gap_v += (1.0 / 3.0) * space.l2_norm(s_cur.v - s_prev.v) ** 2
        linf_v = max(linf_v, space.l2_norm(s_cur.v))
        linf_ss = max(linf_ss, space.stress_l2(s_cur.sigma_star))
        linf_s = max(linf_s, space.stress_l2(s_cur.sigma))
        gap_sigma += h_inner(s_cur.sigma - s_cur.sigma_star, s_cur.sigma - s_cur.sigma_star)
        a, b = s_prev.sigma, s_cur.sigma
        h1_sq += (dt / 3.0) * (h_inner(a, a) + h_inner(a, b) + h_inner(b, b))
        ds = (b - a) / dt
        h1_sq += dt * h_inner(ds, ds)
    return NormReport(
        dual_norm_dv=math.sqrt(dual_sq),
        linf_H_vbar=linf_v,
        l2_V_vbar=math.sqrt(l2v_sq),
        gap_v=gap_v,
        linf_H_sigma_star=linf_ss,
        linf_H_sigma=linf_s,
        gap_sigma=gap_sigma,
        h1_H_sigma_hat=math.sqrt(h1_sq),
    )


# -- discrete energy inequality -------------------------------------------------


@dataclass
class EnergyReport:
    lhs: np.ndarray      # indexed by m = 1..N
    rhs: float
    korn: float
    c2: float
    ok: bool


def korn_constant(space: FemSpace) -> float:
    """Largest ratio ||phi||_V / ||E(phi)||_H over the constrained FE space.

    That is sqrt(1 / mu) for the smallest eigenvalue mu of K x = mu G x on
    the free dofs (K strain stiffness, G H1 Gram), found by shift-invert
    Lanczos about 0.  The fixed start vector keeps reruns byte-identical.
    """
    free = ~space.mask
    g = space.h1_gram[free][:, free].tocsc()
    k = space.strain_stiff[free][:, free].tocsc()
    mu = eigsh(k, k=1, M=g, sigma=0.0, which="LM", v0=np.ones(k.shape[0]),
               return_eigenvectors=False)
    return float(math.sqrt(1.0 / mu[0]))


def energy_report(traj: Trajectory) -> EnergyReport:
    """Numeric check of the summed per-step energy inequality.

    LHS(m) = ||v_m||^2 + 1/2 ||sigma*_m + p_m||^2 + 1/2 ||sigma_m + p_m||^2
             + nu dt sum_{n<=m} ||E(v_n)||^2 must stay below
    c2 (||v0||^2 + ||sigma0||^2 + ||p_0||^2
        + dt sum_n (||f_n||_{V*}^2 + ||p_n||^2 + ||Dp_n||^2 + ||h_n||^2))
    with c2 = e * max(2 cK^2/nu, 2/nu, 4) and cK the mesh-measured constant
    from korn_constant.
    """
    if traj.space is None:
        raise ValueError("energy report needs a fem-mode trajectory")
    spec, space, mesh = traj.spec, traj.space, traj.mesh
    eng = _Engine(spec, space)
    dt = spec.dt
    areas = mesh.areas

    def h_sq(a):
        return float((areas * tc.frob_inner_arr(a, a)).sum())

    ck = korn_constant(space)
    c2 = math.e * max(2.0 * ck**2 / spec.nu, 2.0 / spec.nu, 4.0)

    p_prev = eng.p_at(0.0)
    rhs_sum = 0.0
    lhs = np.zeros(spec.N)
    strain_acc = 0.0
    for n in range(1, spec.N + 1):
        t_n = n * dt
        p_n = eng.p_at(t_n)
        f_n = eng.f_load(n)
        h_n = eng.h_avg(n)
        dp = (p_n - p_prev) / dt
        rhs_sum += space.dual_norm(f_n) ** 2 + h_sq(p_n) + h_sq(dp) + h_sq(h_n)
        st = traj.states[n]
        strain_acc += float(st.v @ spmv(space.strain_stiff, st.v))
        lhs[n - 1] = (
            space.l2_norm(st.v) ** 2
            + 0.5 * h_sq(st.sigma_star + p_n)
            + 0.5 * h_sq(st.sigma + p_n)
            + spec.nu * dt * strain_acc
        )
        p_prev = p_n
    s0 = traj.states[0]
    rhs = c2 * (
        space.l2_norm(s0.v) ** 2 + h_sq(s0.sigma) + h_sq(eng.p_at(0.0)) + dt * rhs_sum
    )
    return EnergyReport(lhs=lhs, rhs=rhs, korn=ck, c2=c2, ok=bool(np.all(lhs <= rhs)))


# -- displacement and plastic strain --------------------------------------------


def accumulate_displacement(traj: Trajectory, u0: np.ndarray | None = None) -> np.ndarray:
    """Trapezoidal time integration of the velocity, shape (N+1, n_dofs)."""
    vs = traj.v_series()
    if vs is None:
        raise ValueError("displacement accumulation needs a fem-mode trajectory")
    dt = traj.spec.dt
    out = np.zeros_like(vs)
    out[0] = np.zeros(vs.shape[1]) if u0 is None else np.asarray(u0, dtype=float)
    for n in range(1, len(vs)):
        out[n] = out[n - 1] + 0.5 * dt * (vs[n - 1] + vs[n])
    return out


def plastic_strain(traj: Trajectory, u_traj: np.ndarray) -> np.ndarray:
    """Per-element plastic strain series E(u_n) - sigma_n, shape (N+1, m, 3)."""
    mesh = traj.mesh
    if mesh is None:
        raise ValueError("plastic strain needs a fem-mode trajectory")
    out = np.empty((len(traj.states), mesh.n_elements, 3))
    for n, st in enumerate(traj.states):
        out[n] = strain_of(mesh, u_traj[n]) - st.sigma
    return out
