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

In fem mode all three run through one step kernel, ``_step``, whose entry
points are ``step_projection``, ``step_implicit`` and ``step_explicit``;
the scheme only picks the stress that enters the momentum equation.

Two scenario modes: ``fem`` (P1 velocity / P0 stress on the spec's
``FemSpace``) and ``0d`` (no space: a single stress tensor driven by
prescribed data, the pointwise sweeping process; the momentum equation is
dropped, so there is no strain rate and the stress source h alone drives it).
Without the momentum equation every scheme is the same projection step, so
``run`` steps a 0d trajectory as one recurrence over Python floats
(``_run_0d``), bit for bit the array kernel's arithmetic, and calls no step
function.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Callable

import numpy as np

from . import tensor_core as tc
from .catalog import ConfigError, is_steady
from .fem2d import (
    FemSpace,
    Mesh2D,
    body_load,
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
# ... and fail the step when the distance is non-finite or has grown on this
# many consecutive iterations: the Picard map does not contract there
FP_GROWTH_LIMIT = 10

# floats (256 KB) that a block of sampled 0d steps, or a chunk of trajectory
# rows (convergence_errors, norms.csv), may hold: as many as fit and at least one
SAMPLE_BUDGET = 2**15
# midpoints per step of the time averages of f and h
QUAD_POINTS = 4
# steps per block of 0d data: per step, the midpoint samples of h, then p and g
BLOCK_0D = SAMPLE_BUDGET // (3 * QUAD_POINTS + 3 + 1)


@dataclass
class ProblemSpec:
    """All continuous data of one run, and its discrete space: a ``FemSpace``,
    or None for the 0d sweeping process.  ``with_steps`` keeps the space, so
    the runs of a study share its mesh, matrices and cached factors.

    Every datum is a function of (t, pts), vectorized over the k points
    ``pts``: f/v0 -> (k, 2), h/p/sigma0 -> (k, 3) packed tensors, g -> (k,).
    f, h, p and g are vectorized over time too: for a 1-D array t of m times
    each returns one row per time, equal to the call at that scalar time.
    Every call returns a new array.  ``_Engine.data`` samples and checks
    them, ``BLOCK_0D`` steps per call in 0d and one step in fem, and a datum
    that the catalog marks steady (``catalog.is_steady``) once per engine;
    ``initial_state`` checks v0 and sigma0 at t = 0.
    """

    nu: float
    T: float
    N: int
    space: FemSpace | None
    f: Callable[[float, np.ndarray], np.ndarray]
    h: Callable[[float, np.ndarray], np.ndarray]
    p: Callable[[float, np.ndarray], np.ndarray]
    g: Callable[[float, np.ndarray], np.ndarray]
    v0: Callable[[float, np.ndarray], np.ndarray] | None = None
    sigma0: Callable[[float, np.ndarray], np.ndarray] | None = None

    def __post_init__(self):
        if not (math.isfinite(self.nu) and self.nu > 0.0):
            raise ValueError("nu must be finite and > 0")
        if not (math.isfinite(self.T) and self.T > 0.0):
            raise ValueError("T must be finite and > 0")
        if self.N < 1:
            raise ValueError("N must be >= 1")
        if self.dt == 0.0:
            raise ValueError("T / N must be > 0, but it underflows to 0")

    @property
    def pts(self) -> np.ndarray:
        """The element centroids, or the single dummy point (0, 0) in 0d mode."""
        return np.zeros((1, 2)) if self.space is None else self.space.mesh.centroids

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
    """A run's steps n = 0 .. N as columns, one row per step: ``sigma`` and
    ``sigma_star`` (N+1, m, 3), ``v`` (N+1, n_dofs) or None in 0d, and the
    Picard counts ``fp_iters`` and flags ``fp_converged`` (N+1,).

    ``state(k)`` and ``states`` give ``SchemeState``s that view the rows;
    they are built on access, for callers that read a run step by step.
    """

    spec: ProblemSpec
    sigma: np.ndarray
    sigma_star: np.ndarray
    v: np.ndarray | None
    fp_iters: np.ndarray
    fp_converged: np.ndarray

    @property
    def space(self) -> FemSpace | None:
        return self.spec.space

    @property
    def mesh(self) -> Mesh2D | None:
        return None if self.space is None else self.space.mesh

    def state(self, k: int) -> SchemeState:
        """Step k (from the end if negative), viewing the columns."""
        n = range(self.spec.N + 1)[k]
        return SchemeState(n, n * self.spec.dt, None if self.v is None else self.v[n],
                           self.sigma_star[n], self.sigma[n], int(self.fp_iters[n]),
                           bool(self.fp_converged[n]))

    @property
    def states(self) -> list[SchemeState]:
        return [self.state(k) for k in range(self.spec.N + 1)]

    def sigma_series(self) -> np.ndarray:
        return self.sigma

    def sigma_star_series(self) -> np.ndarray:
        return self.sigma_star

    def v_series(self) -> np.ndarray | None:
        return self.v

    def row_chunks(self) -> list[slice]:
        """The rows in consecutive chunks of at most SAMPLE_BUDGET floats, or of one row."""
        per_row = self.sigma[0].size + (0 if self.v is None else self.v.shape[1])
        step = max(1, SAMPLE_BUDGET // per_row)
        return [slice(j, min(j + step, len(self.sigma))) for j in range(0, len(self.sigma), step)]


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


def time_average(fn, n, dt: float, pts: np.ndarray) -> np.ndarray:
    """Composite midpoint average of fn over (t_{n-1}, t_n), QUAD_POINTS points.

    ``n`` is a step index, giving fn's (k, ...) shape, or a 1-D array of
    them, giving one row per step; either way fn is called once, at every
    midpoint.  The points are summed in order and then divided, as a loop
    over scalar calls would.
    """
    ns = np.asarray(n)
    if (ns < 1).any():
        raise ValueError("n must be >= 1")
    sub = dt / QUAD_POINTS
    mids = ((ns - 1) * dt)[..., None] + sub * (np.arange(QUAD_POINTS) + 0.5)
    vals = np.asarray(fn(mids.reshape(-1), pts), dtype=float)
    vals = vals.reshape((-1, QUAD_POINTS) + vals.shape[1:])
    acc = vals[:, 0]
    for i in range(1, QUAD_POINTS):
        acc = acc + vals[:, i]
    return (acc / QUAD_POINTS).reshape(ns.shape + vals.shape[2:])


def _checked(field: str, t, x, lowest: float = -math.inf, noun: str = "value") -> np.ndarray:
    """``x`` as floats: the samples of ``field`` at a time t, or one row per
    time of a 1-D array t.  A ConfigError names the first time where a value
    is below ``lowest`` ("negative") or not finite."""
    x = np.asarray(x, dtype=float)
    # two reductions and no temporary; the min is NaN if any value is
    lo = x.min()
    if not (lo >= lowest and math.isfinite(lo) and math.isfinite(x.max())):
        rows = x.reshape(np.size(t), -1)
        k = (~((lowest <= rows) & np.isfinite(rows))).any(axis=-1).argmax()
        what = "negative" if np.less(rows[k], lowest).any() else "non-finite"
        raise ConfigError(f"field {field!r}: {what} {noun} at t={np.reshape(t, -1)[k]}")
    return x


def _norm_overflow(n: int) -> RuntimeError:
    return RuntimeError(f"deviator norm of the trial stress at step {n} overflows")


def _factor_step_matrix(a: SparseSym, visc: float):
    try:
        return factorized_solve(a)
    except RuntimeError as exc:  # not positive definite
        raise RuntimeError(f"step matrix M/dt + {visc!r} K: {exc}") from None


class _Engine:
    """Per-run context: the spec's space, its sampling points, its step
    matrices, and ``data``, the one checked sampler of the run's data.

    The step matrices and their factors are built on first use, so an
    engine made only for ``initial_state`` or the energy report assembles no
    step matrix, and a projection run never builds ``a_visc``.

    A steady datum has the same bits at every t, so the engine samples it
    once (``_sample``): the step averages of h and f, f's load, p and g.
    """

    def __init__(self, spec: ProblemSpec):
        self.spec = spec
        self.space = spec.space
        self.pts = spec.pts
        if self.space is not None:
            self.mesh = self.space.mesh
            self.mask = self.space.mask
        else:
            self.mesh = self.mask = None
        # per datum: its one sample if it is steady, or False if it is not
        self._once = {}

    def _step_matrix(self, visc: float) -> SparseSym:
        """M/dt + visc K with the constrained dofs eliminated."""
        # times the reciprocal, as the values of a / dt would differ in the last bit
        a = self.space.mass * (1.0 / self.spec.dt) + self.space.strain_stiff * visc
        a = apply_dirichlet(a, self.mask)
        # else factoring blames an overflowed entry on the matrix: not positive
        # definite (banded Cholesky) or exactly singular (SuperLU)
        if not np.isfinite(a.data).all():
            raise RuntimeError(f"step matrix M/dt + {visc!r} K overflows "
                               f"(nu={self.spec.nu!r}, dt={self.spec.dt!r})")
        return a

    @cached_property
    def a_proj(self) -> SparseSym:
        return self._step_matrix(self.spec.nu + self.spec.dt)

    @cached_property
    def a_visc(self) -> SparseSym:
        return self._step_matrix(self.spec.nu)

    @cached_property
    def solve_proj(self):
        return _factor_step_matrix(self.a_proj, self.spec.nu + self.spec.dt)

    @cached_property
    def solve_visc(self):
        return _factor_step_matrix(self.a_visc, self.spec.nu)

    # -- data samples -------------------------------------------------------

    def _sample(self, field: str, when, draw: Callable) -> np.ndarray:
        """``draw(when)``, the checked sample of ``field`` at a step or time
        ``when``, or at each of a 1-D array of them.  A steady datum is drawn
        once, at the first ``when`` asked for (the first entry of an array);
        a scalar ``when`` then gets that read-only array itself, and an
        array a read-only broadcast of it with one row per entry."""
        once = self._once.get(field)
        if once is False:
            return draw(when)
        rows = when.shape[:1] if isinstance(when, np.ndarray) else ()
        if once is None:
            if not is_steady(getattr(self.spec, field)):
                self._once[field] = False
                return draw(when)
            once = self._once[field] = draw(when[0] if rows else when)
            once.setflags(write=False)
        if not rows:
            return once
        # np.broadcast_to's view, built 4x faster; read-only, as its base is
        return np.ndarray(rows + once.shape, once.dtype, once, 0, (0,) + once.strides)

    def _average(self, field: str, n: int | np.ndarray) -> np.ndarray:
        spec = self.spec
        avg = time_average(getattr(spec, field), n, spec.dt, self.pts)
        return _checked(field, n * spec.dt, avg, noun="step average")

    def data(self, n: int | np.ndarray) -> tuple:
        """h_n, p(t_n), g(t_n) and the load (f_n, phi_i) for every dof (the
        callers mask the constrained ones) of step n, or a row per step of a
        1-D array n; h_n and f_n average (t_{n-1}, t_n).  One checked call of
        each datum that is not steady; in 0d the load is None and f is not
        called."""
        h = self._sample("h", n, lambda n: self._average("h", n))
        # every step is checked: t_N = N dt can pass the T that parse_config samples
        t = n * self.spec.dt
        p, g = self.p_at(t), self.g_at(t)
        if self.space is None:
            return h, p, g, None
        load = self._sample("f", n, lambda n: body_load(self.space, self._average("f", n)))
        return h, p, g, load

    def p_at(self, t: float | np.ndarray) -> np.ndarray:
        return self._sample("p", t, lambda t: _checked("p", t, self.spec.p(t, self.pts)))

    def g_at(self, t: float | np.ndarray) -> np.ndarray:
        """g at one time, (k,), or at a 1-D array of times, (m, k); a
        ConfigError names the first time where it is negative or not finite."""
        return self._sample("g", t, lambda t: _checked(
            "g", t, self.spec.g(t, self.pts), 0.0, "yield radius"))

    # -- momentum solve -----------------------------------------------------

    def solve_momentum(self, solve, base: np.ndarray, sigma_term: np.ndarray,
                       n: int) -> np.ndarray:
        """Velocity of step n from a factored step-matrix ``solve`` and the
        step's right-hand side ``base`` = M v_{n-1}/dt + F_n."""
        v = solve(np.where(self.mask, 0.0, base - stress_load(self.space, sigma_term)))
        if not np.all(np.isfinite(v)):
            raise RuntimeError(f"momentum solve at step {n} gave a non-finite velocity")
        return v


def initial_state(spec: ProblemSpec) -> SchemeState:
    return _initial_state(_Engine(spec))


def _initial_state(eng: _Engine) -> SchemeState:
    """``initial_state`` from ``eng``'s samples of p and g at t = 0, so that
    parse_config, whose checks sampled a steady g there, samples it once."""
    spec = eng.spec
    if spec.space is not None:
        v0 = np.zeros(eng.mesh.n_dofs)
        if spec.v0 is not None:
            v0 = _checked("v0", 0.0, spec.v0(0.0, eng.mesh.nodes)).reshape(-1)
        v0 = np.where(eng.mask, 0.0, v0)
    else:
        v0 = None
    if spec.sigma0 is not None:
        s0 = _checked("sigma0", 0.0, spec.sigma0(0.0, eng.pts)).reshape(len(eng.pts), 3)
    else:
        s0 = np.zeros((len(eng.pts), 3))
    g0 = eng.g_at(0.0)
    slack = tc.yield_slack_arr(s0, eng.p_at(0.0), g0)
    if not np.isfinite(slack).all():
        raise _norm_overflow(0)
    tol = FEASIBILITY_TOL * np.maximum(1.0, g0)
    if (slack < -tol).any():
        # without sigma0 the stress is zero, so only |dev p(0)| > g(0) fails
        what = "'sigma0': initial stress" if spec.sigma0 is not None else "'p': zero initial stress"
        raise ConfigError(f"field {what} violates the yield constraint by {-slack.min():.3e}")
    # the trial stress at step 0 is defined to equal the initial stress
    return SchemeState(n=0, t=0.0, v=v0, sigma_star=s0.copy(), sigma=s0.copy())


def _step(prev: SchemeState, eng: _Engine, n: int, scheme: str) -> SchemeState:
    """Step n of ``scheme`` in fem mode: momentum solve, trial stress, projection.

    The momentum equation sees sigma_{n-1} + dt h_n (projection, matrix
    M/dt + (nu + dt) K), sigma_{n-1} (explicit, M/dt + nu K), or the
    projected stress itself (implicit: a projection step, then Picard
    iteration with M/dt + nu K).
    """
    if eng.space is None:
        raise ValueError("a step needs a fem-mode engine; run steps 0d trajectories")
    dt = eng.spec.dt
    t_n = n * dt
    h_n, p_n, g_n, load = eng.data(n)
    base = spmv(eng.space.mass, prev.v) / dt + load

    def update(v):
        # trial stress sigma* = sigma_{n-1} + dt (E(v) + h_n) and its projection
        sigma_star = prev.sigma + dt * (strain_of(eng.space, v) + h_n)
        if not np.isfinite(sigma_star).all():
            raise RuntimeError(f"trial stress at step {n} is non-finite")
        try:
            return sigma_star, tc.project_constraint_arr(sigma_star, p_n, g_n)
        except OverflowError:
            raise _norm_overflow(n) from None

    if scheme == "explicit":
        v = eng.solve_momentum(eng.solve_visc, base, prev.sigma, n)
    else:
        v = eng.solve_momentum(eng.solve_proj, base, prev.sigma + dt * h_n, n)
    sigma_star, sigma = update(v)
    if scheme != "implicit":
        return SchemeState(n, t_n, v, sigma_star, sigma)
    last, grown = math.inf, 0
    for it in range(1, FP_MAX_ITER + 1):
        v = eng.solve_momentum(eng.solve_visc, base, sigma, n)
        sigma_star, sigma_next = update(v)
        dist = eng.space.stress_l2(sigma_next - sigma)
        sigma = sigma_next
        if dist <= FP_TOL:
            return SchemeState(n, t_n, v, sigma_star, sigma, fp_iters=it)
        grown = grown + 1 if dist > last else 0
        if not math.isfinite(dist) or grown >= FP_GROWTH_LIMIT:
            raise RuntimeError(f"Picard iteration of implicit step {n} diverges "
                               f"(distance {dist:.3e} after {it} iterations)")
        last = dist
    return SchemeState(n, t_n, v, sigma_star, sigma, fp_iters=FP_MAX_ITER,
                       fp_converged=False)


def step_projection(prev: SchemeState, eng: _Engine, n: int) -> SchemeState:
    return _step(prev, eng, n, "projection")


def step_implicit(prev: SchemeState, eng: _Engine, n: int) -> SchemeState:
    return _step(prev, eng, n, "implicit")


def step_explicit(prev: SchemeState, eng: _Engine, n: int) -> SchemeState:
    return _step(prev, eng, n, "explicit")


def _run_0d(spec: ProblemSpec) -> tuple[np.ndarray, np.ndarray]:
    """The columns sigma and sigma* (N+1, 1, 3) of a 0d run, stepped as one
    recurrence over Python floats.

    Step n projects sigma*_n = sigma_{n-1} + dt h_n with the operations of
    ``tc.project_constraint_arr`` in its order, so every value, signed zeros
    included, is bit for bit the array kernel's.  Every scheme is that step;
    the implicit fixed point is reached at once.  ``_Engine.data`` samples
    and checks a block of ``BLOCK_0D`` steps, one call of h, p and g, before
    ``_recurrence`` steps the block straight into the columns.
    """
    eng = _Engine(spec)
    sigma = np.empty((spec.N + 1, 1, 3))
    sigma_star = np.empty_like(sigma)
    first = initial_state(spec)
    sigma[0], sigma_star[0] = first.sigma, first.sigma_star
    for n in range(1, spec.N + 1, BLOCK_0D):
        stop = min(n + BLOCK_0D, spec.N + 1)
        h, p, g, _ = eng.data(np.arange(n, stop))
        stars, sigmas = _recurrence(sigma[n - 1, 0], spec.dt, h[:, 0], p[:, 0], g[:, 0], n)
        sigma_star[n:stop, 0] = np.frombuffer(stars).reshape(-1, 3)
        sigma[n:stop, 0] = np.frombuffer(sigmas).reshape(-1, 3)
    return sigma, sigma_star


def _recurrence(s: np.ndarray, dt: float, h: np.ndarray, p: np.ndarray, g: np.ndarray,
                n: int) -> tuple[array, array]:
    """Steps n, n + 1, ... of the 0d recurrence on one sampled block (the
    rows of h, p and g), from sigma_{n-1} = s.  Returns the rows of sigma*
    and sigma, flat.

    Kept short and apart from ``_run_0d``: tracemalloc charges every float
    the loop allocates to a line it finds by scanning the function's line
    table, so the same loop deep in a long function traces many times slower.
    """
    s0, s1, s2 = s.tolist()
    isfinite, sqrt, inf = math.isfinite, math.sqrt, math.inf
    stars, sigmas = array("d"), array("d")
    for (h0, h1, h2), (p0, p1, p2), gn in zip(h.tolist(), p.tolist(), g.tolist()):
        a0, a1, a2 = s0 + dt * h0, s1 + dt * h1, s2 + dt * h2
        if not (isfinite(a0) and isfinite(a1) and isfinite(a2)):
            raise RuntimeError(f"trial stress at step {n} is non-finite")
        b0, b1, b2 = a0 + p0, a1 + p1, a2 + p2
        half = 0.5 * (b0 + b2)
        # the spherical part half * (1, 0, 1); half * 0.0 keeps its sign
        sph, sph1 = half * 1.0, half * 0.0
        d0, d1, d2 = b0 - sph, b1 - sph1, b2 - sph
        nd = sqrt(d0 * d0 + 2.0 * d1 * d1 + d2 * d2)
        if nd > gn:
            if nd == inf:  # a clip to a scale of 0, not onto the ball
                raise _norm_overflow(n)
            scale = gn / nd
        else:
            scale = 1.0
        s0 = (sph + scale * d0) - p0
        s1 = (sph1 + scale * d1) - p1
        s2 = (sph + scale * d2) - p2
        stars.extend((a0, a1, a2))
        sigmas.extend((s0, s1, s2))
        n += 1
    return stars, sigmas


def run(spec: ProblemSpec, scheme: str = "projection") -> Trajectory:
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}; expected one of {SCHEMES}")
    rows = spec.N + 1
    fp_converged = np.ones(rows, dtype=bool)
    if spec.space is None:
        # every scheme is the projection step; the implicit one counts one iteration
        fp_iters = np.full(rows, int(scheme == "implicit"))
        fp_iters[0] = 0
        return Trajectory(spec, *_run_0d(spec), None, fp_iters, fp_converged)
    eng = _Engine(spec)
    # looked up per run, so a wrapper installed on a step function sees every step
    step = {"projection": step_projection, "implicit": step_implicit,
            "explicit": step_explicit}[scheme]
    # step 1 assembles the space's matrices on first use and factors the step
    # matrix; the columns are allocated after it, so that the run's peak is
    # not the columns plus those temporaries
    first = initial_state(spec)
    state = step(first, eng, 1)
    traj = Trajectory(spec, np.empty((rows,) + state.sigma.shape),
                      np.empty((rows,) + state.sigma.shape), np.empty((rows, len(state.v))),
                      np.empty(rows, dtype=int), fp_converged)
    for n in range(rows):
        if n > 1:
            state = step(state, eng, n)
        st = first if n == 0 else state
        traj.sigma[n], traj.sigma_star[n], traj.v[n] = st.sigma, st.sigma_star, st.v
        traj.fp_iters[n], traj.fp_converged[n] = st.fp_iters, st.fp_converged
    return traj


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
    mass = space.mass
    inner = space.stress_inner
    dual_sq = 0.0
    l2v_sq = 0.0
    gap_v = 0.0
    linf_v = 0.0
    linf_ss = 0.0
    linf_s = 0.0
    gap_sigma = 0.0
    h1_sq = 0.0
    for n in range(1, spec.N + 1):
        v_prev, v, a, b = traj.v[n - 1], traj.v[n], traj.sigma[n - 1], traj.sigma[n]
        dv = (v - v_prev) / dt
        r = spmv(mass, dv)
        dual_sq += dt * space.dual_norm(r) ** 2
        l2v_sq += dt * space.v_norm(v) ** 2
        gap_v += (1.0 / 3.0) * space.l2_norm(v - v_prev) ** 2
        linf_v = max(linf_v, space.l2_norm(v))
        linf_ss = max(linf_ss, space.stress_l2(traj.sigma_star[n]))
        linf_s = max(linf_s, space.stress_l2(b))
        gap_sigma += inner(b - traj.sigma_star[n], b - traj.sigma_star[n])
        h1_sq += (dt / 3.0) * (inner(a, a) + inner(a, b) + inner(b, b))
        ds = (b - a) / dt
        h1_sq += dt * inner(ds, ds)
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


def _check_nested(n_ref: int, n_c: int) -> None:
    if n_ref % n_c != 0 or n_ref <= n_c:
        raise ConfigError(f"reference N={n_ref} must be a strict multiple of study N={n_c}")


def _quad_forms(a: SparseSym, d: np.ndarray) -> np.ndarray:
    """d_i' A d_i per row, bit for bit as ``u @ spmv(a, u)`` (C-contiguous rows)."""
    return np.vecdot(d, np.ascontiguousarray((a @ d.T).T))


def _hat_minus(c: np.ndarray, r: np.ndarray, i: np.ndarray, w: np.ndarray) -> np.ndarray:
    """(1 - w) c[i] + w c[i + 1] - r, one row per node: a coarse hat
    interpolant minus the reference states."""
    w = w.reshape((-1,) + (1,) * (r.ndim - 1))
    d = (1.0 - w) * c[i]
    d += w * c[i + 1]
    d -= r
    return d


def convergence_errors(ref: Trajectory, coarse: Trajectory) -> dict[str, float]:
    """Errors of a coarse trajectory against a nested finer reference.

    L-infinity errors compare the piecewise-linear time interpolants on the
    full reference grid, so the kink error near constraint activation is
    seen: at reference node j the coarse hat is (1 - w) c_k + w c_{k+1}, with
    k = min(j // stride, N_c - 1) and w = (j - k stride) / stride.  The
    V-norm error integrates the difference of the piecewise-constant
    velocities over the reference grid, with coarse node ceil(j / stride).
    A chunk of nodes reads only its own rows and the coarse ones it needs.
    """
    n_ref, n_c = ref.spec.N, coarse.spec.N
    _check_nested(n_ref, n_c)
    stride = n_ref // n_c
    space = ref.space
    areas = np.ones(1) if space is None else space.mesh.areas
    sig_sq = v_sq = l2v_sq = 0.0
    for rs in ref.row_chunks():
        j = np.arange(rs.start, rs.stop)
        k = np.minimum(j // stride, n_c - 1)
        w = (j - k * stride) / stride
        i = k - k[0]  # row of coarse node k in the chunk's coarse stack
        cs = slice(k[0], k[-1] + 2)
        d = _hat_minus(coarse.sigma[cs], ref.sigma[rs], i, w)
        sig_sq = max(sig_sq, (areas * tc.frob_inner_arr(d, d)).sum(axis=-1).max())
        if space is None:
            continue
        v_c, v_r = coarse.v[cs], ref.v[rs]
        v_sq = max(v_sq, _quad_forms(space.mass, _hat_minus(v_c, v_r, i, w)).max())
        bar = v_c[-(-j // stride) - k[0]] - v_r
        for q in _quad_forms(space.h1_gram, bar)[j > 0].tolist():
            l2v_sq += ref.spec.dt * math.sqrt(max(q, 0.0)) ** 2
    return {"err_sigma_LinfH": math.sqrt(sig_sq), "err_v_LinfH": math.sqrt(v_sq),
            "err_v_L2V": math.sqrt(l2v_sq)}


# -- discrete energy inequality -------------------------------------------------


@dataclass
class EnergyReport:
    lhs: np.ndarray      # indexed by m = 1..N
    rhs: float
    c2: float
    ok: bool


def korn_constant(space: FemSpace) -> float:
    """Largest ratio ||phi||_V / ||E(phi)||_H over the constrained FE space,
    computed once per space (``FemSpace.korn``)."""
    return space.korn


def _per_array(term: Callable[[np.ndarray], float]) -> Callable[[np.ndarray], float]:
    """``term``, computed again only for an array other than the last one."""
    last = [None, 0.0]

    def cached(x: np.ndarray) -> float:
        if x is not last[0]:
            last[:] = x, term(x)
        return last[1]
    return cached


def energy_report(traj: Trajectory) -> EnergyReport:
    """Numeric check of the summed per-step energy inequality.

    LHS(m) = ||v_m||^2 + 1/2 ||sigma*_m + p_m||^2 + 1/2 ||sigma_m + p_m||^2
             + nu dt sum_{n<=m} ||E(v_n)||^2 must stay below
    c2 (||v0||^2 + ||sigma0||^2 + ||p_0||^2
        + dt sum_n (||f_n||_{V*}^2 + ||p_n||^2 + ||Dp_n||^2 + ||h_n||^2))
    with c2 = e * max(2 cK^2/nu, 2/nu, 4) and cK the mesh-measured constant
    from korn_constant.  The engine returns a steady datum's one sample at
    every step, so its term of the sum is computed once (one dual-norm solve
    for a steady f) and added at every step, in the same order.
    """
    if traj.space is None:
        raise ValueError("energy report needs a fem-mode trajectory")
    spec, space = traj.spec, traj.space
    eng = _Engine(spec)
    dt = spec.dt
    inner = space.stress_inner

    ck = korn_constant(space)
    c2 = math.e * max(2.0 * ck**2 / spec.nu, 2.0 / spec.nu, 4.0)

    p0 = p_prev = eng.p_at(0.0)
    f_sq = _per_array(lambda f: space.dual_norm(f) ** 2)
    p_sq, h_sq = _per_array(lambda p: inner(p, p)), _per_array(lambda h: inner(h, h))
    rhs_sum = 0.0
    lhs = np.zeros(spec.N)
    strain_acc = 0.0
    for n in range(1, spec.N + 1):
        h_n, p_n, _, f_n = eng.data(n)
        dp_sq = 0.0  # a steady p: dp = 0, whose square adds exactly 0.0
        if p_n is not p_prev:
            dp = (p_n - p_prev) / dt
            dp_sq = inner(dp, dp)
        rhs_sum += f_sq(f_n) + p_sq(p_n) + dp_sq + h_sq(h_n)
        v = traj.v[n]
        strain_acc += float(v @ spmv(space.strain_stiff, v))
        s_star, s = traj.sigma_star[n] + p_n, traj.sigma[n] + p_n
        lhs[n - 1] = (
            space.l2_norm(v) ** 2
            + 0.5 * inner(s_star, s_star)
            + 0.5 * inner(s, s)
            + spec.nu * dt * strain_acc
        )
        p_prev = p_n
    rhs = c2 * (
        space.l2_norm(traj.v[0]) ** 2 + inner(traj.sigma[0], traj.sigma[0]) + inner(p0, p0)
        + dt * rhs_sum
    )
    return EnergyReport(lhs=lhs, rhs=rhs, c2=c2, ok=bool(np.all(lhs <= rhs)))
