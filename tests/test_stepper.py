import math
from dataclasses import replace

import numpy as np
import pytest

from plastiproj import linalg, stepper, tensor_core as tc, yield_charts as yc
from plastiproj.catalog import scalar_fn, tensor_fn, vector_fn
from plastiproj.fem2d import FemSpace, build_rect_mesh, strain_of
from plastiproj.scenarios import (
    growing_yield_0d_spec,
    radial_0d_spec,
    unit_square_spec,
)
from plastiproj.stepper import (
    SchemeState,
    Trajectory,
    discrete_norms,
    energy_report,
    initial_state,
    korn_constant,
    run,
    step_projection,
    time_average,
)

SQ2 = math.sqrt(2.0)


def small_fem_spec(**kw):
    base = unit_square_spec(n_steps=10, mesh_n=4)
    return replace(base, **kw) if kw else base


def rest_spec(n_steps=5, mesh_n=4):
    return replace(
        unit_square_spec(n_steps=n_steps, mesh_n=mesh_n),
        f=vector_fn("constant", {"value": [0.0, 0.0]}),
    )


# -- spec validation ------------------------------------------------------------


def test_problem_spec_validation():
    good = radial_0d_spec()
    with pytest.raises(ValueError):
        replace(good, nu=0.0)
    with pytest.raises(ValueError):
        replace(good, nu=float("nan"))
    with pytest.raises(ValueError):
        replace(good, T=-1.0)
    with pytest.raises(ValueError):
        replace(good, T=float("inf"))
    with pytest.raises(ValueError):
        replace(good, N=0)
    assert good.with_steps(17).N == 17
    assert good.with_steps(17).dt == pytest.approx(good.T / 17)


def test_with_steps_shares_the_space():
    spec = small_fem_spec()
    assert spec.mode == "fem"
    assert spec.with_steps(7).space is spec.space
    assert spec.with_steps(7).pts is spec.space.mesh.centroids
    assert radial_0d_spec().mode == "0d"


def test_initial_state_rejects_infeasible_sigma0():
    spec = replace(radial_0d_spec(), sigma0=lambda pts: np.tile([2.0, 0.0, -2.0], (len(pts), 1)))
    with pytest.raises(ValueError, match="yield"):
        initial_state(spec)


def test_run_rejects_negative_yield_radius():
    spec = replace(radial_0d_spec(n_steps=4, total_time=1.0),
                   g=scalar_fn("linear_in_t", {"base": 0.1, "slope": -1.0}))
    with pytest.raises(ValueError, match="negative"):
        run(spec)


# -- time averaging ---------------------------------------------------------------


def test_time_average_constant():
    pts = np.zeros((1, 2))
    fn = tensor_fn("constant", {"value": [1.0, 2.0, 3.0]})
    for q in (1, 4):
        np.testing.assert_allclose(time_average(fn, 3, 0.1, pts, q), [[1.0, 2.0, 3.0]])


def test_time_average_linear_midpoint():
    pts = np.zeros((1, 2))
    fn = scalar_fn("linear_in_t", {"base": 0.0, "slope": 1.0})
    dt = 0.2
    # first interval [0, dt], one midpoint -> dt/2; exact for linear data
    np.testing.assert_allclose(time_average(fn, 1, dt, pts, 1), [dt / 2.0])
    np.testing.assert_allclose(time_average(fn, 1, dt, pts, 4), [dt / 2.0])


def test_time_average_validation():
    pts = np.zeros((1, 2))
    fn = scalar_fn("constant", {"value": 1.0})
    with pytest.raises(ValueError):
        time_average(fn, 0, 0.1, pts)
    with pytest.raises(ValueError):
        time_average(fn, 1, 0.1, pts, quad_points=0)


# -- single steps, 0d ---------------------------------------------------------------


def test_step_projection_0d_inside():
    spec = replace(radial_0d_spec(n_steps=10, total_time=1.0))  # dt = 0.1
    s0 = initial_state(spec)
    s1 = step_projection(s0, stepper._Engine(spec), 1)
    np.testing.assert_allclose(s1.sigma_star, [[0.1, 0.0, -0.1]], atol=1e-15)
    np.testing.assert_allclose(s1.sigma, s1.sigma_star)


def test_step_projection_0d_clipped():
    spec = radial_0d_spec(n_steps=10, total_time=1.0)
    prev = SchemeState(n=7, t=0.7, v=None,
                       sigma_star=np.array([[0.7, 0.0, -0.7]]),
                       sigma=np.array([[0.7, 0.0, -0.7]]))
    s = step_projection(prev, stepper._Engine(spec), 8)
    np.testing.assert_allclose(s.sigma_star, [[0.8, 0.0, -0.8]], atol=1e-15)
    np.testing.assert_allclose(s.sigma, [[1.0 / SQ2, 0.0, -1.0 / SQ2]], atol=1e-14)


# -- single steps, fem ---------------------------------------------------------------


def test_rest_state_is_fixed_point_all_schemes():
    spec = rest_spec()
    for scheme in stepper.SCHEMES:
        traj = run(spec, scheme)
        for st in traj.states:
            np.testing.assert_allclose(st.v, 0.0, atol=1e-13)
            np.testing.assert_allclose(st.sigma, 0.0, atol=1e-13)
        if scheme == "implicit":
            assert all(st.fp_iters <= 1 for st in traj.states)


def test_run_n1_is_one_projection_step():
    spec = small_fem_spec(N=1)
    traj = run(spec, "projection")
    assert len(traj.states) == 2
    eng = stepper._Engine(spec)
    manual = step_projection(initial_state(spec, eng), eng, 1)
    np.testing.assert_allclose(traj.states[1].v, manual.v, atol=1e-13)
    np.testing.assert_allclose(traj.states[1].sigma, manual.sigma, atol=1e-13)


def test_projection_run_factors_one_matrix(monkeypatch):
    engines = []
    factored = []

    class RecordingEngine(stepper._Engine):
        def __init__(self, spec):
            super().__init__(spec)
            engines.append(self)

    def counting(a):
        factored.append(a)
        return linalg.factorized_solve(a)

    monkeypatch.setattr(stepper, "_Engine", RecordingEngine)
    monkeypatch.setattr(stepper, "factorized_solve", counting)
    run(small_fem_spec(N=6), "projection")
    assert len(engines) == 1
    assert len(factored) == 1
    assert "a_visc" not in vars(engines[0])


def test_non_finite_momentum_solve_names_the_step():
    nan_after_half = lambda t, pts: np.full((len(pts), 2), np.nan if t > 0.5 else 0.0)
    with pytest.raises(RuntimeError, match="step 6 gave a non-finite velocity"):
        run(small_fem_spec(f=nan_after_half), "projection")


def test_unknown_scheme_rejected():
    with pytest.raises(ValueError, match="scheme"):
        run(small_fem_spec(), "midpoint")


def test_implicit_agrees_with_projection_when_inactive():
    # huge yield radius: the projection is the identity and both schemes
    # solve the same linear problem up to the O(dt) stress-term difference,
    # which the fixed point absorbs
    spec = small_fem_spec(g=scalar_fn("constant", {"value": 1e9}))
    a = run(spec, "projection")
    b = run(spec, "implicit")
    assert all(st.fp_converged for st in b.states)
    space = a.space
    for sa, sb in zip(a.states, b.states):
        # both satisfy their own schemes; with dt = 0.1 they differ at O(dt^2)
        assert space.stress_l2(sa.sigma - sb.sigma) <= 5e-3


def test_per_step_feasibility_quick():
    spec = replace(unit_square_spec(n_steps=20, mesh_n=8))
    traj = run(spec, "projection")
    eng = stepper._Engine(spec)
    for st in traj.states:
        slack = tc.yield_slack_arr(st.sigma, eng.p_at(st.t), eng.g_at(st.t))
        assert slack.min() >= -1e-10


def test_step_variational_inequality_witnesses():
    # ((sigma_n - sigma_{n-1})/dt - E(v_n) - h_n, sigma_n - tau)_H <= tol
    # for random witness fields tau in the current constraint set
    spec = replace(unit_square_spec(n_steps=10, mesh_n=4))
    traj = run(spec, "projection")
    eng = stepper._Engine(spec)
    rng = np.random.default_rng(0)
    areas = traj.mesh.areas
    m = traj.mesh.n_elements
    for n in (1, 5, 10):
        prev, cur = traj.states[n - 1], traj.states[n]
        h_n = eng.h_avg(n)
        resid = (cur.sigma - prev.sigma) / spec.dt - strain_of(traj.space, cur.v) - h_n
        g_n = eng.g_at(cur.t)
        for _ in range(20):
            tau = np.empty((m, 3))
            for e in range(m):
                w = yc.sample_constraint_set(rng, 1, np.zeros((2, 2)), float(g_n[e]), 2.0)[0]
                tau[e] = w[0, 0], w[0, 1], w[1, 1]
            val = float((areas * tc.frob_inner_arr(resid, cur.sigma - tau)).sum())
            assert val <= 1e-8


# -- full runs against closed forms ---------------------------------------------------


def test_radial_0d_closed_form_at_grid_nodes():
    traj = run(radial_0d_spec(n_steps=400, total_time=2.0))
    amps = traj.sigma_series()[:, 0, 0]
    want = np.minimum(traj.times, 1.0 / SQ2)
    np.testing.assert_allclose(amps, want, atol=1e-12)


def test_growing_yield_0d_closed_form_at_grid_nodes():
    traj = run(growing_yield_0d_spec(n_steps=800, total_time=4.0))
    t = traj.times
    t_star = 1.0 / (SQ2 - 1.0)
    want = np.where(t <= t_star, t, (1.0 + t) / SQ2)
    amps = traj.sigma_series()[:, 0, 0]
    # the scheme is first order across the contact kink
    assert np.abs(amps - want).max() <= 2.0 * traj.spec.dt


# -- discrete norms -----------------------------------------------------------------


def _manual_trajectory(spec, states):
    return Trajectory(spec=spec, scheme="projection", states=states)


def test_discrete_norms_constant_trajectory():
    spec = small_fem_spec(N=3)
    mesh = spec.space.mesh
    v = np.where(mesh.dirichlet_mask(), 0.0, 1.0)
    sig = np.tile([0.3, 0.1, -0.3], (mesh.n_elements, 1))
    states = [SchemeState(n=k, t=k * spec.dt, v=v.copy(), sigma_star=sig.copy(),
                          sigma=sig.copy()) for k in range(4)]
    rep = discrete_norms(_manual_trajectory(spec, states))
    assert rep.dual_norm_dv == pytest.approx(0.0, abs=1e-12)
    assert rep.gap_v == pytest.approx(0.0, abs=1e-14)
    assert rep.gap_sigma == pytest.approx(0.0, abs=1e-14)
    # for a constant sigma the H1(H) norm reduces to sqrt(T) * ||sigma||_H
    space = FemSpace(mesh)
    want = math.sqrt(spec.T) * space.stress_l2(sig)
    assert rep.h1_H_sigma_hat == pytest.approx(want, rel=1e-12)


def test_discrete_norms_single_step_gap():
    spec = small_fem_spec(N=1)
    mesh = spec.space.mesh
    space = FemSpace(mesh)
    v1 = np.where(mesh.dirichlet_mask(), 0.0, 1.0)
    v1 /= space.l2_norm(v1)  # normalize ||v_1||_H = 1
    z = np.zeros((mesh.n_elements, 3))
    states = [
        SchemeState(n=0, t=0.0, v=np.zeros(mesh.n_dofs), sigma_star=z.copy(), sigma=z.copy()),
        SchemeState(n=1, t=spec.dt, v=v1, sigma_star=z.copy(), sigma=z.copy()),
    ]
    rep = discrete_norms(_manual_trajectory(spec, states))
    assert rep.gap_v == pytest.approx(1.0 / 3.0, rel=1e-12)
    assert rep.linf_H_vbar == pytest.approx(1.0, rel=1e-12)


def test_discrete_norms_scaling():
    spec = small_fem_spec(N=5)
    traj = run(spec, "projection")
    doubled = [replace(s) for s in traj.states]
    for s in doubled:
        s.v = 2.0 * s.v
        s.sigma = 2.0 * s.sigma
        s.sigma_star = 2.0 * s.sigma_star
    rep1 = discrete_norms(traj)
    rep2 = discrete_norms(_manual_trajectory(spec, doubled))
    for key, val in rep1.as_dict().items():
        factor = 4.0 if key.startswith("gap") else 2.0
        assert rep2.as_dict()[key] == pytest.approx(factor * val, rel=1e-10)


def test_discrete_norms_requires_fem():
    traj = run(radial_0d_spec(n_steps=4, total_time=0.4))
    with pytest.raises(ValueError):
        discrete_norms(traj)


# -- energy inequality ------------------------------------------------------------


def test_korn_constant_positive():
    space = FemSpace(build_rect_mesh(4, 4, 1.0, 1.0, "left"))
    ck = korn_constant(space)
    assert math.isfinite(ck) and ck > 0.0


@pytest.mark.parametrize("n", [16, 24])
def test_korn_constant_matches_dense_eigh(n):
    import scipy.linalg

    space = FemSpace(build_rect_mesh(n, n, 1.0, 1.0, "left"))
    free = ~space.mesh.dirichlet_mask()
    g = space.h1_gram.to_dense()[np.ix_(free, free)]
    k = space.strain_stiff.to_dense()[np.ix_(free, free)]
    m = g.shape[0]
    lam = scipy.linalg.eigh(g, k, subset_by_index=[m - 1, m - 1], eigvals_only=True)
    assert korn_constant(space) == pytest.approx(math.sqrt(lam[-1]), rel=1e-12, abs=0.0)


def test_energy_report_small_run():
    traj = run(small_fem_spec(N=8), "projection")
    rep = energy_report(traj)
    assert rep.ok
    assert len(rep.lhs) == 8
    assert np.all(np.isfinite(rep.lhs))
    assert rep.rhs > 0.0
    assert rep.c2 >= math.e * 4.0
