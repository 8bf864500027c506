import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from conftest import stack_states

from plastiproj import linalg, stepper, tensor_core as tc, yield_charts as yc
from plastiproj.catalog import ConfigError, Fields, data_fn
from plastiproj.fem2d import FemSpace, body_load, build_rect_mesh, strain_of
from plastiproj.scenarios import (
    growing_yield_0d_spec,
    radial_0d_spec,
    unit_square_spec,
)
from plastiproj.stepper import (
    SchemeState,
    discrete_norms,
    energy_report,
    initial_state,
    korn_constant,
    run,
    step_explicit,
    step_implicit,
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
        f=data_fn("vector", "constant", Fields({"value": [0.0, 0.0]}, "params")),
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
    with pytest.raises(ValueError, match="underflows"):
        replace(good, T=5e-324, N=2)
    assert good.with_steps(17).N == 17
    assert good.with_steps(17).dt == pytest.approx(good.T / 17)


def test_with_steps_shares_the_space():
    spec = small_fem_spec()
    assert spec.space is not None
    assert spec.with_steps(7).space is spec.space
    assert spec.with_steps(7).pts is spec.space.mesh.centroids
    assert radial_0d_spec().space is None
    assert radial_0d_spec().with_steps(7).space is None


def test_initial_state_rejects_infeasible_sigma0():
    spec = replace(radial_0d_spec(), sigma0=lambda t, pts: np.tile([2.0, 0.0, -2.0], (len(pts), 1)))
    with pytest.raises(ValueError, match="yield"):
        initial_state(spec)


def test_run_rejects_negative_yield_radius():
    spec = replace(radial_0d_spec(n_steps=4, total_time=1.0),
                   g=data_fn("scalar", "linear_in_t",
                             Fields({"base": 0.1, "slope": -1.0}, "params")))
    with pytest.raises(ValueError, match="negative"):
        run(spec)


def test_g_at_names_the_first_negative_time():
    # g(t) = 0.3 - t on every element: negative from the sample t = 0.3125 on
    spec = small_fem_spec(g=data_fn(
        "scalar", "linear_in_t", Fields({"base": 0.3, "slope": -1.0}, "params")))
    eng = stepper._Engine(spec)
    times = np.linspace(0.0, 1.0, 17)
    with pytest.raises(ConfigError) as err:
        eng.g_at(times)
    assert str(err.value) == "field 'g': negative yield radius at t=0.3125"
    # the samples before it, one row per time
    _same_bits(eng.g_at(times[:5]), np.asarray(spec.g(times[:5], eng.pts), dtype=float))
    # one time: the values at that time, or the error naming it
    _same_bits(eng.g_at(0.25), np.asarray(spec.g(0.25, eng.pts), dtype=float))
    with pytest.raises(ConfigError) as err:
        eng.g_at(0.5)
    assert str(err.value) == "field 'g': negative yield radius at t=0.5"


# -- time averaging ---------------------------------------------------------------


def test_time_average_constant(monkeypatch):
    pts = np.zeros((1, 2))
    fn = data_fn("tensor", "constant", Fields({"value": [1.0, 2.0, 3.0]}, "params"))
    for q in (1, 4):
        monkeypatch.setattr(stepper, "QUAD_POINTS", q)
        np.testing.assert_allclose(time_average(fn, 3, 0.1, pts), [[1.0, 2.0, 3.0]])


def test_time_average_linear_midpoint(monkeypatch):
    pts = np.zeros((1, 2))
    fn = data_fn("scalar", "linear_in_t", Fields({"base": 0.0, "slope": 1.0}, "params"))
    dt = 0.2
    # first interval [0, dt], one midpoint -> dt/2; exact for linear data
    for q in (1, 4):
        monkeypatch.setattr(stepper, "QUAD_POINTS", q)
        np.testing.assert_allclose(time_average(fn, 1, dt, pts), [dt / 2.0])


def _time_average_loop(fn, n, dt, pts, quad_points=4):
    """The reference average: one scalar call per midpoint, summed in order."""
    t0 = (n - 1) * dt
    sub = dt / quad_points
    acc = None
    for t in t0 + sub * (np.arange(quad_points) + 0.5):
        val = np.asarray(fn(float(t), pts), dtype=float)
        acc = val if acc is None else acc + val
    return acc / quad_points


def _same_bits(a, b):
    assert a.shape == b.shape and a.dtype == b.dtype
    assert a.tobytes() == b.tobytes()


DATA = {
    "linear_in_t": dict(
        f=data_fn("vector", "linear_in_t",
                  Fields({"base": [0.2, -3.0], "slope": [1.0 / 3.0, 0.7]}, "params")),
        h=data_fn("tensor", "linear_in_t",
                  Fields({"base": [0.3, 0.1, -0.2], "slope": [0.7, -0.2, 1.0 / 7.0]}, "params")),
        p=data_fn("tensor", "linear_in_t",
                  Fields({"base": [0.05, 0.0, 0.1], "slope": [0.1, 0.3, -0.2]}, "params")),
        g=data_fn("scalar", "linear_in_t", Fields({"base": 0.4, "slope": 1.0 / 3.0}, "params")),
    ),
    "gaussian_bump_in_x": dict(
        f=data_fn("vector", "gaussian_bump_in_x",
                  Fields({"value": [0.5, -2.0], "width": 0.3}, "params")),
        h=data_fn("tensor", "gaussian_bump_in_x", Fields({"value": [1.0, 0.2, -1.0]}, "params")),
        p=data_fn("tensor", "gaussian_bump_in_x",
                  Fields({"value": [0.1, 0.0, -0.1], "center": [0.2, 0.7]}, "params")),
        g=data_fn("scalar", "gaussian_bump_in_x",
                  Fields({"amplitude": 0.5, "offset": 0.3}, "params")),
    ),
}


def _recording(spec):
    """``spec`` with each data function recording the largest time of every
    call, and the recorded times per role."""
    times = {role: [] for role in "fhpg"}

    def recorded(role):
        fn = getattr(spec, role)

        def sample(t, pts):
            times[role].append(np.max(t))
            return fn(t, pts)
        return sample

    return replace(spec, **{role: recorded(role) for role in times}), times


@pytest.mark.parametrize("family", sorted(DATA))
def test_fem_data_match_per_step_samples(family):
    spec = small_fem_spec(N=7, T=0.9, **DATA[family])
    recorded, times = _recording(spec)
    eng = stepper._Engine(recorded)
    dt, pts = spec.dt, eng.pts
    for n in range(1, spec.N + 1):
        h_n, p_n, g_n, load = eng.data(n)
        _same_bits(h_n, _time_average_loop(spec.h, n, dt, pts))
        _same_bits(p_n, np.asarray(spec.p(n * dt, pts), dtype=float))
        _same_bits(g_n, np.asarray(spec.g(n * dt, pts), dtype=float))
        _same_bits(load, body_load(spec.space, _time_average_loop(spec.f, n, dt, pts)))
        # one call of each data function per step, none past t_n
        for role in "fhpg":
            assert len(times[role]) == n
            assert times[role][-1] <= n * dt


@pytest.mark.parametrize("family", sorted(DATA))
def test_0d_run_samples_each_block_once(family):
    # three whole blocks and a partial last one
    block = stepper.BLOCK_0D
    spec = replace(radial_0d_spec(n_steps=3 * block + block // 2, total_time=1.3),
                   **DATA[family])
    recorded, times = _recording(spec)
    run(recorded)
    # initial_state samples p and g at t = 0; then one call of h, p and g per
    # block, none past t_N; f is never called
    assert times["p"][0] == times["g"][0] == 0.0
    for calls in (times["h"], times["p"][1:], times["g"][1:]):
        assert len(calls) == 4
        assert max(calls) <= spec.N * spec.dt
    assert times["f"] == []


def test_negative_g_in_a_later_block_names_its_step():
    spec = radial_0d_spec(n_steps=1, total_time=1.0)
    block = stepper.BLOCK_0D
    n_steps = 3 * block
    dt = 1.0 / n_steps
    # inside the third block, and at step 2 block + 1, which opens it
    for first_bad in (2 * block + 7, 2 * block + 1):
        # g(t_n) = (first_bad - 0.5) dt - t_n turns negative at step first_bad
        bad = replace(spec, N=n_steps, g=data_fn("scalar", "linear_in_t", Fields(
            {"base": (first_bad - 0.5) * dt, "slope": -1.0}, "params")))
        with pytest.raises(ConfigError) as err:
            run(bad)
        assert str(err.value) == f"field 'g': negative yield radius at t={first_bad * bad.dt}"


def _g_spoiled_at(spec, step, value):
    """``spec`` with g = 1, except ``value`` at t = step dt."""
    t_bad = step * spec.dt

    def g(t, pts):
        out = np.ones(np.shape(t) + (len(pts),))
        out[np.asarray(t) == t_bad] = value
        return out
    return replace(spec, g=g)


@pytest.mark.parametrize("value, step", [(math.inf, 3), (math.nan, 5)], ids=["inf", "nan"])
@pytest.mark.parametrize("make", [lambda: radial_0d_spec(n_steps=20), small_fem_spec],
                         ids=["0d", "fem"])
def test_non_finite_g_names_its_step(make, value, step):
    spec = _g_spoiled_at(make(), step, value)
    with pytest.raises(ConfigError) as err:
        run(spec)
    assert str(err.value) == f"field 'g': non-finite yield radius at t={step * spec.dt}"


def _h_after(spec, step, value):
    """``spec`` with h = value (1, 0, 1) at every time past t_{step - 1}: at
    every midpoint of step ``step`` and of the steps after it, and at none before."""
    t0, h = (step - 1) * spec.dt, spec.h

    def after(t, pts):
        late = np.reshape(np.asarray(t) > t0, np.shape(t) + (1, 1))
        return np.where(late, value * np.array([1.0, 0.0, 1.0]), h(t, pts))
    return replace(spec, h=after)


def _later_block_spec(dt):
    """The radial drive over three 0d blocks with step ``dt`` and g = 1e9."""
    block = stepper.BLOCK_0D
    return replace(radial_0d_spec(n_steps=1, total_time=1.0), N=3 * block, T=dt * 3 * block,
                   g=data_fn("scalar", "constant", Fields({"value": 1e9}, "params")))


@pytest.mark.parametrize("offset", [7, 1], ids=["mid_block", "block_start"])
def test_non_finite_trial_stress_in_a_later_block_names_its_step(offset):
    # finite data: the step average of h is 4e307, but dt h overflows with dt = 8
    spec = _later_block_spec(8.0)
    first_bad = 2 * stepper.BLOCK_0D + offset
    with pytest.raises(RuntimeError) as err:
        run(_h_after(spec, first_bad, 4e307))
    assert str(err.value) == f"trial stress at step {first_bad} is non-finite"


@pytest.mark.parametrize("offset", [7, 1], ids=["mid_block", "block_start"])
@pytest.mark.parametrize("field", ["h", "p"])
def test_non_finite_datum_in_a_later_block_names_its_time(field, offset):
    spec = _later_block_spec(1.0)
    first_bad = 2 * stepper.BLOCK_0D + offset
    if field == "h":
        bad, what = _h_after(spec, first_bad, math.nan), "step average"
    else:
        bad = replace(spec, p=lambda t, pts: np.where(
            np.reshape(t, np.shape(t) + (1, 1)) > first_bad - 0.5, math.nan,
            np.zeros(np.shape(t) + (len(pts), 3))))
        what = "value"
    with pytest.raises(ConfigError) as err:
        run(bad)
    assert str(err.value) == f"field {field!r}: non-finite {what} at t={first_bad * spec.dt}"


def test_0d_block_reports_its_data_before_stepping():
    # in one block, dt h overflows at step k, and h is NaN from step k + 13: the
    # block's data are checked before any of its steps, so h is reported
    spec = _later_block_spec(8.0)
    k = 2 * stepper.BLOCK_0D + 7
    with pytest.raises(ConfigError) as err:
        run(_h_after(_h_after(spec, k, 4e307), k + 13, math.nan))
    assert str(err.value) == f"field 'h': non-finite step average at t={(k + 13) * spec.dt}"


@pytest.mark.parametrize("field, what", [("f", "step average"), ("h", "step average"),
                                         ("p", "value")], ids=["f", "h", "p"])
def test_non_finite_fem_datum_names_its_step_time(field, what):
    # every sample past t = 0.55 is NaN, so step 6 is the first to read one
    spec = small_fem_spec()
    width = {"f": 2, "h": 3, "p": 3}[field]
    nan_late = lambda t, pts: np.where(
        np.reshape(t, np.shape(t) + (1, 1)) > 0.55, np.nan,
        np.zeros(np.shape(t) + (len(pts), width)))
    with pytest.raises(ConfigError) as err:
        run(replace(spec, **{field: nan_late}))
    assert str(err.value) == f"field {field!r}: non-finite {what} at t={6 * spec.dt}"


def test_time_average_validation():
    pts = np.zeros((1, 2))
    fn = data_fn("scalar", "constant", Fields({"value": 1.0}, "params"))
    with pytest.raises(ValueError):
        time_average(fn, 0, 0.1, pts)


# -- 0d runs -----------------------------------------------------------------------


def test_step_projection_0d_inside():
    spec = replace(radial_0d_spec(), N=1, T=0.1)
    s1 = run(spec).states[1]
    np.testing.assert_allclose(s1.sigma_star, [[0.1, 0.0, -0.1]], atol=1e-15)
    np.testing.assert_allclose(s1.sigma, s1.sigma_star)


def test_step_projection_0d_clipped():
    spec = replace(radial_0d_spec(), N=1, T=0.1,
                   sigma0=lambda t, pts: np.tile([0.7, 0.0, -0.7], (len(pts), 1)))
    s = run(spec).states[1]
    np.testing.assert_allclose(s.sigma_star, [[0.8, 0.0, -0.8]], atol=1e-15)
    np.testing.assert_allclose(s.sigma, [[1.0 / SQ2, 0.0, -1.0 / SQ2]], atol=1e-14)


def test_step_functions_are_fem_only():
    spec = radial_0d_spec(n_steps=4)
    eng = stepper._Engine(spec)
    with pytest.raises(ValueError, match="fem-mode"):
        step_projection(initial_state(spec), eng, 1)


STEPS = {"projection": step_projection, "implicit": step_implicit,
         "explicit": step_explicit}


def _hand_states(spec, scheme):
    """A run as a list of states, one step per call: ``step_*`` in fem mode,
    and in 0d one array-kernel projection per step on data sampled by scalar
    calls."""
    eng = stepper._Engine(spec)
    states = [initial_state(spec)]
    for n in range(1, spec.N + 1):
        if spec.space is not None:
            states.append(STEPS[scheme](states[-1], eng, n))
            continue
        h_n = _time_average_loop(spec.h, n, spec.dt, eng.pts)
        p_n = np.asarray(spec.p(n * spec.dt, eng.pts), dtype=float)
        g_n = np.asarray(spec.g(n * spec.dt, eng.pts), dtype=float)
        star = states[-1].sigma + spec.dt * h_n
        states.append(SchemeState(n, n * spec.dt, None, star,
                                  tc.project_constraint_arr(star, p_n, g_n),
                                  fp_iters=int(scheme == "implicit")))
    return states


def _run_0d_reference(spec, scheme):
    return stack_states(spec, _hand_states(spec, scheme))


def _signed_zero_spec(n_steps):
    # g = 0 clips every step to the spherical part half (1, 0, 1) - p, and the
    # shear d1 < 0 of the deviator scales to -0.0; the trace of sigma + p
    # turns from negative to positive mid-run, so the shear half * 0.0 + -0.0
    # of sigma is -0.0 up to there and +0.0 after
    return replace(
        radial_0d_spec(n_steps=n_steps, total_time=1.3),
        h=data_fn("tensor", "linear_in_t", Fields({"base": [0.8, -0.3, 0.8],
                                           "slope": [0.1, 0.1, -0.1]}, "params")),
        p=data_fn("tensor", "linear_in_t", Fields({"base": [-0.5, 0.0, -0.5],
                                           "slope": [0.1, 0.0, -0.1]}, "params")),
        g=data_fn("scalar", "constant", Fields({"value": 0.0}, "params")))


ZERO_D_SPECS = {
    "radial": lambda n: radial_0d_spec(n_steps=n, total_time=1.3),
    "growing_yield": lambda n: growing_yield_0d_spec(n_steps=n, total_time=6.0),
    "linear_in_t": lambda n: replace(radial_0d_spec(n_steps=n, total_time=1.3),
                                     **{r: DATA["linear_in_t"][r] for r in "hpg"}),
    "signed_zero": _signed_zero_spec,
}


@pytest.mark.parametrize("scheme", stepper.SCHEMES)
@pytest.mark.parametrize("case", sorted(ZERO_D_SPECS))
def test_run_0d_is_bit_identical_to_the_array_kernel(case, scheme):
    block = stepper.BLOCK_0D
    # three whole blocks and a partial last one
    spec = ZERO_D_SPECS[case](3 * block + block // 2)
    got, want = run(spec, scheme), _run_0d_reference(spec, scheme)
    _same_bits(got.sigma_series(), want.sigma_series())
    _same_bits(got.sigma_star_series(), want.sigma_star_series())
    assert [(s.n, s.t, s.fp_iters, s.fp_converged) for s in got.states] == \
        [(s.n, s.t, s.fp_iters, s.fp_converged) for s in want.states]
    if case == "signed_zero":
        shear = got.sigma_series()[1:, 0, 1]
        assert (shear == 0.0).all()
        assert np.signbit(shear).any() and not np.signbit(shear).all()


# -- columnar trajectories ---------------------------------------------------------

# an implicit fem run whose later steps take several Picard iterations, and a
# 0d run that crosses the kink of the radial closed form
HAND_RUNS = {
    "fem4x4_implicit": (lambda: small_fem_spec(N=6), "implicit"),
    "0d": (lambda: radial_0d_spec(n_steps=40, total_time=1.3), "implicit"),
}


@pytest.mark.parametrize("case", sorted(HAND_RUNS))
def test_run_columns_are_bit_identical_to_a_hand_loop(case):
    make_spec, scheme = HAND_RUNS[case]
    spec = make_spec()
    traj, states = run(spec, scheme), _hand_states(spec, scheme)
    _same_bits(traj.sigma, np.stack([s.sigma for s in states]))
    _same_bits(traj.sigma_star, np.stack([s.sigma_star for s in states]))
    if spec.space is None:
        assert traj.v is None and traj.v_series() is None
    else:
        _same_bits(traj.v, np.stack([s.v for s in states]))
        assert traj.v_series() is traj.v
        assert traj.fp_iters.max() > 1
    assert traj.fp_iters.tolist() == [s.fp_iters for s in states]
    assert traj.fp_converged.tolist() == [s.fp_converged for s in states]
    _same_bits(np.arange(spec.N + 1) * spec.dt, np.array([s.t for s in states]))
    # the series are the columns themselves, not stacked copies
    assert traj.sigma_series() is traj.sigma
    assert traj.sigma_star_series() is traj.sigma_star


@pytest.mark.parametrize("case", sorted(HAND_RUNS))
def test_state_views_match_the_state_list(case):
    make_spec, scheme = HAND_RUNS[case]
    spec = make_spec()
    traj, states = run(spec, scheme), _hand_states(spec, scheme)

    def fields(st):
        return st.n, st.t, st.fp_iters, st.fp_converged

    views = traj.states
    assert [fields(st) for st in views] == [fields(st) for st in states]
    for k in (0, 1, spec.N, -1, -spec.N - 1):
        got, want = traj.state(k), states[k]
        assert fields(got) == fields(want)
        assert [type(x) for x in fields(got)] == [int, float, int, bool]
        _same_bits(got.sigma, want.sigma)
        _same_bits(got.sigma_star, want.sigma_star)
        # each state views its row of the columns
        assert np.shares_memory(got.sigma, traj.sigma)
        assert np.shares_memory(got.sigma_star, traj.sigma_star)
        if spec.space is not None:
            _same_bits(got.v, want.v)
            assert np.shares_memory(got.v, traj.v)
    assert fields(views[-1]) == fields(states[-1])
    _same_bits(views[-1].sigma, states[-1].sigma)
    with pytest.raises(IndexError):
        traj.state(spec.N + 1)


def test_0d_run_holds_only_its_columns():
    # two (N+1, 1, 3) float columns are 4.8 MB; one state object per step
    # would hold about 50 MB
    spec = radial_0d_spec(n_steps=100_000)
    tracemalloc.start()
    try:
        traj = run(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert traj.sigma.shape == (100_001, 1, 3)
    assert peak < 12e6, f"tracemalloc peak {peak / 1e6:.1f} MB"


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
    manual = step_projection(initial_state(spec), eng, 1)
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
    # the run's engine steps every step; initial_state's own assembles no step matrix
    assert len(engines) == 2
    run_eng, init_eng = engines
    assert len(factored) == 1
    assert "a_visc" not in vars(run_eng)
    assert not {"a_proj", "a_visc"} & set(vars(init_eng))


def test_non_finite_momentum_solve_names_the_step():
    # finite data: from step 6 the step average of h is 4e307, and with dt = 8
    # the stress term sigma_5 + dt h_6 of the momentum equation overflows
    spec = _h_after(small_fem_spec(T=80.0), 6, 4e307)
    # numpy's overflow warnings silenced, as the CLI does: the error reports it
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(RuntimeError, match="step 6 gave a non-finite velocity"):
            run(spec, "projection")


def test_unknown_scheme_rejected():
    with pytest.raises(ValueError, match="scheme"):
        run(small_fem_spec(), "midpoint")


def test_implicit_agrees_with_projection_when_inactive():
    # huge yield radius: the projection is the identity and both schemes
    # solve the same linear problem up to the O(dt) stress-term difference,
    # which the fixed point absorbs
    spec = small_fem_spec(g=data_fn("scalar", "constant", Fields({"value": 1e9}, "params")))
    a = run(spec, "projection")
    b = run(spec, "implicit")
    assert all(st.fp_converged for st in b.states)
    space = a.space
    for sa, sb in zip(a.states, b.states):
        # both satisfy their own schemes; with dt = 0.1 they differ at O(dt^2)
        assert space.stress_l2(sa.sigma - sb.sigma) <= 5e-3


def test_implicit_step_forms_its_right_hand_side_once(monkeypatch):
    # M v_{n-1}/dt + F_n is the one mass spmv of a step; the Picard
    # iterations reuse it
    calls = []
    spmv = stepper.spmv
    monkeypatch.setattr(stepper, "spmv", lambda a, x: calls.append(1) or spmv(a, x))
    spec = small_fem_spec()
    traj = run(spec, "implicit")
    assert traj.fp_iters.sum() >= spec.N
    assert len(calls) == spec.N


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
        h_n = time_average(spec.h, n, spec.dt, eng.pts)
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
    want = np.minimum(np.arange(traj.spec.N + 1) * traj.spec.dt, 1.0 / SQ2)
    np.testing.assert_allclose(amps, want, atol=1e-12)


def test_growing_yield_0d_closed_form_at_grid_nodes():
    traj = run(growing_yield_0d_spec(n_steps=800, total_time=4.0))
    t = np.arange(traj.spec.N + 1) * traj.spec.dt
    t_star = 1.0 / (SQ2 - 1.0)
    want = np.where(t <= t_star, t, (1.0 + t) / SQ2)
    amps = traj.sigma_series()[:, 0, 0]
    # the scheme is first order across the contact kink
    assert np.abs(amps - want).max() <= 2.0 * traj.spec.dt


# -- discrete norms -----------------------------------------------------------------


def test_discrete_norms_constant_trajectory():
    spec = small_fem_spec(N=3)
    mesh = spec.space.mesh
    v = np.where(mesh.dirichlet_mask(), 0.0, 1.0)
    sig = np.tile([0.3, 0.1, -0.3], (mesh.n_elements, 1))
    states = [SchemeState(n=k, t=k * spec.dt, v=v.copy(), sigma_star=sig.copy(),
                          sigma=sig.copy()) for k in range(4)]
    rep = discrete_norms(stack_states(spec, states))
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
    rep = discrete_norms(stack_states(spec, states))
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
    rep2 = discrete_norms(stack_states(spec, doubled))
    for key, val in rep1.as_dict().items():
        factor = 4.0 if key.startswith("gap") else 2.0
        assert rep2.as_dict()[key] == pytest.approx(factor * val, rel=1e-10)


@pytest.mark.parametrize("matrix", ["mass", "h1_gram"])
def test_quad_forms_match_the_per_row_product_bit_for_bit(matrix):
    # the v_l2 column of norms.csv and the velocity errors of convergence_errors
    # rely on these bits, which a matrix-times-block product need not keep
    space = FemSpace(build_rect_mesh(16, 16, 1.0, 1.0, ("left",)))
    a = getattr(space, matrix)
    d = np.random.default_rng(3).standard_normal((9, space.mesh.n_dofs))
    want = np.array([u @ linalg.spmv(a, u) for u in d])
    np.testing.assert_array_equal(stepper._quad_forms(a, d), want)


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


def test_korn_constant_on_the_superlu_path(monkeypatch):
    # the band budget forced to 0: K's shift-invert factor comes from SuperLU
    space = FemSpace(build_rect_mesh(16, 16, 1.0, 1.0, "left"))
    banded = FemSpace(space.mesh).korn
    monkeypatch.setattr(linalg, "BAND_BUDGET", 0)
    assert korn_constant(space) == pytest.approx(banded, rel=1e-12, abs=0.0)


def test_energy_report_small_run():
    traj = run(small_fem_spec(N=8), "projection")
    rep = energy_report(traj)
    assert rep.ok
    assert len(rep.lhs) == 8
    assert np.all(np.isfinite(rep.lhs))
    assert rep.rhs > 0.0
    assert rep.c2 >= math.e * 4.0
