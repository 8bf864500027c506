import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plastiproj import tensor_core as tc
from plastiproj.tensor_core import SymMat

SQ2 = math.sqrt(2.0)

finite = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)


def sym2(draw_vals):
    return SymMat(2, tuple(draw_vals))


sym2_strategy = st.tuples(finite, finite, finite).map(lambda v: SymMat(2, v))
sym3_strategy = st.tuples(*([finite] * 6)).map(lambda v: SymMat(3, v))
radius_strategy = st.floats(min_value=0.0, max_value=5.0, allow_nan=False)


# -- basic operations ---------------------------------------------------------


def test_trace_examples():
    assert tc.trace(SymMat.diag(3.0, 1.0)) == 4.0
    assert tc.trace(SymMat.identity(3)) == 3.0
    assert tc.trace(SymMat.zero(2)) == 0.0


def test_deviator_examples():
    np.testing.assert_allclose(
        tc.deviator(SymMat.diag(3.0, 1.0)).to_matrix(), np.diag([1.0, -1.0])
    )
    np.testing.assert_allclose(tc.deviator(SymMat.identity(2)).to_matrix(), np.zeros((2, 2)))
    off = SymMat.from_matrix([[0.0, 1.0], [1.0, 0.0]])
    np.testing.assert_allclose(tc.deviator(off).to_matrix(), off.to_matrix())


def test_frobenius_examples():
    assert tc.frob_inner(SymMat.diag(1.0, -1.0), SymMat.identity(2)) == 0.0
    assert tc.frob_norm(SymMat.diag(1.0, -1.0)) == pytest.approx(SQ2)
    # off-diagonal entries count twice
    off = SymMat.from_matrix([[0.0, 1.0], [1.0, 0.0]])
    assert tc.frob_norm(off) == pytest.approx(SQ2)


def test_frobenius_dim_mismatch():
    with pytest.raises(ValueError, match="mismatch"):
        tc.frob_inner(SymMat.zero(2), SymMat.zero(3))


# -- deviatoric-ball projection -------------------------------------------------


def test_proj_identity_untouched():
    eye = SymMat.identity(2)
    assert tc.proj_dev_ball(eye, 1.0) == eye


def test_proj_clipped_case():
    # frozen from the brute-force argmin oracle over chart samples of the
    # constraint set (see test_yield_charts.test_oracle_agrees_with_projection)
    got = tc.proj_dev_ball(SymMat.diag(2.0, 0.0), 1.0)
    np.testing.assert_allclose(
        got.to_matrix(), np.diag([1.0 + 1.0 / SQ2, 1.0 - 1.0 / SQ2]), atol=1e-15
    )


def test_proj_zero_radius():
    got = tc.proj_dev_ball(SymMat.diag(2.0, 0.0), 0.0)
    np.testing.assert_allclose(got.to_matrix(), np.eye(2))


def test_proj_negative_radius_rejected():
    with pytest.raises(ValueError):
        tc.proj_dev_ball(SymMat.zero(2), -1.0)


def test_project_constraint_examples():
    z = SymMat.zero(2)
    assert tc.project_constraint(z, z, 1.0) == z
    got = tc.project_constraint(SymMat.diag(2.0, 0.0), z, 1.0)
    np.testing.assert_allclose(
        got.to_matrix(), np.diag([1.0 + 1.0 / SQ2, 1.0 - 1.0 / SQ2]), atol=1e-15
    )
    # shift, project, unshift
    got = tc.project_constraint(z, SymMat.diag(2.0, 0.0), 1.0)
    np.testing.assert_allclose(
        got.to_matrix(), np.diag([-1.0 + 1.0 / SQ2, 1.0 - 1.0 / SQ2]), atol=1e-15
    )
    with pytest.raises(ValueError):
        tc.project_constraint(z, z, -0.5)


def test_membership_examples():
    z = SymMat.zero(2)
    assert tc.membership(z, z, 1.0)
    assert not tc.membership(SymMat.diag(2.0, 0.0), z, 1.0)
    assert tc.membership(SymMat.diag(2.0, 0.0), z, SQ2, tol=1e-12)


# -- properties -----------------------------------------------------------------


@settings(deadline=None)
@given(a=sym2_strategy, r=radius_strategy)
def test_projection_idempotent_and_trace_preserving(a, r):
    p1 = tc.proj_dev_ball(a, r)
    p2 = tc.proj_dev_ball(p1, r)
    assert tc.frob_norm(p2 - p1) <= 1e-12 * max(1.0, tc.frob_norm(a))
    assert tc.trace(p1) == pytest.approx(tc.trace(a), abs=1e-12 * max(1.0, abs(tc.trace(a))))
    assert tc.frob_norm(tc.deviator(p1)) <= r + 1e-12


@settings(deadline=None)
@given(a=sym3_strategy, b=sym3_strategy, r=radius_strategy)
def test_projection_nonexpansive_d3(a, b, r):
    lhs = tc.frob_norm(tc.proj_dev_ball(a, r) - tc.proj_dev_ball(b, r))
    assert lhs <= tc.frob_norm(a - b) + 1e-12


@settings(deadline=None)
@given(a=sym2_strategy, r1=radius_strategy, r2=radius_strategy)
def test_projection_lipschitz_in_radius(a, r1, r2):
    diff = tc.frob_norm(tc.proj_dev_ball(a, r1) - tc.proj_dev_ball(a, r2))
    assert diff <= abs(r1 - r2) + 1e-12


def test_membership_after_projection_random():
    rng = np.random.default_rng(7)
    for _ in range(200):
        m = rng.standard_normal((2, 2)) * 3.0
        a = SymMat.from_matrix(0.5 * (m + m.T))
        p = SymMat.from_matrix(np.diag(rng.standard_normal(2)))
        g = 2.0 * rng.random()
        proj = tc.project_constraint(a, p, g)
        assert tc.membership(proj, p, g, tol=1e-12)
        if tc.membership(a, p, g):
            assert tc.frob_norm(proj - a) <= 1e-12


# -- packed array companions -----------------------------------------------------


def test_arr_matches_scalar_api():
    rng = np.random.default_rng(3)
    data = 3.0 * rng.standard_normal((100, 3))
    p = 0.5 * rng.standard_normal((100, 3))
    g = 2.0 * rng.random(100)
    out = tc.project_constraint_arr(data, p, g)
    for k in range(100):
        want = tc.project_constraint(SymMat(2, tuple(data[k])), SymMat(2, tuple(p[k])), g[k])
        np.testing.assert_allclose(out[k], want.upper, atol=1e-13)
    slack = tc.yield_slack_arr(out, p, g)
    assert slack.min() >= -1e-12


def test_arr_negative_radius_rejected():
    with pytest.raises(ValueError):
        tc.proj_dev_ball_arr(np.zeros((1, 3)), np.array([-1.0]))


def test_proj_dev_ball_arr_matches_scalar_rows():
    rng = np.random.default_rng(11)
    data = 2.0 * rng.standard_normal((60, 3))
    radius = 1.5 * rng.random(60)
    nd = tc.frob_norm_arr(tc.deviator_arr(data))
    clipped = nd > radius
    assert 0 < clipped.sum() < len(data)  # the stack mixes both branches
    out = tc.proj_dev_ball_arr(data, radius)
    for k in range(len(data)):
        want = tc.proj_dev_ball(SymMat(2, tuple(data[k])), radius[k])
        np.testing.assert_allclose(out[k], want.upper, rtol=0.0, atol=1e-13)


def test_proj_dev_ball_arr_on_the_sphere_returns_input():
    # deviator (1, 1, -1) has norm exactly 2, so nd == radius in floating point
    s = np.array([[2.0, 1.0, 0.0], [-3.0, 0.25, -1.0]])
    radius = tc.frob_norm_arr(tc.deviator_arr(s))
    assert radius[0] == 2.0
    out = tc.proj_dev_ball_arr(s, radius)
    assert out.tobytes() == s.tobytes()


def test_proj_dev_ball_arr_zero_radius_spherical_input():
    s = np.array([[3.0, 0.0, 3.0], [-1.5, 0.0, -1.5]])
    with np.errstate(all="raise"):
        out = tc.proj_dev_ball_arr(s, np.zeros(2))
    assert out.tobytes() == s.tobytes()


@pytest.mark.parametrize("d", [2, 3])
def test_stack_matches_scalar_api(d):
    rng = np.random.default_rng(4)
    a = tc.rand_sym_stack(rng, 60, d, scale=1.0)
    b = tc.rand_sym_stack(rng, 60, d, scale=1.0)
    radius = 2.0 * rng.random(60)
    proj = tc.proj_dev_ball_stack(a, radius)
    nd = tc.frob_norm_stack(tc.deviator_stack(a))
    assert 0 < (nd > radius).sum() < len(a)  # the stack mixes both branches
    for k in range(len(a)):
        am, bm = SymMat.from_matrix(a[k]), SymMat.from_matrix(b[k])
        assert tc.trace_stack(a[k]) == tc.trace(am)
        np.testing.assert_allclose(tc.deviator_stack(a[k]), tc.deviator(am).to_matrix(),
                                   rtol=0.0, atol=1e-14)
        assert tc.frob_inner_stack(a[k], b[k]) == pytest.approx(tc.frob_inner(am, bm),
                                                                 rel=1e-14, abs=1e-14)
        np.testing.assert_allclose(proj[k], tc.proj_dev_ball(am, radius[k]).to_matrix(),
                                   rtol=0.0, atol=1e-14)


# -- SymMat construction ----------------------------------------------------------


def test_symmat_validation():
    with pytest.raises(ValueError):
        SymMat(4, (0.0,) * 10)
    with pytest.raises(ValueError):
        SymMat(2, (0.0, 0.0))
    with pytest.raises(ValueError):
        SymMat.from_matrix([[0.0, 1.0], [0.0, 0.0]])


def test_symmat_entry_and_matrix_roundtrip():
    a = SymMat(3, (1.0, 2.0, 3.0, 4.0, 5.0, 6.0))
    m = a.to_matrix()
    assert a.entry(2, 0) == m[0, 2] == 3.0
    assert SymMat.from_matrix(m) == a
