import math

import numpy as np
import pytest

from plastiproj import tensor_core as tc
from plastiproj import verify
from plastiproj import yield_charts as yc
from plastiproj.tensor_core import SymMat

SQ2 = math.sqrt(2.0)
SQ3 = math.sqrt(3.0)


# -- charts -------------------------------------------------------------------


def test_psi1_examples():
    np.testing.assert_allclose(yc.psi1(SQ2, 2), np.eye(2))
    np.testing.assert_allclose(yc.psi1(0.0, 3), np.zeros((3, 3)))
    np.testing.assert_allclose(yc.psi1(SQ3, 3), np.eye(3))
    np.testing.assert_allclose(yc.psi1([SQ2, 0.0], 2), [np.eye(2), np.zeros((2, 2))])


def test_psi2_examples():
    np.testing.assert_allclose(yc.psi2(np.zeros(8), 3), np.zeros((3, 3)))
    # d=2 layout: one diagonal coefficient, then the (0,1) and (1,0) slots
    got = yc.psi2(np.array([0.0, 1.0, 0.0]), 2)
    np.testing.assert_allclose(got, np.array([[0.0, 1.0], [0.0, 0.0]]))
    assert yc.psi2(np.zeros((5, 3)), 2).shape == (5, 2, 2)
    with pytest.raises(ValueError):
        yc.psi2(np.zeros(4), 2)


def test_decompose_examples():
    lam, x = yc.decompose(np.eye(2))
    assert lam == pytest.approx(SQ2)
    np.testing.assert_allclose(x, np.zeros(3), atol=1e-15)

    lam, x = yc.decompose(np.diag([1.0, -1.0]))
    assert lam == pytest.approx(0.0)
    assert x[0] == pytest.approx(SQ2)
    np.testing.assert_allclose(x[1:], np.zeros(2), atol=1e-15)

    lam, x = yc.decompose(np.stack([np.eye(3), np.zeros((3, 3))]))
    assert lam.shape == (2,) and x.shape == (2, 8)


def test_dev_basis_orthonormal():
    for d in (2, 3):
        basis = yc.dev_basis(d)
        assert basis.shape == (d * d - 1, d, d)
        gram = np.einsum("aij,bij->ab", basis, basis)
        np.testing.assert_allclose(gram, np.eye(d * d - 1), atol=1e-14)
        np.testing.assert_allclose(np.einsum("aii->a", basis), 0.0, atol=1e-14)


def test_roundtrip_random():
    rng = np.random.default_rng(11)
    for d in (2, 3):
        a = 3.0 * rng.standard_normal((100, d, d))
        lam, x = yc.decompose(a)
        np.testing.assert_allclose(yc.psi1(lam, d) + yc.psi2(x, d), a, atol=1e-12)


def test_kr_contains_examples():
    assert yc.kr_contains_via_chart(np.eye(2), 0.0)
    assert yc.kr_contains_via_chart(np.diag([1.0, -1.0]), SQ2 + 1e-9)
    assert not yc.kr_contains_via_chart(np.diag([1.0, -1.0]), 1.0)
    got = yc.kr_contains_via_chart(np.stack([np.eye(2), np.diag([1.0, -1.0])]), [0.0, 1.0])
    assert got.tolist() == [True, False]
    with pytest.raises(ValueError):
        yc.kr_contains_via_chart(np.zeros((2, 2)), -1.0)


def test_membership_agreement_random():
    rng = np.random.default_rng(5)
    for _ in range(300):
        m = 2.0 * rng.standard_normal((2, 2))
        a = 0.5 * (m + m.T)
        r = 2.0 * rng.random()
        # the stacked chart test against the scalar reference; disagreement is
        # only tolerated within roundoff of the boundary
        am = SymMat.from_matrix(a)
        if yc.kr_contains_via_chart(a, r) != tc.membership(am, SymMat.zero(2), r, tol=0.0):
            assert abs(tc.frob_norm(tc.deviator(am)) - r) <= 1e-12


# -- brute-force oracle ---------------------------------------------------------


def test_argmin_oracle_identity_case():
    # F itself is feasible and the lam grid includes it, so the best sampled
    # distance shrinks with the sampling resolution of the coordinate ball
    best, dist = yc.argmin_oracle(np.eye(2), 1.0, 20_000, seed=0)
    assert dist <= 0.25
    np.testing.assert_allclose(best, np.eye(2), atol=0.25)


def test_argmin_oracle_validation():
    with pytest.raises(ValueError):
        yc.argmin_oracle(np.zeros((2, 2)), -1.0, 10, seed=0)
    with pytest.raises(ValueError):
        yc.argmin_oracle(np.zeros((2, 2)), 1.0, 0, seed=0)


def test_projection_beats_oracle_samples():
    rng = np.random.default_rng(21)
    for k in range(20):
        m = 3.0 * rng.standard_normal((2, 2))
        f = SymMat.from_matrix(0.5 * (m + m.T))
        radius = 2.0 * rng.random()
        proj = tc.proj_dev_ball(f, radius)
        _, best = yc.argmin_oracle(f.to_matrix(), radius, 20_000, seed=100 + k)
        assert tc.frob_norm(proj - f) <= best + 1e-12


def test_oracle_samples_are_feasible():
    best, _ = yc.argmin_oracle(np.diag([3.0, -1.0]), 0.7, 5000, seed=3)
    _, x = yc.decompose(best)
    assert np.linalg.norm(x) <= 0.7 + 1e-12


# -- constraint-set sampling and the step VI --------------------------------------


def per_witness_samples(rng, n, p, g, lam_scale):
    """sample_constraint_set built one SymMat witness at a time."""
    d = p.dim
    m = d * (d + 1) // 2 - 1
    out = []
    lam = lam_scale * rng.standard_normal(n)
    coords = rng.standard_normal((n, m))
    weights = np.ones(m)
    weights[d - 1 :] = 2.0
    norms = np.sqrt((coords**2 * weights).sum(axis=1))
    radii = g * rng.random(n) ** (1.0 / m)
    basis = yc.dev_basis(d)
    pairs = [(i, j) for i in range(d) for j in range(d) if i != j]
    for k in range(n):
        c = coords[k] * (radii[k] / max(norms[k], 1e-300))
        x = np.zeros(d * d - 1)
        x[: d - 1] = c[: d - 1]
        upper = [(i, j) for i, j in pairs if i < j]
        for idx, (i, j) in enumerate(upper):
            v = c[d - 1 + idx]
            x[d - 1 + pairs.index((i, j))] = v
            x[d - 1 + pairs.index((j, i))] = v
        mat = (lam[k] / math.sqrt(d)) * np.eye(d) + np.einsum("k,kij->ij", x, basis)
        out.append(SymMat.from_matrix(mat) - p)
    return out


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("seed", [0, 7])
def test_sample_constraint_set_matches_per_witness_loop(d, seed):
    rng = np.random.default_rng(seed)
    p = SymMat.from_matrix(tc.rand_sym_stack(rng, 1, d, scale=1.0)[0])
    got = yc.sample_constraint_set(np.random.default_rng(seed), 80, p.to_matrix(), 1.3, 2.5)
    want = per_witness_samples(np.random.default_rng(seed), 80, p, 1.3, 2.5)
    assert got.shape == (80, d, d)
    # bit for bit: the same draws, in the same order, through the same sums
    assert np.array_equal(got, np.stack([tau.to_matrix() for tau in want]))


def test_sample_constraint_set_membership():
    rng = np.random.default_rng(9)
    p = SymMat.diag(0.4, -0.2)
    for tau in yc.sample_constraint_set(rng, 200, p.to_matrix(), 1.3, lam_scale=2.0):
        assert tc.membership(SymMat.from_matrix(tau), p, 1.3, tol=1e-12)


def test_inclusion_check_random_setups():
    rng = np.random.default_rng(17)
    z = np.zeros((2, 2))
    for k in range(50):
        sig, strain = tc.rand_sym_stack(rng, 2, 2, scale=1.0)
        violation = yc.inclusion_equivalence_check(
            sig, strain, z, z, g=1.0 + rng.random(), dt=0.1, n_witnesses=50, seed=k,
        )
        assert violation <= 1e-10


def test_inclusion_check_validation():
    z = np.zeros((2, 2))
    with pytest.raises(ValueError):
        yc.inclusion_equivalence_check(z, z, z, z, g=1.0, dt=0.0, n_witnesses=1, seed=0)
    with pytest.raises(ValueError):
        yc.inclusion_equivalence_check(z, z, z, z, g=-1.0, dt=0.1, n_witnesses=1, seed=0)


# -- the suites against their per-sample SymMat loops ------------------------------


def per_sample_chart_suite(d, n_samples, seed):
    """chart_suite with the round trip and the membership test one sample at a time."""
    rng = np.random.default_rng(seed)
    lam = 3.0 * rng.standard_normal(n_samples)
    xs = 3.0 * rng.standard_normal((n_samples, d * d - 1))
    mats1 = (lam[:, None, None] / math.sqrt(d)) * np.eye(d)
    mats2 = np.einsum("nk,kij->nij", xs, yc.dev_basis(d))
    x_norm = np.linalg.norm(xs, axis=1)
    iso = np.maximum(
        np.abs(np.sqrt(np.einsum("nij,nij->n", mats1, mats1)) - np.abs(lam))
        / np.maximum(1.0, np.abs(lam)),
        np.abs(np.sqrt(np.einsum("nij,nij->n", mats2, mats2)) - x_norm)
        / np.maximum(1.0, x_norm),
    ).max()
    orth = (np.abs(np.einsum("nij,nij->n", mats1, mats2))
            / np.maximum(1.0, np.abs(lam) * x_norm)).max()

    full = 3.0 * rng.standard_normal((n_samples, d, d))
    rt = 0.0
    for k in range(n_samples):
        a = full[k]
        dev = a - (np.trace(a) / d) * np.eye(d)
        x = np.einsum("kij,ij->k", yc.dev_basis(d), dev)
        lam_k = float(np.trace(a) / math.sqrt(d))
        rec = ((lam_k / math.sqrt(d)) * SymMat.identity(d)).to_matrix() + np.einsum(
            "k,kij->ij", x, yc.dev_basis(d))
        rt = max(rt, float(np.abs(rec - a).max() / max(1.0, np.abs(a).max())))

    sym = tc.rand_sym_stack(rng, n_samples, d)
    radii = 2.0 * rng.random(n_samples)
    agree = 0.0
    for k in range(n_samples):
        am = SymMat.from_matrix(sym[k])
        dev = sym[k] - (np.trace(sym[k]) / d) * np.eye(d)
        via_chart = np.linalg.norm(np.einsum("kij,ij->k", yc.dev_basis(d), dev)) <= radii[k]
        direct = tc.membership(am, SymMat.zero(d), float(radii[k]), tol=0.0)
        if via_chart != direct:
            agree = max(agree, abs(tc.frob_norm(tc.deviator(am)) - radii[k]))
    return [float(iso), float(orth), rt, agree]


@pytest.mark.parametrize("d", [2, 3])
def test_chart_suite_matches_per_sample_loop(d):
    got = [r.max_violation for r in verify.chart_suite(d, 300, seed=1)]
    assert got == per_sample_chart_suite(d, 300, seed=1)  # bit for bit


def vi_setups(n_setups, seed, d=2):
    """The set-ups of vi_suite, drawn in its order: (sigma_a, strain, h, p, g, dt)."""
    rng = np.random.default_rng(seed)
    for _ in range(n_setups):
        mats = [tc.rand_sym_stack(rng, 1, d, scale=1.0)[0] for _ in range(4)]
        g = 2.0 * rng.random()
        yield (*mats, g, 10.0 ** rng.uniform(-3, 1))


def per_witness_violations(n_setups, n_witnesses, seed):
    """Each vi_suite set-up's largest VI value, with SymMat set-ups and one
    scalar inner product per witness."""
    out = []
    for k, (*mats, g, dt) in enumerate(vi_setups(n_setups, seed)):
        sig_a, strain, h, p = (SymMat.from_matrix(m) for m in mats)
        f_trial = sig_a + dt * (strain + h)
        sigma_b = tc.project_constraint(f_trial, p, g)
        witness_rng = np.random.default_rng(seed + 5000 + k)
        taus = per_witness_samples(witness_rng, n_witnesses, p, g, 1.0 + tc.frob_norm(f_trial))
        out.append(max(tc.frob_inner(f_trial - sigma_b, tau - sigma_b) for tau in taus))
    return out


@pytest.mark.parametrize("seed", [3, 5])
def test_vi_suite_matches_per_witness_loop(seed):
    want = per_witness_violations(40, 30, seed)
    got = [yc.inclusion_equivalence_check(*setup, 30, seed=seed + 5000 + k)
           for k, setup in enumerate(vi_setups(40, seed))]
    assert verify.vi_suite(40, 30, seed)[0].max_violation == max(got)
    assert min(want) < -1e-2  # clipped set-ups give values far from roundoff
    # the stacked inner product (einsum) adds the four products of a 2 x 2
    # matrix in another order than np.sum, so values agree to a few ulps of
    # the products, not always bit for bit (seed 5's largest differs in the
    # last bit)
    np.testing.assert_allclose(got, want, rtol=8 * np.finfo(float).eps,
                               atol=8 * np.finfo(float).eps)
