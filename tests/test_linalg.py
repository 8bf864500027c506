import numpy as np
import pytest
import scipy.sparse as sp

from plastiproj import linalg
from plastiproj.fem2d import FemSpace, apply_dirichlet, build_rect_mesh
from plastiproj.linalg import CGResult, SparseSym, cg_solve, factorized_solve, spmv


def test_spmv_examples():
    eye = SparseSym.from_dense(np.eye(3))
    x = np.array([1.0, 2.0, 3.0])
    np.testing.assert_allclose(spmv(eye, x), x)

    a = SparseSym.from_dense(np.array([[4.0, 1.0], [1.0, 3.0]]))
    np.testing.assert_allclose(spmv(a, np.array([1.0, 1.0])), [5.0, 4.0])

    z = SparseSym.from_dense(np.zeros((2, 2)))
    np.testing.assert_allclose(spmv(z, np.array([1.0, 2.0])), [0.0, 0.0])


def test_spmv_dimension_mismatch():
    a = SparseSym.from_dense(np.eye(2))
    with pytest.raises(ValueError, match="mismatch"):
        spmv(a, np.zeros(3))


def test_scipy_ops_keep_sparsesym():
    a = SparseSym.from_dense(np.array([[2.0, 1.0], [1.0, 2.0]]))
    b = SparseSym.from_dense(np.eye(2))
    keep = np.array([True, False])
    for got, want in [(a + b, a.to_dense() + np.eye(2)),
                      (a * 0.5, 0.5 * a.to_dense()),
                      (a[keep][:, keep], [[2.0]])]:
        assert type(got) is SparseSym
        np.testing.assert_array_equal(got.to_dense(), want)
    np.testing.assert_array_equal(a.diagonal(), [2.0, 2.0])


def test_cg_zero_rhs():
    a = SparseSym.from_dense(np.eye(4))
    res = cg_solve(a, np.zeros(4))
    assert res.iters == 0
    assert res.converged
    np.testing.assert_allclose(res.x, np.zeros(4))


def test_cg_identity_one_iteration():
    a = SparseSym.from_dense(np.eye(5))
    b = np.arange(1.0, 6.0)
    res = cg_solve(a, b)
    assert res.converged
    assert res.iters == 1
    np.testing.assert_allclose(res.x, b, atol=1e-14)


def test_cg_matches_dense_solve():
    rng = np.random.default_rng(1)
    m = rng.standard_normal((30, 30))
    a_dense = m @ m.T + 30.0 * np.eye(30)
    b = rng.standard_normal(30)
    res = cg_solve(SparseSym.from_dense(a_dense), b, tol=1e-14)
    assert res.converged
    np.testing.assert_allclose(res.x, np.linalg.solve(a_dense, b), atol=1e-10)


def test_cg_reports_non_convergence():
    rng = np.random.default_rng(2)
    m = rng.standard_normal((40, 40))
    a_dense = m @ m.T + 1e-3 * np.eye(40)
    res = cg_solve(SparseSym.from_dense(a_dense), rng.standard_normal(40),
                   tol=1e-14, max_iter=1)
    assert isinstance(res, CGResult)
    assert not res.converged
    assert res.residual > 1e-14


def test_cg_validation():
    a = SparseSym.from_dense(np.eye(2))
    with pytest.raises(ValueError):
        cg_solve(a, np.zeros(2), tol=0.0)
    with pytest.raises(ValueError, match="mismatch"):
        cg_solve(a, np.zeros(3))


# the two solver paths of factorized_solve: the banded Cholesky that every matrix
# below selects, and SuperLU, forced by a band budget of 0
PATHS = pytest.mark.parametrize("budget", [linalg.BAND_BUDGET, 0], ids=["banded", "superlu"])


def _step_matrix(nx, ny):
    """M/dt + K on an nx x ny mesh, dt = 1/8, its clamped dofs eliminated."""
    space = FemSpace(build_rect_mesh(nx, ny, 1.0, 1.0, ["left"]))
    return apply_dirichlet(space.mass * 8.0 + space.strain_stiff, space.mask)


def _h1_gram(nx, ny):
    space = FemSpace(build_rect_mesh(nx, ny, 1.0, 1.0, ["left", "bottom"]))
    return apply_dirichlet(space.h1_gram, space.mask)


def _assert_solves(a, solve, rhs):
    dense = a.toarray()
    for b in rhs:
        want = np.linalg.solve(dense, b)
        assert np.linalg.norm(solve(b) - want) <= 1e-12 * np.linalg.norm(want)


@PATHS
@pytest.mark.parametrize("build", [lambda: _step_matrix(8, 8), lambda: _h1_gram(8, 8),
                                   lambda: _step_matrix(40, 3)],
                         ids=["step_8x8", "h1_gram_8x8", "strip_40x3"])
def test_factorized_solve_matches_dense_solve(monkeypatch, budget, build):
    monkeypatch.setattr(linalg, "BAND_BUDGET", budget)
    a = build()
    rng = np.random.default_rng(4)
    _assert_solves(a, factorized_solve(a), rng.standard_normal((2, a.shape[0])))


def test_strip_is_banded_in_rcm_order(monkeypatch):
    # numbered along x, the 40x3 strip's bandwidth is 85; in RCM order it is at most
    # 11, so a budget of 12 n entries keeps it off SuperLU
    a = _step_matrix(40, 3)
    coo = a.tocoo()
    assert np.abs(coo.row - coo.col).max() == 85
    monkeypatch.setattr(linalg, "BAND_BUDGET", 12 * a.shape[0])
    monkeypatch.setattr(linalg, "splu", None)
    _assert_solves(a, factorized_solve(a), [np.ones(a.shape[0])])


def test_factorized_solve_matches_cg_and_dense(monkeypatch):
    rng = np.random.default_rng(3)
    m = rng.standard_normal((30, 30))
    a_dense = m @ m.T + 30.0 * np.eye(30)
    a = SparseSym.from_dense(a_dense)
    for budget in (linalg.BAND_BUDGET, 0):  # both paths
        monkeypatch.setattr(linalg, "BAND_BUDGET", budget)
        solve = factorized_solve(a)
        for _ in range(3):  # the factor is reused across right-hand sides
            b = rng.standard_normal(30)
            x = solve(b)
            want = np.linalg.solve(a_dense, b)
            np.testing.assert_allclose(x, want, rtol=0.0, atol=1e-12)
            assert np.linalg.norm(x - want) <= 1e-12 * np.linalg.norm(want)
            np.testing.assert_allclose(x, cg_solve(a, b, tol=1e-14).x, rtol=0.0, atol=1e-10)


@PATHS
def test_indefinite_matrix_is_a_runtime_error(monkeypatch, budget):
    monkeypatch.setattr(linalg, "BAND_BUDGET", budget)
    a = _step_matrix(4, 4)
    # shifted past its least eigenvalue and its least diagonal entry
    shift = np.linalg.eigvalsh(a.toarray())[1] + a.diagonal().min()
    with pytest.raises(RuntimeError, match="not positive"):
        factorized_solve(SparseSym(a - shift * sp.eye_array(a.shape[0], format="csr")))


def test_banded_path_finds_an_indefinite_matrix_with_a_positive_diagonal():
    a = _step_matrix(4, 4)
    shift = 0.5 * (np.linalg.eigvalsh(a.toarray())[0] + a.diagonal().min())
    with pytest.raises(RuntimeError, match="not positive definite"):
        factorized_solve(SparseSym(a - shift * sp.eye_array(a.shape[0], format="csr")))
