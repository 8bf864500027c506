import numpy as np
import pytest

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


def test_factorized_solve_matches_cg_and_dense():
    rng = np.random.default_rng(3)
    m = rng.standard_normal((30, 30))
    a_dense = m @ m.T + 30.0 * np.eye(30)
    a = SparseSym.from_dense(a_dense)
    solve = factorized_solve(a)
    for _ in range(2):  # the factor is reused across right-hand sides
        b = rng.standard_normal(30)
        x = solve(b)
        np.testing.assert_allclose(x, np.linalg.solve(a_dense, b), rtol=0.0, atol=1e-12)
        np.testing.assert_allclose(x, cg_solve(a, b, tol=1e-14).x, rtol=0.0, atol=1e-10)
