"""Sparse symmetric matrices, a factored direct solve, and reference CG.

``SparseSym`` is a scipy CSR array; the FE matrices store their symmetry
fully, and the rectangular strain operator of ``fem2d`` is one too.  Sums,
scalar multiples and row/column slices of it stay ``SparseSym``.

``factorized_solve`` is the production solve and the one place that
chooses a factorization: every SPD matrix the stepper, the norms and the
Korn eigensolve solve with is constant over a run, so it is factored once
and each later solve is two triangular sweeps.  A matrix whose band in
reverse Cuthill-McKee order fits ``BAND_BUDGET`` entries is factored by
LAPACK's banded Cholesky (``pbtrf``/``pbtrs``); a wider one by SuperLU.
``cg_solve`` is a written-out Jacobi-preconditioned CG, kept as the
independent reference the tests cross-check against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.sparse as sp
from scipy.linalg import get_lapack_funcs
from scipy.sparse.linalg import splu

# entries of the (bw + 1) x n band above which factorized_solve hands a matrix
# to SuperLU; its docstring gives the measurements behind the value
BAND_BUDGET = 2**21


class SparseSym(sp.csr_array):
    @classmethod
    def from_dense(cls, a: np.ndarray) -> "SparseSym":
        return cls(np.asarray(a, dtype=float))

    def to_dense(self) -> np.ndarray:
        return self.toarray()


def spmv(a: SparseSym, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.shape != (a.shape[0],):
        raise ValueError(f"dimension mismatch: matrix {a.shape[0]}, vector {x.shape}")
    return a @ x


def factorized_solve(a: SparseSym) -> Callable[[np.ndarray], np.ndarray]:
    """Factor the SPD matrix ``a`` once and return the solve ``b -> a^-1 b``.

    ``a`` is ordered by reverse Cuthill-McKee (RCM), which gives the P1
    matrices of a structured mesh a bandwidth bw of about 2 min(nx, ny)
    whatever their numbering: a 200x4 strip numbered along x has bw 405,
    and 13 in RCM order.  If the band, (bw + 1) n entries, fits
    ``BAND_BUDGET``, it is factored in place by LAPACK's banded Cholesky
    (``pbtrf``) and each solve is ``pbtrs``.  The band holds more entries
    than SuperLU's L + U, but it is swept faster.  The ``unit_square``
    projection step matrix on a 2-core Xeon VM, one BLAS thread, medians of
    50 solves over two runs:

    ====  =====  ===  ============  ===========  ============  ============
    mesh  n      bw   band entries  SuperLU L+U  SuperLU       banded
    ====  =====  ===  ============  ===========  ============  ============
    16²   578    33   19.7k         30.1k        0.06-0.10 ms  0.03 ms
    32²   2178   66   146k          156k         0.26-0.46 ms  0.10 ms
    64²   8450   130  1.11M         805k         1.7-2.3 ms    0.94-1.14 ms
    80²   13122  162  2.14M         1.38M        2.5-4.0 ms    2.1-3.2 ms
    96²   18818  194  3.67M         2.13M        4.3-6.6 ms    6.7-7.2 ms
    128²  33282  258  8.62M         4.21M        12.7-13.0 ms  16.4-16.7 ms
    ====  =====  ===  ============  ===========  ============  ============

    Factoring is faster banded at every size (30 against 48-60 ms at 64²).
    The solves cross over between 80² and 96², and a 256² band would hold
    68M entries (545 MB) against SuperLU's 21.9M nonzeros.  So a band wider
    than ``BAND_BUDGET`` = 2**21 entries, which keeps every square mesh up
    to 79² banded, goes to SuperLU, whose minimum-degree ordering of
    A^T + A suits these symmetric matrices (at 64², 805k nonzeros in L + U
    against 1.21M under the default COLAMD).

    A matrix that is not positive definite is a RuntimeError.  SuperLU's
    pivoted LU does not certify definiteness, so above the budget only a
    diagonal entry that is not positive is caught.
    """
    # imported here: scipy.sparse.csgraph adds 1 MB to a process, which 0d
    # runs, factoring nothing, need not carry
    from scipy.sparse.csgraph import reverse_cuthill_mckee

    n = a.shape[0]
    if not (a.diagonal() > 0.0).all():
        raise RuntimeError(f"the {n}x{n} matrix has a diagonal entry that is not positive")
    perm = reverse_cuthill_mckee(a, symmetric_mode=True)
    inv = np.empty(n, dtype=np.intp)
    inv[perm] = np.arange(n)
    coo = a.tocoo()
    i, j = inv[coo.row], inv[coo.col]
    upper = i <= j
    i, j = i[upper], j[upper]
    bw = int((j - i).max())
    if (bw + 1) * n > BAND_BUDGET:
        return splu(a.tocsc(), permc_spec="MMD_AT_PLUS_A").solve
    # upper band storage, ab[bw + i - j, j] = a[i, j] for i <= j, factored in place
    ab = np.zeros((bw + 1, n), order="F")
    ab[bw + i - j, j] = coo.data[upper]
    pbtrf, pbtrs = get_lapack_funcs(("pbtrf", "pbtrs"), (ab,))
    chol, info = pbtrf(ab, overwrite_ab=1)
    if info > 0:
        raise RuntimeError(f"the {n}x{n} matrix is not positive definite "
                           f"(leading minor {info} of its RCM order)")

    def solve(b: np.ndarray) -> np.ndarray:
        y, _ = pbtrs(chol, b[perm], overwrite_b=1)
        x = np.empty_like(y)
        x[perm] = y
        return x

    return solve


@dataclass
class CGResult:
    x: np.ndarray
    iters: int
    residual: float
    converged: bool


def cg_solve(
    a: SparseSym,
    b: np.ndarray,
    tol: float = 1e-12,
    max_iter: int | None = None,
) -> CGResult:
    """Jacobi-preconditioned CG for SPD systems.

    Convergence metric is the relative preconditioned residual, with an
    absolute fallback when ||b|| = 0.  Non-convergence is reported in the
    result, never silent.
    """
    if tol <= 0.0:
        raise ValueError("tol must be > 0")
    n = a.shape[0]
    b = np.asarray(b, dtype=float)
    if b.shape != (n,):
        raise ValueError(f"dimension mismatch: matrix {n}, rhs {b.shape}")
    if max_iter is None:
        max_iter = max(10 * n, 100)

    dinv = a.diagonal()
    dinv[dinv == 0.0] = 1.0
    dinv = 1.0 / dinv

    x = np.zeros(n)
    r = b.copy()
    z = dinv * r
    rz = float(r @ z)
    b_norm = np.sqrt(float((dinv * b) @ b))
    if b_norm == 0.0:
        return CGResult(x=x, iters=0, residual=0.0, converged=True)
    p = z.copy()
    it = 0
    while it < max_iter:
        if np.sqrt(rz) / b_norm <= tol:
            return CGResult(x=x, iters=it, residual=np.sqrt(rz) / b_norm, converged=True)
        q = a @ p
        alpha = rz / float(p @ q)
        x += alpha * p
        r -= alpha * q
        z = dinv * r
        rz_new = float(r @ z)
        p = z + (rz_new / rz) * p
        rz = rz_new
        it += 1
    res = np.sqrt(max(rz, 0.0)) / b_norm
    return CGResult(x=x, iters=it, residual=res, converged=res <= tol)
