"""Sparse symmetric matrices, a factored direct solve, and reference CG.

``SparseSym`` is a scipy CSR array with the symmetry stored fully; sums,
scalar multiples and row/column slices of it stay ``SparseSym``.

``factorized_solve`` is the production solve: every matrix the stepper and
the norms solve with is constant over a run, so it is factored once (sparse
LU) and each later solve is two triangular sweeps.  ``cg_solve`` is a
written-out Jacobi-preconditioned CG, kept as the independent reference the
tests cross-check against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu


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
    """Factor ``a`` once by SuperLU and return the solve ``b -> a^-1 b``.

    The minimum-degree ordering of A^T + A suits these symmetric FE
    matrices: on a 64x64 step matrix its L + U holds about 786k nonzeros,
    where the default COLAMD ordering gives about 1.21M.
    """
    return splu(a.tocsc(), permc_spec="MMD_AT_PLUS_A").solve


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
