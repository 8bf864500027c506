"""Isometric charts for the deviatoric ball and brute-force projection oracles.

The constraint set {A : |A^D| <= R} in R^{dxd} is the image of
``(lam, x) -> chart_sph(lam) + chart_dev(x)`` with |x| <= R, where

* ``chart_sph(lam) = (lam/sqrt(d)) * I`` spans the spherical line,
* ``chart_dev(x)`` spans the trace-free matrices via the orthonormal basis
  of diagonal deviators e_i = diag(1,..,1,-i,0,..)/sqrt(i(i+1)) together
  with the single-entry off-diagonal matrices E_ij (i != j).

Both maps are linear isometries with mutually orthogonal ranges, so
distances split coordinate-wise.  The chart covers all of R^{dxd}, not just
symmetric matrices; symmetric inputs decompose with b_ij = b_ji.

These charts back two independent checks of the closed-form projection in
``tensor_core``:

* ``argmin_oracle`` samples the constraint set through the chart and
  verifies by brute force that no sample beats the projected point.
* ``inclusion_equivalence_check`` verifies that the projected stress update
  satisfies the variational inequality (F - sigma_b, tau - sigma_b) <= 0
  against random witnesses tau in the shifted set.
"""

from __future__ import annotations

import math

import numpy as np

from .tensor_core import (
    deviator_stack,
    frob_inner_stack,
    frob_norm_stack,
    proj_dev_ball_stack,
    trace_stack,
)


def _offdiag_pairs(d: int) -> list[tuple[int, int]]:
    return [(i, j) for i in range(d) for j in range(d) if i != j]


def dev_basis(d: int) -> np.ndarray:
    """Orthonormal basis of the trace-free matrices, shape (d*d-1, d, d).

    Chart coordinates x are laid out as the d-1 diagonal coefficients a_i
    followed by the off-diagonal entries b_ij for i != j in row-major (i, j)
    order.
    """
    mats = []
    for i in range(1, d):
        e = np.zeros((d, d))
        for k in range(i):
            e[k, k] = 1.0
        e[i, i] = -float(i)
        mats.append(e / math.sqrt(i * (i + 1)))
    for i, j in _offdiag_pairs(d):
        e = np.zeros((d, d))
        e[i, j] = 1.0
        mats.append(e)
    return np.stack(mats)


def psi1(lam, d: int) -> np.ndarray:
    """Spherical chart, (lam/sqrt(d)) * identity per entry of lam; an isometry of R."""
    lam = np.asarray(lam, dtype=float)
    return (lam[..., None, None] / math.sqrt(d)) * np.eye(d)


def psi2(x, d: int) -> np.ndarray:
    """Deviatoric chart; maps R^{d*d-1} isometrically onto trace-free matrices."""
    x = np.asarray(x, dtype=float)
    if x.shape[-1:] != (d * d - 1,):
        raise ValueError(f"expected {d * d - 1} coordinates, got shape {x.shape}")
    return np.einsum("...k,kij->...ij", x, dev_basis(d))


def decompose(a) -> tuple[np.ndarray, np.ndarray]:
    """Unique chart coordinates (lam, x) of each matrix in a (..., d, d) stack."""
    a = np.asarray(a, dtype=float)
    d = a.shape[-1]
    x = np.einsum("kij,...ij->...k", dev_basis(d), deviator_stack(a))
    return trace_stack(a) / math.sqrt(d), x


def kr_contains_via_chart(a, radius) -> np.ndarray:
    """Membership in {A : |A^D| <= radius} of each matrix in a stack, decided
    in chart coordinates."""
    radius = np.asarray(radius, dtype=float)
    if (radius < 0.0).any():
        raise ValueError("radius must be >= 0 everywhere")
    _, x = decompose(a)
    return np.linalg.norm(x, axis=-1) <= radius


def _ball_samples(rng: np.random.Generator, n: int, dim: int, radius: float) -> np.ndarray:
    """Uniform samples in the radius ball of R^dim, shape (n, dim)."""
    if radius == 0.0:
        return np.zeros((n, dim))
    z = rng.standard_normal((n, dim))
    z /= np.maximum(np.linalg.norm(z, axis=1, keepdims=True), 1e-300)
    r = radius * rng.random(n) ** (1.0 / dim)
    return z * r[:, None]


def argmin_oracle(
    f: np.ndarray, radius: float, n_samples: int, seed: int
) -> tuple[np.ndarray, float]:
    """Brute-force nearest point to the d x d matrix f over chart samples of
    the constraint set.

    lam is drawn from a uniform 101-point grid on
    [tr f/sqrt(d) - 2|f|, tr f/sqrt(d) + 2|f|] (the true minimizer's lam is
    interior to that interval), x uniform in the radius ball.  Deterministic
    per seed.  Returns (best sampled matrix, its Frobenius distance to f).
    """
    if radius < 0.0:
        raise ValueError(f"radius must be >= 0, got {radius}")
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    d = f.shape[-1]
    rng = np.random.default_rng(seed)
    center = trace_stack(f) / math.sqrt(d)
    half = 2.0 * max(float(frob_norm_stack(f)), 1e-12)
    lam_grid = np.linspace(center - half, center + half, 101)
    lam = lam_grid[rng.integers(0, len(lam_grid), size=n_samples)]
    xs = _ball_samples(rng, n_samples, d * d - 1, radius)

    mats = psi1(lam, d) + psi2(xs, d)
    dists = frob_norm_stack(mats - f)
    best = int(np.argmin(dists))
    return mats[best], float(dists[best])


def _chart_index(d: int) -> list[int]:
    """For each chart coordinate, its index among the symmetric coordinates:
    the d-1 diagonal coefficients, then one value per upper off-diagonal pair
    (b_ij = b_ji)."""
    upper = [(i, j) for i, j in _offdiag_pairs(d) if i < j]
    return list(range(d - 1)) + [
        d - 1 + upper.index((min(i, j), max(i, j))) for i, j in _offdiag_pairs(d)
    ]


def sample_constraint_set(
    rng: np.random.Generator, n: int, p: np.ndarray, g: float, lam_scale: float
) -> np.ndarray:
    """n random symmetric witnesses tau with |(tau+p)^D| <= g, shape (n, d, d).

    Sampled through the chart with paired off-diagonal coordinates
    (b_ij = b_ji), then shifted by -p.
    """
    d = p.shape[-1]
    # independent coordinates of the symmetric trace-free subspace
    m = d * (d + 1) // 2 - 1
    lam = lam_scale * rng.standard_normal(n)
    coords = rng.standard_normal((n, m))
    # chart norm of a symmetric deviator with paired entries c: a-part counts
    # once, each off-diagonal pair twice
    weights = np.ones(m)
    weights[d - 1 :] = 2.0
    norms = np.sqrt((coords**2 * weights).sum(axis=1))
    radii = g * rng.random(n) ** (1.0 / m)
    c = coords * (radii / np.maximum(norms, 1e-300))[:, None]
    return psi1(lam, d) + psi2(c[:, _chart_index(d)], d) - p


def inclusion_equivalence_check(
    sigma_a: np.ndarray,
    v_strain: np.ndarray,
    h: np.ndarray,
    p: np.ndarray,
    g: float,
    dt: float,
    n_witnesses: int,
    seed: int,
) -> float:
    """Check the projected stress update against its variational inequality.

    sigma_b is computed by the projection formula from the trial stress
    F = sigma_a + dt*(v_strain + h), all d x d matrices; returns the largest
    value of (F - sigma_b, tau - sigma_b) over random witnesses tau in the
    shifted constraint set, which must be <= 0 up to roundoff.
    """
    if dt <= 0.0:
        raise ValueError(f"dt must be > 0, got {dt}")
    if g < 0.0:
        raise ValueError(f"g must be >= 0, got {g}")
    f_trial = sigma_a + dt * (v_strain + h)
    sigma_b = proj_dev_ball_stack(f_trial + p, g) - p
    rng = np.random.default_rng(seed)
    lam_scale = 1.0 + float(frob_norm_stack(f_trial))
    taus = sample_constraint_set(rng, n_witnesses, p, g, lam_scale)
    return float(frob_inner_stack(f_trial - sigma_b, taus - sigma_b).max(initial=-math.inf))
