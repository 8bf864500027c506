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
``tensor_core``, both on 2 x 2 matrices:

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


# rows per block of the argmin oracle: its per-block arrays stay in cache
_ORACLE_BLOCK = 8192


def _frob2(a00, a01, a10, a11):
    """Frobenius norm of 2x2 matrices given entrywise.  The squares are added
    in the pairing of einsum in ``frob_norm_stack`` on AVX-512 hosts, so the
    oracle matches the stacked form bit for bit there, and in a fixed order,
    so its bits are the same on every host."""
    return np.sqrt((a00 * a00 + a10 * a10) + (a01 * a01 + a11 * a11))


def argmin_oracle(
    f: np.ndarray, radius: float, n_samples: int, seed: int
) -> tuple[np.ndarray, float]:
    """Brute-force nearest point to the 2 x 2 matrix f over chart samples of
    the constraint set.

    lam is drawn from a uniform 101-point grid on
    [tr f/sqrt(2) - 2|f|, tr f/sqrt(2) + 2|f|] (the true minimizer's lam is
    interior to that interval), x uniform in the radius ball of R^3.
    Deterministic per seed.  The samples' distances are computed from their
    entries a block of rows at a time; ties go to the first sample.  Returns
    (best sampled matrix, its Frobenius distance to f).
    """
    f = np.asarray(f, dtype=float)
    if f.shape != (2, 2):
        raise ValueError(f"f must be a 2x2 matrix, got shape {f.shape}")
    if not (math.isfinite(radius) and radius >= 0.0):
        raise ValueError(f"radius must be finite and >= 0, got {radius}")
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    rng = np.random.default_rng(seed)
    (f00, f01), (f10, f11) = f
    center = (f00 + f11) / math.sqrt(2)
    half = 2.0 * max(float(_frob2(f00, f01, f10, f11)), 1e-12)
    lam_grid = np.linspace(center - half, center + half, 101)
    lam = lam_grid[rng.integers(0, len(lam_grid), size=n_samples)]
    if radius == 0.0:  # no draws: every sample has x = 0
        z, r = np.zeros((n_samples, 3)), np.zeros(n_samples)
    else:  # x = r z/|z| is uniform in the ball
        z = rng.standard_normal((n_samples, 3))
        r = radius * rng.random(n_samples) ** (1.0 / 3)

    diag = dev_basis(2)[0]
    picks = []  # (distance, index, x) of each block's nearest sample
    for lo in range(0, n_samples, _ORACLE_BLOCK):
        z0, z1, z2 = z[lo : lo + _ORACLE_BLOCK].T
        r_blk = r[lo : lo + _ORACLE_BLOCK]
        norm = np.maximum(np.sqrt((z0 * z0 + z1 * z1) + z2 * z2), 1e-300)
        x0, x1, x2 = ((zk / norm) * r_blk for zk in (z0, z1, z2))
        sph = lam[lo : lo + _ORACLE_BLOCK] / math.sqrt(2)
        dist = _frob2(sph + x0 * diag[0, 0] - f00, x1 - f01, x2 - f10,
                      sph + x0 * diag[1, 1] - f11)
        k = int(np.argmin(dist))
        picks.append((dist[k], lo + k, np.array([x0[k], x1[k], x2[k]])))
    # np.argmin over the block minima keeps the first of equal ones, and a NaN
    dist, best, x = picks[int(np.argmin([p[0] for p in picks]))]
    return psi1(lam[best], 2) + psi2(x, 2), float(dist)


def sample_constraint_set(
    rng: np.random.Generator, n: int, p: np.ndarray, g: float, lam_scale: float
) -> np.ndarray:
    """n random symmetric witnesses tau with |(tau+p)^D| <= g for the 2 x 2
    matrix p, shape (n, 2, 2).

    Sampled through the chart with paired off-diagonal coordinates
    (b_01 = b_10), then shifted by -p.
    """
    if p.shape != (2, 2):
        raise ValueError(f"p must be a 2x2 matrix, got shape {p.shape}")
    lam = lam_scale * rng.standard_normal(n)
    # the symmetric trace-free coordinates (a, b): a counts once in the
    # chart norm, the off-diagonal pair twice
    coords = rng.standard_normal((n, 2))
    norms = np.sqrt((coords**2 * np.array([1.0, 2.0])).sum(axis=1))
    radii = g * rng.random(n) ** (1.0 / 2)
    c = coords * (radii / np.maximum(norms, 1e-300))[:, None]
    return psi1(lam, 2) + psi2(c[:, [0, 1, 1]], 2) - p


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
    F = sigma_a + dt*(v_strain + h), all 2 x 2 matrices; returns the largest
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
