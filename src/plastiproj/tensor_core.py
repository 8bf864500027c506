"""Symmetric-tensor arithmetic and projection onto the deviatoric ball.

Conventions
-----------
* A :class:`SymMat` stores only the upper triangle of a d x d symmetric
  matrix, row-major: ``(0,0),(0,1),(1,1)`` for d=2 and
  ``(0,0),(0,1),(0,2),(1,1),(1,2),(2,2)`` for d=3.  Packed element arrays
  (the ``*_arr`` functions, d=2 only) use the same component order.  The
  scalar SymMat API is the reference that the array kernels are tested
  against.
* The ``*_stack`` functions work on stacks of full matrices, shape
  (..., d, d), for d = 2 and 3; the oracle suites and charts use them.
* ``frob_inner`` is the full-matrix double contraction A:B, so off-diagonal
  entries count TWICE.  Every norm in this package follows that convention;
  it is a classic bug source when mixing with engineering (Voigt) notation.
* The cutoff map is evaluated branch-free: the deviator is kept when
  |dev| <= R and rescaled to R*dev/|dev| otherwise.  This is the same map as
  "scale dev/R back to the unit ball" but never divides by a tiny R.
* All scalars are 64-bit floats; the tolerances used by the tests assume it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_UPPER = {
    2: ((0, 0), (0, 1), (1, 1)),
    3: ((0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2)),
}


@dataclass(frozen=True)
class SymMat:
    """Immutable d x d symmetric matrix, d in {2, 3}."""

    dim: int
    upper: tuple[float, ...]

    def __post_init__(self):
        if self.dim not in (2, 3):
            raise ValueError(f"dim must be 2 or 3, got {self.dim}")
        want = self.dim * (self.dim + 1) // 2
        if len(self.upper) != want:
            raise ValueError(f"expected {want} upper-triangle entries, got {len(self.upper)}")
        object.__setattr__(self, "upper", tuple(float(v) for v in self.upper))

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, dim: int) -> "SymMat":
        return cls(dim, (0.0,) * (dim * (dim + 1) // 2))

    @classmethod
    def identity(cls, dim: int) -> "SymMat":
        m = np.eye(dim)
        return cls.from_matrix(m)

    @classmethod
    def diag(cls, *values: float) -> "SymMat":
        return cls.from_matrix(np.diag(np.asarray(values, dtype=float)))

    @classmethod
    def from_matrix(cls, m) -> "SymMat":
        m = np.asarray(m, dtype=float)
        d = m.shape[0]
        if m.shape != (d, d):
            raise ValueError(f"square matrix required, got shape {m.shape}")
        if not np.allclose(m, m.T, rtol=0.0, atol=1e-12 * max(1.0, float(np.abs(m).max()))):
            raise ValueError("matrix is not symmetric")
        return cls(d, tuple(m[i, j] for i, j in _UPPER[d]))

    # -- views -------------------------------------------------------------

    def to_matrix(self) -> np.ndarray:
        m = np.zeros((self.dim, self.dim))
        for v, (i, j) in zip(self.upper, _UPPER[self.dim]):
            m[i, j] = v
            m[j, i] = v
        return m

    def entry(self, i: int, j: int) -> float:
        if i > j:
            i, j = j, i
        return self.upper[_UPPER[self.dim].index((i, j))]

    # -- arithmetic --------------------------------------------------------

    def _check(self, other: "SymMat"):
        if self.dim != other.dim:
            raise ValueError(f"dimension mismatch: {self.dim} vs {other.dim}")

    def __add__(self, other: "SymMat") -> "SymMat":
        self._check(other)
        return SymMat(self.dim, tuple(a + b for a, b in zip(self.upper, other.upper)))

    def __sub__(self, other: "SymMat") -> "SymMat":
        self._check(other)
        return SymMat(self.dim, tuple(a - b for a, b in zip(self.upper, other.upper)))

    def __mul__(self, c: float) -> "SymMat":
        return SymMat(self.dim, tuple(a * c for a in self.upper))

    def __rmul__(self, c: float) -> "SymMat":
        return self.__mul__(c)

    def __neg__(self) -> "SymMat":
        return self.__mul__(-1.0)


# -- scalar operations -----------------------------------------------------


def trace(a: SymMat) -> float:
    return float(sum(a.entry(i, i) for i in range(a.dim)))


def deviator(a: SymMat) -> SymMat:
    """a minus its spherical part, (tr a / d) * identity."""
    s = trace(a) / a.dim
    m = a.to_matrix()
    return SymMat.from_matrix(m - s * np.eye(a.dim))


def frob_inner(a: SymMat, b: SymMat) -> float:
    """Full double contraction a:b; off-diagonal entries count twice."""
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} vs {b.dim}")
    return float(np.sum(a.to_matrix() * b.to_matrix()))


def frob_norm(a: SymMat) -> float:
    return math.sqrt(frob_inner(a, a))


def proj_dev_ball(a: SymMat, radius: float) -> SymMat:
    """Nearest point of {s : |s^D| <= radius} in the Frobenius metric.

    Keeps the spherical part and radially clips the deviator.  radius = 0
    returns the spherical part alone; |dev| = 0 needs no special case since
    the clip branch is never taken.
    """
    if radius < 0.0:
        raise ValueError(f"radius must be >= 0, got {radius}")
    sph = (trace(a) / a.dim) * SymMat.identity(a.dim)
    dev = deviator(a)
    nd = frob_norm(dev)
    if nd <= radius:
        return sph + dev
    return sph + dev * (radius / nd)


def project_constraint(sigma: SymMat, p: SymMat, g: float) -> SymMat:
    """Projection onto the shifted constraint set {s : |(s+p)^D| <= g}.

    Shift by p, clip the deviator to radius g, unshift.
    """
    if g < 0.0:
        raise ValueError(f"g must be >= 0, got {g}")
    return proj_dev_ball(sigma + p, g) - p


def membership(sigma: SymMat, p: SymMat, g: float, tol: float = 0.0) -> bool:
    """True iff |(sigma+p)^D| <= g + tol."""
    return frob_norm(deviator(sigma + p)) <= g + tol


# -- packed element arrays, d=2 ---------------------------------------------
#
# Element-wise stress fields store (n, 3) arrays in the same component order
# as SymMat.upper for d=2: (s00, s01, s11).

_SPH2 = np.array([1.0, 0.0, 1.0])


def trace_arr(s: np.ndarray) -> np.ndarray:
    return s[..., 0] + s[..., 2]


def deviator_arr(s: np.ndarray) -> np.ndarray:
    return s - 0.5 * trace_arr(s)[..., None] * _SPH2


def frob_inner_arr(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return a[..., 0] * b[..., 0] + 2.0 * a[..., 1] * b[..., 1] + a[..., 2] * b[..., 2]


def frob_norm_arr(s: np.ndarray) -> np.ndarray:
    return np.sqrt(frob_inner_arr(s, s))


def proj_dev_ball_arr(s: np.ndarray, radius: np.ndarray) -> np.ndarray:
    """Vectorized proj_dev_ball over (n, 3) packed tensors, radius (n,)."""
    radius = np.asarray(radius, dtype=float)
    if (radius < 0.0).any():
        raise ValueError("radius must be >= 0 everywhere")
    sph = 0.5 * trace_arr(s)[..., None] * _SPH2
    dev = s - sph
    nd = frob_norm_arr(dev)
    # divides only where nd > radius >= 0, so never by zero
    scale = np.divide(radius, nd, out=np.ones_like(nd), where=nd > radius)
    return sph + scale[..., None] * dev


def project_constraint_arr(sigma: np.ndarray, p: np.ndarray, g: np.ndarray) -> np.ndarray:
    return proj_dev_ball_arr(sigma + p, g) - p


def yield_slack_arr(sigma: np.ndarray, p: np.ndarray, g: np.ndarray) -> np.ndarray:
    """g - |(sigma+p)^D| per element; nonnegative means feasible."""
    return np.asarray(g, dtype=float) - frob_norm_arr(deviator_arr(sigma + p))


# -- stacked full matrices, shape (..., d, d) ----------------------------------


def rand_sym_stack(rng: np.random.Generator, n: int, d: int, scale: float = 3.0) -> np.ndarray:
    """n random symmetric matrices, the symmetric parts of scale * N(0, 1) draws."""
    a = scale * rng.standard_normal((n, d, d))
    return 0.5 * (a + a.transpose(0, 2, 1))


def trace_stack(a: np.ndarray) -> np.ndarray:
    return np.einsum("...ii->...", a)


def deviator_stack(a: np.ndarray) -> np.ndarray:
    d = a.shape[-1]
    return a - (trace_stack(a) / d)[..., None, None] * np.eye(d)


def frob_inner_stack(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.einsum("...ij,...ij->...", a, b)


def frob_norm_stack(a: np.ndarray) -> np.ndarray:
    return np.sqrt(frob_inner_stack(a, a))


def proj_dev_ball_stack(a: np.ndarray, radius) -> np.ndarray:
    """proj_dev_ball of every matrix in a stack; radius broadcasts against it."""
    d = a.shape[-1]
    sph = (trace_stack(a) / d)[..., None, None] * np.eye(d)
    dev = a - sph
    nd = frob_norm_stack(dev)
    # divides only where nd > radius >= 0, so never by zero
    scale = np.divide(radius, nd, out=np.ones_like(nd), where=nd > radius)
    return sph + scale[..., None, None] * dev
