"""Randomized property suites for the projection operator and its charts.

Each suite returns the worst violation it observed together with its
tolerance; the CLI turns these into pass/fail lines and an exit code.  All
sampling is deterministic per seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import tensor_core as tc
from . import yield_charts as yc
from .tensor_core import (
    SymMat,
    deviator_stack,
    frob_inner_stack,
    frob_norm_stack,
    proj_dev_ball_stack,
    rand_sym_stack,
    trace_stack,
)


@dataclass
class SuiteResult:
    name: str
    max_violation: float
    tol: float

    @property
    def passed(self) -> bool:
        return self.max_violation <= self.tol


def proj_prop_suite(d: int, n_samples: int, seed: int) -> list[SuiteResult]:
    """The four pointwise properties of the capped deviatoric projection.

    (i) orthogonal split of the projected norm, (ii) Lipschitz in the radius,
    (iii) the obtuse-angle (projection) inequality, (iv) nonexpansiveness.
    The bulk runs on stacked matrices.  For d = 2 every sample is
    cross-checked against the packed kernel that the fem steps run, and a
    small sample against the scalar SymMat API for every d.
    """
    rng = np.random.default_rng(seed)
    a = rand_sym_stack(rng, n_samples, d)
    b = rand_sym_stack(rng, n_samples, d)
    r = 2.0 * rng.random(n_samples)
    r1 = 2.0 * rng.random(n_samples)
    r2 = 2.0 * rng.random(n_samples)

    dev = deviator_stack(a)
    sph = a - dev
    # (i): identity orthogonal to deviators, and the Pythagorean norm split
    vi = np.abs(trace_stack(dev))
    pa = proj_dev_ball_stack(a, r)
    split = np.abs(frob_norm_stack(pa) ** 2
                   - (frob_norm_stack(sph) ** 2 + frob_norm_stack(pa - sph) ** 2))
    scale_i = np.maximum(1.0, frob_norm_stack(a) ** 2)
    v1 = max(vi.max(), (split / scale_i).max())

    # (ii): |P_{r1}(a) - P_{r2}(a)| <= |r1 - r2|
    v2 = (frob_norm_stack(proj_dev_ball_stack(a, r1) - proj_dev_ball_stack(a, r2))
          - np.abs(r1 - r2)).max()

    # (iii): (P_r(a) - a, P_r(a) - b) <= 0 for b with |b^D| <= r
    b_in = proj_dev_ball_stack(b, r)  # pull b into the constraint set
    v3 = frob_inner_stack(pa - a, pa - b_in).max()

    # (iv): |P_r(a) - P_r(b)| <= |a - b|
    v4 = (frob_norm_stack(pa - proj_dev_ball_stack(b, r)) - frob_norm_stack(a - b)).max()

    # the packed (s00, s01, s11) kernel on every sample, then the scalar path on a few
    up = (slice(None), [0, 0, 1], [0, 1, 1])
    xc = float(np.abs(tc.proj_dev_ball_arr(a[up], r) - pa[up]).max()) if d == 2 else 0.0
    for k in range(min(50, n_samples)):
        am = SymMat.from_matrix(a[k])
        pm = tc.proj_dev_ball(am, float(r[k]))
        xc = max(xc, float(np.abs(pm.to_matrix() - pa[k]).max()))
        xc = max(xc, abs(tc.trace(pm) - tc.trace(am)))

    return [
        SuiteResult(f"proj_prop_i_d{d}", float(v1), 1e-12),
        SuiteResult(f"proj_prop_ii_d{d}", float(v2), 1e-10),
        SuiteResult(f"proj_prop_iii_d{d}", float(v3), 1e-10),
        SuiteResult(f"proj_prop_iv_d{d}", float(v4), 1e-10),
        SuiteResult(f"proj_scalar_vs_vectorized_d{d}", xc, 1e-12),
    ]


def chart_suite(d: int, n_samples: int, seed: int) -> list[SuiteResult]:
    """Isometry, range orthogonality, decomposition round trip, membership."""
    rng = np.random.default_rng(seed)
    lam = 3.0 * rng.standard_normal(n_samples)
    xs = 3.0 * rng.standard_normal((n_samples, d * d - 1))
    mats1 = yc.psi1(lam, d)
    mats2 = yc.psi2(xs, d)
    x_norm = np.linalg.norm(xs, axis=1)

    iso = np.maximum(
        np.abs(frob_norm_stack(mats1) - np.abs(lam)) / np.maximum(1.0, np.abs(lam)),
        np.abs(frob_norm_stack(mats2) - x_norm) / np.maximum(1.0, x_norm),
    ).max()
    orth = (np.abs(frob_inner_stack(mats1, mats2)) / np.maximum(1.0, np.abs(lam) * x_norm)).max()

    full = 3.0 * rng.standard_normal((n_samples, d, d))
    lam_f, x_f = yc.decompose(full)
    err = np.abs(yc.psi1(lam_f, d) + yc.psi2(x_f, d) - full).max(axis=(1, 2))
    rt = (err / np.maximum(1.0, np.abs(full).max(axis=(1, 2)))).max()

    sym = rand_sym_stack(rng, n_samples, d)
    radii = 2.0 * rng.random(n_samples)
    dev_norm = frob_norm_stack(deviator_stack(sym))
    differ = yc.kr_contains_via_chart(sym, radii) != (dev_norm <= radii)
    # only a disagreement wider than roundoff slack counts
    agree = np.abs(dev_norm - radii)[differ].max(initial=0.0)

    return [
        SuiteResult(f"chart_isometry_d{d}", float(iso), 1e-12),
        SuiteResult(f"chart_orthogonality_d{d}", float(orth), 1e-12),
        SuiteResult(f"chart_roundtrip_d{d}", float(rt), 1e-12),
        SuiteResult(f"chart_membership_agree_d{d}", float(agree), 1e-12),
    ]


def _worst(values: list[float]) -> float:
    """The largest of the cases' values, NaN if any is NaN (Python's max
    would drop it, and the suite would pass)."""
    return float(np.max(values, initial=-math.inf))


def oracle_suite(n_cases: int, n_samples: int, seed: int) -> list[SuiteResult]:
    """The closed-form projection must beat every brute-force chart sample."""
    rng = np.random.default_rng(seed)
    gaps = []
    for k in range(n_cases):
        f = rand_sym_stack(rng, 1, 2)[0]
        radius = 2.0 * rng.random()
        d_proj = float(frob_norm_stack(proj_dev_ball_stack(f, radius) - f))
        _, d_best = yc.argmin_oracle(f, radius, n_samples, seed=seed + 1000 + k)
        gaps.append(d_proj - d_best)
    return [SuiteResult("projection_argmin_oracle", _worst(gaps), 1e-12)]


def vi_suite(n_setups: int, n_witnesses: int, seed: int) -> list[SuiteResult]:
    """Projected stress update versus its variational inequality, on 2x2 set-ups."""
    rng = np.random.default_rng(seed)
    violations = []
    for k in range(n_setups):
        sig_a, strain, h, p = (rand_sym_stack(rng, 1, 2, scale=1.0)[0] for _ in range(4))
        g = 2.0 * rng.random()
        dt = 10.0 ** rng.uniform(-3, 1)
        violations.append(yc.inclusion_equivalence_check(
            sig_a, strain, h, p, g, dt, n_witnesses, seed=seed + 5000 + k
        ))
    return [SuiteResult("stress_update_vi", _worst(violations), 1e-10)]


def run_all(
    n_samples: int = 10_000,
    n_oracle_cases: int = 100,
    oracle_samples: int = 100_000,
    n_vi_setups: int = 1_000,
    n_vi_witnesses: int = 100,
    seed: int = 0,
) -> list[SuiteResult]:
    out: list[SuiteResult] = []
    for d in (2, 3):
        out += proj_prop_suite(d, n_samples, seed)
        out += chart_suite(d, n_samples, seed + 1)
    out += oracle_suite(n_oracle_cases, oracle_samples, seed + 2)
    out += vi_suite(n_vi_setups, n_vi_witnesses, seed + 3)
    return out
