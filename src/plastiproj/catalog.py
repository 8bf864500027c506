"""Named data-function catalog so runs are reproducible from a config file.

Every time/space-dependent datum (force f, strain source h, stress shift p,
yield radius g, initial values) is referenced by catalog name plus
parameters; no code is ever embedded in configs.

Roles and shapes (k = number of evaluation points):
  vector  (f, v0):      (t, pts) -> (k, 2)
  tensor  (h, p, s0):   (t, pts) -> (k, 3) packed (s00, s01, s11)
  scalar  (g):          (t, pts) -> (k,)

``t`` is a scalar or a 1-D array of m times; an array gives one row per
time, (m, k, ...), each bit-identical to the scalar call at that time.
Every call returns a fresh, writable array.  The parameters are checked
when a function is built: each number must be finite and have its shape,
or a ``ParamError`` names its key.
"""

from __future__ import annotations

import numpy as np


class ConfigError(ValueError):
    """Invalid configuration content; maps to CLI exit code 2."""


class ParamError(ConfigError):
    """A bad entry ``key`` of a data function's ``params``, and why."""

    def __init__(self, key: str, reason: str):
        super().__init__(f"field 'params.{key}': {reason}")
        self.key, self.reason = key, reason


def _param(params, key, default, what, *shapes):
    """``params[key]``, or ``default`` when left out, as a finite float array
    of one of ``shapes``."""
    raw = params.get(key, default)
    try:
        v = np.asarray(raw, dtype=float)
    except (TypeError, ValueError, OverflowError):
        v = None
    if v is None or v.shape not in shapes or not np.isfinite(v).all():
        raise ParamError(key, f"expected {what}, got {raw!r}")
    return v


def _scalar_value(params, key, default):
    return float(_param(params, key, default, "a finite number", ()))


def _tensor_value(params, key="value"):
    v = _param(params, key, [0.0, 0.0, 0.0],
               "3 finite packed entries or a finite 2x2 matrix", (3,), (2, 2))
    return np.array([v[0, 0], v[0, 1], v[1, 1]]) if v.shape == (2, 2) else v


def _vector_value(params, key="value"):
    return _param(params, key, [0.0, 0.0], "2 finite entries", (2,))


def _bump(params):
    """The gaussian profile of ``params`` as a function of the points."""
    center = _param(params, "center", [0.5, 0.5], "2 finite entries", (2,))
    width = _scalar_value(params, "width", 0.2)
    # a width whose square underflows would divide 0 by 0 at the center
    if not (width > 0.0 and 2.0 * width**2 > 0.0):
        raise ParamError("width", f"must be > 0, got {width!r}")
    return lambda pts: np.exp(-((pts - center) ** 2).sum(axis=1) / (2.0 * width**2))


def _fill(shape, val):
    """``np.full(shape, val)``, one component at a time when ``val`` runs along
    the last axis: np.full copies a short last axis such as (s00, s01, s11)
    several times slower."""
    if np.shape(val)[-1:] != shape[-1:]:
        return np.full(shape, val)
    out = np.empty(shape)
    for j in range(shape[-1]):
        out[..., j] = val[..., j]
    return out


def _over_t(t, per_t):
    """``per_t`` (k, ...) repeated for every time of ``t``, as a fresh array."""
    return np.full(np.shape(t) + per_t.shape, per_t)


def _linear(t, k, base, slope):
    """base + t * slope at each time, repeated over k points: (k, *tail) or
    (m, k, *tail).  ``np.multiply.outer`` makes the same products as the
    scalar ``t * slope``, so each row matches the scalar call bit for bit."""
    val = base + np.multiply.outer(t, slope)
    lead = np.ndim(t)
    return _fill(val.shape[:lead] + (k,) + val.shape[lead:], np.expand_dims(val, lead))


def vector_fn(name: str, params: dict):
    if name == "constant":
        val = _vector_value(params)
        return lambda t, pts: _fill(np.shape(t) + (len(pts), 2), val)
    if name == "linear_in_t":
        base = _vector_value(params, "base")
        slope = _vector_value(params, "slope")
        return lambda t, pts: _linear(t, len(pts), base, slope)
    if name == "gaussian_bump_in_x":
        val = _vector_value(params)
        bump = _bump(params)
        return lambda t, pts: _over_t(t, bump(pts)[:, None] * val)
    raise ConfigError(f"unknown vector function {name!r}")


def tensor_fn(name: str, params: dict):
    if name == "constant":
        val = _tensor_value(params)
        return lambda t, pts: _fill(np.shape(t) + (len(pts), 3), val)
    if name == "linear_in_t":
        base = _tensor_value(params, "base")
        slope = _tensor_value(params, "slope")
        return lambda t, pts: _linear(t, len(pts), base, slope)
    if name == "radial_deviatoric":
        # amp * diag(1, -1): a pure deviator driving radial loading
        amp = _scalar_value(params, "amplitude", 1.0)
        val = amp * np.array([1.0, 0.0, -1.0])
        return lambda t, pts: _fill(np.shape(t) + (len(pts), 3), val)
    if name == "gaussian_bump_in_x":
        val = _tensor_value(params)
        bump = _bump(params)
        return lambda t, pts: _over_t(t, bump(pts)[:, None] * val)
    raise ConfigError(f"unknown tensor function {name!r}")


def scalar_fn(name: str, params: dict):
    if name == "constant":
        val = _scalar_value(params, "value", 1.0)
        return lambda t, pts: np.full(np.shape(t) + (len(pts),), val)
    if name == "linear_in_t":
        base = _scalar_value(params, "base", 1.0)
        slope = _scalar_value(params, "slope", 0.0)
        return lambda t, pts: _linear(t, len(pts), base, slope)
    if name == "gaussian_bump_in_x":
        amp = _scalar_value(params, "amplitude", 1.0)
        offset = _scalar_value(params, "offset", 0.0)
        bump = _bump(params)
        return lambda t, pts: _over_t(t, offset + amp * bump(pts))
    raise ConfigError(f"unknown scalar function {name!r}")
