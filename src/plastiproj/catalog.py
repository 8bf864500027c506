"""Named data-function catalog so runs are reproducible from a config file.

Every time/space-dependent datum (force f, strain source h, stress shift p,
yield radius g, initial values) is referenced by catalog name plus
parameters; no code is ever embedded in configs.

Roles and shapes (k = number of evaluation points):
  vector  (f, v0):      (t, pts) -> (k, 2)
  tensor  (h, p, s0):   (t, pts) -> (k, 3) packed (s00, s01, s11)
  scalar  (g):          (t, pts) -> (k,)
"""

from __future__ import annotations

import numpy as np


class ConfigError(ValueError):
    """Invalid configuration content; maps to CLI exit code 2."""


def _tensor_value(params, key="value"):
    v = np.asarray(params.get(key, [0.0, 0.0, 0.0]), dtype=float)
    if v.shape == (2, 2):
        v = np.array([v[0, 0], v[0, 1], v[1, 1]])
    if v.shape != (3,):
        raise ConfigError(f"tensor parameter {key!r} must be 3 packed entries or a 2x2 matrix")
    return v


def _vector_value(params, key="value"):
    v = np.asarray(params.get(key, [0.0, 0.0]), dtype=float)
    if v.shape != (2,):
        raise ConfigError(f"vector parameter {key!r} must have 2 entries")
    return v


def _bump(params, pts):
    center = np.asarray(params.get("center", [0.5, 0.5]), dtype=float)
    width = float(params.get("width", 0.2))
    if width <= 0.0:
        raise ConfigError("gaussian width must be > 0")
    d2 = ((pts - center) ** 2).sum(axis=1)
    return np.exp(-d2 / (2.0 * width**2))


def vector_fn(name: str, params: dict):
    if name == "constant":
        val = _vector_value(params)
        return lambda t, pts: np.broadcast_to(val, (len(pts), 2)).copy()
    if name == "linear_in_t":
        base = _vector_value(params, "base")
        slope = _vector_value(params, "slope")
        return lambda t, pts: np.broadcast_to(base + t * slope, (len(pts), 2)).copy()
    if name == "gaussian_bump_in_x":
        val = _vector_value(params)
        return lambda t, pts, _v=val: _bump(params, pts)[:, None] * _v
    raise ConfigError(f"unknown vector function {name!r}")


def tensor_fn(name: str, params: dict):
    if name == "constant":
        val = _tensor_value(params)
        return lambda t, pts: np.broadcast_to(val, (len(pts), 3)).copy()
    if name == "linear_in_t":
        base = _tensor_value(params, "base")
        slope = _tensor_value(params, "slope")
        return lambda t, pts: np.broadcast_to(base + t * slope, (len(pts), 3)).copy()
    if name == "radial_deviatoric":
        # amp * diag(1, -1): a pure deviator driving radial loading
        amp = float(params.get("amplitude", 1.0))
        val = amp * np.array([1.0, 0.0, -1.0])
        return lambda t, pts: np.broadcast_to(val, (len(pts), 3)).copy()
    if name == "gaussian_bump_in_x":
        val = _tensor_value(params)
        return lambda t, pts, _v=val: _bump(params, pts)[:, None] * _v
    raise ConfigError(f"unknown tensor function {name!r}")


def scalar_fn(name: str, params: dict):
    if name == "constant":
        val = float(params.get("value", 1.0))
        return lambda t, pts: np.full(len(pts), val)
    if name == "linear_in_t":
        base = float(params.get("base", 1.0))
        slope = float(params.get("slope", 0.0))
        return lambda t, pts: np.full(len(pts), base + slope * t)
    if name == "gaussian_bump_in_x":
        amp = float(params.get("amplitude", 1.0))
        offset = float(params.get("offset", 0.0))
        return lambda t, pts: offset + amp * _bump(params, pts)
    raise ConfigError(f"unknown scalar function {name!r}")
