"""Named data-function catalog so runs are reproducible from a config file.

Every time/space-dependent datum (force f, strain source h, stress shift p,
yield radius g, initial values v0 and sigma0, taken at t = 0) is a function
of (t, pts) that ``data_fn(role, name, params)`` builds from a catalog name
plus parameters; no code is ever embedded in configs.

Roles and shapes (k = number of evaluation points):
  vector  (f, v0):          (t, pts) -> (k, 2)
  tensor  (h, p, sigma0):   (t, pts) -> (k, 3) packed (s00, s01, s11)
  scalar  (g):              (t, pts) -> (k,)

``t`` is a scalar or a 1-D array of m times; an array gives one row per
time, (m, k, ...), each bit-identical to the scalar call at that time.
Every call returns a fresh, writable array.  Every entry but ``linear_in_t``
is steady: it returns the same bits at every t, and ``data_fn`` marks it so
(``is_steady``), so that a config samples it once.  ``data_fn`` reads ``params``
through ``Fields`` (from Python, ``Fields(params, "params")``), the reader of
every config object: a number is a JSON int or float, never a bool or a
string, and a key that no read took is an error naming its field."""

from __future__ import annotations

import inspect
import math
import sys

import numpy as np


class ConfigError(ValueError):
    """Invalid configuration content; maps to CLI exit code 2."""


class UnknownFunction(ConfigError):
    """A catalog name that ``data_fn`` has no function of its role for."""


# the largest value of an integer field: up to it every count is exact as a
# float, and an array of that many items fails to allocate (MemoryError)
# before its size can pass numpy's limit, where numpy raises a ValueError
MAX_INTEGER = 2**53


def _is_number(raw) -> bool:
    """A JSON number: never a bool, nor an int past the float range."""
    return isinstance(raw, float) or (type(raw) is int and abs(raw) <= sys.float_info.max)


def _shape(raw):
    """The shape of ``raw`` as nested lists of finite numbers, () for one, or
    None: for a bool, a string, a non-finite number, ragged rows, ..."""
    if _is_number(raw):
        return () if math.isfinite(raw) else None
    if not isinstance(raw, list):
        return None
    rows = set(map(_shape, raw)) or {()}
    return None if len(rows) > 1 or None in rows else (len(raw), *rows.pop())


class JsonObject(dict):
    """A JSON object read by ``json.load(..., object_pairs_hook=JsonObject.of)``,
    which keeps the last value of a repeated key; ``duplicate`` is the first
    key that its text repeats, or None."""

    __slots__ = ("duplicate",)

    @classmethod
    def of(cls, pairs: list[tuple]) -> JsonObject:
        obj = cls(pairs)
        obj.duplicate = None
        if len(obj) < len(pairs):
            keys = [key for key, _ in pairs]
            obj.duplicate = next(key for i, key in enumerate(keys) if key in keys[:i])
        return obj


class Fields:
    """The JSON object ``obj`` at the dotted ``path`` ("" at the top level).
    A default of ``...`` marks a required field; any other is returned as is."""

    __slots__ = ("obj", "prefix", "taken")

    def __init__(self, obj, path: str):
        if not isinstance(obj, dict):
            raise ConfigError(f"field {path!r}: expected an object, got {obj!r}")
        self.obj, self.prefix, self.taken = obj, path + "." if path else "", set()
        duplicate = getattr(obj, "duplicate", None)
        if duplicate is not None:
            raise self.error(duplicate, "duplicate key")

    def error(self, key: str, reason: str) -> ConfigError:
        return ConfigError(f"field {self.prefix + key!r}: {reason}")

    def get(self, key: str, default=...):
        self.taken.add(key)
        if default is ... and key not in self.obj:
            raise self.error(key, "required, but missing")
        return self.obj.get(key, default)

    def section(self, key: str, default=None) -> Fields:
        """The object ``key``; ``default``, or else empty, when left out."""
        return Fields(self.get(key, {} if default is None else default), self.prefix + key)

    def number(self, key: str, default=..., integer: bool = False, lowest=None):
        """Finite and > 0, or >= ``lowest``; integral floats pass as integers,
        which are at most ``MAX_INTEGER``."""
        raw = self.get(key, default)
        if key not in self.obj:
            return raw
        if not _is_number(raw):
            raise self.error(key, f"expected a number, got {raw!r}")
        if integer and isinstance(raw, float) and not raw.is_integer():
            # int() drops the fraction: N 2.7 would silently run 2 steps
            raise self.error(key, f"expected an integer, got {raw!r}")
        value = int(raw) if integer else float(raw)
        if integer and value > MAX_INTEGER:
            raise self.error(key, f"must be <= 2**53, got {raw!r}")
        if lowest is not None:
            if not value >= lowest:
                raise self.error(key, f"must be >= {lowest}, got {raw!r}")
        elif not (math.isfinite(value) and value > 0.0):
            raise self.error(key, f"must be finite and > 0, got {raw!r}")
        return value

    def array(self, key: str, default, what: str, *shapes) -> float | np.ndarray:
        """A finite float array of one of ``shapes`` (a float for ()), or else of one axis."""
        raw = self.get(key, default)
        if key not in self.obj:  # a default has its shape already
            return float(raw) if () in shapes else np.asarray(raw, dtype=float)
        shape = _shape(raw)
        if shape in shapes or (not shapes and shape is not None and len(shape) == 1):
            return float(raw) if shape == () else np.asarray(raw, dtype=float)
        raise self.error(key, f"expected {what}, got {raw!r}")

    def close(self) -> None:
        if not self.taken.issuperset(self.obj):
            raise self.error(next(k for k in self.obj if k not in self.taken), "unknown key")


def _scalar_value(params: Fields, key, default):
    return params.array(key, default, "a finite number", ())


# the trailing shape of each role's values: one value per point
SHAPES = {"vector": (2,), "tensor": (3,), "scalar": ()}


def _value(role: str, params: Fields, key: str):
    """The value ``key`` of one point.  Left out, it is zero, except a scalar
    ``value`` or ``base``, which is 1."""
    if role == "scalar":
        return _scalar_value(params, key, 0.0 if key == "slope" else 1.0)
    if role == "vector":
        return params.array(key, [0.0, 0.0], "2 finite entries", (2,))
    v = params.array(key, [0.0, 0.0, 0.0],
                     "3 finite packed entries or a finite 2x2 matrix", (3,), (2, 2))
    if v.shape == (3,):
        return v
    if v[0, 1] != v[1, 0]:
        raise params.error(key, f"expected a symmetric 2x2 matrix, got {params.obj[key]!r}")
    return np.array([v[0, 0], v[0, 1], v[1, 1]])


def _bump(params: Fields):
    """The gaussian profile of ``params`` as a function of the points."""
    center = params.array("center", [0.5, 0.5], "2 finite entries", (2,))
    width = _scalar_value(params, "width", 0.2)
    # a width whose square underflows would divide 0 by 0 at the center
    if not (width > 0.0 and 2.0 * width**2 > 0.0):
        raise params.error("width", f"must be > 0, got {width!r}")
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


def _linear(t, k, base, slope):
    """base + t * slope at each time, repeated over k points: (k, *tail) or
    (m, k, *tail).  ``np.multiply.outer`` makes the same products as the
    scalar ``t * slope``, so each row matches the scalar call bit for bit."""
    val = base + np.multiply.outer(t, slope)
    lead = np.ndim(t)
    return _fill(val.shape[:lead] + (k,) + val.shape[lead:], np.expand_dims(val, lead))


def data_fn(role: str, name: str, params: Fields):
    """The catalog function ``name`` of ``role``: "vector", "tensor" or "scalar"."""
    tail = SHAPES[role]
    if name == "constant":
        val = _value(role, params, "value")
        fn = lambda t, pts: _fill(np.shape(t) + (len(pts), *tail), val)
    elif name == "linear_in_t":
        base, slope = _value(role, params, "base"), _value(role, params, "slope")
        fn = lambda t, pts: _linear(t, len(pts), base, slope)
    elif name == "radial_deviatoric" and role == "tensor":
        # amp * diag(1, -1): a pure deviator driving radial loading
        val = _scalar_value(params, "amplitude", 1.0) * np.array([1.0, 0.0, -1.0])
        fn = lambda t, pts: _fill(np.shape(t) + (len(pts), 3), val)
    elif name == "gaussian_bump_in_x" and role == "scalar":
        amp = _scalar_value(params, "amplitude", 1.0)
        offset = _scalar_value(params, "offset", 0.0)
        bump = _bump(params)
        # np.full, not _fill: a per-point value would be copied one point at a time
        fn = lambda t, pts: np.full(np.shape(t) + (len(pts),), offset + amp * bump(pts))
    elif name == "gaussian_bump_in_x":
        val = _value(role, params, "value")
        bump = _bump(params)
        fn = lambda t, pts: _fill(np.shape(t) + (len(pts), *tail), bump(pts)[:, None] * val)
    else:
        raise UnknownFunction(f"unknown {role} function {name!r}")
    params.close()
    fn.steady = name != "linear_in_t"
    return fn


def is_steady(fn) -> bool:
    """Whether ``fn``, or the function that it forwards to through
    ``__wrapped__``, is a catalog function that does not depend on t."""
    # the lookup first: unwrap takes 5x as long, on every set-up
    return getattr(fn, "steady", None) or getattr(inspect.unwrap(fn), "steady", False)
