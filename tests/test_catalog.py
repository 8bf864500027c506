import numpy as np
import pytest

from plastiproj.catalog import ConfigError, Fields, data_fn, is_steady

BUILDERS = [
    ("vector", "constant", {"value": [1.0, -2.0]}, (2,)),
    ("vector", "linear_in_t", {"base": [1.0, 0.0], "slope": [0.5, 2.0]}, (2,)),
    ("vector", "gaussian_bump_in_x", {"value": [0.0, 3.0]}, (2,)),
    ("tensor", "constant", {"value": [1.0, 0.5, -1.0]}, (3,)),
    ("tensor", "linear_in_t", {"base": [1.0, 0.0, 0.0], "slope": [0.0, 1.0, 2.0]}, (3,)),
    ("tensor", "radial_deviatoric", {"amplitude": 2.0}, (3,)),
    ("tensor", "gaussian_bump_in_x", {"value": [1.0, 0.0, -1.0]}, (3,)),
    ("scalar", "constant", {"value": 2.0}, ()),
    ("scalar", "linear_in_t", {"base": 1.0, "slope": 0.5}, ()),
    ("scalar", "gaussian_bump_in_x", {"amplitude": 1.0, "offset": 0.5}, ()),
]


@pytest.mark.parametrize("role, name, params, tail", BUILDERS,
                         ids=[f"{role}_fn-{n}" for role, n, _, _ in BUILDERS])
@pytest.mark.parametrize("k", [1, 5])
def test_builder_returns_fresh_writable_array(role, name, params, tail, k):
    fn = data_fn(role, name, Fields(params, "params"))
    pts = np.linspace(0.0, 1.0, 2 * k).reshape(k, 2)
    first = fn(0.3, pts)
    assert first.shape == (k, *tail)
    assert first.dtype == np.float64
    assert first.flags.writeable and first.flags.owndata
    want = first.copy()
    first[...] = -7.0
    np.testing.assert_array_equal(fn(0.3, pts), want)
    # an array of m times gives one row per time, each the scalar call's value
    for m in (1, 3):
        times = np.linspace(0.1, 0.9, m) if m > 1 else np.array([0.3])
        rows = fn(times, pts)
        assert rows.shape == (m, k, *tail)
        assert rows.dtype == np.float64
        assert rows.flags.writeable and rows.flags.owndata
        for t, row in zip(times, rows):
            np.testing.assert_array_equal(row, fn(float(t), pts))


@pytest.mark.parametrize("role, name, params, tail", BUILDERS,
                         ids=[f"{role}_fn-{n}" for role, n, _, _ in BUILDERS])
def test_every_entry_but_linear_in_t_is_marked_steady(role, name, params, tail):
    fn = data_fn(role, name, Fields(params, "params"))

    def forward(t, pts):
        return fn(t, pts)
    forward.__wrapped__ = fn
    assert is_steady(fn) is is_steady(forward) is (name != "linear_in_t")
    assert not is_steady(lambda t, pts: fn(t, pts))
    # what the mark promises: the same bits at every time, and every row of an array call
    pts = np.linspace(0.0, 1.0, 10).reshape(5, 2)
    first = fn(0.0, pts)
    rows = fn(np.array([0.0, 0.3, 1e9]), pts)
    same = [first.tobytes() == fn(t, pts).tobytes() for t in (0.3, 2.0, -1.5)]
    same += [first.tobytes() == row.tobytes() for row in rows]
    assert all(same) is is_steady(fn)


# the builders whose value is the same at every point, as a function of t
VALUES = [
    ("vector", "constant", {"value": [1.0, -2.0]}, lambda t: [1.0, -2.0]),
    ("vector", "linear_in_t", {"base": [1.0, 0.0], "slope": [0.5, 2.0]},
     lambda t: [1.0 + 0.5 * t, 2.0 * t]),
    ("tensor", "constant", {"value": [1.0, 0.5, -1.0]}, lambda t: [1.0, 0.5, -1.0]),
    ("tensor", "linear_in_t", {"base": [1.0, 0.0, 0.0], "slope": [0.0, 1.0, 2.0]},
     lambda t: [1.0, t, 2.0 * t]),
    ("tensor", "radial_deviatoric", {"amplitude": 2.0}, lambda t: [2.0, 0.0, -2.0]),
    ("scalar", "constant", {"value": 2.0}, lambda t: 2.0),
    ("scalar", "linear_in_t", {"base": 1.0, "slope": 0.5}, lambda t: 1.0 + 0.5 * t),
]


@pytest.mark.parametrize("role, name, params, want", VALUES,
                         ids=[f"{role}_fn-{n}" for role, n, _, _ in VALUES])
def test_point_independent_builder_values(role, name, params, want):
    fn = data_fn(role, name, Fields(params, "params"))
    pts = np.linspace(0.0, 1.0, 8).reshape(4, 2)
    times = np.array([0.0, 0.3, 1.7])
    for t, row in zip(times, fn(times, pts)):
        np.testing.assert_allclose(row, np.broadcast_to(want(t), row.shape), rtol=1e-15)
        np.testing.assert_allclose(fn(float(t), pts), row, rtol=0.0)


@pytest.mark.parametrize("role, name", [
    ("vector", "constant"), ("tensor", "radial_deviatoric"), ("scalar", "gaussian_bump_in_x"),
], ids=["vector_fn", "tensor_fn", "scalar_fn"])
def test_builder_rejects_an_unknown_parameter(role, name):
    # a misspelled key would otherwise leave its parameter at the default
    with pytest.raises(ConfigError, match=r"^field 'params\.valu': unknown key$"):
        data_fn(role, name, Fields({"valu": 0.5}, "params"))


def test_tensor_matrix_value_must_be_symmetric():
    # the lower entry 3 would otherwise be dropped without a word
    with pytest.raises(ConfigError, match=r"^field 'params\.value': expected a symmetric "
                                          r"2x2 matrix, got \[\[1, 2\], \[3, 4\]\]$"):
        data_fn("tensor", "constant", Fields({"value": [[1, 2], [3, 4]]}, "params"))
    fn = data_fn("tensor", "constant", Fields({"value": [[1, 2], [2, 4]]}, "params"))
    np.testing.assert_array_equal(fn(0.0, np.zeros((1, 2))), [[1.0, 2.0, 4.0]])


@pytest.mark.parametrize("role, name", [
    ("vector", "radial_deviatoric"), ("tensor", "sine"), ("scalar", "radial_deviatoric"),
])
def test_unknown_function_names_its_role(role, name):
    with pytest.raises(ConfigError, match=rf"^unknown {role} function '{name}'$"):
        data_fn(role, name, Fields({}, "params"))


@pytest.mark.parametrize("role, want", [("vector", [0.0, 0.0]), ("tensor", [0.0, 0.0, 0.0]),
                                        ("scalar", 1.0)])
def test_defaults_of_each_role(role, want):
    # a left-out value or base is 1 for a scalar, zero otherwise; a slope is zero
    pts = np.zeros((2, 2))
    for name in ("constant", "linear_in_t"):
        fn = data_fn(role, name, Fields({}, "params"))
        np.testing.assert_array_equal(fn(np.array([0.0, 2.0]), pts),
                                      np.broadcast_to(want, (2, 2, *np.shape(want))))
