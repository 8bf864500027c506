import numpy as np
import pytest

from plastiproj.catalog import ConfigError, Fields, scalar_fn, tensor_fn, vector_fn

BUILDERS = [
    (vector_fn, "constant", {"value": [1.0, -2.0]}, (2,)),
    (vector_fn, "linear_in_t", {"base": [1.0, 0.0], "slope": [0.5, 2.0]}, (2,)),
    (vector_fn, "gaussian_bump_in_x", {"value": [0.0, 3.0]}, (2,)),
    (tensor_fn, "constant", {"value": [1.0, 0.5, -1.0]}, (3,)),
    (tensor_fn, "linear_in_t", {"base": [1.0, 0.0, 0.0], "slope": [0.0, 1.0, 2.0]}, (3,)),
    (tensor_fn, "radial_deviatoric", {"amplitude": 2.0}, (3,)),
    (tensor_fn, "gaussian_bump_in_x", {"value": [1.0, 0.0, -1.0]}, (3,)),
    (scalar_fn, "constant", {"value": 2.0}, ()),
    (scalar_fn, "linear_in_t", {"base": 1.0, "slope": 0.5}, ()),
    (scalar_fn, "gaussian_bump_in_x", {"amplitude": 1.0, "offset": 0.5}, ()),
]


@pytest.mark.parametrize("builder, name, params, tail", BUILDERS,
                         ids=[f"{b.__name__}-{n}" for b, n, _, _ in BUILDERS])
@pytest.mark.parametrize("k", [1, 5])
def test_builder_returns_fresh_writable_array(builder, name, params, tail, k):
    fn = builder(name, Fields(params, "params"))
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


# the builders whose value is the same at every point, as a function of t
VALUES = [
    (vector_fn, "constant", {"value": [1.0, -2.0]}, lambda t: [1.0, -2.0]),
    (vector_fn, "linear_in_t", {"base": [1.0, 0.0], "slope": [0.5, 2.0]},
     lambda t: [1.0 + 0.5 * t, 2.0 * t]),
    (tensor_fn, "constant", {"value": [1.0, 0.5, -1.0]}, lambda t: [1.0, 0.5, -1.0]),
    (tensor_fn, "linear_in_t", {"base": [1.0, 0.0, 0.0], "slope": [0.0, 1.0, 2.0]},
     lambda t: [1.0, t, 2.0 * t]),
    (tensor_fn, "radial_deviatoric", {"amplitude": 2.0}, lambda t: [2.0, 0.0, -2.0]),
    (scalar_fn, "constant", {"value": 2.0}, lambda t: 2.0),
    (scalar_fn, "linear_in_t", {"base": 1.0, "slope": 0.5}, lambda t: 1.0 + 0.5 * t),
]


@pytest.mark.parametrize("builder, name, params, want", VALUES,
                         ids=[f"{b.__name__}-{n}" for b, n, _, _ in VALUES])
def test_point_independent_builder_values(builder, name, params, want):
    fn = builder(name, Fields(params, "params"))
    pts = np.linspace(0.0, 1.0, 8).reshape(4, 2)
    times = np.array([0.0, 0.3, 1.7])
    for t, row in zip(times, fn(times, pts)):
        np.testing.assert_allclose(row, np.broadcast_to(want(t), row.shape), rtol=1e-15)
        np.testing.assert_allclose(fn(float(t), pts), row, rtol=0.0)


@pytest.mark.parametrize("builder, name", [
    (vector_fn, "constant"), (tensor_fn, "radial_deviatoric"), (scalar_fn, "gaussian_bump_in_x"),
], ids=["vector_fn", "tensor_fn", "scalar_fn"])
def test_builder_rejects_an_unknown_parameter(builder, name):
    # a misspelled key would otherwise leave its parameter at the default
    with pytest.raises(ConfigError, match=r"^field 'params\.valu': unknown key$"):
        builder(name, Fields({"valu": 0.5}, "params"))


def test_tensor_matrix_value_must_be_symmetric():
    # the lower entry 3 would otherwise be dropped without a word
    with pytest.raises(ConfigError, match=r"^field 'params\.value': expected a symmetric "
                                          r"2x2 matrix, got \[\[1, 2\], \[3, 4\]\]$"):
        tensor_fn("constant", Fields({"value": [[1, 2], [3, 4]]}, "params"))
    fn = tensor_fn("constant", Fields({"value": [[1, 2], [2, 4]]}, "params"))
    np.testing.assert_array_equal(fn(0.0, np.zeros((1, 2))), [[1.0, 2.0, 4.0]])
