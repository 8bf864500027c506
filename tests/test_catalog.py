import numpy as np
import pytest

from plastiproj.catalog import scalar_fn, tensor_fn, vector_fn

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
    fn = builder(name, params)
    pts = np.linspace(0.0, 1.0, 2 * k).reshape(k, 2)
    first = fn(0.3, pts)
    assert first.shape == (k, *tail)
    assert first.dtype == np.float64
    assert first.flags.writeable and first.flags.owndata
    want = first.copy()
    first[...] = -7.0
    np.testing.assert_array_equal(fn(0.3, pts), want)
