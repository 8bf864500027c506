"""Built-in scenarios used by the verification harness and the test suite."""

from __future__ import annotations

from .catalog import Fields, data_fn
from .fem2d import FemSpace, build_rect_mesh
from .stepper import ProblemSpec


def _radial_0d(n_steps: int, total_time: float, g) -> ProblemSpec:
    """Single-point sweeping process under the constant deviatoric drive
    h = diag(1, -1), with p = 0 and the yield radius g."""
    return ProblemSpec(
        nu=1.0, T=total_time, N=n_steps, space=None,
        f=data_fn("vector", "constant", Fields({"value": [0, 0]}, "params")),
        h=data_fn("tensor", "radial_deviatoric", Fields({"amplitude": 1.0}, "params")),
        p=data_fn("tensor", "constant", Fields({}, "params")),
        g=g,
    )


def radial_0d_spec(n_steps: int = 2000, total_time: float = 2.0) -> ProblemSpec:
    """The radial drive with g = 1.

    Closed form: sigma(t) = min(t, 1/sqrt(2)) * diag(1, -1); the deviator
    grows linearly until its norm reaches the yield radius and then sticks.
    """
    return _radial_0d(n_steps, total_time,
                      data_fn("scalar", "constant", Fields({"value": 1.0}, "params")))


def growing_yield_0d_spec(n_steps: int = 2000, total_time: float = 4.0) -> ProblemSpec:
    """The radial drive with expanding yield radius g(t) = 1 + t.

    Contact happens at t* = 1/(sqrt(2)-1); afterwards the stress rides the
    boundary: sigma(t) = (1+t) diag(1,-1)/sqrt(2).
    """
    return _radial_0d(n_steps, total_time, data_fn(
        "scalar", "linear_in_t", Fields({"base": 1.0, "slope": 1.0}, "params")))


def unit_square_spec(n_steps: int = 200, mesh_n: int = 16) -> ProblemSpec:
    """Unit square clamped on the left, constant downward body force.

    nu = 1, g = 1, p = 0, T = 1.  The force is strong enough that the yield
    constraint activates near the clamped edge well before the final time.
    """
    return ProblemSpec(
        nu=1.0, T=1.0, N=n_steps,
        space=FemSpace(build_rect_mesh(mesh_n, mesh_n, 1.0, 1.0, ("left",))),
        f=data_fn("vector", "constant", Fields({"value": [0.0, -8.0]}, "params")),
        h=data_fn("tensor", "constant", Fields({}, "params")),
        p=data_fn("tensor", "constant", Fields({}, "params")),
        g=data_fn("scalar", "constant", Fields({"value": 1.0}, "params")),
    )


def explicit_blowup_spec() -> ProblemSpec:
    """Stiff demonstration case where the explicit stress treatment diverges.

    Tiny viscosity, coarse time step, huge yield radius so the projection
    never caps the runaway stress.  Non-gating: used only to illustrate the
    conditional stability of the explicit variant.
    """
    bump = data_fn("vector", "gaussian_bump_in_x", Fields(
        {"value": [1.0, 0.0], "center": [0.5, 0.5], "width": 0.15}, "params"))
    return ProblemSpec(
        nu=1e-4, T=1.0, N=10,
        space=FemSpace(build_rect_mesh(16, 16, 1.0, 1.0, ("left", "right", "top", "bottom"))),
        f=data_fn("vector", "constant", Fields({"value": [0.0, 0.0]}, "params")),
        h=data_fn("tensor", "constant", Fields({}, "params")),
        p=data_fn("tensor", "constant", Fields({}, "params")),
        g=data_fn("scalar", "constant", Fields({"value": 1e9}, "params")),
        v0=bump,
    )
