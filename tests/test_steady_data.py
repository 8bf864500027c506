"""An engine samples each steady datum once, and that changes no output.

``catalog.data_fn`` marks every entry but ``linear_in_t`` as steady, and
``_Engine`` then samples such a datum once and returns that one read-only
array at every step.  A bare ``(t, pts)`` closure carries no mark, so the
same data given as closures are sampled at every step: the outputs of the
two paths must match byte for byte.
"""

import json
import os
from dataclasses import replace

import numpy as np
import pytest

from plastiproj import catalog, stepper
from plastiproj import harness_cli as cli
from plastiproj.catalog import Fields, data_fn
from plastiproj.scenarios import radial_0d_spec, unit_square_spec
from plastiproj.stepper import energy_report, run


def _fn(role, name, **params):
    return data_fn(role, name, Fields(params, "params"))


# every datum a steady catalog entry that calls catalog._fill once per call
STEADY = dict(f=_fn("vector", "constant", value=[0.5, -8.0]),
              h=_fn("tensor", "radial_deviatoric", amplitude=0.3),
              p=_fn("tensor", "gaussian_bump_in_x", value=[0.1, 0.0, -0.1]),
              g=_fn("scalar", "constant", value=0.8))
LINEAR_G = _fn("scalar", "linear_in_t", base=0.8, slope=0.5)


def _forwarding(fn):
    """A closure that only forwards calls, as ``perfbench/spans.wrap_data`` makes."""
    def traced(t, pts):
        return fn(t, pts)
    traced.__wrapped__ = fn
    return traced


def _counting_catalog(monkeypatch):
    """A list that grows by one at every call of a catalog function in STEADY or LINEAR_G."""
    calls, fill = [], catalog._fill
    monkeypatch.setattr(catalog, "_fill", lambda shape, val: calls.append(shape) or fill(shape, val))
    return calls


def _with(spec, wrapped, **data):
    data = {role: getattr(spec, role) for role in "fhpg"} | data
    return replace(spec, **{role: _forwarding(fn) if wrapped else fn for role, fn in data.items()})


@pytest.mark.parametrize("wrapped", [False, True], ids=["plain", "forwarded"])
def test_steady_data_are_sampled_once_per_engine(monkeypatch, wrapped):
    calls = _counting_catalog(monkeypatch)
    spec = _with(unit_square_spec(n_steps=9, mesh_n=4), wrapped, **STEADY)
    eng = stepper._Engine(spec)
    first = eng.data(1)
    for n in range(2, spec.N + 1):
        for got, want in zip(eng.data(n), first):
            assert got is want
    assert len(calls) == 4  # h, p, g and f, once each
    calls.clear()
    traj = run(spec)
    # the run's engine samples each datum once; initial_state's own, p and g at t = 0
    assert len(calls) == 4 + 2
    calls.clear()
    energy_report(traj)
    assert len(calls) == 4
    calls.clear()
    # a 0d run over three blocks of steps: h, p and g once, f never
    run(_with(radial_0d_spec(n_steps=2 * stepper.BLOCK_0D + 5), wrapped, **STEADY))
    assert len(calls) == 3 + 2


@pytest.mark.parametrize("wrapped", [False, True], ids=["plain", "forwarded"])
def test_a_linear_in_t_datum_is_sampled_at_every_step(monkeypatch, wrapped):
    calls = _counting_catalog(monkeypatch)
    spec = _with(unit_square_spec(n_steps=9, mesh_n=4), wrapped, **STEADY | {"g": LINEAR_G})
    eng = stepper._Engine(spec)
    gs = [eng.data(n)[2] for n in range(1, spec.N + 1)]
    # the scalar g samples (k,): one per step, and h, p and f once
    assert sum(shape == (len(eng.pts),) for shape in calls) == spec.N
    assert len(calls) == spec.N + 3
    for n, g in enumerate(gs, 1):
        np.testing.assert_array_equal(g, LINEAR_G(n * spec.dt, eng.pts))


def test_a_cached_sample_is_read_only():
    eng = stepper._Engine(unit_square_spec(n_steps=9, mesh_n=4))
    h, p, g, load = eng.data(1)
    times = np.array([0.0, 0.25, 0.5])
    p_rows, g_rows = eng.p_at(times), eng.g_at(times)
    assert p_rows.shape == (3,) + p.shape and g_rows.shape == (3,) + g.shape
    for rows, one in ((p_rows, p), (g_rows, g)):
        for row in rows:
            assert row.tobytes() == one.tobytes()
    for sample in (h, p, g, load, p_rows, g_rows):
        with pytest.raises(ValueError, match="read-only"):
            sample[...] = 0.0
    # the same array at every later step and scalar time
    assert eng.data(7)[2] is g and eng.p_at(0.3) is p


def _bare(cfg, calls):
    """``cfg`` with f, h, p and g as bare closures, which carry no steady mark,
    counting their calls in ``calls``."""
    def bare(role, fn):
        def sample(t, pts):
            calls[role] = calls.get(role, 0) + 1
            return fn(t, pts)
        return sample
    spec = cfg.spec
    return replace(cfg, spec=replace(spec, **{role: bare(role, getattr(spec, role))
                                               for role in "fhpg"}))


def _outputs(root):
    out = {}
    for top, _, names in os.walk(root):
        for name in names:
            with open(os.path.join(top, name), "rb") as fh:
                out[os.path.relpath(os.path.join(top, name), root)] = fh.read()
    return out


FEM = {"mode": "fem", "nu": 0.7, "T": 1.0, "N": 10,
       "mesh": {"nx": 5, "ny": 4, "gamma1": ["left", "bottom"]},
       "f": {"name": "gaussian_bump_in_x", "params": {"value": [0.3, -6.0], "width": 0.3}},
       "h": {"name": "constant", "params": {"value": [0.1, 0.2, -0.1]}},
       "p": {"name": "gaussian_bump_in_x", "params": {"value": [0.1, 0.0, -0.1]}},
       "g": {"name": "gaussian_bump_in_x", "params": {"amplitude": 0.3, "offset": 0.4}},
       "study": {"dt_list": [0.5, 0.25, 0.1]}, "output": {"vtk_stride": 5}}
CONFIGS = {
    "fem_steady": FEM,
    # steady f and p, a moving yield radius
    "fem_mixed": FEM | {"g": {"name": "linear_in_t", "params": {"base": 0.4, "slope": 0.5}}},
    # three blocks of 0d steps
    "0d_steady": {"mode": "0d", "nu": 1.0, "T": 2.0, "N": 2 * stepper.BLOCK_0D + 5,
                  "h": {"name": "radial_deviatoric", "params": {"amplitude": 1.0}},
                  "p": {"name": "constant", "params": {"value": [0.1, 0.0, 0.1]}},
                  "g": {"name": "constant", "params": {"value": 1.0}}},
}
COMMANDS = [(name, scheme, "run") for name in CONFIGS for scheme in stepper.SCHEMES]
COMMANDS += [(name, "projection", "stability") for name in CONFIGS if name.startswith("fem")]


@pytest.mark.parametrize("name, scheme, command", COMMANDS,
                         ids=[f"{n}-{s}-{c}" for n, s, c in COMMANDS])
def test_steady_data_give_the_outputs_of_per_step_sampling(tmp_path, name, scheme, command):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(CONFIGS[name] | {"scheme": scheme}))
    cfg = cli.parse_config(path)
    calls = {}
    getattr(cli, "cmd_" + command)(cfg, tmp_path / "steady")
    getattr(cli, "cmd_" + command)(_bare(cfg, calls), tmp_path / "bare")
    want, got = _outputs(tmp_path / "bare"), _outputs(tmp_path / "steady")
    assert sorted(got) == sorted(want) and len(want) >= 1
    assert [key for key in want if got[key] != want[key]] == []
    # the bare closures took the per-step path: h at every step, or every block in 0d
    spec = cfg.spec
    if command == "stability":
        steps = sum(round(spec.T / dt) for dt in cfg.dt_list)
    else:
        steps = spec.N if spec.space is not None else -(-spec.N // stepper.BLOCK_0D)
    assert calls["h"] >= steps


def _energy_rhs_per_step(traj):
    """The right-hand side of ``energy_report``, summed from every step's own samples."""
    spec, space = traj.spec, traj.space
    eng = stepper._Engine(replace(spec, **{role: (lambda fn: lambda t, pts: fn(t, pts))(
        getattr(spec, role)) for role in "fhpg"}))
    inner, dt = space.stress_inner, spec.dt
    p0 = p_prev = eng.p_at(0.0)
    total = 0.0
    for n in range(1, spec.N + 1):
        h, p, _, f = eng.data(n)
        dp = (p - p_prev) / dt
        total += space.dual_norm(f) ** 2 + inner(p, p) + inner(dp, dp) + inner(h, h)
        p_prev = p
    c2 = energy_report(traj).c2
    return c2 * (space.l2_norm(traj.v[0]) ** 2 + inner(traj.sigma[0], traj.sigma[0])
                 + inner(p0, p0) + dt * total)


MOVING_P = _fn("tensor", "linear_in_t", base=[0.1, 0.0, -0.1], slope=[0.2, 0.1, 0.0])


@pytest.mark.parametrize("data", [STEADY, STEADY | {"p": MOVING_P},
                                  STEADY | {"g": LINEAR_G, "h": MOVING_P}],
                         ids=["steady", "moving_p", "moving_h_and_g"])
def test_energy_rhs_matches_the_per_step_sum(data):
    traj = run(replace(unit_square_spec(n_steps=12, mesh_n=4), **data))
    assert energy_report(traj).rhs == _energy_rhs_per_step(traj)
