import json
import math
import os
import re
import subprocess
import sys
import tempfile

import numpy as np
import pytest
import scipy.sparse as sp
from conftest import stack_states
from hypothesis import example, given, settings, strategies as st

from plastiproj import fem2d, linalg, stepper
from plastiproj import harness_cli as cli
from plastiproj import tensor_core as tc
from plastiproj.catalog import ConfigError
from plastiproj.stepper import SCHEMES, SchemeState, Trajectory, run
from plastiproj.verify import SuiteResult

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
# byte-exact outputs of configs/radial_0d.json and rich_fem.json, which the 0d and fem
# paths must keep.  The fem goldens come in two sets, one per solver path of
# linalg.factorized_solve: rich_fem_* from the banded Cholesky that its small mesh
# selects, rich_fem_*_superlu.* from SuperLU with the band budget forced to 0.
# The fem bits also pin the OpenBLAS kernel of the host that wrote them (SkylakeX, an
# AVX-512 host): the bits of runs on 5x5 to 64x64 meshes differ between
# OPENBLAS_CORETYPE=Haswell and SkylakeX
GOLDEN = os.path.join(ROOT, "tests", "data")
RADIAL_0D = os.path.join(ROOT, "configs", "radial_0d.json")
# a fem config that uses every catalog function; its constraint is active from step 5
RICH_FEM = os.path.join(GOLDEN, "rich_fem.json")


def write_config(tmp_path, name, **overrides):
    cfg = {
        "mode": "0d",
        "nu": 1.0,
        "T": 1.0,
        "N": 10,
        "scheme": "projection",
        "h": {"name": "radial_deviatoric", "params": {"amplitude": 1.0}},
        "g": {"name": "constant", "params": {"value": 1.0}},
    }
    cfg.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


def read_csv(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


# -- parse_config -----------------------------------------------------------------


def test_parse_minimal_radial_config(tmp_path):
    cfg = cli.parse_config(write_config(tmp_path, "a.json"))
    assert cfg.spec.space is None
    assert cfg.spec.N == 10
    assert cfg.scheme == "projection"
    pts = np.zeros((1, 2))
    np.testing.assert_allclose(cfg.spec.h(0.3, pts), [[1.0, 0.0, -1.0]])
    np.testing.assert_allclose(cfg.spec.g(0.3, pts), [1.0])


def test_missing_nu_names_the_field(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"mode": "0d", "T": 1.0, "N": 5}))
    with pytest.raises(ConfigError, match="nu"):
        cli.parse_config(path)


@pytest.mark.parametrize("field, overrides", [
    ("nu", {"nu": float("nan")}),
    ("nu", {"nu": -1.0}),
    ("T", {"T": float("inf")}),
    ("T", {"T": 0.0}),
    ("N", {"N": 0}),
    ("N", {"N": "many"}),
    ("mesh.nx", {"mesh": {"nx": 0}}),
    ("mesh.ny", {"mesh": {"ny": -2}}),
    ("mesh.lx", {"mesh": {"lx": float("nan")}}),
    ("mesh.ly", {"mesh": {"ly": 0.0}}),
    ("mesh.gamma1", {"mesh": {"gamma1": ["up"]}}),
    ("mesh.gamma1", {"mesh": {"gamma1": "left"}}),
    ("mesh.nx", {"mode": "0d", "mesh": {"nx": 0}}),
    # element areas underflow to 0
    ("mesh", {"mesh": {"nx": 2, "ny": 2, "lx": 1e-200, "ly": 1e-200}}),
    # round(T / dt) would silently run dt = 1/3 and 1/7
    ("study.dt_list", {"study": {"dt_list": [0.3, 0.15]}}),
    ("study.dt_list", {"study": {"dt_list": [0.5, 0.0]}}),
    ("output.vtk_stride", {"output": {"vtk_stride": "x"}}),
    ("output.vtk_stride", {"output": {"vtk_stride": -3}}),
    ("study.ref_N", {"study": {"ref_N": "x"}}),
    ("study.ref_N", {"study": {"ref_N": -1}}),
    ("seed", {"seed": "x"}),
    ("seed", {"seed": -1}),
    ("verify.n_samples", {"verify": {"n_samples": "many"}}),
    ("verify.n_samples", {"verify": {"n_samples": 0}}),
    ("verify.n_oracle_cases", {"verify": {"n_oracle_cases": 0}}),
    ("verify.oracle_samples", {"verify": {"oracle_samples": -5}}),
    ("verify.n_vi_setups", {"verify": {"n_vi_setups": 0}}),
    # would write a -inf cell for stress_update_vi and exit 0
    ("verify.n_vi_witnesses", {"verify": {"n_vi_witnesses": 0}}),
    ("mesh", {"mesh": 5}),
    ("study", {"study": [1.0]}),
    ("output", {"output": 5}),
    ("verify", {"verify": "x"}),
    ("N", {"N": 2.7}),
    ("mesh.nx", {"mesh": {"nx": 3.5}}),
    # catalog parameters: an object of finite numbers, each of its shape
    ("f.params", {"f": {"name": "constant", "params": 3}}),
    ("f.params.value", {"f": {"name": "constant", "params": {"value": "x"}}}),
    ("f.params.value", {"f": {"name": "constant", "params": {"value": None}}}),
    ("f.params.value", {"f": {"name": "constant", "params": {"value": [0.0, math.inf]}}}),
    ("h.params.value", {"h": {"name": "constant", "params": {"value": [1.0, "x", 0.0]}}}),
    ("h.params.width", {"h": {"name": "gaussian_bump_in_x", "params": {"width": "a"}}}),
    ("h.params.width", {"h": {"name": "gaussian_bump_in_x", "params": {"width": 1e-200}}}),
    ("p.params.slope", {"p": {"name": "linear_in_t", "params": {"slope": [1.0, 2.0]}}}),
    ("g.params.value", {"g": {"name": "constant", "params": {"value": math.nan}}}),
    ("g.params.value", {"g": {"name": "constant", "params": {"value": None}}}),
    ("g.params.center", {"g": {"name": "gaussian_bump_in_x", "params": {"center": [0.5]}}}),
    ("sigma0.params.amplitude",
     {"sigma0": {"name": "radial_deviatoric", "params": {"amplitude": -math.inf}}}),
    # a number is a JSON number: never a bool or a numeric string
    ("N", {"N": True}),
    ("nu", {"nu": "1.5"}),
    ("g.params.value", {"g": {"name": "constant", "params": {"value": True}}}),
    ("f.params.value", {"f": {"name": "constant", "params": {"value": [0, True]}}}),
    ("study.dt_list", {"study": {"dt_list": "1"}}),
    ("study.dt_list", {"study": {"dt_list": [True]}}),
    # an unknown key at each level, which would otherwise be ignored
    ("sheme", {"sheme": "implicit"}),
    ("mesh.n", {"mesh": {"n": 4}}),
    ("study.ref_n", {"study": {"ref_n": 100}}),
    ("output.vtk", {"output": {"vtk": 5}}),
    ("verify.n_sample", {"verify": {"n_sample": 10}}),
    ("g.parms", {"g": {"name": "constant", "parms": {"value": 0.5}}}),
    ("g.params.valu", {"g": {"name": "constant", "params": {"valu": 0.5}}}),
    # null is not a data function, and not the default one either
    ("f", {"f": None}),
    # counts past 2**53, rejected before any array is allocated
    ("N", {"N": 10**30}),
    ("N", {"N": 2**62}),
    ("N", {"N": 2**53 + 1}),
    ("mesh.nx", {"mesh": {"nx": 1e30}}),
    ("verify.n_samples", {"verify": {"n_samples": 10**30}}),
    ("study.dt_list", {"study": {"dt_list": [1e-300]}}),
    # dt = T / N would be 0
    ("N", {"T": 5e-324, "N": 2}),
    ("study.ref_N", {"T": 5e-324, "N": 1, "study": {"ref_N": 2}}),
    # a 2x2 matrix must be symmetric: its lower entry would be dropped
    ("h.params.value", {"h": {"name": "constant", "params": {"value": [[1, 2], [3, 4]]}}}),
    ("p.params.slope", {"p": {"name": "linear_in_t", "params": {"slope": [[0, 1], [0, 0]]}}}),
    # element areas overflow to inf, which would leave the step matrix singular
    ("mesh", {"mesh": {"nx": 2, "ny": 2, "lx": 1e200, "ly": 1e200},
              "f": {"name": "constant", "params": {"value": [0, -1]}}}),
    # a list is no side, and is unhashable
    ("mesh.gamma1", {"mesh": {"gamma1": [["left"]]}}),
    ("mode", {"mode": "2d"}),
    ("scheme", {"scheme": "crank"}),
    # h, p and sigma0 are all tensor data: the message names which one
    ("p.name", {"p": {"name": "radial_deviatoric_x"}}),
])
def test_bad_number_exits_two_naming_the_field(tmp_path, capsys, field, overrides):
    path = write_config(tmp_path, "bad.json", **{"mode": "fem", **overrides})
    with pytest.raises(ConfigError, match=f"field '{field}'"):
        cli.parse_config(path)
    assert cli.main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and f"field '{field}'" in err[0]


@pytest.mark.parametrize("field, text", [
    ("N", '{"mode": "0d", "nu": 1.0, "T": 2.0, "N": 20, "N": 40}'),
    ("h.params.amplitude",
     '{"mode": "0d", "nu": 1.0, "T": 2.0, "N": 20, "h": {"name": "radial_deviatoric", '
     '"params": {"amplitude": 1.0, "amplitude": -5.0}}}'),
], ids=["top_level", "nested"])
def test_duplicate_key_exits_two_naming_the_field(tmp_path, capsys, field, text):
    # json.load alone would keep the last value; json.dumps cannot write a repeated key
    path = tmp_path / "dup.json"
    path.write_text(text)
    assert cli.main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"configuration error: field '{field}': duplicate key"]


def test_config_must_be_an_object(tmp_path, capsys):
    path = tmp_path / "list.json"
    path.write_text("[1, 2]")
    assert cli.main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"configuration error: {path}: expected a JSON object, got list"]


def test_dt_list_must_decrease(tmp_path):
    path = write_config(tmp_path, "bad.json", study={"dt_list": [0.1, 0.2]})
    with pytest.raises(ConfigError, match="decreasing"):
        cli.parse_config(path)


def test_unknown_function_name(tmp_path):
    path = write_config(tmp_path, "bad.json", h={"name": "sawtooth", "params": {}})
    with pytest.raises(ConfigError, match="sawtooth"):
        cli.parse_config(path)


def test_negative_yield_radius_rejected(tmp_path):
    path = write_config(
        tmp_path, "bad.json",
        g={"name": "linear_in_t", "params": {"base": 0.5, "slope": -1.0}},
    )
    with pytest.raises(ConfigError, match="'g'"):
        cli.parse_config(path)


def test_infeasible_sigma0_rejected(tmp_path):
    path = write_config(
        tmp_path, "bad.json",
        sigma0={"name": "constant", "params": {"value": [2.0, 0.0, -2.0]}},
    )
    with pytest.raises(ConfigError, match="sigma0"):
        cli.parse_config(path)


def test_infeasible_p_without_sigma0_names_p(tmp_path, capsys):
    # the zero initial stress fails only because |dev p(0)| = 2 sqrt(2) > g(0) = 1
    path = write_config(tmp_path, "p.json",
                        p={"name": "constant", "params": {"value": [2.0, 0.0, -2.0]}})
    assert cli.main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "configuration error: field 'p': zero initial stress violates the yield "
        "constraint by 1.828e+00"]


@pytest.mark.parametrize("g, a, code", [
    # on the yield surface up to rounding: within the stepper's relative tolerance
    (1e6, 1e6 / math.sqrt(2.0) * (1.0 + 2e-15), 0),
    (1.0, 2.0, 2),
], ids=["on_surface", "infeasible"])
def test_sigma0_feasibility_follows_the_stepper(tmp_path, capsys, g, a, code):
    path = write_config(
        tmp_path, "s0.json", N=2, h={"name": "constant", "params": {}},
        g={"name": "constant", "params": {"value": g}},
        sigma0={"name": "constant", "params": {"value": [a, 0.0, -a]}},
    )
    assert cli.main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == code
    err = capsys.readouterr().err
    assert ("field 'sigma0'" in err) == (code == 2)


def test_reference_must_be_finer(tmp_path):
    path = write_config(tmp_path, "bad.json", study={"dt_list": [0.1], "ref_N": 10})
    with pytest.raises(ConfigError, match="ref_N"):
        cli.parse_config(path)


def test_invalid_json_reports_line(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{\n  \"nu\": ,\n}")
    with pytest.raises(ConfigError, match=r":2:"):
        cli.parse_config(path)


@pytest.mark.parametrize("text", [
    # past Python's limit of 4300 digits for an integer string
    '{"nu": ' + "1" * 5000 + "}",
    "[" * 100_000 + "]" * 100_000,
], ids=["long_integer", "deep_nesting"])
def test_unreadable_json_exits_two_naming_the_file(tmp_path, capsys, text):
    path = tmp_path / "bad.json"
    path.write_text(text)
    assert cli.main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"configuration error: {path}: invalid JSON: ")


# -- cmd_run ------------------------------------------------------------------------


def test_run_rest_state_all_zero(tmp_path):
    path = write_config(tmp_path, "rest.json",
                        h={"name": "constant", "params": {}})
    cfg = cli.parse_config(path)
    out = tmp_path / "out"
    cli.cmd_run(cfg, out)
    header, rows = read_csv(out / "norms.csv")
    assert header == ["n", "t", "v_l2", "sigma_l2", "yield_slack_min", "cg_iters"]
    assert len(rows) == 11
    for row in rows:
        assert float(row[2]) == 0.0
        assert float(row[3]) == 0.0
        assert float(row[4]) == pytest.approx(1.0)  # slack of the rest state is g


def test_run_n1_two_rows(tmp_path):
    path = write_config(tmp_path, "one.json", N=1)
    cfg = cli.parse_config(path)
    out = tmp_path / "out"
    cli.cmd_run(cfg, out)
    _, rows = read_csv(out / "norms.csv")
    assert len(rows) == 2
    assert [r[0] for r in rows] == ["0", "1"]


def test_run_fem_slack_and_finiteness(tmp_path):
    path = write_config(
        tmp_path, "fem.json", mode="fem", N=5,
        mesh={"nx": 4, "ny": 4, "gamma1": ["left"]},
        f={"name": "constant", "params": {"value": [0.0, -8.0]}},
        h={"name": "constant", "params": {}},
        output={"vtk_stride": 5},
    )
    cfg = cli.parse_config(path)
    out = tmp_path / "out"
    cli.cmd_run(cfg, out)
    header, rows = read_csv(out / "norms.csv")
    for row in rows:
        for cell in row:
            assert math.isfinite(float(cell))
        assert float(row[4]) >= -1e-10
    assert (out / "snapshot_000000.vtk").exists()
    assert (out / "snapshot_000005.vtk").exists()


def test_run_deterministic(tmp_path):
    path = write_config(tmp_path, "det.json")
    cfg = cli.parse_config(path)
    cli.cmd_run(cfg, tmp_path / "a")
    cli.cmd_run(cli.parse_config(path), tmp_path / "b")
    assert (tmp_path / "a" / "norms.csv").read_bytes() == (tmp_path / "b" / "norms.csv").read_bytes()


# -- studies -----------------------------------------------------------------------


def test_stability_requires_fem_and_dt_list(tmp_path):
    cfg = cli.parse_config(write_config(tmp_path, "a.json"))
    with pytest.raises(ConfigError, match="fem"):
        cli.cmd_stability(cfg, tmp_path / "out")


def test_stability_on_a_0d_config_exits_two(tmp_path, capsys):
    path = write_config(tmp_path, "a.json", study={"dt_list": [0.5]})
    assert cli.main(["stability", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "configuration error: field 'mode': the stability study needs 'fem', got '0d'"]


def test_stability_rest_state_rows_zero(tmp_path):
    path = write_config(
        tmp_path, "rest.json", mode="fem", T=1.0, N=4,
        mesh={"nx": 3, "ny": 3, "gamma1": ["left"]},
        h={"name": "constant", "params": {}},
        study={"dt_list": [1.0, 0.5]},
    )
    reports = cli.cmd_stability(cli.parse_config(path), tmp_path / "out")
    header, rows = read_csv(tmp_path / "out" / "stability.csv")
    assert header[0] == "dt" and header[-1] == "energy_ok"
    assert len(rows) == 2
    for rep in reports:
        for key in ("gap_v", "gap_sigma", "linf_H_vbar", "linf_H_sigma"):
            assert rep[key] == pytest.approx(0.0, abs=1e-12)
        assert rep["energy_ok"]


def test_stability_on_a_mesh_without_free_dofs_exits_zero(tmp_path, capsys):
    # gamma1 left and right clamps all four nodes of a 1x1 mesh: over the
    # zero space the Korn constant is 0 and every norm of the run is 0
    path = write_config(
        tmp_path, "clamped.json", mode="fem",
        mesh={"nx": 1, "ny": 1, "gamma1": ["left", "right"]},
        f={"name": "constant", "params": {"value": [0.0, -1.0]}},
        h={"name": "constant", "params": {}},
        study={"dt_list": [0.5]},
    )
    assert cli.main(["stability", "--config", str(path), "--out", str(tmp_path / "o")]) == 0
    assert capsys.readouterr().err == ""
    header, rows = read_csv(tmp_path / "o" / "stability.csv")
    assert header[-1] == "energy_ok"
    assert rows == [["0.5", "2"] + ["0"] * 10 + ["1"]]


def test_stability_study_builds_one_space(tmp_path, monkeypatch):
    spaces = []
    eigensolves = []
    real_init, real_eigsh = fem2d.FemSpace.__init__, fem2d.eigsh

    def counting_init(self, mesh):
        spaces.append(self)
        real_init(self, mesh)

    def counting_eigsh(*args, **kwargs):
        eigensolves.append(1)
        return real_eigsh(*args, **kwargs)

    monkeypatch.setattr(fem2d.FemSpace, "__init__", counting_init)
    monkeypatch.setattr(fem2d, "eigsh", counting_eigsh)
    path = write_config(
        tmp_path, "two_dt.json", mode="fem", T=1.0, N=4, mesh={"nx": 3, "ny": 3},
        f={"name": "constant", "params": {"value": [0.0, -8.0]}},
        study={"dt_list": [1.0, 0.5]},
    )
    reports = cli.cmd_stability(cli.parse_config(path), tmp_path / "out")
    assert len(reports) == 2
    assert len(spaces) == 1
    assert len(eigensolves) == 1


def test_convergence_study_0d(tmp_path):
    path = write_config(
        tmp_path, "conv.json", T=2.0, N=100,
        study={"dt_list": [0.04, 0.02, 0.01], "ref_N": 2000},
    )
    results = cli.cmd_convergence(cli.parse_config(path), tmp_path / "out")
    errs = [r["err_sigma_LinfH"] for r in results]
    assert errs[0] > errs[1] > errs[2] > 0.0
    # first row carries the 0.0 sentinel, later rows real observed orders
    assert results[0]["order_sigma_LinfH"] == 0.0
    assert results[1]["order_sigma_LinfH"] > 0.5
    header, rows = read_csv(tmp_path / "out" / "convergence.csv")
    assert header[0] == "N"
    for row in rows:
        for cell in row:
            assert math.isfinite(float(cell))


def _golden(name):
    with open(os.path.join(GOLDEN, name), "rb") as fh:
        return fh.read()


@pytest.mark.parametrize("scheme", SCHEMES)
def test_radial_0d_run_matches_golden_norms(tmp_path, scheme):
    with open(RADIAL_0D) as fh:
        cfg = dict(json.load(fh), scheme=scheme)
    path = tmp_path / "radial_0d.json"
    path.write_text(json.dumps(cfg))
    assert cli.main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 0
    assert (tmp_path / "o" / "norms.csv").read_bytes() == _golden(f"radial_0d_{scheme}_norms.csv")


def test_radial_0d_convergence_matches_golden(tmp_path):
    assert cli.main(["convergence", "--config", RADIAL_0D, "--out", str(tmp_path / "o")]) == 0
    assert ((tmp_path / "o" / "convergence.csv").read_bytes()
            == _golden("radial_0d_projection_convergence.csv"))


@pytest.mark.blas_bits
@pytest.mark.parametrize("scheme", SCHEMES)
def test_rich_fem_run_matches_golden_norms(tmp_path, scheme):
    with open(RICH_FEM) as fh:
        cfg = dict(json.load(fh), scheme=scheme)
    path = tmp_path / "rich_fem.json"
    path.write_text(json.dumps(cfg))
    assert cli.main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 0
    assert (tmp_path / "o" / "norms.csv").read_bytes() == _golden(f"rich_fem_{scheme}_norms.csv")
    if scheme == "projection":
        assert ((tmp_path / "o" / "snapshot_000008.vtk").read_bytes()
                == _golden("rich_fem_projection_snapshot_000008.vtk"))


@pytest.mark.blas_bits
@pytest.mark.parametrize("command", ["stability", "convergence"])
def test_rich_fem_study_matches_golden(tmp_path, command):
    assert cli.main([command, "--config", RICH_FEM, "--out", str(tmp_path / "o")]) == 0
    assert ((tmp_path / "o" / f"{command}.csv").read_bytes()
            == _golden(f"rich_fem_projection_{command}.csv"))


RICH_FEM_GOLDENS = ["rich_fem_projection_norms.csv", "rich_fem_implicit_norms.csv",
                    "rich_fem_explicit_norms.csv", "rich_fem_projection_snapshot_000008.vtk",
                    "rich_fem_projection_stability.csv", "rich_fem_projection_convergence.csv"]


def _rich_fem_outputs(tmp_path):
    """The outputs of rich_fem.json that RICH_FEM_GOLDENS pin, by golden name."""
    with open(RICH_FEM) as fh:
        cfg = json.load(fh)
    files = {}
    for scheme in SCHEMES:
        path = tmp_path / f"{scheme}.json"
        path.write_text(json.dumps(dict(cfg, scheme=scheme)))
        assert cli.main(["run", "--config", str(path), "--out", str(tmp_path / scheme)]) == 0
        files[f"rich_fem_{scheme}_norms.csv"] = tmp_path / scheme / "norms.csv"
    files["rich_fem_projection_snapshot_000008.vtk"] = (
        tmp_path / "projection" / "snapshot_000008.vtk")
    for command in ("stability", "convergence"):
        assert cli.main([command, "--config", RICH_FEM, "--out", str(tmp_path / command)]) == 0
        files[f"rich_fem_projection_{command}.csv"] = tmp_path / command / f"{command}.csv"
    return {name: files[name].read_bytes() for name in RICH_FEM_GOLDENS}


def _superlu_name(name):
    stem, ext = os.path.splitext(name)
    return f"{stem}_superlu{ext}"


@pytest.mark.blas_bits
def test_rich_fem_superlu_path_matches_its_goldens(tmp_path, monkeypatch):
    monkeypatch.setattr(linalg, "BAND_BUDGET", 0)
    for name, data in _rich_fem_outputs(tmp_path).items():
        assert data == _golden(_superlu_name(name)), name


def _numbers(data):
    """Every number of a CSV body or a VTK file, in order, and a CSV's header."""
    text = data.decode()
    if text.startswith("# vtk"):
        return None, np.array(re.findall(r"-?\d[\d.]*(?:e[-+]\d+)?", text), dtype=float)
    lines = text.splitlines()
    return lines[0].split(","), np.array([line.split(",") for line in lines[1:]], dtype=float)


def test_rich_fem_banded_path_stays_near_the_superlu_goldens(tmp_path):
    # the two factorizations round differently; every column keeps its value to
    # 1e-13 relative, and yield_slack_min, zero where the constraint is active,
    # to 1e-15 absolute
    for name, data in _rich_fem_outputs(tmp_path).items():
        header, got = _numbers(data)
        _, want = _numbers(_golden(_superlu_name(name)))
        assert got.shape == want.shape, name
        if header is None:  # the VTK snapshot, against its largest entry
            assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max(), name
            continue
        for k, column in enumerate(header):
            err = np.abs(got[:, k] - want[:, k])
            if column == "yield_slack_min":
                assert err.max() <= 1e-15, (name, column)
            else:
                assert (err <= 1e-13 * np.abs(want[:, k])).all(), (name, column)


@pytest.mark.blas_bits
def test_mesh_above_the_band_budget_keeps_the_superlu_bits(tmp_path):
    # a 128x128 step matrix has bw 258: its band of 8.6M entries exceeds the budget,
    # so the run keeps the bits of SuperLU
    with open(os.path.join(ROOT, "configs", "unit_square.json")) as fh:
        cfg = json.load(fh)
    cfg.update(N=5, mesh=dict(cfg["mesh"], nx=128, ny=128), output={"vtk_stride": 0})
    path = tmp_path / "unit_square_128.json"
    path.write_text(json.dumps(cfg))
    assert cli.main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 0
    assert (tmp_path / "o" / "norms.csv").read_bytes() == _golden("unit_square_128_n5_norms.csv")


def test_convergence_order_is_the_slope_over_the_step_ratio(tmp_path, monkeypatch):
    # errors equal to dt have order 1 whatever the ratio of successive steps
    path = write_config(tmp_path, "conv.json", study={"dt_list": [0.5, 0.1, 0.05],
                                                      "ref_N": 40})
    monkeypatch.setattr(cli, "convergence_errors", lambda ref, coarse: {
        key: coarse.spec.dt for key in ("err_sigma_LinfH", "err_v_LinfH", "err_v_L2V")})
    results = cli.cmd_convergence(cli.parse_config(path), tmp_path / "out")
    assert [r["N"] for r in results] == [2, 10, 20]
    assert [r["dt"] for r in results] == [0.5, 0.1, 0.05]
    orders = [r[key] for r in results[1:] for key in r if key.startswith("order_")]
    assert len(orders) == 6
    assert all(abs(order - 1.0) <= 1e-12 for order in orders), orders


def test_convergence_requires_nested_reference(tmp_path, monkeypatch):
    path = write_config(
        tmp_path, "conv.json", T=1.0, N=10,
        study={"dt_list": [0.125], "ref_N": 100},
    )
    cfg = cli.parse_config(path)

    def no_run(*args, **kwargs):
        raise AssertionError("the nesting check must come before any run")

    monkeypatch.setattr(cli, "run", no_run)
    # N = 1 / 0.125 = 8 does not divide 100
    with pytest.raises(ConfigError, match="multiple"):
        cli.cmd_convergence(cfg, tmp_path / "out")


def per_node_errors(ref, coarse):
    """convergence_errors evaluated one reference node at a time."""
    n_ref, n_c = ref.spec.N, coarse.spec.N
    stride = n_ref // n_c
    areas = ref.mesh.areas if ref.mesh is not None else np.ones(1)

    def h_norm(data):
        return float(np.sqrt((areas * tc.frob_inner_arr(data, data)).sum()))

    def coarse_hat(series, j):
        k, r = divmod(j, stride)
        if r == 0:
            return series[k]
        w = r / stride
        return (1.0 - w) * series[k] + w * series[k + 1]

    sig_c = coarse.sigma_series()
    sig_r = ref.sigma_series()
    err_sigma = max(h_norm(coarse_hat(sig_c, j) - sig_r[j]) for j in range(n_ref + 1))
    err_v = err_v_l2v = 0.0
    if ref.space is not None:
        v_c, v_r = coarse.v_series(), ref.v_series()
        err_v = max(ref.space.l2_norm(coarse_hat(v_c, j) - v_r[j])
                    for j in range(n_ref + 1))
        acc = 0.0
        for j in range(1, n_ref + 1):
            k = -(-j * n_c // n_ref)
            acc += ref.spec.dt * ref.space.v_norm(coarse.states[k].v - ref.states[j].v) ** 2
        err_v_l2v = math.sqrt(acc)
    return {"err_sigma_LinfH": err_sigma, "err_v_LinfH": err_v, "err_v_L2V": err_v_l2v}


ZERO_D = {"T": 2.0}
FEM_4X4 = {"mode": "fem", "mesh": {"nx": 4, "ny": 4},
           "f": {"name": "constant", "params": {"value": [0.0, -8.0]}},
           "g": {"name": "constant", "params": {"value": 0.5}}}


@pytest.mark.parametrize("overrides, n_ref, n_c, chunk", [
    (ZERO_D, 300, 30, None),
    (FEM_4X4, 40, 8, None),
    # chunks of one node, and of 7 nodes, which do not divide the stride
    (ZERO_D, 300, 30, 1),
    (FEM_4X4, 40, 8, 1),
    (ZERO_D, 300, 30, 7),
    (FEM_4X4, 40, 8, 7),
], ids=["0d", "fem4x4", "0d_chunk1", "fem4x4_chunk1", "0d_chunk7", "fem4x4_chunk7"])
def test_convergence_errors_match_per_node_loop(tmp_path, monkeypatch, overrides, n_ref,
                                                n_c, chunk):
    spec = cli.parse_config(write_config(tmp_path, "c.json", **overrides)).spec
    ref = run(spec.with_steps(n_ref))
    coarse = run(spec.with_steps(n_c))
    want = per_node_errors(ref, coarse)
    if chunk is not None:
        per_node = 3 * len(spec.pts) + (0 if spec.space is None else spec.space.mesh.n_dofs)
        monkeypatch.setattr(stepper, "SAMPLE_BUDGET", chunk * per_node)

    def whole_series(self):
        raise AssertionError("convergence_errors must not stack a whole trajectory")

    def per_state(self, *args):
        raise AssertionError("convergence_errors must read the columns, not states")

    monkeypatch.setattr(Trajectory, "sigma_series", whole_series)
    monkeypatch.setattr(Trajectory, "v_series", whole_series)
    monkeypatch.setattr(Trajectory, "state", per_state)
    monkeypatch.setattr(Trajectory, "states", property(per_state))
    got = cli.convergence_errors(ref, coarse)
    assert got["err_sigma_LinfH"] > 0.0
    assert got == want  # bit for bit


def test_convergence_errors_sees_the_last_reference_node(tmp_path):
    zero = np.zeros(3)
    spec = cli.parse_config(write_config(tmp_path, "z.json")).spec

    def traj(sigmas):
        n = len(sigmas) - 1
        states = [SchemeState(k, k / n, None, s[None], s[None]) for k, s in enumerate(sigmas)]
        return stack_states(spec.with_steps(n), states)

    # the only large error sits at t = T, where both series have a node
    ref = traj([zero, np.array([1.0, 0.0, 0.0]), zero, zero, np.array([0.0, 3.0, 0.0])])
    coarse = traj([zero, zero, zero])
    got = cli.convergence_errors(ref, coarse)
    assert got["err_sigma_LinfH"] == math.sqrt(18.0)
    assert got == per_node_errors(ref, coarse)


# p and g that move with t, so that each row's slack depends on its own time
LINEAR_P_G = {"p": {"name": "linear_in_t", "params": {"slope": [0.1, 0.05, -0.2]}},
              "g": {"name": "linear_in_t", "params": {"base": 0.5, "slope": 0.3}}}


def per_row_sigma_l2(traj, n):
    if traj.space is None:
        return float(np.sqrt(tc.frob_inner_arr(traj.sigma[n], traj.sigma[n]).sum()))
    return traj.space.stress_l2(traj.sigma[n])


def per_row_norms(traj):
    """norms.csv built one row at a time: p and g sampled at each row's scalar time."""
    eng = stepper._Engine(traj.spec)
    lines = ["n,t,v_l2,sigma_l2,yield_slack_min,cg_iters"]
    for n in range(traj.spec.N + 1):
        t = n * traj.spec.dt
        v_l2 = 0.0 if traj.space is None else traj.space.l2_norm(traj.v[n])
        slack = tc.yield_slack_arr(traj.sigma[n], eng.p_at(t), eng.g_at(t)).min()
        cells = [t, v_l2, per_row_sigma_l2(traj, n), slack]
        lines.append(",".join([str(n), *("%.17g" % x for x in cells), "0"]))
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("overrides, chunks", [
    ({"N": 30_000, **LINEAR_P_G}, 3),
    ({**FEM_4X4, "N": 500, **LINEAR_P_G}, 2),
], ids=["0d", "fem4x4"])
def test_run_norms_match_a_per_row_reference_across_chunks(tmp_path, overrides, chunks):
    cfg = cli.parse_config(write_config(tmp_path, "c.json", **overrides))
    traj = cli.cmd_run(cfg, tmp_path / "out")
    assert len(traj.row_chunks()) >= chunks
    got, want = (tmp_path / "out" / "norms.csv").read_text(), per_row_norms(traj)
    same = got == want  # a bool, as pytest's diff of two long texts takes minutes
    assert same, next(p for p in zip(got.splitlines(), want.splitlines()) if p[0] != p[1])


def test_run_samples_p_and_g_once_per_chunk(tmp_path):
    cfg = cli.parse_config(write_config(tmp_path, "c.json", N=10_000))
    calls = {"p": 0, "g": 0}

    def counted(role, fn):
        def wrapper(t, pts):
            calls[role] += 1
            return fn(t, pts)
        return wrapper

    for role in calls:
        setattr(cfg.spec, role, counted(role, getattr(cfg.spec, role)))
    cli.cmd_run(cfg, tmp_path / "out")
    # per datum: the initial state, one call per block of the run and one per
    # chunk of norms.csv rows, each of 3 floats in 0d
    blocks = -(-cfg.spec.N // stepper.BLOCK_0D)
    chunks = -(-(cfg.spec.N + 1) // (stepper.SAMPLE_BUDGET // 3))
    assert max(calls.values()) <= 1 + blocks + chunks, calls


@pytest.mark.parametrize("overrides", [
    {"N": 12_000},
    # every side clamped, so v = 0 and only sigma grows; a snapshot per step
    {"mode": "fem", "N": 1000, "output": {"vtk_stride": 1},
     "mesh": {"nx": 2, "ny": 2, "gamma1": ["left", "right", "top", "bottom"]}},
], ids=["0d", "fem"])
def test_non_finite_cell_in_a_later_chunk_writes_nothing(tmp_path, overrides):
    # a spherical h whose stress grows as t^2 until its squared norm overflows
    path = write_config(tmp_path, "late.json", **overrides,
                        h={"name": "linear_in_t", "params": {"slope": [2.2e154, 0.0, 2.2e154]}})
    with np.errstate(over="ignore", invalid="ignore"):
        traj = run(cli.parse_config(path).spec)
        bad = [n for n in range(traj.spec.N + 1) if not math.isfinite(per_row_sigma_l2(traj, n))]
    assert bad[0] >= traj.row_chunks()[1].start
    out = tmp_path / "o"
    proc = run_cli("run", "--config", str(path), "--out", str(out))
    assert proc.returncode == 2
    assert proc.stderr.splitlines() == [f"numerical failure: non-finite sigma_l2 at step {bad[0]}"]
    assert list(out.iterdir()) == []


# -- verify and exit codes ----------------------------------------------------------


def test_verify_small_sample_pass(tmp_path, capsys):
    path = write_config(
        tmp_path, "v.json",
        verify={"n_samples": 200, "n_oracle_cases": 5, "oracle_samples": 2000,
                "n_vi_setups": 20, "n_vi_witnesses": 20},
    )
    code = cli.cmd_verify(cli.parse_config(path), tmp_path / "out")
    assert code == 0
    out = capsys.readouterr().out
    # each projection property item is reported separately, plus the demo note
    for item in ("proj_prop_i_d2", "proj_prop_iv_d3", "projection_argmin_oracle",
                 "stress_update_vi"):
        assert f"PASS {item}" in out
    assert "non-gating" in out
    header, rows = read_csv(tmp_path / "out" / "verify.csv")
    assert header == ["suite", "max_violation", "tol", "passed"]
    assert all(row[3] == "1" for row in rows)


def test_verify_nan_case_fails_and_exits_one(tmp_path, capsys, monkeypatch):
    # Python's max(worst, nan) would keep worst, so the suite would pass
    monkeypatch.setattr(cli.verify_mod.yc, "inclusion_equivalence_check",
                        lambda *args, **kw: math.nan)
    path = write_config(
        tmp_path, "v.json",
        verify={"n_samples": 200, "n_oracle_cases": 2, "oracle_samples": 2000,
                "n_vi_setups": 5, "n_vi_witnesses": 20},
    )
    assert cli.main(["verify", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
    out = capsys.readouterr().out
    assert "FAIL stress_update_vi: max violation nan (tol 1.0e-10)" in out.splitlines()
    _, rows = read_csv(tmp_path / "out" / "verify.csv")
    assert [row[1:] for row in rows if row[0] == "stress_update_vi"] == [["nan", "1e-10", "0"]]


def test_verify_broken_tolerance_exits_one(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli.verify_mod, "run_all",
                        lambda **kw: [SuiteResult("broken", 1.0, -1.0)])
    monkeypatch.setattr(cli, "explicit_demo_report",
                        lambda: {"initial_v_l2": 1.0, "final_v_l2": 1.0, "growth": 1.0})
    path = write_config(tmp_path, "v.json")
    code = cli.cmd_verify(cli.parse_config(path), tmp_path / "out")
    assert code == 1
    assert "FAIL broken" in capsys.readouterr().out


def test_main_exit_codes(tmp_path, capsys):
    good = write_config(tmp_path, "good.json")
    assert cli.main(["run", "--config", str(good), "--out", str(tmp_path / "o1")]) == 0

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"mode": "0d", "T": 1.0, "N": 5}))
    assert cli.main(["run", "--config", str(bad), "--out", str(tmp_path / "o2")]) == 2
    assert "configuration error" in capsys.readouterr().err

    missing = tmp_path / "nope.json"
    assert cli.main(["run", "--config", str(missing), "--out", str(tmp_path / "o3")]) == 2


@pytest.mark.parametrize("error, line", [
    (MemoryError("Unable to allocate 8.00 PiB"), "out of memory: Unable to allocate 8.00 PiB"),
    (MemoryError(), "out of memory: an allocation failed"),
])
def test_memory_error_exits_two_with_one_line(tmp_path, capsys, monkeypatch, error, line):
    def cmd_run(cfg, out_dir):
        raise error

    monkeypatch.setattr(cli, "cmd_run", cmd_run)
    path = write_config(tmp_path, "a.json")
    assert cli.main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.splitlines() == [line]


# finite data whose momentum solve overflows: the step average of h is 4e307,
# and with dt = 8 the stress term sigma_0 + dt h_1 of the equation is not finite
SOLVE_OVERFLOW = {"mode": "fem", "T": 24.0, "N": 3, "mesh": {"nx": 2, "ny": 2},
                  "h": {"name": "constant", "params": {"value": [4e307, 0.0, 4e307]}}}


def test_numerical_failure_exits_two_with_one_line(tmp_path, capsys):
    path = write_config(tmp_path, "huge.json", **SOLVE_OVERFLOW)
    assert cli.main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.splitlines()[-1] == (
        "numerical failure: momentum solve at step 1 gave a non-finite velocity")


def test_indefinite_step_matrix_exits_two_with_one_line(tmp_path, capsys, monkeypatch):
    step_matrix = stepper._Engine._step_matrix

    def indefinite(self, visc):
        # shifted past its least eigenvalue but not past its least diagonal entry,
        # so only the factorization can tell
        a = step_matrix(self, visc)
        shift = 0.5 * (np.linalg.eigvalsh(a.toarray())[0] + a.diagonal().min())
        return a - shift * sp.eye_array(a.shape[0], format="csr")

    monkeypatch.setattr(stepper._Engine, "_step_matrix", indefinite)
    assert cli.main(["run", "--config", RICH_FEM, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("numerical failure: step matrix M/dt + 0.825 K: ")
    assert "not positive definite" in err[0]


def run_cli(*args):
    """The CLI in a fresh process, so numpy warnings reach stderr as they would."""
    code = ("import sys; from plastiproj.harness_cli import main; "
            "sys.exit(main(sys.argv[1:]))")
    return subprocess.run(
        [sys.executable, "-c", code, *args], capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [SRC, os.environ.get("PYTHONPATH")]))),
    )


@pytest.mark.parametrize("overrides, message", [
    (SOLVE_OVERFLOW, "momentum solve at step 1 gave a non-finite velocity"),
    # the same h in 0d: sigma*_1 = dt h_1 overflows
    ({**SOLVE_OVERFLOW, "mode": "0d"}, "trial stress at step 1 is non-finite"),
    # a finite trial stress whose deviator norm overflows: scaled by g / inf
    # it would collapse to its spherical part
    ({"N": 4, "h": {"name": "linear_in_t", "params": {"slope": [1e155, 0.0, -1e155]}},
      "g": {"name": "constant", "params": {"value": 1e170}}},
     "deviator norm of the trial stress at step 2 overflows"),
    ({"mode": "fem", "N": 4, "mesh": {"nx": 2, "ny": 2},
      "h": {"name": "radial_deviatoric", "params": {"amplitude": 1e155}},
      "g": {"name": "constant", "params": {"value": 1e170}}},
     "deviator norm of the trial stress at step 1 overflows"),
    # feasible, |dev p(0)| = 7.1e307 < g, but the squared norm overflows
    ({"N": 3, "p": {"name": "constant", "params": {"value": [5e307, 0.0, -5e307]}},
      "g": {"name": "constant", "params": {"value": 1e308}}},
     "deviator norm of the trial stress at step 0 overflows"),
    # entries of the step matrix past the float range: (nu + dt) K, and nu + dt = 1e308
    ({"mode": "fem", "nu": 1e308, "N": 2, "mesh": {"nx": 2, "ny": 2}},
     "step matrix M/dt + 1e+308 K overflows (nu=1e+308, dt=0.5)"),
    ({"mode": "fem", "scheme": "implicit", "T": 1e308, "N": 1, "mesh": {"nx": 2, "ny": 2}},
     "step matrix M/dt + 1e+308 K overflows (nu=1.0, dt=1e+308)"),
], ids=["fem_overflow", "0d_overflow", "0d_norm_overflow", "fem_norm_overflow",
        "initial_norm_overflow", "step_matrix_nu_overflow", "step_matrix_dt_overflow"])
def test_overflow_prints_one_stderr_line(tmp_path, overrides, message):
    path = write_config(tmp_path, "huge.json", **overrides)
    out = tmp_path / "o"
    proc = run_cli("run", "--config", str(path), "--out", str(out))
    assert proc.returncode == 2
    assert proc.stderr.splitlines() == [f"numerical failure: {message}"]
    assert not (out / "norms.csv").exists()


def test_deviator_norm_below_overflow_scales_linearly(tmp_path):
    # the run that overflows above, at 1e150: no clip, sigma_l2 grows with h
    path = write_config(tmp_path, "big.json", mode="fem", N=4, mesh={"nx": 2, "ny": 2},
                        h={"name": "radial_deviatoric", "params": {"amplitude": 1e150}},
                        g={"name": "constant", "params": {"value": 1e170}})
    assert cli.main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 0
    _, rows = read_csv(tmp_path / "o" / "norms.csv")
    assert float(rows[-1][3]) == pytest.approx(1.03e150, rel=0.01)


@pytest.mark.parametrize("command, overrides, message", [
    # p shifts the constraint by 1e160, so the energy terms overflow to inf
    ("stability", {"mode": "fem", "N": 4, "mesh": {"nx": 4, "ny": 4},
                   "f": {"name": "constant", "params": {"value": [0.0, -1.0]}},
                   "p": {"name": "constant", "params": {"value": [1e160, 0.0, 1e160]}},
                   "study": {"dt_list": [0.5, 0.25]}},
     "non-finite energy_lhs_max at dt=0.5"),
    # a spherical stress of order 1e156: the squared errors overflow
    ("convergence", {"N": 4, "h": {"name": "linear_in_t",
                                   "params": {"slope": [1e157, 0.0, 1e157]}},
                     "study": {"dt_list": [0.5, 0.25], "ref_N": 8}},
     "non-finite err_sigma_LinfH at N=2"),
    # the same stress in a run: its norm overflows at the first step
    ("run", {"N": 4, "h": {"name": "linear_in_t", "params": {"slope": [1e157, 0.0, 1e157]}}},
     "non-finite sigma_l2 at step 1"),
], ids=["stability", "convergence", "run"])
def test_non_finite_study_cell_exits_two(tmp_path, command, overrides, message):
    path = write_config(tmp_path, "huge.json", **overrides)
    out = tmp_path / "o"
    proc = run_cli(command, "--config", str(path), "--out", str(out))
    assert proc.returncode == 2
    assert proc.stderr.splitlines() == [f"numerical failure: {message}"]
    assert not any(out.glob("*.csv"))


@pytest.mark.parametrize("command, sub", [("run", ""), ("verify", "sub")])
def test_out_that_is_not_a_directory_exits_two(tmp_path, capsys, command, sub):
    (tmp_path / "file").write_text("")
    out = tmp_path / "file" / sub if sub else tmp_path / "file"
    path = write_config(tmp_path, "a.json")
    assert cli.main([command, "--config", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("output error: ") and str(out) in err[0]


def test_negative_g_at_the_last_step_exits_two(tmp_path, capsys):
    # g(T) = 0 passes parse_config, but t_7 = 7 * (0.9 / 7) rounds past T
    for mode in ("0d", "fem"):
        path = write_config(tmp_path, "overshoot.json", mode=mode, T=0.9, N=7,
                            mesh={"nx": 4, "ny": 4},
                            g={"name": "linear_in_t", "params": {"base": 0.9, "slope": -1.0}})
        assert cli.main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err.splitlines() == [
            "configuration error: field 'g': negative yield radius at t=0.9000000000000001"]


LINEAR_1E308 = {"name": "linear_in_t", "params": {"slope": [1e308, 0.0, 1e308]}}


@pytest.mark.parametrize("overrides, message", [
    # the 4-point sums of finite values overflow, so the step averages are not finite
    ({"mode": "fem", "mesh": {"nx": 2, "ny": 2},
      "f": {"name": "constant", "params": {"value": [0.0, 1e308]}}},
     "field 'f': non-finite step average at t=0.1"),
    ({"mode": "fem", "mesh": {"nx": 2, "ny": 2},
      "h": {"name": "constant", "params": {"value": [1e308, 0.0, -1e308]}}},
     "field 'h': non-finite step average at t=0.1"),
    # dt = 0.25: the midpoints of step 3 sum to 2.5e308, those of step 2 to 1.5e308
    ({"T": 2.0, "N": 8, "h": LINEAR_1E308}, "field 'h': non-finite step average at t=0.75"),
    # p(t) = 1e308 t (1, 0, 1) is finite at t = 0 and overflows at t_1 = 2
    ({"mode": "fem", "mesh": {"nx": 2, "ny": 2}, "T": 2.0, "N": 1, "p": LINEAR_1E308},
     "field 'p': non-finite value at t=2.0"),
    # the grid of configs/radial_0d.json: a block is checked before its steps, so the
    # overflow of p from t = 1.798 is reported before the trial stress overflows at
    # step 900
    ({"T": 2.0, "N": 2000, "p": LINEAR_1E308}, "field 'p': non-finite value at t=1.798"),
], ids=["fem_f", "fem_h", "0d_h", "fem_p", "0d_p"])
def test_non_finite_datum_exits_two_naming_it(tmp_path, capsys, overrides, message):
    path = write_config(tmp_path, "inf.json", **overrides)
    assert cli.main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.splitlines() == [f"configuration error: {message}"]
    assert not (tmp_path / "o" / "norms.csv").exists()


@pytest.mark.parametrize("mode, field", [("fem", "v0"), ("fem", "sigma0"), ("0d", "sigma0")])
def test_non_finite_initial_value_exits_two_naming_it(tmp_path, capsys, monkeypatch, mode,
                                                      field):
    # no catalog function is non-finite at t = 0, so the built one is spoiled
    build = cli._build_fn

    def spoiled(cfg, key, role):
        fn = build(cfg, key, role)
        return (lambda t, pts: np.full_like(fn(t, pts), np.nan)) if key == field else fn

    monkeypatch.setattr(cli, "_build_fn", spoiled)
    path = write_config(tmp_path, "nan.json", mode=mode, mesh={"nx": 2, "ny": 2},
                        **{field: {"name": "constant", "params": {}}})
    assert cli.main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"configuration error: field {field!r}: non-finite value at t=0.0"]


@pytest.mark.parametrize("command", ["run", "convergence"])
@pytest.mark.parametrize("overrides, t", [
    # g(t) = 1e308 (1 + t) overflows from t = 0.875 of the 17-time grid on
    ({"mode": "0d", "g": {"name": "linear_in_t", "params": {"base": 1e308, "slope": 1e308}}},
     0.875),
    # offset + amplitude * bump overflows at every time
    ({"mode": "fem", "mesh": {"nx": 4, "ny": 4},
      "g": {"name": "gaussian_bump_in_x", "params": {"amplitude": 1e308, "offset": 1e308}}},
     0.0),
], ids=["0d", "fem"])
def test_non_finite_g_exits_two(tmp_path, capsys, command, overrides, t):
    path = write_config(tmp_path, "inf_g.json", T=2.0, N=16,
                        study={"dt_list": [0.5, 0.25], "ref_N": 16}, **overrides)
    assert cli.main([command, "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"configuration error: field 'g': non-finite yield radius at t={t}"]


def test_diverging_implicit_run_exits_two(tmp_path, capsys):
    # dt / nu = 2.5 is past where the Picard map contracts: the Picard
    # distance of step 2 grows on every iteration
    path = write_config(
        tmp_path, "diverge.json", mode="fem", nu=0.2, T=2.992532303003736, N=6,
        scheme="implicit", mesh={"nx": 3, "ny": 3},
        f={"name": "constant", "params": {"value": [0.0, -1.0]}},
        g={"name": "linear_in_t",
           "params": {"base": 1.1044509607357174, "slope": 0.040564473487280095}},
    )
    assert cli.main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err.splitlines()
    failures = [line for line in err if line.startswith("numerical failure:")]
    assert len(failures) == 1
    assert failures[0].startswith("numerical failure: Picard iteration of implicit step 2 "
                                  "diverges (distance ")
    assert not (tmp_path / "o" / "norms.csv").exists()


@pytest.mark.parametrize("command, scheme, warning", [
    ("run", "implicit",
     "warning: implicit step 1 did not converge within 200 Picard iterations (1 of 1 steps)"),
    ("stability", "implicit",
     "warning: dt=1.0: implicit step 1 did not converge within 200 Picard iterations "
     "(1 of 1 steps)"),
    ("convergence", "implicit",
     "warning: N=1: implicit step 1 did not converge within 200 Picard iterations "
     "(1 of 1 steps)"),
    ("run", "projection", None),
], ids=["run", "stability", "convergence", "projection_run"])
def test_unconverged_implicit_step_is_reported(tmp_path, capsys, command, scheme, warning):
    path = write_config(
        tmp_path, "stiff.json", mode="fem", N=1, scheme=scheme,
        mesh={"nx": 8, "ny": 8, "gamma1": ["left"]},
        f={"name": "constant", "params": {"value": [0.0, -8.0]}},
        h={"name": "constant", "params": {}},
        study={"dt_list": [1.0], "ref_N": 2},
    )
    assert cli.main([command, "--config", str(path), "--out", str(tmp_path / "o")]) == 0
    err = capsys.readouterr().err.splitlines()
    assert err == ([] if warning is None else [warning])


# numbers out of range are covered by test_bad_number_exits_two_naming_the_field;
# these stay in range so that most examples reach the run (g may turn negative,
# and vtk_stride or seed may be negative or a string); h, p and g depend on time
vec3 = st.lists(st.floats(-2.0, 2.0), min_size=3, max_size=3)
small3 = st.lists(st.floats(-0.1, 0.1), min_size=3, max_size=3)
# mostly valid, so that most examples still reach the run
int_or_junk = st.sampled_from([0, 1, 2, 3, 5, 50, "2", -1, -7, "x"])


@settings(max_examples=100, deadline=None, database=None, derandomize=True)
@given(command=st.sampled_from(["run", "stability"]), mode=st.sampled_from(["fem", "0d"]),
       scheme=st.sampled_from(SCHEMES), nu=st.floats(0.01, 10.0), total_t=st.floats(0.01, 5.0),
       n_steps=st.integers(1, 9), nx=st.integers(1, 3),
       base=st.floats(0.0, 2.0), slope=st.floats(-1.0, 1.0),
       h_base=vec3, h_slope=vec3, p_base=small3, p_slope=vec3,
       vtk_stride=int_or_junk, seed=int_or_junk)
@example(command="run", mode="0d", scheme="projection", nu=1.0, total_t=0.9, n_steps=7,
         nx=1, base=0.9, slope=-1.0, h_base=[1.0, 0.0, -1.0], h_slope=[0.0, 0.0, 0.0],
         p_base=[0.0, 0.0, 0.0], p_slope=[0.0, 0.0, 0.0], vtk_stride=0, seed=0)
def test_fuzzed_config_exit_code(command, mode, scheme, nu, total_t, n_steps, nx, base, slope,
                                 h_base, h_slope, p_base, p_slope, vtk_stride, seed):
    cfg = {"mode": mode, "nu": nu, "T": total_t, "N": n_steps, "scheme": scheme,
           "mesh": {"nx": nx, "ny": nx},
           "f": {"name": "constant", "params": {"value": [0.0, -1.0]}},
           "h": {"name": "linear_in_t", "params": {"base": h_base, "slope": h_slope}},
           "p": {"name": "linear_in_t", "params": {"base": p_base, "slope": p_slope}},
           "g": {"name": "linear_in_t", "params": {"base": base, "slope": slope}},
           "study": {"dt_list": [total_t / 2, total_t / 4]},
           "output": {"vtk_stride": vtk_stride}, "seed": seed}
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "fuzz.json")
        with open(path, "w") as fh:
            json.dump(cfg, fh)
        code = cli.main([command, "--config", path, "--out", os.path.join(tmp, "out")])
    assert code in (0, 1, 2)


def test_seed_option_is_rejected(tmp_path, capsys):
    # the seed is read from the config alone
    path = write_config(tmp_path, "s.json")
    args = ["verify", "--config", str(path), "--out", str(tmp_path / "o"), "--seed", "3"]
    with pytest.raises(SystemExit) as exc:
        cli.main(args)
    assert exc.value.code == 2
    assert "unrecognized arguments: --seed 3" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_config_seed(tmp_path):
    path = write_config(tmp_path, "s.json", seed=3)
    cfg = cli.parse_config(path)
    assert cfg.seed == 3
