import json
import math

import numpy as np
import pytest

from plastiproj import harness_cli as cli
from plastiproj.catalog import ConfigError
from plastiproj.verify import SuiteResult


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
    assert cfg.spec.mode == "0d"
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
])
def test_bad_number_exits_two_naming_the_field(tmp_path, capsys, field, overrides):
    path = write_config(tmp_path, "bad.json", mode="fem", **overrides)
    with pytest.raises(ConfigError, match=f"field '{field}'"):
        cli.parse_config(path)
    assert cli.main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    assert f"field '{field}'" in capsys.readouterr().err


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


def test_reference_must_be_finer(tmp_path):
    path = write_config(tmp_path, "bad.json", study={"dt_list": [0.1], "ref_N": 10})
    with pytest.raises(ConfigError, match="ref_N"):
        cli.parse_config(path)


def test_invalid_json_reports_line(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{\n  \"nu\": ,\n}")
    with pytest.raises(ConfigError, match=r":2:"):
        cli.parse_config(path)


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


def test_convergence_requires_nested_reference(tmp_path, monkeypatch):
    path = write_config(
        tmp_path, "conv.json", T=1.0, N=10,
        study={"dt_list": [0.15], "ref_N": 100},
    )
    cfg = cli.parse_config(path)

    def no_run(*args, **kwargs):
        raise AssertionError("the nesting check must come before any run")

    monkeypatch.setattr(cli, "run", no_run)
    # N = round(1 / 0.15) = 7 does not divide 100
    with pytest.raises(ConfigError, match="multiple"):
        cli.cmd_convergence(cfg, tmp_path / "out")


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


def test_numerical_failure_exits_two_with_one_line(tmp_path, capsys):
    path = write_config(
        tmp_path, "huge.json", mode="fem", N=3,
        mesh={"nx": 2, "ny": 2},
        f={"name": "constant", "params": {"value": [0.0, 1e308]}},
        h={"name": "constant", "params": {}},
    )
    assert cli.main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.splitlines()[-1] == (
        "numerical failure: momentum solve at step 1 gave a non-finite velocity")


def test_seed_override(tmp_path):
    path = write_config(tmp_path, "s.json", seed=3)
    cfg = cli.parse_config(path)
    assert cfg.seed == 3
