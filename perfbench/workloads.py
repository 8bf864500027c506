"""The four benchmark workloads: which CLI driver each calls and its config.

Configs are written out in full here rather than read from ``configs/``, so
a later edit to the example configs does not silently change what the
benchmark measures.  ``UNIT_SQUARE`` and ``RADIAL_0D`` mirror
``configs/unit_square.json`` and ``configs/radial_0d.json``; each workload
overrides only the sizes and one physical parameter drawn from the seed.
"""

from __future__ import annotations

import copy
import random

UNIT_SQUARE = {
    "mode": "fem",
    "nu": 1.0,
    "T": 1.0,
    "N": 200,
    "scheme": "projection",
    "mesh": {"nx": 16, "ny": 16, "lx": 1.0, "ly": 1.0, "gamma1": ["left"]},
    "f": {"name": "constant", "params": {"value": [0.0, -8.0]}},
    "h": {"name": "constant", "params": {}},
    "p": {"name": "constant", "params": {}},
    "g": {"name": "constant", "params": {"value": 1.0}},
    "study": {
        "dt_list": [1.0, 0.5, 0.1, 0.025, 0.0125, 0.00625, 0.003125, 0.0015625],
        "ref_N": 2560,
    },
    "output": {"vtk_stride": 50},
    "seed": 0,
}

RADIAL_0D = {
    "mode": "0d",
    "nu": 1.0,
    "T": 2.0,
    "N": 2000,
    "scheme": "projection",
    "f": {"name": "constant", "params": {}},
    "h": {"name": "radial_deviatoric", "params": {"amplitude": 1.0}},
    "p": {"name": "constant", "params": {}},
    "g": {"name": "constant", "params": {"value": 1.0}},
    "study": {"dt_list": [0.008, 0.004, 0.002], "ref_N": 100000},
    "seed": 0,
}

# One fifth of every default sample count of `plastiproj verify`, which keeps
# the suites' shares of the run (VI, charts, oracle) and lets several driver
# calls fit in one benchmark run.
VERIFY_SIZES = {
    "n_samples": 2000,
    "n_oracle_cases": 20,
    "oracle_samples": 100_000,
    "n_vi_setups": 200,
    "n_vi_witnesses": 100,
}

# workload -> name of the harness_cli driver it calls
DRIVERS = {
    "fem_run": "cmd_run",
    "fem_stability": "cmd_stability",
    "zero_d_convergence": "cmd_convergence",
    "verify_suites": "cmd_verify",
}


def make_config(workload: str, seed: int) -> dict:
    """The workload's config; the same seed always gives the same config.

    The seed moves one physical parameter inside a narrow band, so the
    outputs change from seed to seed while the amount of work does not: the
    downward body force of the fem workloads (7.6 to 8.4), the yield radius
    of the 0d workload (0.9 to 1.1), and the sampling seed of the verify
    suites.
    """
    u = random.Random(seed).random()
    if workload in ("fem_run", "fem_stability"):
        cfg = copy.deepcopy(UNIT_SQUARE)
        cfg["f"]["params"]["value"] = [0.0, -8.0 * (0.95 + 0.1 * u)]
        if workload == "fem_run":
            cfg["mesh"].update(nx=64, ny=64)
            cfg["N"] = 100
            cfg["output"] = {"vtk_stride": 50}
        else:
            cfg["mesh"].update(nx=32, ny=32)
            cfg["study"]["dt_list"] = [1.0, 0.5, 0.1, 0.01]
            cfg["output"] = {"vtk_stride": 0}
        return cfg
    if workload == "zero_d_convergence":
        cfg = copy.deepcopy(RADIAL_0D)
        cfg["g"]["params"]["value"] = 0.9 + 0.2 * u
        return cfg
    if workload == "verify_suites":
        cfg = copy.deepcopy(RADIAL_0D)
        cfg["verify"] = dict(VERIFY_SIZES)
        cfg["seed"] = seed
        return cfg
    raise KeyError(workload)


def describe(workload: str, cfg: dict) -> dict:
    """Problem size of a workload's config, recorded with every result."""
    info: dict = {"driver": DRIVERS[workload]}
    if cfg["mode"] == "fem":
        info["mesh"] = f"{cfg['mesh']['nx']}x{cfg['mesh']['ny']}"
    if workload == "fem_run":
        info["steps"] = cfg["N"]
    elif workload == "fem_stability":
        info["steps"] = sum(max(1, round(cfg["T"] / dt)) for dt in cfg["study"]["dt_list"])
    elif workload == "zero_d_convergence":
        info["steps"] = cfg["study"]["ref_N"] + sum(
            round(cfg["T"] / dt) for dt in cfg["study"]["dt_list"])
    else:
        info["verify"] = cfg["verify"]
        info["seed"] = cfg["seed"]
    return info
