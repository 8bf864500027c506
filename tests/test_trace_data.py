"""The benchmark's data wrapping leaves every output unchanged.

``perfbench/worker.py`` traces its set-up by passing each parsed spec to
``spans.wrap_data``, which replaces ``spec.f``, ``h``, ``p`` and ``g`` with
plain closures that record a ``catalog.eval`` span per call.  A data path
that reads anything off those functions other than calling them would break
``--trace 1``.  So the study drivers run twice here, untraced and then under
``install`` plus ``wrap_data``, and every file they write must match byte for
byte.  ``install`` patches modules for the life of the process, hence the
subprocess.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

SCRIPT = """
import json, os, sys, tempfile
sys.path[:0] = [{src!r}, {bench!r}]
import spans
from plastiproj import harness_cli as cli

fem = {{"mode": "fem", "nu": 1.0, "T": 1.0, "N": 3, "mesh": {{"nx": 4, "ny": 4}},
        "f": {{"name": "gaussian_bump_in_x", "params": {{"value": [0.0, -8.0]}}}},
        "h": {{"name": "linear_in_t", "params": {{"slope": [0.5, 0.2, -0.5]}}}},
        "p": {{"name": "linear_in_t", "params": {{"slope": [0.1, 0.0, 0.3]}}}},
        "g": {{"name": "linear_in_t", "params": {{"base": 1.0, "slope": 0.5}}}},
        "study": {{"dt_list": [0.5, 0.25], "ref_N": 8}}}}
zero_d = {{"mode": "0d", "nu": 1.0, "T": 2.0, "N": 4,
           "h": {{"name": "radial_deviatoric", "params": {{"amplitude": 1.0}}}},
           "g": {{"name": "linear_in_t", "params": {{"base": 1.0, "slope": 0.25}}}},
           "study": {{"dt_list": [0.5, 0.25], "ref_N": 64}}}}
CALLS = [("fem", fem, "run"), ("fem", fem, "stability"), ("fem", fem, "convergence"),
         ("0d", zero_d, "convergence")]


def outputs(root, tracer=None):
    evals = []
    for name, raw, command in CALLS:
        path = os.path.join(root, name + ".json")
        with open(path, "w") as fh:
            json.dump(raw, fh)
        cfg = cli.parse_config(path)
        if tracer is not None:
            spans.wrap_data(tracer, cfg.spec)
        before = len(tracer) if tracer is not None else 0
        getattr(cli, "cmd_" + command)(cfg, os.path.join(root, name + "_" + command))
        evals.append(0 if tracer is None else sum(
            tracer.names[i] == "catalog.eval" for i in tracer.name_id[before:]))
    files = {{}}
    for top, _, names in os.walk(root):
        for fname in names:
            if not fname.endswith(".json"):
                with open(os.path.join(top, fname), "rb") as fh:
                    files[os.path.relpath(os.path.join(top, fname), root)] = fh.read()
    return files, evals


with tempfile.TemporaryDirectory() as plain, tempfile.TemporaryDirectory() as traced:
    want, _ = outputs(plain)
    tracer = spans.Tracer()
    spans.install(tracer)
    got, evals = outputs(traced, tracer)
print(json.dumps({{
    "files": sorted(want),
    "traced_files": sorted(got),
    "differ": sorted(name for name in want if got.get(name) != want[name]),
    "evals": evals,
}}))
"""


def test_wrapped_data_gives_byte_identical_outputs():
    code = SCRIPT.format(src=os.path.join(ROOT, "src"), bench=os.path.join(ROOT, "perfbench"))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout.splitlines()[-1])
    assert seen["files"] == ["0d_convergence/convergence.csv", "fem_convergence/convergence.csv",
                             "fem_run/norms.csv", "fem_stability/stability.csv"]
    assert seen["traced_files"] == seen["files"]
    assert seen["differ"] == []
    # every driver call sampled its data through the wrapped functions
    assert all(n > 0 for n in seen["evals"]), seen["evals"]
