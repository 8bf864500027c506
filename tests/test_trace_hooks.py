"""The benchmark's trace hooks still find every name they wrap and see every step.

``perfbench/spans.py`` replaces functions where the package's modules look
them up (``stepper.cg_solve``, ``fem2d.spmv``, ``FemSpace.dual_norm``, ...),
so renaming or dropping one of those names breaks ``--trace 1`` with a
KeyError, and each replaced name must hold a wrapper of the package's own
function.  Its per-step metrics count the ``stepper.step`` spans whose parent
is a ``stepper.run`` span, so ``run`` must call the step functions by their
module names, once per step.  ``install`` patches modules for the life of the
process, hence the subprocess.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

SCRIPT = """
import json, sys, tempfile
sys.path[:0] = [{src!r}, {bench!r}]
import spans
from plastiproj import fem2d, harness_cli, stepper, tensor_core, verify, yield_charts
owners = {{"fem2d": fem2d, "harness_cli": harness_cli, "stepper": stepper,
          "tensor_core": tensor_core, "verify": verify, "yield_charts": yield_charts,
          "FemSpace": fem2d.FemSpace, "SymMat": tensor_core.SymMat}}
before = {{key: dict(vars(owner)) for key, owner in owners.items()}}
tracer = spans.Tracer()
spans.install(tracer)

def inner(obj):
    return getattr(obj, "__func__", obj)

# every replaced name must now hold a wrapper of what it held before
wrapped = {{}}
for key, owner in owners.items():
    for attr, value in vars(owner).items():
        if value is not before[key].get(attr):
            old = before[key].get(attr)
            wrapped[key + "." + attr] = (
                old is not None
                and getattr(inner(value), "__wrapped__", None) is inner(old))

from plastiproj import harness_cli as cli

cfg = {{"mode": "fem", "nu": 1.0, "T": 1.0, "N": 3, "mesh": {{"nx": 4, "ny": 4}},
        "f": {{"name": "constant", "params": {{"value": [0.0, -8.0]}}}},
        "study": {{"dt_list": [1.0, 0.5], "ref_N": 4}}}}
out = tempfile.mkdtemp()
steps = []
for scheme in ("projection", "implicit"):
    path = out + "/" + scheme + ".json"
    with open(path, "w") as fh:
        json.dump(dict(cfg, scheme=scheme), fh)
    cli.cmd_run(cli.parse_config(path), out + "/run_" + scheme)
    steps.append(3)
cli.cmd_stability(cli.parse_config(path), out + "/stability")
steps += [1, 2]
cli.cmd_convergence(cli.parse_config(path), out + "/convergence")
steps += [4, 1, 2]  # the reference run, then one run per study dt

arr = tracer.arrays()
names = [tracer.names[i] for i in arr["name"]]
runs = [i for i, name in enumerate(names) if name == "stepper.run"]
print(json.dumps({{
    "expected_steps": steps,
    "steps_per_run": [sum(1 for k, name in enumerate(names)
                          if name == "stepper.step" and arr["parent"][k] == r)
                      for r in runs],
    "steps": names.count("stepper.step"),
    "spaces": names.count("fem2d.FemSpace"),
    "configs": names.count("harness_cli.parse_config"),
    "errors": names.count("harness_cli.convergence_errors"),
    "wrapped": wrapped,
}}))
"""


def test_trace_hooks_install():
    code = SCRIPT.format(src=os.path.join(ROOT, "src"), bench=os.path.join(ROOT, "perfbench"))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout.splitlines()[-1])
    # one stepper.step span per step, each a child of its stepper.run span
    assert seen["steps_per_run"] == seen["expected_steps"]
    assert seen["steps"] == sum(seen["expected_steps"])
    # one convergence_errors span per coarse run of the convergence study
    assert seen["errors"] == 2
    # one FemSpace per parsed config: its runs and their analysis share it
    assert seen["configs"] == 4
    assert seen["spaces"] == seen["configs"]
    # each name install replaces resolves to a wrapper of the package's function
    assert all(seen["wrapped"].values()), seen["wrapped"]
    for name in ("harness_cli.parse_config", "harness_cli._slack_min",
                 "stepper.korn_constant", "FemSpace.__init__", "SymMat.from_matrix"):
        assert name in seen["wrapped"]
