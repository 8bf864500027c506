"""The benchmark's trace hooks still find every name they wrap.

``perfbench/spans.py`` replaces functions where the package's modules look
them up (``stepper.cg_solve``, ``fem2d.spmv``, ``FemSpace.dual_norm``, ...),
so renaming or dropping one of those names breaks ``--trace 1`` with a
KeyError.  ``install`` patches modules for the life of the process, hence
the subprocess.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

SCRIPT = """
import sys
sys.path[:0] = [{src!r}, {bench!r}]
import spans
spans.install(spans.Tracer())
"""


def test_trace_hooks_install():
    code = SCRIPT.format(src=os.path.join(ROOT, "src"), bench=os.path.join(ROOT, "perfbench"))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
