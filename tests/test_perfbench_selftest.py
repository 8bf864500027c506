"""The benchmark's output checks still run on the package's results.

``perfbench/selftest.py`` calls every workload's driver on a small config
and reads what the benchmark worker reads (``sigma_series``,
``sigma_star_series``, ``v_series`` and ``mesh`` of a ``run`` result), then
requires each check to pass on the clean output and to fail on a corrupted
one.  A change to those names or shapes fails here, not only in a benchmark
run.  It runs in a subprocess, as the benchmark does.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_perfbench_selftest_passes():
    proc = subprocess.run([sys.executable, os.path.join(ROOT, "perfbench", "selftest.py")],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "self-test passed" in proc.stdout
