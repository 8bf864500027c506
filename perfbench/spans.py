"""Spans around the calls into each plastiproj layer, and the per-layer metrics.

The package's modules import names directly (``from .linalg import
cg_solve``), so a wrapper must replace the name where the caller looks it up:
``stepper.cg_solve`` and ``fem2d.cg_solve`` are wrapped separately, which
also tells momentum solves from dual-norm solves.  Methods and classmethods
are wrapped on their class.  ``install`` patches the modules for the life of
the process; the benchmark makes each traced call in a process of its own.

A span is (name, start, end, parent, operation).  Spans are kept in typed
arrays, about 28 bytes each, so the roughly 10^6 spans of the 0d
convergence workload fit in memory, and are written out when the call
ends.  The operation id counts the output rows begun so far: each start of a
span named in ``op_spans`` starts the next one.
"""

from __future__ import annotations

import os
import time
from array import array
from collections import defaultdict

import numpy as np


class Tracer:
    def __init__(self, op_spans: tuple[str, ...] = ()):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self._stack = [-1]
        self._op_ids = set()
        self._current_op = 0
        self.counts: dict[str, float] = defaultdict(float)
        self.samples: dict[str, list] = defaultdict(list)
        self.trajectories: list = []
        for name in op_spans:
            self._op_ids.add(self._id(name))

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def __len__(self) -> int:
        return len(self.name_id)

    def spanned(self, name: str, fn, after=None):
        """``fn`` recording one span per call; ``after(args, kwargs, result)``
        runs once the span has ended."""
        nid = self._id(name)
        starts_op = nid in self._op_ids

        def traced(*args, **kwargs):
            if starts_op:
                self._current_op += 1
            i = len(self.name_id)
            self.name_id.append(nid)
            self.parent.append(self._stack[-1])
            self.op.append(self._current_op)
            self.end.append(0.0)
            self._stack.append(i)
            self.start.append(time.perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[i] = time.perf_counter()
                self._stack.pop()
            if after is not None:
                after(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def counted(self, name: str, fn, amount=lambda args, kwargs: 1):
        """``fn`` adding ``amount(args, kwargs)`` to a counter, without a span."""

        def counting(*args, **kwargs):
            self.counts[name] += amount(args, kwargs)
            return fn(*args, **kwargs)

        counting.__wrapped__ = fn
        return counting

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "op": np.frombuffer(self.op, dtype=np.int32).copy(),
        }

    def save(self, path: str) -> None:
        np.savez(path, names=np.array(self.names), **self.arrays())


def _arg(args, kwargs, index: int, key: str):
    return args[index] if len(args) > index else kwargs[key]


def install(tracer: Tracer) -> None:
    """Wrap every traced call site of plastiproj."""
    from plastiproj import fem2d, harness_cli, stepper, tensor_core, verify, yield_charts

    def cg_after(kind):
        def after(args, kwargs, res):
            tracer.samples[f"cg.{kind}.iters"].append(res.iters)
            if not res.converged:
                tracer.counts["cg.unconverged"] += 1
        return after

    def output_after(args, kwargs, result):
        tracer.counts["output.bytes"] += os.path.getsize(args[0])

    def run_after(args, kwargs, traj):
        tracer.trajectories.append(traj)

    def span(owner, attr, name, after=None):
        setattr(owner, attr, tracer.spanned(name, owner.__dict__[attr], after))

    span(harness_cli, "parse_config", "harness_cli.parse_config")
    span(harness_cli, "write_vtk", "harness_cli.output", output_after)
    span(harness_cli, "_write_csv", "harness_cli.output", output_after)
    span(harness_cli, "_slack_min", "harness_cli.slack_min")
    span(harness_cli, "convergence_errors", "harness_cli.convergence_errors")
    span(harness_cli, "run", "stepper.run", run_after)
    span(harness_cli, "discrete_norms", "stepper.discrete_norms")
    span(harness_cli, "energy_report", "stepper.energy_report")
    span(harness_cli, "explicit_demo_report", "verify.explicit_demo")

    for attr in ("step_projection", "step_implicit", "step_explicit"):
        span(stepper, attr, "stepper.step")
    span(stepper, "time_average", "stepper.time_average")
    span(stepper, "korn_constant", "stepper.korn_constant")
    span(stepper, "cg_solve", "linalg.cg_solve.step", cg_after("step"))
    span(fem2d, "cg_solve", "linalg.cg_solve.dual", cg_after("dual"))
    for module in (stepper, fem2d):
        span(module, "spmv", "linalg.spmv")
        span(module, "apply_dirichlet", "fem2d.apply_dirichlet")
    span(stepper, "body_load", "fem2d.load")
    span(stepper, "stress_load", "fem2d.load")
    span(stepper, "strain_of", "fem2d.strain_of")

    span(fem2d.FemSpace, "__init__", "fem2d.FemSpace")
    span(fem2d.FemSpace, "dual_norm", "fem2d.dual_norm")
    span(fem2d.FemSpace, "l2_norm", "fem2d.l2_norm")
    span(fem2d.FemSpace, "stress_l2", "fem2d.stress_l2")

    span(tensor_core, "project_constraint_arr", "tensor_core.project")
    from_matrix = tensor_core.SymMat.__dict__["from_matrix"].__func__
    tensor_core.SymMat.from_matrix = classmethod(
        tracer.counted("tensor_core.SymMat", from_matrix))

    span(verify, "proj_prop_suite", "verify.proj_prop")
    span(verify, "chart_suite", "verify.chart")
    span(verify, "oracle_suite", "verify.oracle")
    span(verify, "vi_suite", "verify.vi")
    yield_charts.argmin_oracle = tracer.counted(
        "yield_charts.oracle_samples", yield_charts.argmin_oracle,
        lambda a, k: _arg(a, k, 2, "n_samples"))
    yield_charts.inclusion_equivalence_check = tracer.counted(
        "yield_charts.witnesses", yield_charts.inclusion_equivalence_check,
        lambda a, k: _arg(a, k, 6, "n_witnesses"))


def wrap_data(tracer: Tracer, spec) -> None:
    """Trace the calls into a spec's catalog functions f, h, p and g."""
    for role in ("f", "h", "p", "g"):
        setattr(spec, role, tracer.spanned("catalog.eval", getattr(spec, role)))


# -- per-layer metrics --------------------------------------------------------------


def _unwrapped(fn):
    return getattr(fn, "__wrapped__", fn)


def _trajectory_summary(trajectories) -> tuple[float, int, int]:
    """Largest trajectory in bytes, and clipped and projected element counts.

    An element is clipped at step n when |dev(sigma*_n + p_n)| > g_n, so
    the projection changed it.
    """
    largest = 0
    clipped = 0
    projected = 0
    for traj in trajectories:
        nbytes = 0
        for st in traj.states:
            nbytes += st.sigma.nbytes + st.sigma_star.nbytes
            nbytes += 0 if st.v is None else st.v.nbytes
        largest = max(largest, nbytes)
        spec = traj.spec
        pts = traj.mesh.centroids if traj.mesh is not None else np.zeros((1, 2))
        p_fn, g_fn = _unwrapped(spec.p), _unwrapped(spec.g)
        for st in traj.states[1:]:
            s = st.sigma_star + np.asarray(p_fn(st.t, pts), dtype=float)
            radius = np.sqrt(0.5 * (s[:, 0] - s[:, 2]) ** 2 + 2.0 * s[:, 1] ** 2)
            clipped += int((radius > np.asarray(g_fn(st.t, pts), dtype=float)).sum())
            projected += len(s)
    return float(largest), clipped, projected


def layer_metrics(tracer: Tracer, call_index: int) -> dict[str, float]:
    """Per-layer metrics of the driver call whose span has ``call_index``.

    Every metric covers the spans inside that call, except
    ``harness_cli.parse_config.s``, the median over the set-ups made before
    it.  Self time is a span's duration minus its children's.
    """
    arr = tracer.arrays()
    dur = arr["end"] - arr["start"]
    parent = arr["parent"]
    has_parent = parent >= 0
    child = np.zeros_like(dur)
    np.add.at(child, parent[has_parent], dur[has_parent])
    self_time = dur - child
    ids = arr["name"]
    inside = np.arange(len(dur)) > call_index
    name_of = {name: i for i, name in enumerate(tracer.names)}

    def mask(name, region=inside):
        return region & (ids == name_of.get(name, -1))

    def total(name, times=dur):
        return float(times[mask(name)].sum())

    def calls(name):
        return float(mask(name).sum())

    def mean(values):
        return float(np.mean(values)) if len(values) else 0.0

    parse = dur[mask("harness_cli.parse_config", np.arange(len(dur)) < call_index)]
    row_sites = ("fem2d.l2_norm", "fem2d.stress_l2", "harness_cli.slack_min")
    row_norms = sum(float(dur[mask(n) & (parent == call_index)].sum()) for n in row_sites)
    run_id = name_of.get("stepper.run", -1)
    steps = mask("stepper.step") & (ids[np.maximum(parent, 0)] == run_id) & has_parent
    step_ms = dur[steps] * 1e3
    step_iters = tracer.samples["cg.step.iters"]
    dual_iters = tracer.samples["cg.dual.iters"]
    states_bytes, clipped, projected = _trajectory_summary(tracer.trajectories)
    project_calls = calls("tensor_core.project")
    return {
        "harness_cli.parse_config.s": float(np.median(parse)) if len(parse) else 0.0,
        "harness_cli.output.s": total("harness_cli.output"),
        "harness_cli.output.bytes": tracer.counts["output.bytes"],
        "harness_cli.row_norms.s": row_norms,
        "harness_cli.convergence_errors.s": total("harness_cli.convergence_errors"),
        "stepper.run.calls": calls("stepper.run"),
        "stepper.run.s": total("stepper.run"),
        "stepper.step.calls": float(steps.sum()),
        "stepper.step.ms_p50": float(np.percentile(step_ms, 50)) if len(step_ms) else 0.0,
        "stepper.step.ms_p90": float(np.percentile(step_ms, 90)) if len(step_ms) else 0.0,
        "stepper.step.self_s": float(self_time[steps].sum()),
        "stepper.time_average.calls": calls("stepper.time_average"),
        "stepper.time_average.s": total("stepper.time_average"),
        "stepper.discrete_norms.s": total("stepper.discrete_norms", self_time),
        "stepper.energy_report.s": total("stepper.energy_report", self_time),
        "stepper.korn_constant.calls": calls("stepper.korn_constant"),
        "stepper.korn_constant.s": total("stepper.korn_constant"),
        "stepper.states.bytes": states_bytes,
        "linalg.cg_solve.step.calls": calls("linalg.cg_solve.step"),
        "linalg.cg_solve.step.s": total("linalg.cg_solve.step"),
        "linalg.cg_solve.step.iters_mean": mean(step_iters),
        "linalg.cg_solve.step.iters_max": float(max(step_iters, default=0)),
        "linalg.cg_solve.dual.calls": calls("linalg.cg_solve.dual"),
        "linalg.cg_solve.dual.s": total("linalg.cg_solve.dual"),
        "linalg.cg_solve.dual.iters_mean": mean(dual_iters),
        "linalg.cg_solve.unconverged": tracer.counts["cg.unconverged"],
        "linalg.spmv.calls": calls("linalg.spmv"),
        "linalg.spmv.s": total("linalg.spmv"),
        "fem2d.FemSpace.calls": calls("fem2d.FemSpace"),
        "fem2d.FemSpace.s": total("fem2d.FemSpace"),
        "fem2d.apply_dirichlet.s": total("fem2d.apply_dirichlet"),
        "fem2d.load.s": total("fem2d.load"),
        "fem2d.strain_of.s": total("fem2d.strain_of"),
        "fem2d.dual_norm.calls": calls("fem2d.dual_norm"),
        "fem2d.dual_norm.s": total("fem2d.dual_norm"),
        "tensor_core.project.calls": project_calls,
        "tensor_core.project.s": total("tensor_core.project"),
        "tensor_core.project.us_per_call":
            total("tensor_core.project") / project_calls * 1e6 if project_calls else 0.0,
        "tensor_core.project.clipped_share": clipped / projected if projected else 0.0,
        "tensor_core.SymMat.calls": tracer.counts["tensor_core.SymMat"],
        "catalog.eval.calls": calls("catalog.eval"),
        "catalog.eval.s": total("catalog.eval"),
        "verify.proj_prop.s": total("verify.proj_prop"),
        "verify.chart.s": total("verify.chart"),
        "verify.oracle.s": total("verify.oracle"),
        "verify.vi.s": total("verify.vi"),
        "verify.explicit_demo.s": total("verify.explicit_demo"),
        "yield_charts.oracle_samples": tracer.counts["yield_charts.oracle_samples"],
        "yield_charts.witnesses": tracer.counts["yield_charts.witnesses"],
        "trace.spans": float(inside.sum()),
    }
