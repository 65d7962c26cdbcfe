"""Spans around the library's layer boundaries, recorded from outside.

Nothing in the library changes.  ``Tracer.install`` replaces each traced
function at the module binding its callers look it up through (for example
``slspectra.spectrum.endpoint_values``, the name ``_CharEngine.phi_batch``
calls) with a wrapper that records a span: name, start, end, parent span
and the id of the workload call it belongs to.  Spans stay in memory and
are written out once, when the run ends.  ``Potential.__call__`` is not a
span (it runs far too often); it only counts the abscissae it evaluates,
charged to the innermost open span.
"""

from __future__ import annotations

import json
from collections import defaultdict
from time import perf_counter

import numpy as np


def _sweep_counts(span, args, kwargs, result):
    """Mu evaluations and mesh steps of one batched odesolve sweep."""
    mesh = args[0] if args else kwargs["mesh"]
    mus = int(np.size(args[1] if len(args) > 1 else kwargs["mus"]))
    span["mu_evals"] = mus
    span["steps"] = mus * len(mesh.h)


def _mesh_counts(span, args, kwargs, result):
    span["intervals"] = len(result.h)


# (module attribute path, attribute, span name, count hook)
TRACE_POINTS = (
    ("spectrum", "find_spectrum", "spectrum.find_spectrum", None),
    ("spectrum", "endpoint_values", "odesolve.endpoint_values", _sweep_counts),
    ("spectrum", "y_values_batch", "odesolve.y_values_batch", _sweep_counts),
    ("spectrum", "build_mesh", "odesolve.build_mesh", _mesh_counts),
    ("spectrum", "mean_q", "potential.mean_q", None),
    ("spectrum", "delta_for_index", "delta.delta_for_index", None),
    ("delta", "solve_delta", "delta.solve_delta", None),
    ("norming", "norming_records", "norming.norming_records", None),
    ("norming", "norming_record", "norming.norming_record", None),
    ("norming", "build_mesh", "odesolve.build_mesh", _mesh_counts),
    ("norming", "propagate_with_norm", "odesolve.propagate_with_norm", _sweep_counts),
    ("norming", "ae_n", "norming.ae_n", None),
    ("norming", "integrate", "potential.integrate", None),
    ("kseries", "k_partial_sum", "kseries.k_partial_sum", None),
    ("kseries", "series_coefficients", "kseries.series_coefficients", None),
    ("kseries", "k2_closed_form_dd", "kseries.k2_closed_form_dd", None),
    ("kseries", "ac_diagnostic", "kseries.ac_diagnostic", None),
    ("kseries", "sigma_functions", "potential.sigma_functions", None),
    ("kseries", "integrate", "potential.integrate", None),
    ("kseries", "solve_delta", "delta.solve_delta", None),
)


class Tracer:
    """In-memory span recorder; inactive outside ``call`` blocks."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._call_id: str | None = None
        self._restore: list = []

    def install(self, lib) -> None:
        for module, attr, name, hook in TRACE_POINTS:
            owner = getattr(lib, module)
            self._patch(owner, attr, self._wrap(getattr(owner, attr), name, hook))
        original_call = lib.Potential.__call__
        tracer = self

        def counting_call(q, x):
            if tracer._stack:
                tracer.spans[tracer._stack[-1]]["q_points"] += int(np.size(x))
            return original_call(q, x)

        self._patch(lib.Potential, "__call__", counting_call)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _patch(self, owner, attr, replacement) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def _open(self, name: str) -> dict:
        span = {"name": name, "start": 0.0, "end": 0.0,
                "parent": self._stack[-1] if self._stack else -1,
                "call": self._call_id, "q_points": 0}
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _wrap(self, fn, name, hook):
        tracer = self

        def traced(*args, **kwargs):
            if tracer._call_id is None:
                return fn(*args, **kwargs)
            span = tracer._open(name)
            span["start"] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = perf_counter()
                tracer._stack.pop()
            if hook is not None:
                hook(span, args, kwargs, result)
            return result

        return traced

    def call(self, call_id: str, thunk):
        """Run one workload call under a root span named ``call``."""
        self._call_id = call_id
        span = self._open("call")
        span["start"] = perf_counter()
        try:
            return thunk()
        finally:
            span["end"] = perf_counter()
            self._stack.pop()
            self._call_id = None

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its direct children cover."""
        own = [s["end"] - s["start"] for s in self.spans]
        for s in self.spans:
            if s["parent"] >= 0:
                own[s["parent"]] -= s["end"] - s["start"]
        return own

    def write(self, path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")


def summarize(spans, self_s) -> dict:
    """Per span name: calls, self seconds, counters summed."""
    out: dict = defaultdict(lambda: defaultdict(float))
    for s, own in zip(spans, self_s):
        row = out[s["name"]]
        row["calls"] += 1
        row["self_s"] += own
        for key in ("mu_evals", "steps", "intervals", "q_points"):
            row[key] += s.get(key, 0)
    return out
