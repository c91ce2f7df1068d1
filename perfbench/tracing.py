"""Span tracing of sepscope's public functions, applied from outside the package.

A Tracer rebinds each traced function in every ``sepscope`` module (and in
module-level dicts such as ``verify.SUITES``) that holds it, so calls made
through any import path record a span.  Classes are traced through their
``__post_init__`` on the class itself: rebinding the class name would break
the ``isinstance`` checks inside the package.  Everything rebound is put back
when the ``with`` block ends.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time

# layer -> public names traced in that layer's module
TRACED: dict[str, tuple[str, ...]] = {
    "cli": ("main", "ccn_threshold"),
    "states": ("parse_family", "make_state", "random_density_matrix"),
    "linalg": ("DensityMatrix", "partial_transpose", "trace_norm"),
    "realign": ("realign",),
    "hsbasis": ("decompose",),
    "criteria": (
        "full_report",
        "fidelity_optimize",
        "ppt_criterion",
        "fidelity_lower",
        "realigned_trace",
    ),
    "locc": ("monotonicity_probe",),
    "verify": ("suite_norms", "suite_sandwich", "suite_monotonicity", "suite_spectra"),
}

# (metric, unit); a metric "<layer>.<name>.<stat>" is computed from the spans of
# "<layer>.<name>", stat being calls (count), s (inclusive busy time) or
# self_s (busy time not covered by child spans)
PER_LAYER: tuple[tuple[str, str], ...] = (
    ("criteria.fidelity_optimize.calls", "count"),
    ("criteria.fidelity_optimize.s", "s"),
    ("criteria.full_report.calls", "count"),
    ("criteria.full_report.s", "s"),
    ("criteria.full_report.self_s", "s"),
    ("criteria.ppt_criterion.s", "s"),
    ("criteria.fidelity_lower.s", "s"),
    ("criteria.realigned_trace.calls", "count"),
    ("hsbasis.decompose.calls", "count"),
    ("hsbasis.decompose.s", "s"),
    ("hsbasis.decompose_per_report", "ratio"),
    ("realign.realign.calls", "count"),
    ("realign.realign.s", "s"),
    ("realign.realign_per_report", "ratio"),
    ("linalg.DensityMatrix.calls", "count"),
    ("linalg.DensityMatrix.s", "s"),
    ("linalg.partial_transpose.calls", "count"),
    ("linalg.trace_norm.calls", "count"),
    ("linalg.trace_norm.s", "s"),
    ("states.parse_family.s", "s"),
    ("states.make_state.calls", "count"),
    ("states.make_state.s", "s"),
    ("states.random_density_matrix.s", "s"),
    ("locc.monotonicity_probe.calls", "count"),
    ("locc.monotonicity_probe.s", "s"),
    ("cli.main.calls", "count"),
    ("cli.main.s", "s"),
    ("cli.main.self_s", "s"),
    ("cli.ccn_threshold.calls", "count"),
    ("cli.ccn_threshold.s", "s"),
    ("verify.suite_norms.s", "s"),
    ("verify.suite_sandwich.s", "s"),
    ("verify.suite_monotonicity.s", "s"),
    ("verify.suite_spectra.s", "s"),
    ("trace.overhead_s", "s"),
) + tuple((f"{layer}.errors", "count") for layer in TRACED)

# ratio metric -> span counted when it runs inside a full_report span, per full_report call
_PER_REPORT = {
    "hsbasis.decompose_per_report": "hsbasis.decompose",
    "realign.realign_per_report": "realign.realign",
}
_REPORT = "criteria.full_report"


class Tracer:
    """Records one span per call of every traced function while installed.

    A span is ``[name, start, end, parent index]`` (parent -1 at top level);
    spans stay in ``self.spans`` until the caller writes them out.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.errors = dict.fromkeys(TRACED, 0)
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def __enter__(self) -> "Tracer":
        try:
            self._install()
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._restore()

    def _wrap(self, name: str, layer: str, fn):
        spans, stack, errors = self.spans, self._stack, self.errors

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, time.perf_counter(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            except Exception:
                errors[layer] += 1
                raise
            finally:
                span[2] = time.perf_counter()
                stack.pop()

        return traced

    def _install(self) -> None:
        modules = [
            mod
            for key, mod in list(sys.modules.items())
            if key == "sepscope" or key.startswith("sepscope.")
        ]
        for layer, names in TRACED.items():
            home = sys.modules[f"sepscope.{layer}"]
            for name in names:
                qual = f"{layer}.{name}"
                orig = getattr(home, name, None)
                if orig is None:
                    self.missing.append(qual)
                elif isinstance(orig, type):
                    post_init = orig.__dict__.get("__post_init__")
                    if post_init is None:
                        self.missing.append(qual)
                        continue
                    self._undo.append((setattr, orig, "__post_init__", post_init))
                    orig.__post_init__ = self._wrap(qual, layer, post_init)
                else:
                    self._rebind(modules, orig, self._wrap(qual, layer, orig))

    def _rebind(self, modules, orig, wrapped) -> None:
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    self._undo.append((setattr, mod, attr, orig))
                    setattr(mod, attr, wrapped)
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        if item is orig:
                            self._undo.append((dict.__setitem__, value, key, orig))
                            value[key] = wrapped

    def _restore(self) -> None:
        while self._undo:
            put, target, key, orig = self._undo.pop()
            put(target, key, orig)


def pass_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics of one traced pass, keyed as in PER_LAYER.

    Metrics of a traced name that the package no longer defines are left out.
    """
    spans = tracer.spans
    calls: dict[str, int] = {}
    busy: dict[str, float] = {}
    self_time: dict[str, float] = {}
    child_time = [0.0] * len(spans)
    in_report: dict[str, int] = {}
    for _, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    for index, (name, start, end, parent) in enumerate(spans):
        calls[name] = calls.get(name, 0) + 1
        self_time[name] = self_time.get(name, 0.0) + (end - start) - child_time[index]
        ancestors = set()
        while parent >= 0:
            ancestors.add(spans[parent][0])
            parent = spans[parent][3]
        if name not in ancestors:  # nested calls of one function count once
            busy[name] = busy.get(name, 0.0) + (end - start)
        if _REPORT in ancestors:
            in_report[name] = in_report.get(name, 0) + 1

    reports = calls.get(_REPORT, 0)
    out: dict[str, float] = {}
    for metric, _ in PER_LAYER:
        if metric == "trace.overhead_s":
            continue
        if metric.endswith(".errors"):
            out[metric] = tracer.errors[metric.split(".")[0]]
            continue
        if metric in _PER_REPORT:
            name = _PER_REPORT[metric]
            if name not in tracer.missing and _REPORT not in tracer.missing:
                out[metric] = in_report.get(name, 0) / reports if reports else 0.0
            continue
        name, stat = metric.rsplit(".", 1)
        if name in tracer.missing:
            continue
        if stat == "calls":
            out[metric] = calls.get(name, 0)
        elif stat == "s":
            out[metric] = busy.get(name, 0.0)
        else:
            out[metric] = self_time.get(name, 0.0)
    return out


def median_metrics(passes: list[dict[str, float]]) -> dict[str, float]:
    """Median of each metric over the traced passes; counts repeat exactly,
    so they come from the last pass."""
    units = dict(PER_LAYER)
    return {
        key: passes[-1][key] if units[key] == "count" else statistics.median(p[key] for p in passes)
        for key in passes[0]
    }
