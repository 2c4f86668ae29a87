"""Outside-in tracer: spans and counters around tracesys layer functions.

The tracer replaces each traced function at every ``tracesys.*`` module
binding that holds it, because modules such as ``measure`` and ``report``
import functions by name; patching only the defining module would miss
those calls.  Spans (name, start, end, parent, request) are kept in memory
and summarised after the run.  Leaf hot loops are deliberately left
unwrapped: the wrapper costs about a microsecond per call.
"""

from __future__ import annotations

import functools
import sys
import time
from dataclasses import dataclass

# functions that open a span: "<module>.<function>" or "<module>.<Class>.<method>"
SPANS = (
    "cli.main",
    "specfile.parse_system",
    "petri.petri_to_system",
    "report.analyze_report",
    "spectral.determinant",
    "spectral.root_from_theta",
    "spectral.spectral_property_report",
    "spectral.growth_eval",
    "spectral.spectral_radius",
    "spectral.verify_inversion",
    "graphs.build_dsc",
    "graphs.build_adsc",
    "graphs.classify_nodes",
    "graphs.count_paths_table",
    "measure.uniform_measure",
    "measure.kernel_cocycle",
    "measure.mobius_transform",
    "measure.uniqueness_diagnostics",
    "sampling.UniformExecutionSampler.__init__",
    "sampling.UniformExecutionSampler.sample",
    "sampling.sample_mcsc",
)
# functions that are only counted: called thousands of times per analysis,
# their time stays in the caller's self time
COUNTED = ("poly.count_roots",)

SIZE_COUNTERS = (
    "spectral.theta_degree",
    "spectral.theta_max_bits",
    "graphs.dsc_nodes",
    "graphs.adsc_nodes",
    "graphs.adsc_arcs",
    "petri.markings",
    "report.json_bytes",
)


def metric_name(target: str) -> str:
    return target.replace(".__init__", ".init")


def per_layer_names() -> list[str]:
    names = []
    for target in SPANS:
        names += [metric_name(target) + ".calls", metric_name(target) + ".self_s"]
    names += [t + ".calls" for t in COUNTED]
    return names + list(SIZE_COUNTERS) + ["trace.overhead_ratio"]


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into the span list, -1 for a root
    request: int


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.calls: dict[str, int] = {}
        self.sizes: dict[str, int] = {}
        self.request = -1
        self._stack: list[int] = []

    def _note_size(self, name: str, value: int) -> None:
        self.sizes[name] = max(self.sizes.get(name, 0), value)

    def add_bytes(self, n: int) -> None:
        self.sizes["report.json_bytes"] = self.sizes.get("report.json_bytes", 0) + n

    def span_wrapper(self, name: str, fn):
        sizer = _SIZERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.calls[name] = self.calls.get(name, 0) + 1
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            span = Span(name, time.perf_counter(), 0.0, parent, self.request)
            self.spans.append(span)
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if sizer is not None:
                for key, value in sizer(args, result):
                    self._note_size(key, value)
            return result

        return wrapper

    def count_wrapper(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.calls[name] = self.calls.get(name, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    def summary(self) -> dict[str, float]:
        """calls and self seconds per traced function, plus size counters."""
        selfs = self_times(self.spans)
        out: dict[str, float] = {}
        for target in SPANS:
            out[metric_name(target) + ".calls"] = self.calls.get(target, 0)
            out[metric_name(target) + ".self_s"] = selfs.get(target, 0.0)
        for target in COUNTED:
            out[target + ".calls"] = self.calls.get(target, 0)
        for name in SIZE_COUNTERS:
            out[name] = self.sizes.get(name, 0)
        return out


def self_times(spans: list[Span]) -> dict[str, float]:
    """Per span name: total duration minus the time its child spans cover.

    Children of one span are merged as intervals, so overlapping children
    are not subtracted twice.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent >= 0:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out: dict[str, float] = {}
    for i, s in enumerate(spans):
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(i, [])):
            lo, hi = max(lo, s.start), min(hi, s.end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[s.name] = out.get(s.name, 0.0) + (s.end - s.start - covered)
    return out


def _theta_sizes(args, theta):
    yield "spectral.theta_degree", max(len(theta) - 1, 0)
    yield "spectral.theta_max_bits", max((abs(c).bit_length() for c in theta), default=0)


def _dsc_sizes(args, graph):
    yield "graphs.dsc_nodes", len(graph.nodes)


def _adsc_sizes(args, graph):
    yield "graphs.adsc_nodes", len(graph.nodes)
    yield "graphs.adsc_arcs", sum(len(out) for out in graph.succ)


def _petri_sizes(args, system):
    yield "petri.markings", len(system.states)


_SIZERS = {
    "spectral.determinant": _theta_sizes,
    "graphs.build_dsc": _dsc_sizes,
    "graphs.build_adsc": _adsc_sizes,
    "petri.petri_to_system": _petri_sizes,
}


class Installed:
    """Context manager: wrappers in place on entry, originals back on exit."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._undo: list[tuple[object, str, object]] = []

    def __enter__(self) -> Tracer:
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "tracesys" or name.startswith("tracesys."))]
        for target in SPANS + COUNTED:
            parts = target.split(".")
            owner = sys.modules["tracesys." + parts[0]]
            if len(parts) == 3:  # a method: patch the class attribute
                owner = getattr(owner, parts[1])
            original = getattr(owner, parts[-1])
            make = self.tracer.span_wrapper if target in SPANS else self.tracer.count_wrapper
            wrapper = make(target, original)
            if len(parts) == 3:
                self._patch(owner, parts[-1], wrapper)
                continue
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, attr, wrapper)
        return self.tracer

    def _patch(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()
