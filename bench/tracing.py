"""In-memory spans around calls into parsimid's layer functions.

The program reaches each layer function through a module attribute (for
example ``parsimid.benchmark`` holds its own reference to
``select_order_aic``).  A :class:`Tracer` replaces those attributes with
wrappers that record a span per call and restores them afterwards, so no
file of the library changes.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter

# Layer name -> the (module, attribute) pairs through which the program
# reaches it.  Every layer function is a leaf here except identify, whose
# children are the pipeline stages, so its time is reported as self time.
LAYERS = {
    "arx_pre.select_order_aic": [("benchmark", "select_order_aic")],
    "arx_pre.fit_arx": [("realization", "fit_arx")],
    "arx_pre.markov_convert": [
        ("realization", "predictor_to_innovations"),
        ("realization", "predictor_to_innovations_g"),
    ],
    "data_blocks.assemble_blocks": [("realization", "assemble_blocks")],
    "estimators.parsim_ols": [("realization", "parsim_ols")],
    "estimators.parsim_wls": [("realization", "parsim_wls")],
    "estimators.classical_projection": [("realization", "classical_projection")],
    "estimators.ssarx_estimate": [("realization", "ssarx_estimate")],
    "realization.weight_w2": [("realization", "weight_w2")],
    "realization.weighted_svd_realize": [("realization", "weighted_svd_realize")],
    "realization.extract_ac": [("realization", "extract_ac")],
    "realization.estimate_bk": [("realization", "estimate_bk")],
    "realization.identify": [("benchmark", "identify"), ("realization", "identify")],
    "ss_model.simulate": [("benchmark", "simulate")],
    "ss_model.impulse_response": [("benchmark", "impulse_response")],
    "benchmark.random_system": [("benchmark", "random_system")],
    "benchmark.gen_rbs": [("benchmark", "gen_rbs")],
}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a root span


class Tracer:
    """Records a span for each call into the layers of :data:`LAYERS`."""

    def __init__(self, package):
        self._package = package
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        """Span around a call that the benchmark itself makes."""
        idx = len(self.spans)
        self.spans.append(Span(name, perf_counter(), 0.0, self._stack[-1] if self._stack else -1))
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx].end = perf_counter()

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    @contextmanager
    def active(self):
        """Install the wrappers for the duration of the block."""
        self.missing = []
        for name, targets in LAYERS.items():
            for module_name, attr in targets:
                module = getattr(self._package, module_name)
                fn = getattr(module, attr, None)
                if fn is None:
                    self.missing.append(f"{module_name}.{attr}")
                    continue
                self._saved.append((module, attr, fn))
                setattr(module, attr, self._wrap(name, fn))
        try:
            yield self
        finally:
            while self._saved:
                module, attr, fn = self._saved.pop()
                setattr(module, attr, fn)


def self_times(spans: list[Span]) -> tuple[dict[str, float], dict[str, int]]:
    """Total self time (s) and call count per span name.

    A span's self time is its duration minus the part its direct children
    cover; calls are sequential, so the children never overlap.
    """
    covered = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            covered[s.parent] += s.end - s.start
    total: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    for s, cov in zip(spans, covered):
        total[s.name] += (s.end - s.start) - cov
        calls[s.name] += 1
    return total, calls
