"""The benchmark's per-layer tracing reaches every layer it names.

``bench/tracing.py`` wraps module attributes of ``parsimid``; an attribute
that a refactor renames or removes would silently empty its layer metric.
The file is loaded by path because ``bench`` is not a package.
"""

import importlib.util
import sys
from pathlib import Path

import parsimid

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def load_tracing(monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    # dataclasses look the defining module up in sys.modules
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_every_traced_attribute_resolves(monkeypatch):
    tracing = load_tracing(monkeypatch)
    targets = [t for pairs in tracing.LAYERS.values() for t in pairs]
    assert targets
    tracer = tracing.Tracer(parsimid)
    with tracer.active():
        assert tracer.missing == []
        for module_name, attr in targets:
            assert callable(getattr(getattr(parsimid, module_name), attr))
