"""The benchmark's reference checks and workloads run against this package.

``bench/checks.py`` and ``bench/workloads.py`` call public names of
``parsimid`` (scenario factories, ``identify`` and its keywords, the
model and record types); a removed or renamed one would otherwise show up
only as a failed benchmark run.  The files are loaded by path because
``bench`` is not a package, and ``workloads`` imports ``checks`` by name.
"""

import importlib.util
import sys
from pathlib import Path

import parsimid

BENCH = Path(__file__).resolve().parents[1] / "bench"


def load(monkeypatch, name):
    spec = importlib.util.spec_from_file_location(name, BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses look the defining module up in sys.modules
    monkeypatch.setitem(sys.modules, name, module)
    spec.loader.exec_module(module)
    return module


def test_reference_checks_pass(monkeypatch):
    checks = load(monkeypatch, "checks")
    results = checks.reference_checks(parsimid, 0)
    assert results
    assert [r for r in results if not r[1]] == []


def test_every_workload_runs_a_clean_round(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    load(monkeypatch, "checks")
    workloads = load(monkeypatch, "workloads")
    # IdentifyLog replaces parsimid.benchmark.identify; monkeypatch restores it
    monkeypatch.setattr(parsimid.benchmark, "identify", parsimid.benchmark.identify)
    for name, build in workloads.WORKLOADS.items():
        stats = build(parsimid, 0).run_round(0)
        assert stats.attempted > 0, name
        assert stats.failures == [], name
        assert stats.problems == [], name


def test_mc_example1_times_one_identify_call_per_method(monkeypatch):
    # identify_<method>_ms reads the calls IdentifyLog sees on
    # parsimid.benchmark.identify; a trial reaching identify another way
    # would leave those metrics empty.
    monkeypatch.syspath_prepend(str(BENCH))
    load(monkeypatch, "checks")
    workloads = load(monkeypatch, "workloads")
    monkeypatch.setattr(parsimid.benchmark, "identify", parsimid.benchmark.identify)
    stats = workloads.McExample1(parsimid, 0).run_round(0)
    assert sorted(method for method, _ in stats.identify_s) == ["classical", "parsim", "parsim_opt"]


def test_a_traced_round_of_each_workload_reaches_every_layer(monkeypatch):
    # A layer called other than through the names bench/tracing.py wraps
    # would leave its per-layer metric empty without failing anything else.
    monkeypatch.syspath_prepend(str(BENCH))
    load(monkeypatch, "checks")
    workloads = load(monkeypatch, "workloads")
    tracing = load(monkeypatch, "tracing")
    monkeypatch.setattr(parsimid.benchmark, "identify", parsimid.benchmark.identify)
    names = {}
    for name, build in workloads.WORKLOADS.items():
        tracer = tracing.Tracer(parsimid)
        build(parsimid, 0).run_round(0, tracer)
        assert tracer.missing == [], name
        names[name] = [s.name for s in tracer.spans]
    assert set(tracing.LAYERS) <= {n for spans in names.values() for n in spans}
    # One mc-example1 trial prepares its record once for its three methods,
    # AIC leaves the order-30 weighting fit in it, and the order-p fit is
    # read from the blocks' R factor.
    want = {"data_blocks.assemble_blocks": 1, "realization.weight_w2": 1, "arx_pre.fit_arx": 0}
    assert {layer: names["mc-example1"].count(layer) for layer in want} == want
