"""The three workloads.  Each is a closed loop with one caller.

A workload is built from its seed (set-up) and then runs rounds.  A round
is a fixed group of operations, so the share of failed operations is the
same in every run whatever the seed and the run length.  ``run_round(k)``
runs round k and returns a :class:`RoundStats`; when a ``tracer`` is
passed, its wrappers are active around the round's timed operations.
"""

from __future__ import annotations

import functools
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np
from scipy.signal import lfilter

import checks

# Trial i of a run uses master seed SEED_STRIDE * seed + i, so runs with
# different seeds never share a trial.
SEED_STRIDE = 1_000_000


@dataclass
class RoundStats:
    trial_s: list[float] = field(default_factory=list)
    identify_s: list[tuple[str, float]] = field(default_factory=list)  # (method, seconds)
    attempted: int = 0
    failures: list[tuple[str, str, str]] = field(default_factory=list)  # (method, stage, category)
    problems: list[str] = field(default_factory=list)


def _stage_of(message: str) -> str:
    """The pipeline stage that ``identify`` prefixes to its error messages."""
    return message.split(":", 1)[0] if ":" in message else "-"


@contextmanager
def _traced(tracer, name: str):
    """The tracer's wrappers installed, inside a root span, when tracing."""
    if tracer is None:
        yield
        return
    with tracer.active(), tracer.span(name):
        yield


def _category_of(err: Exception) -> str:
    return getattr(err, "category", type(err).__name__)


class IdentifyLog:
    """Times the ``identify`` calls that the Monte Carlo harness makes.

    Installed once on ``parsimid.benchmark.identify``; the cost per call is
    two clock reads and a list append.
    """

    def __init__(self, bench_module):
        self.calls: list[tuple[str, float, object]] = []  # (method, s, result or exception)
        inner = bench_module.identify

        @functools.wraps(inner)
        def timed(rec, cfg, *args, **kwargs):
            t0 = perf_counter()
            try:
                result = inner(rec, cfg, *args, **kwargs)
            except Exception as err:
                self.calls.append((cfg.method, perf_counter() - t0, err))
                raise
            self.calls.append((cfg.method, perf_counter() - t0, result))
            return result

        bench_module.identify = timed

    def drain(self) -> list[tuple[str, float, object]]:
        calls, self.calls = self.calls, []
        return calls


class MonteCarloWorkload:
    """Rounds of one-trial ``monte_carlo`` calls, one per scenario."""

    def __init__(self, ps, seed: int, scenarios):
        self.ps = ps
        self.seed = seed
        self.scenarios = scenarios
        self.log = IdentifyLog(ps.benchmark)

    def _trial(self, index: int, sc, stats: RoundStats, tracer) -> None:
        master = SEED_STRIDE * self.seed + index
        with _traced(tracer, "benchmark.trial"):
            t0 = perf_counter()
            report = self.ps.monte_carlo(sc, master)
            stats.trial_s.append(perf_counter() - t0)
        stats.attempted += len(report.rows)
        errors = {}
        for method, seconds, outcome in self.log.drain():
            if isinstance(outcome, Exception):
                errors[method] = outcome
                continue
            stats.identify_s.append((method, seconds))
            problem = checks.result_problem(outcome)
            if problem:
                stats.problems.append(f"trial {master} {method}: {problem}")
        problem = checks.rows_problem(report)
        if problem:
            stats.problems.append(f"trial {master}: {problem}")
        for row in report.rows:
            if row.failure is not None:
                err = errors.get(row.method)
                category = _category_of(err) if err is not None else "-"
                stats.failures.append((row.method, _stage_of(row.failure), category))

    def run_round(self, k: int, tracer=None) -> RoundStats:
        stats = RoundStats()
        for j, sc in enumerate(self.scenarios):
            self._trial(k * len(self.scenarios) + j, sc, stats, tracer)
        return stats


class McExample1(MonteCarloWorkload):
    """Paper Example 1 trials; each round adds one fixed SSARX fault probe.

    SSARX is left out of the random trials: it fails whenever AIC picks
    p < f - 1, which depends on the seed.  The probe is the SSARX
    identification of one fixed record (the seed-2 record of
    ``parsimid simulate --system example1 --noise-variance 4``) on which
    AIC picks p = 8 < f - 1.  It fails every round while that fault
    stands.  It is neither traced nor part of any timing.
    """

    METHODS = ("parsim", "parsim_opt", "classical")
    PROBE_SEED = 2

    def __init__(self, ps, seed: int):
        super().__init__(ps, seed, [ps.example1_scenario(trials=1, methods=self.METHODS)])
        system = ps.example1_system()
        rng = np.random.default_rng(self.PROBE_SEED)
        u = rng.standard_normal(2000)
        e = np.sqrt(system.sigma_e2) * rng.standard_normal(2000)
        self.probe_rec = ps.SignalRecord(u=u, y=ps.simulate(system, u, e))
        p = ps.select_order_aic(self.probe_rec, ps.default_aic_grid(3, 2000))
        self.probe_cfg = ps.RealizationConfig(n_x=3, f=10, p=p, method="ssarx")

    def run_round(self, k: int, tracer=None) -> RoundStats:
        stats = super().run_round(k, tracer)
        stats.attempted += 1
        try:
            self.ps.realization.identify(self.probe_rec, self.probe_cfg)
        except (self.ps.ParsimidError, np.linalg.LinAlgError) as err:
            stats.failures.append(("ssarx", _stage_of(str(err)), _category_of(err)))
        return stats


class McExample3(MonteCarloWorkload):
    """Random sixth-order systems, one trial per noise variance in each round."""

    VARIANCES = (1.0, 10.0, 100.0)

    def __init__(self, ps, seed: int):
        super().__init__(ps, seed, [ps.example3_scenario(v, trials=1) for v in self.VARIANCES])


class IdentifyN2000:
    """Direct ``identify`` calls on noisy Example 2 records made in set-up.

    Round k runs the four methods in turn on record k mod RECORDS; the
    round's time is the trial time of this workload.
    """

    RECORDS = 16
    N = 2000
    F, P, N_X = 10, 20, 2

    def __init__(self, ps, seed: int):
        self.ps = ps
        system, input_filter = ps.example2_system()
        rng = np.random.default_rng([seed, self.N])
        self.records = []
        for _ in range(self.RECORDS):
            u = lfilter(input_filter, [1.0], rng.standard_normal(self.N))
            e = np.sqrt(system.sigma_e2) * rng.standard_normal(self.N)
            self.records.append(ps.SignalRecord(u=u, y=ps.simulate(system, u, e)))
        self.cfgs = [
            ps.RealizationConfig(n_x=self.N_X, f=self.F, p=self.P, method=m) for m in ps.METHODS
        ]

    def run_round(self, k: int, tracer=None) -> RoundStats:
        stats = RoundStats()
        rec = self.records[k % self.RECORDS]
        results = []
        with tracer.active() if tracer else nullcontext():
            t_round = perf_counter()
            for cfg in self.cfgs:
                t0 = perf_counter()
                try:
                    # Looked up on the module each call, so a tracer's wrapper applies.
                    result = self.ps.realization.identify(rec, cfg)
                except (self.ps.ParsimidError, np.linalg.LinAlgError) as err:
                    stats.failures.append((cfg.method, _stage_of(str(err)), _category_of(err)))
                    continue
                stats.identify_s.append((cfg.method, perf_counter() - t0))
                results.append((cfg.method, result))
            stats.trial_s.append(perf_counter() - t_round)
        stats.attempted += len(self.cfgs)
        for method, result in results:
            problem = checks.result_problem(result)
            if problem:
                stats.problems.append(f"record {k % self.RECORDS} {method}: {problem}")
        return stats


WORKLOADS = {
    "mc-example1": McExample1,
    "mc-example3": McExample3,
    "identify-n2000": IdentifyN2000,
}
