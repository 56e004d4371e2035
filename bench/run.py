#!/usr/bin/env python3
"""parsimid benchmark: Monte Carlo trial time, identify latency per method,
and traced per-module spans.

Run from the root of a checkout:

    python3 bench/run.py --workload mc-example1 --seed 1 --seconds 20 --trace 0

Workloads: mc-example1, mc-example3, identify-n2000 (see README.md).
``--trace 0`` measures the end-to-end metrics; ``--trace 1`` is the separate
traced run that gives the per-layer metrics and the tracing overhead.  The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The run exits non-zero when a
reference check or a property check fails, or when parsimid cannot be
imported from ``src/`` of this checkout.
"""

import os

# One BLAS/OpenMP thread, set before numpy is first imported.
for _var in (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
):
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import statistics
import subprocess
import sys
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
OUT_DIR = BENCH_DIR / "out"

SETUP_PROBES = 3  # set-up is timed in this many fresh interpreters
SETUP_PROBE_TIMEOUT_S = 120
MIN_TRIALS = 40  # enough for a tail percentile with ten trials beyond it
TAIL_BEYOND = 10

END_TO_END_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "trial_ms": "ms",
    "trial_tail_ms": "ms",
    "identify_parsim_ms": "ms",
    "identify_parsim_opt_ms": "ms",
}

# Per-layer metric -> (span name, what is reported).  "ms" is self time per
# unit of work (a trial in the mc workloads, an identify call in
# identify-n2000); "calls" is calls per unit of work.
LAYER_METRICS = {
    "arx_pre.select_order_aic_ms": ("arx_pre.select_order_aic", "ms"),
    "arx_pre.fit_arx_ms": ("arx_pre.fit_arx", "ms"),
    "arx_pre.fit_arx_calls": ("arx_pre.fit_arx", "calls"),
    "arx_pre.markov_convert_ms": ("arx_pre.markov_convert", "ms"),
    "data_blocks.assemble_blocks_ms": ("data_blocks.assemble_blocks", "ms"),
    "data_blocks.assemble_blocks_calls": ("data_blocks.assemble_blocks", "calls"),
    "estimators.parsim_ols_ms": ("estimators.parsim_ols", "ms"),
    "estimators.parsim_wls_ms": ("estimators.parsim_wls", "ms"),
    "estimators.classical_projection_ms": ("estimators.classical_projection", "ms"),
    "estimators.ssarx_estimate_ms": ("estimators.ssarx_estimate", "ms"),
    "realization.weight_w2_ms": ("realization.weight_w2", "ms"),
    "realization.weight_w2_calls": ("realization.weight_w2", "calls"),
    "realization.weighted_svd_realize_ms": ("realization.weighted_svd_realize", "ms"),
    "realization.extract_ac_ms": ("realization.extract_ac", "ms"),
    "realization.estimate_bk_ms": ("realization.estimate_bk", "ms"),
    "realization.identify_self_ms": ("realization.identify", "ms"),
    "ss_model.simulate_ms": ("ss_model.simulate", "ms"),
    "ss_model.impulse_response_ms": ("ss_model.impulse_response", "ms"),
    "benchmark.random_system_ms": ("benchmark.random_system", "ms"),
    "benchmark.gen_rbs_ms": ("benchmark.gen_rbs", "ms"),
    "benchmark.trial_self_ms": ("benchmark.trial", "ms"),
}
# classical and ssarx do not run on every workload, so their identify
# latency is reported by the traced run, from its untraced rounds.
TRACED_IDENTIFY_METHODS = ("classical", "ssarx")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("mc-example1", "mc-example3", "identify-n2000"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    return args


def import_parsimid():
    """Import parsimid from this checkout's src/, and from nowhere else."""
    sys.path.insert(0, str(SRC))
    try:
        import parsimid
    except ImportError as err:
        sys.exit(f"bench: cannot import parsimid from {SRC}: {err}")
    if Path(parsimid.__file__).resolve().parent != SRC / "parsimid":
        sys.exit(f"bench: imported parsimid from {parsimid.__file__}, not from {SRC}")
    return parsimid


def environment(args) -> dict:
    import numpy as np
    import scipy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def time_setup(args, reference) -> list[float]:
    """Wall time of SETUP_PROBES fresh interpreters that import and set up.

    The speed reference is measured before and after each probe."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-probe"]
    times = []
    for _ in range(SETUP_PROBES):
        reference.measure()
        t0 = perf_counter()
        done = subprocess.run(cmd, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              text=True, timeout=SETUP_PROBE_TIMEOUT_S)
        times.append(perf_counter() - t0)
        reference.measure()
        if done.returncode != 0:
            sys.exit(f"bench: set-up probe failed ({done.returncode}): {done.stderr.strip()}")
    return times


class Totals:
    """What the rounds of one kind (untraced or traced) add up to.

    Each time is kept with the number of its round, counted from 0, which
    is also the index of the speed reference measured before that round.
    """

    def __init__(self):
        self.rounds = 0
        self.trial_s: list[tuple[int, float]] = []
        self.identify_s: dict[str, list[tuple[int, float]]] = defaultdict(list)
        self.attempted = 0
        self.failures: list[tuple[str, str, str]] = []
        self.problems: list[str] = []

    def add(self, stats) -> None:
        self.trial_s += [(self.rounds, seconds) for seconds in stats.trial_s]
        for method, seconds in stats.identify_s:
            self.identify_s[method].append((self.rounds, seconds))
        self.rounds += 1
        self.attempted += stats.attempted
        self.failures += stats.failures
        self.problems += stats.problems


def _ms(samples: list[tuple[int, float]], scales=None) -> list[float]:
    """Times in ms, each scaled by its round's factor when ``scales`` is given."""
    return [1e3 * s * (scales[r] if scales else 1.0) for r, s in samples]


def tail(samples: list[float]) -> tuple[float, float]:
    """The highest sample with TAIL_BEYOND samples above it, and its percentile."""
    ordered = sorted(samples)
    i = len(ordered) - TAIL_BEYOND - 1
    return ordered[i], 100.0 * (i + 1) / len(ordered)


def _rounds(seconds: float, totals: Totals, reference):
    """Round numbers 1, 2, ... (round 0 is the warm-up) until ``seconds``
    have passed and ``totals`` holds MIN_TRIALS trials.  The speed
    reference is measured before each round."""
    start = perf_counter()
    k = 1
    while perf_counter() - start < seconds or len(totals.trial_s) < MIN_TRIALS:
        reference.measure()
        yield k
        k += 1


def run_untraced(workload, reference, seconds: float) -> Totals:
    totals = Totals()
    for k in _rounds(seconds, totals, reference):
        totals.add(workload.run_round(k))
    return totals


def run_traced(workload, tracer, reference, seconds: float):
    """Each round runs twice on the same inputs, once untraced and once
    traced, in alternating order.  Returns both totals and the traced minus
    untraced time of each trial."""
    plain, traced, overhead = Totals(), Totals(), []
    for k in _rounds(seconds, traced, reference):
        runs = {}
        for is_traced in ((False, True) if k % 2 == 0 else (True, False)):
            runs[is_traced] = workload.run_round(k, tracer if is_traced else None)
        plain.add(runs[False])
        traced.add(runs[True])
        overhead += [t - u for t, u in zip(runs[True].trial_s, runs[False].trial_s)]
    return plain, traced, overhead


def end_to_end(setup_s, setup_scale: float, totals: Totals, scales: list[float]):
    """End-to-end metrics at the reference speed, their raw values, and
    their sample counts.  ``scales`` holds each round's speed factor."""

    def stats_of(scales):
        trial = _ms(totals.trial_s, scales)
        identify = {m: _ms(totals.identify_s[m], scales) for m in ("parsim", "parsim_opt")}
        return {
            "trial_ms": statistics.median(trial),
            "trial_tail_ms": tail(trial)[0],
            "identify_parsim_ms": statistics.median(identify["parsim"]),
            "identify_parsim_opt_ms": statistics.median(identify["parsim_opt"]),
        }

    raw = {"setup_s": statistics.median(setup_s), **stats_of(None)}
    values = {
        "setup_s": raw["setup_s"] * setup_scale,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        **stats_of(scales),
    }
    samples = {
        "setup_s": len(setup_s),
        "peak_rss_mb": 1,
        "trial_ms": len(totals.trial_s),
        "trial_tail_ms": len(totals.trial_s),
        "trial_tail_percentile": tail(_ms(totals.trial_s))[1],
        "identify_parsim_ms": len(totals.identify_s["parsim"]),
        "identify_parsim_opt_ms": len(totals.identify_s["parsim_opt"]),
    }
    return {name: values[name] for name in END_TO_END_UNITS}, raw, samples


def per_layer(tracing, tracer, plain: Totals, traced: Totals, overhead, unit: str, scale: float):
    """Per-layer metrics at the reference speed, and the trace detail."""
    total_s, calls = tracing.self_times(tracer.spans)
    if unit == "trial":
        n_units = len(traced.trial_s)
    else:
        n_units = sum(len(v) for v in traced.identify_s.values()) + len(traced.failures)
    values = {}
    for metric, (span, kind) in LAYER_METRICS.items():
        if kind == "ms":
            values[metric] = scale * 1e3 * total_s.get(span, 0.0) / n_units
        else:
            values[metric] = calls.get(span, 0) / n_units
    for method in TRACED_IDENTIFY_METHODS:
        ms = _ms(plain.identify_s.get(method, []))
        values[f"identify_{method}_ms"] = scale * statistics.median(ms) if ms else 0.0
    values["trace.overhead_ms"] = scale * 1e3 * statistics.median(overhead)
    detail = {
        "unit_of_work": unit,
        "units": n_units,
        "untraced_trial_ms": scale * statistics.median(_ms(plain.trial_s)),
        "traced_trial_ms": scale * statistics.median(_ms(traced.trial_s)),
        "traced_trial_mean_ms": scale * statistics.fmean(_ms(traced.trial_s)),
        "layer_self_sum_ms": scale * 1e3 * sum(total_s.values()) / n_units,
        "spans": {name: {"self_ms_per_unit": scale * 1e3 * total_s[name] / n_units,
                         "calls_per_unit": calls[name] / n_units} for name in sorted(total_s)},
        "not_reached": sorted(set(tracing.LAYERS) - set(calls)),
        "missing_attributes": tracer.missing,
    }
    return values, detail


def unit_of(name: str) -> str:
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    return "count" if name.endswith("_calls") else "ms"


def main(argv=None) -> int:
    args = parse_args(argv)
    ps = import_parsimid()
    sys.path.insert(0, str(BENCH_DIR))
    import checks
    import speed
    import tracing
    import workloads

    if args.setup_probe:
        workloads.WORKLOADS[args.workload](ps, args.seed)
        return 0

    env = environment(args)
    print("env " + json.dumps(env, sort_keys=True), flush=True)
    setup_reference, reference = speed.SpeedReference(), speed.SpeedReference()
    setup_s = time_setup(args, setup_reference)
    workload = workloads.WORKLOADS[args.workload](ps, args.seed)

    all_ok = True
    for name, ok, detail in checks.reference_checks(ps, args.seed):
        all_ok &= ok
        print(f"check {name}: {'ok' if ok else 'FAILED'} ({detail})", flush=True)
    if not all_ok:
        print("bench: a reference check failed", file=sys.stderr)
        return 1
    warm = workload.run_round(0)  # first calls pay lazy imports and allocations
    problems = list(warm.problems)

    unit = "identify call" if args.workload == "identify-n2000" else "trial"
    report = {"env": env, "setup_s_samples": setup_s}
    if args.trace:
        tracer = tracing.Tracer(ps)
        plain, traced, overhead = run_traced(workload, tracer, reference, args.seconds)
        metrics, detail = per_layer(tracing, tracer, plain, traced, overhead, unit,
                                    reference.scale())
        counted = [plain, traced]
        report["trace"] = detail
        report["spans"] = [[s.name, s.start, s.end, s.parent] for s in tracer.spans]
        print("trace " + json.dumps({k: v for k, v in detail.items() if k != "spans"}), flush=True)
        for name in sorted(detail["spans"]):
            row = detail["spans"][name]
            print(f"layer {name}: {row['self_ms_per_unit']:.4f} ms self, "
                  f"{row['calls_per_unit']:.4f} calls per {unit}")
    else:
        totals = run_untraced(workload, reference, args.seconds)
        metrics, raw, samples = end_to_end(setup_s, setup_reference.scale(), totals,
                                           reference.local_scales())
        counted = [totals]
        report.update(samples=samples, raw=raw)
        print("samples " + json.dumps(samples, sort_keys=True), flush=True)
        print("raw " + json.dumps(raw, sort_keys=True), flush=True)
    speed_info = {
        "reference_ms": speed.REFERENCE_MS,
        "measured_ms": reference.median_ms(),
        "measured_setup_ms": setup_reference.median_ms(),
        "samples": len(reference.samples),
    }
    report["speed_reference"] = speed_info
    print("speed_reference " + json.dumps(speed_info, sort_keys=True), flush=True)

    attempted = sum(t.attempted for t in counted)
    failures = [f for t in counted for f in t.failures]
    problems += [p for t in counted for p in t.problems]
    grouped = Counter(f"{method} {stage} {category}" for method, stage, category in failures)
    print("failures " + json.dumps(dict(sorted(grouped.items()))), flush=True)
    for problem in problems[:20]:
        print(f"property FAILED: {problem}", flush=True)
    for name, value in metrics.items():
        print(f"metric {name} = {value!r} {unit_of(name)}", flush=True)

    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit_of(name)} for name, value in metrics.items()},
    }
    report.update(result=result, failures=dict(grouped), problems=problems)
    OUT_DIR.mkdir(exist_ok=True)
    out = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(report) + "\n")
    print(json.dumps(result), flush=True)
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
