"""Command-line front end: identify, simulate, and benchmark.

Exit codes: 0 success, 1 runtime failure, 2 usage error (a ConfigError
raised while parsing the command line), 66 missing input file.  The input
file (``--in`` or ``--model``) is checked once, before any work.  A
runtime failure prints "CATEGORY: stage: message" to stderr: a
stable category (EXCITATION, RANK, CONFIG, RUNTIME) and the stage that
failed (``aic``, one of ``identify``'s, ``simulate``).  A malformed record
or model file prints "CONFIG: message", and a file that cannot be read or
written "IO: message".  The PARSIM_LOG environment variable (error, info,
debug) sets the stderr log level.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
from dataclasses import replace
from functools import partial
from pathlib import Path

import numpy as np

from . import benchmark as bench
from .arx_pre import default_aic_grid
from .errors import ConfigError, ParsimidError, _stage
from .estimators import METHODS
from .realization import PreparedRecord, RealizationConfig, identify, select_order_aic
from .ss_model import SignalRecord, _integer, _variance, load_model, save_model, simulate

log = logging.getLogger("parsimid")

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_USAGE = 2
EXIT_NOINPUT = 66  # sysexits EX_NOINPUT: an input file does not exist

_METHOD_FLAGS = {m.replace("_", "-"): m for m in METHODS}
# Each --scenario's Scenario factory and, for a sweep, its runner, plot-data
# writer, plot file stem and report label.  A sweep's Scenario stands for
# all of its scenarios, which take the same trials and methods.
_SCENARIOS = {
    "example1": (bench.example1_scenario,),
    "example2": (bench.example2_scenario,),
    "example1-sweep": (partial(bench.example1_scenario, methods=bench.BANK_METHODS),
                       bench.run_error_vs_n, bench.write_error_vs_n_csv, "error_g_vs_n", "n{}"),
    "example3": (partial(bench.example3_scenario, bench.JOINT_FIT_NOISE_LEVELS[0]),
                 bench.run_joint_fit, bench.write_joint_fit_csv, "joint_fit", "var{:g}"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="parsimid",
        description="Subspace identification of SISO state-space models.",
        epilog="Exit codes: 0 success, 1 runtime failure, 2 usage error, 66 missing input file.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    ident = sub.add_parser("identify", help="fit a state-space model to a t,u,y CSV record")
    ident.add_argument("--method", choices=sorted(_METHOD_FLAGS), required=True)
    ident.add_argument("--order", type=int, required=True, help="model order n_x")
    ident.add_argument("--f", type=int, default=10, help="future horizon (default 10)")
    ident.add_argument("--p", default="aic",
                       help="past horizon: integer, or 'aic' for automatic selection (default)")
    ident.add_argument("--in", dest="source", required=True, metavar="CSV")
    ident.add_argument("--out", dest="out_path", required=True, metavar="JSON")

    sim = sub.add_parser("simulate", help="simulate a model and write a t,u,y CSV record")
    src = sim.add_mutually_exclusive_group(required=True)
    src.add_argument("--system", choices=("example1", "example2"))
    src.add_argument("--model", dest="source", metavar="JSON")
    sim.add_argument("--input-kind", choices=("impulse", "gaussian", "rbs"), default="gaussian")
    sim.add_argument("--n-samples", type=int, default=2000)
    sim.add_argument("--noise-variance", type=float, default=0.0)
    sim.add_argument("--rbs-band", type=float, default=0.1, help="RBS cutoff as Nyquist fraction")
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--out", dest="out_path", required=True, metavar="CSV")

    mark = sub.add_parser("benchmark", help="run a Monte Carlo study and write plot data")
    mark.add_argument("--scenario", choices=_SCENARIOS, required=True)
    mark.add_argument("--trials", type=int, default=50)
    mark.add_argument("--seed", type=int, default=0)
    mark.add_argument("--methods", default=None,
                      help="comma-separated subset, e.g. parsim,parsim-opt")
    mark.add_argument("--jobs", type=int, default=1, help="worker processes for trials")
    mark.add_argument("--out", dest="out_path", required=True, metavar="DIR")
    return parser


def parse_args(argv) -> argparse.Namespace:
    """Parse, validate and normalise; raises ConfigError (exit 2).

    ``method``, ``methods`` and ``p`` are normalised.  The library objects
    own their rules: ``identify`` gets ``config``, its RealizationConfig
    (p = order + 1, the lowest AIC order, stands in until AIC picks p), and
    ``benchmark`` gets ``scenario_run``, the Scenario it runs (for a sweep,
    one that stands for all of its scenarios).  ``--seed``, ``--n-samples``,
    ``--jobs``, ``--noise-variance`` and ``--rbs-band`` take the library's
    integer, variance and band rules, whose ConfigErrors pass through.
    """
    ns = build_parser().parse_args(argv)
    if ns.command == "identify":
        if ns.p != "aic":
            try:
                ns.p = int(ns.p)
            except ValueError:
                raise ConfigError(f"--p must be an integer or 'aic', got {ns.p!r}") from None
        ns.method = _METHOD_FLAGS[ns.method]
        p = ns.order + 1 if ns.p == "aic" else ns.p
        ns.config = RealizationConfig(n_x=ns.order, f=ns.f, p=p, method=ns.method)
        return ns
    _integer(ns.seed, "--seed", 0)
    if ns.command == "simulate":
        _integer(ns.n_samples, "--n-samples", 1)
        _variance(ns.noise_variance, "--noise-variance")
        bench._band(ns.rbs_band, "--rbs-band")
        return ns
    _integer(ns.jobs, "--jobs", 1)
    parts = [m.strip() for m in (ns.methods or "").split(",") if m.strip()]
    unknown = [m for m in parts if m not in _METHOD_FLAGS]
    if unknown:
        raise ConfigError(f"unknown methods: {', '.join(unknown)}")
    ns.methods = tuple(_METHOD_FLAGS[m] for m in parts)
    methods = {"methods": ns.methods} if ns.methods else {}
    ns.scenario_run = _SCENARIOS[ns.scenario][0](trials=ns.trials, **methods)
    return ns


def _read_record(path: str) -> SignalRecord:
    with open(path, encoding="utf-8") as fh:
        # A UnicodeDecodeError from either read is a ValueError too.
        try:
            header = fh.readline().strip()
            if header.replace(" ", "") != "t,u,y":
                raise ConfigError(f"expected CSV header 't,u,y', got {header!r}")
            rows = fh.readlines()
            if not any(line.split("#")[0].strip() for line in rows):
                raise ConfigError(f"{path} has no samples below its 't,u,y' header")
            data = np.loadtxt(rows, delimiter=",", ndmin=2)
        except ValueError as err:
            raise ConfigError(f"could not parse {path}: {err}") from err
    if data.shape[1] != 3:
        raise ConfigError(f"expected 3 columns (t,u,y), got {data.shape[1]}")
    return SignalRecord(u=data[:, 1], y=data[:, 2])


def _write_record(path: str, u: np.ndarray, y: np.ndarray) -> None:
    lines = ["t,u,y"]
    for t, (ut, yt) in enumerate(zip(u, y)):
        lines.append(f"{t},{float(ut)!r},{float(yt)!r}")
    Path(path).write_text("\n".join(lines) + "\n")


def _run_identify(args: argparse.Namespace) -> int:
    rec = _read_record(args.source)
    # AIC leaves its top-order fit in the prepared record for identify.
    prepared = PreparedRecord(rec)
    config = args.config
    if args.p == "aic":
        with _stage("aic"):
            grid = default_aic_grid(args.order, len(rec))
            config = replace(config, p=select_order_aic(prepared, grid))
        log.info("AIC selected past horizon p=%d from grid %d..%d", config.p, grid[0], grid[-1])
    result = identify(prepared, config)
    save_model(result.model, args.out_path)
    log.info("singular values: %s", np.array2string(result.singular_values, precision=4))
    if not result.diagnostics["stable"]:
        log.warning("identified model is unstable (spectral radius %.4f)",
                    result.diagnostics["spectral_radius"])
    log.info("model written to %s", args.out_path)
    return EXIT_OK


def _run_simulate(args: argparse.Namespace) -> int:
    if args.source is not None:
        model = load_model(args.source)
    elif args.system == "example1":
        model = bench.example1_system()
    else:
        model, _ = bench.example2_system()

    rng = np.random.default_rng(args.seed)
    n = args.n_samples
    if args.input_kind == "impulse":
        u = np.zeros(n)
        u[0] = 1.0
    elif args.input_kind == "gaussian":
        u = rng.standard_normal(n)
    else:
        u = bench.gen_rbs(n, args.rbs_band, args.seed)
    e = np.sqrt(args.noise_variance) * rng.standard_normal(n)
    with _stage("simulate"):
        y = simulate(model, u, e)
    _write_record(args.out_path, u, y)
    return EXIT_OK


def _run_benchmark(args: argparse.Namespace) -> int:
    out = Path(args.out_path)
    out.mkdir(parents=True, exist_ok=True)
    _, *sweep = _SCENARIOS[args.scenario]
    if sweep:
        run_sweep, write_plot_data, plot_file, label = sweep
        reports = run_sweep(trials=args.trials, master_seed=args.seed,
                            methods=args.scenario_run.methods, jobs=args.jobs)
        write_plot_data(reports, out / f"{plot_file}.csv")
        for key, rep in sorted(reports.items()):
            bench.write_trials_csv(rep, out / f"trials_{label.format(key)}.csv")
            bench.write_aggregates_json(rep, out / f"aggregates_{label.format(key)}.json")
    else:
        report = bench.monte_carlo(args.scenario_run, args.seed, jobs=args.jobs)
        bench.write_trials_csv(report, out / "trials.csv")
        bench.write_aggregates_json(report, out / "aggregates.json")
        for method, entry in sorted(report.aggregates().items()):
            if "fit_median" in entry:
                log.info("%s: median FIT %.2f (%d failures)",
                         method, entry["fit_median"], entry["failures"])
    return EXIT_OK


def run(args: argparse.Namespace) -> int:
    """Execute the namespace from :func:`parse_args`; returns the process exit code."""
    source = getattr(args, "source", None)
    if source is not None and not Path(source).exists():
        print(f"IO: input file not found: {source}", file=sys.stderr)
        return EXIT_NOINPUT
    try:
        if args.command == "identify":
            return _run_identify(args)
        if args.command == "simulate":
            return _run_simulate(args)
        return _run_benchmark(args)
    except OSError as err:
        print(f"IO: {err}", file=sys.stderr)
        return EXIT_RUNTIME
    except ParsimidError as err:
        print(f"{err.category}: {err}", file=sys.stderr)
        return EXIT_RUNTIME


def _configure_logging() -> None:
    level = {"error": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}.get(
        os.environ.get("PARSIM_LOG", "error").lower(), logging.ERROR
    )
    logging.basicConfig(stream=sys.stderr, level=level, format="%(levelname)s %(message)s")


def main(argv=None) -> int:
    _configure_logging()
    try:
        args = parse_args(sys.argv[1:] if argv is None else argv)
    except ConfigError as err:
        print(f"CONFIG: {err}", file=sys.stderr)
        return EXIT_USAGE
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
