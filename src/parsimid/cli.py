"""Command-line front end: identify, simulate, and benchmark.

Exit codes: 0 success, 1 runtime failure, 2 usage error, 66 missing input
file.  Runtime failures print a stable category prefix (EXCITATION, RANK,
IO, CONFIG) to stderr.  The PARSIM_LOG environment variable (error, info,
debug) sets the stderr log level.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import benchmark as bench
from .arx_pre import default_aic_grid, select_order_aic
from .errors import ConfigError, ParsimidError
from .realization import RealizationConfig, identify
from .ss_model import SignalRecord, load_model, save_model, simulate

log = logging.getLogger("parsimid")

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_USAGE = 2
EXIT_NOINPUT = 66  # sysexits EX_NOINPUT: an input file does not exist

_METHOD_FLAGS = {
    "parsim": "parsim",
    "parsim-opt": "parsim_opt",
    "classical": "classical",
    "ssarx": "ssarx",
}
_SCENARIOS = ("example1", "example2", "example1-sweep", "example3")


class UsageError(Exception):
    pass


@dataclass(frozen=True)
class RunConfig:
    command: str
    method: str | None = None
    f: int = 10
    p: int | str = "aic"
    order: int = 1
    seed: int = 0
    in_path: str | None = None
    out_path: str | None = None
    noise_variance: float = 0.0
    scenario: str | None = None
    trials: int = 50
    jobs: int = 1
    system: str | None = None
    model_path: str | None = None
    input_kind: str = "gaussian"
    n_samples: int = 2000
    methods: tuple[str, ...] = ()
    rbs_band: float = 0.1


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
    ident.add_argument("--in", dest="in_path", required=True, metavar="CSV")
    ident.add_argument("--out", dest="out_path", required=True, metavar="JSON")

    sim = sub.add_parser("simulate", help="simulate a model and write a t,u,y CSV record")
    src = sim.add_mutually_exclusive_group(required=True)
    src.add_argument("--system", choices=("example1", "example2"))
    src.add_argument("--model", dest="model_path", metavar="JSON")
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


def parse_args(argv) -> RunConfig:
    """Parse and validate; raises UsageError (exit 2) on bad combinations."""
    ns = build_parser().parse_args(argv)
    if ns.command == "identify":
        if ns.order < 1:
            raise UsageError(f"--order must be >= 1, got {ns.order}")
        if ns.f < 2:
            raise UsageError(f"--f must be >= 2, got {ns.f}")
        if ns.order > ns.f - 1:
            raise UsageError(f"--order must be <= f - 1 = {ns.f - 1}, got {ns.order}")
        p: int | str = ns.p
        if p != "aic":
            try:
                p = int(p)
            except ValueError:
                raise UsageError(f"--p must be an integer or 'aic', got {ns.p!r}") from None
            if p < 1:
                raise UsageError(f"--p must be >= 1, got {p}")
        return RunConfig(
            command="identify",
            method=_METHOD_FLAGS[ns.method],
            order=ns.order, f=ns.f, p=p,
            in_path=ns.in_path, out_path=ns.out_path,
        )
    if ns.command == "simulate":
        if ns.n_samples < 1:
            raise UsageError(f"--n-samples must be >= 1, got {ns.n_samples}")
        if ns.noise_variance < 0:
            raise UsageError(f"--noise-variance must be >= 0, got {ns.noise_variance}")
        return RunConfig(
            command="simulate",
            system=ns.system, model_path=ns.model_path,
            input_kind=ns.input_kind, n_samples=ns.n_samples,
            noise_variance=ns.noise_variance, rbs_band=ns.rbs_band,
            seed=ns.seed, out_path=ns.out_path,
        )
    if ns.trials < 1:
        raise UsageError(f"--trials must be >= 1, got {ns.trials}")
    if ns.seed < 0:
        raise UsageError(f"--seed must be >= 0, got {ns.seed}")
    if ns.jobs < 1:
        raise UsageError(f"--jobs must be >= 1, got {ns.jobs}")
    methods: tuple[str, ...] = ()
    if ns.methods:
        parts = [m.strip() for m in ns.methods.split(",") if m.strip()]
        unknown = [m for m in parts if m not in _METHOD_FLAGS]
        if unknown:
            raise UsageError(f"unknown methods: {', '.join(unknown)}")
        methods = tuple(_METHOD_FLAGS[m] for m in parts)
    return RunConfig(
        command="benchmark",
        scenario=ns.scenario, trials=ns.trials, seed=ns.seed,
        jobs=ns.jobs, methods=methods, out_path=ns.out_path,
    )


def _read_record(path: str) -> SignalRecord:
    p = Path(path)
    if not p.exists():
        raise FileNotFoundError(path)
    with p.open() as fh:
        header = fh.readline().strip()
        if header.replace(" ", "") != "t,u,y":
            raise ConfigError(f"expected CSV header 't,u,y', got {header!r}")
        try:
            data = np.loadtxt(fh, delimiter=",", ndmin=2)
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


def _run_identify(cfg: RunConfig) -> int:
    rec = _read_record(cfg.in_path)
    if cfg.p == "aic":
        grid = default_aic_grid(cfg.order, len(rec))
        p = select_order_aic(rec, grid)
        log.info("AIC selected past horizon p=%d from grid %d..%d", p, grid[0], grid[-1])
    else:
        p = int(cfg.p)
    rcfg = RealizationConfig(n_x=cfg.order, f=cfg.f, p=p, method=cfg.method)
    result = identify(rec, rcfg)
    save_model(result.model, cfg.out_path)
    log.info("singular values: %s", np.array2string(result.singular_values, precision=4))
    if not result.diagnostics["stable"]:
        log.warning("identified model is unstable (spectral radius %.4f)",
                    result.diagnostics["spectral_radius"])
    log.info("model written to %s", cfg.out_path)
    return EXIT_OK


def _run_simulate(cfg: RunConfig) -> int:
    if cfg.model_path is not None:
        p = Path(cfg.model_path)
        if not p.exists():
            raise FileNotFoundError(cfg.model_path)
        model = load_model(p)
    elif cfg.system == "example1":
        model = bench.example1_system()
    else:
        model, _ = bench.example2_system()

    rng = np.random.default_rng(cfg.seed)
    n = cfg.n_samples
    if cfg.input_kind == "impulse":
        u = np.zeros(n)
        u[0] = 1.0
    elif cfg.input_kind == "gaussian":
        u = rng.standard_normal(n)
    else:
        u = bench.gen_rbs(n, cfg.rbs_band, cfg.seed)
    e = np.sqrt(cfg.noise_variance) * rng.standard_normal(n)
    y = simulate(model, u, e)
    _write_record(cfg.out_path, u, y)
    return EXIT_OK


def _run_benchmark(cfg: RunConfig) -> int:
    out = Path(cfg.out_path)
    out.mkdir(parents=True, exist_ok=True)
    sweeps = {  # runner, plot-data writer and file stem, label of each report's files
        "example1-sweep": (bench.run_error_vs_n, bench.write_error_vs_n_csv, "error_g_vs_n", "n{}"),
        "example3": (bench.run_joint_fit, bench.write_joint_fit_csv, "joint_fit", "var{:g}"),
    }
    if cfg.scenario in sweeps:
        run_sweep, write_plot_data, plot_file, label = sweeps[cfg.scenario]
        methods = cfg.methods or ("parsim", "parsim_opt")
        reports = run_sweep(trials=cfg.trials, master_seed=cfg.seed, methods=methods, jobs=cfg.jobs)
        write_plot_data(reports, out / f"{plot_file}.csv")
        for key, rep in sorted(reports.items()):
            bench.write_trials_csv(rep, out / f"trials_{label.format(key)}.csv")
            bench.write_aggregates_json(rep, out / f"aggregates_{label.format(key)}.json")
    else:
        factory = bench.example1_scenario if cfg.scenario == "example1" else bench.example2_scenario
        sc = factory(trials=cfg.trials, methods=cfg.methods) if cfg.methods else factory(trials=cfg.trials)
        report = bench.monte_carlo(sc, cfg.seed, jobs=cfg.jobs)
        bench.write_trials_csv(report, out / "trials.csv")
        bench.write_aggregates_json(report, out / "aggregates.json")
        for method, entry in sorted(report.aggregates().items()):
            if "fit_median" in entry:
                log.info("%s: median FIT %.2f (%d failures)",
                         method, entry["fit_median"], entry["failures"])
    return EXIT_OK


def run(cfg: RunConfig) -> int:
    """Execute a validated configuration; returns the process exit code."""
    try:
        if cfg.command == "identify":
            return _run_identify(cfg)
        if cfg.command == "simulate":
            return _run_simulate(cfg)
        return _run_benchmark(cfg)
    except FileNotFoundError as err:
        print(f"IO: input file not found: {err}", file=sys.stderr)
        return EXIT_NOINPUT
    except OSError as err:
        print(f"IO: {err}", file=sys.stderr)
        return EXIT_RUNTIME
    except ParsimidError as err:
        print(f"{err.category}: {err}", file=sys.stderr)
        return EXIT_RUNTIME
    except np.linalg.LinAlgError as err:
        print(f"RANK: {err}", file=sys.stderr)
        return EXIT_RUNTIME


def _configure_logging() -> None:
    level = {"error": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}.get(
        os.environ.get("PARSIM_LOG", "error").lower(), logging.ERROR
    )
    logging.basicConfig(stream=sys.stderr, level=level, format="%(levelname)s %(message)s")


def main(argv=None) -> int:
    _configure_logging()
    try:
        cfg = parse_args(sys.argv[1:] if argv is None else argv)
    except UsageError as err:
        print(f"CONFIG: {err}", file=sys.stderr)
        return EXIT_USAGE
    return run(cfg)


if __name__ == "__main__":
    sys.exit(main())
