"""Benchmark systems, signal generators, metrics, and the Monte Carlo harness.

Provides two fixed test systems, a random stable system generator, the FIT
and relative Markov-parameter error metrics, and a deterministic trial
runner.  All randomness is a pure function of a seed; every method inside a
trial consumes byte-identical data.
"""

from __future__ import annotations

import json
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass
from functools import lru_cache
from itertools import repeat
from pathlib import Path

import numpy as np
from scipy.signal import butter, lfilter, sosfilt

from .arx_pre import default_aic_grid
from .errors import ConfigError, ParsimidError
from .realization import PreparedRecord, RealizationConfig, identify, select_order_aic
from .ss_model import SignalRecord, StateSpaceModel, _integer, _variance, impulse_response, observability, simulate

__all__ = [
    "Scenario",
    "TrialRow",
    "BenchReport",
    "example1_system",
    "example2_system",
    "random_system",
    "gen_rbs",
    "fit_metric",
    "error_g",
    "monte_carlo",
    "example1_scenario",
    "example2_scenario",
    "example3_scenario",
    "run_error_vs_n",
    "run_joint_fit",
    "write_trials_csv",
    "write_aggregates_json",
    "write_error_vs_n_csv",
    "write_joint_fit_csv",
]

EXAMPLE2_GAMMA = 0.9184

# Impulse-response lags that the FIT metric compares.
FIT_LAGS = 100

# Innovations variances of the random-system joint FIT study.
JOINT_FIT_NOISE_LEVELS = (1.0, 10.0, 100.0)

# random_system draws: dominant-pole magnitude range, B and K entry scales,
# and the rejection-sampling budget.
RANDOM_POLE_RANGE = (0.78, 0.9)
RANDOM_B_SCALE = 5.0
RANDOM_K_SCALE = 0.1
RANDOM_MAX_DRAWS = 10_000


def example1_system() -> StateSpaceModel:
    """Third-order system: a resonant second-order input channel plus a
    slow first-order noise channel.

    u -> y: (0.21 q^-1 + 0.07 q^-2) / (1 - 0.6 q^-1 + 0.8 q^-2)
    e -> y: 1 / (1 - 0.98 q^-1), innovations variance 4.
    """
    A = np.array([
        [0.6, -0.8, 0.0],
        [1.0, 0.0, 0.0],
        [0.0, 0.0, 0.98],
    ])
    B = np.array([[1.0], [0.0], [0.0]])
    C = np.array([[0.21, 0.07, 1.0]])
    K = np.array([[0.0], [0.0], [0.98]])
    return StateSpaceModel(A=A, B=B, C=C, D=0.0, K=K, sigma_e2=4.0)


def example2_system() -> tuple[StateSpaceModel, np.ndarray]:
    """Second-order system with a double pole, known to defeat many
    projection-based estimators, plus its band-stop input shaping filter.

    Returns the model (innovations variance 217.1) and the FIR coefficients
    [1, 0, -2 gamma^2, 0, gamma^4] applied to white noise to produce u.
    """
    g = EXAMPLE2_GAMMA
    A = np.array([[2 * g, -g * g], [1.0, 0.0]])
    B = np.array([[1.0], [-2.0]])
    C = np.array([[2.0, -1.0]])
    K = np.array([[-0.21], [-0.559]])
    input_filter = np.array([1.0, 0.0, -2 * g * g, 0.0, g ** 4])
    return StateSpaceModel(A=A, B=B, C=C, D=0.0, K=K, sigma_e2=217.1), input_filter


def _minimal(A, B, C, K) -> bool:
    n = A.shape[0]
    # np.linalg.matrix_rank applies _lstsq.numerical_rank's rule, so the
    # draws random_system accepts stay a bit-exact function of the seed.
    # controllability of (A, [B K]) is observability of (A', [B K]')
    ctrb = observability(A.T, np.hstack([B, K]).T, n)
    return np.linalg.matrix_rank(ctrb) == n and np.linalg.matrix_rank(observability(A, C, n)) == n


def random_system(seed, n_x: int = 6) -> StateSpaceModel:
    """Random stable SISO model with a constrained dominant pole.

    A dense Gaussian matrix is rescaled so its spectral radius is uniform
    in ``RANDOM_POLE_RANGE``; B entries are N(0, RANDOM_B_SCALE^2), C
    entries N(0, 1), D = 0, and K is redrawn (N(0, RANDOM_K_SCALE^2)
    entries) until the predictor matrix A - K C is stable.  Non-minimal
    draws are rejected.  The result is a bit-exact function of the seed.

    Raises:
        ConfigError: If n_x is not an integer >= 1, or when the
            rejection-sampling budget is exhausted.
    """
    n_x = _integer(n_x, "n_x", 1)
    rng = np.random.default_rng(seed)
    draws = 0
    while draws < RANDOM_MAX_DRAWS:
        draws += 1
        A0 = rng.standard_normal((n_x, n_x))
        rho = float(np.max(np.abs(np.linalg.eigvals(A0))))
        if rho <= 0:
            continue
        A = A0 * (rng.uniform(*RANDOM_POLE_RANGE) / rho)
        B = RANDOM_B_SCALE * rng.standard_normal((n_x, 1))
        C = rng.standard_normal((1, n_x))
        K = None
        for _ in range(100):
            draws += 1
            cand = RANDOM_K_SCALE * rng.standard_normal((n_x, 1))
            if np.max(np.abs(np.linalg.eigvals(A - cand @ C))) < 1.0:
                K = cand
                break
        if K is None or not _minimal(A, B, C, K):
            continue
        return StateSpaceModel(A=A, B=B, C=C, D=0.0, K=K, sigma_e2=1.0)
    raise ConfigError(f"random system rejection sampling exhausted after {RANDOM_MAX_DRAWS} draws")


@lru_cache
def _rbs_sos(band_high: float) -> np.ndarray:
    """The order-8 Butterworth low-pass of :func:`gen_rbs`, designed once per band."""
    return butter(8, band_high, output="sos")


def gen_rbs(N: int, band_high: float, seed) -> np.ndarray:
    """Band-limited random binary sequence of +/- 1 values.

    White Gaussian noise is low-pass filtered (order-8 Butterworth at the
    normalized cutoff ``band_high``, as a fraction of Nyquist) and its sign
    taken.  ``band_high = 1`` skips the filter and returns sign of white
    noise.
    """
    N = _integer(N, "N", 1)
    if not 0.0 < band_high <= 1.0:
        raise ConfigError(f"band_high must be in (0, 1], got {band_high}")
    rng = np.random.default_rng(seed)
    w = rng.standard_normal(N)
    if band_high < 1.0:
        w = sosfilt(_rbs_sos(band_high), w)
    s = np.sign(w)
    s[s == 0] = 1.0
    return s


def fit_metric(g_o, g_hat) -> float:
    """Normalized impulse-response match: 100 (1 - |g_o - g_hat| / |g_o - mean(g_o)|)."""
    g_o = np.asarray(g_o, dtype=float).ravel()
    g_hat = np.asarray(g_hat, dtype=float).ravel()
    if g_o.shape != g_hat.shape:
        raise ConfigError(f"length mismatch: {g_o.size} vs {g_hat.size}")
    denom = float(np.linalg.norm(g_o - np.mean(g_o)))
    if denom == 0.0:
        raise ConfigError("reference impulse response is constant; FIT undefined")
    return 100.0 * (1.0 - float(np.linalg.norm(g_o - g_hat)) / denom)


def error_g(G_hat, G_true) -> float:
    """Relative 2-norm error of a Markov-parameter row estimate."""
    G_hat = np.asarray(G_hat, dtype=float).ravel()
    G_true = np.asarray(G_true, dtype=float).ravel()
    if G_hat.shape != G_true.shape:
        raise ConfigError(f"length mismatch: {G_hat.size} vs {G_true.size}")
    denom = float(np.linalg.norm(G_true))
    if denom == 0.0:
        raise ConfigError("true Markov parameters have zero norm")
    return float(np.linalg.norm(G_hat - G_true)) / denom


@dataclass(frozen=True)
class Scenario:
    """One Monte Carlo study: system source, signal sizes, and methods."""

    name: str
    system_source: str  # "example1" | "example2" | "random"
    N: int
    f: int
    n_x: int
    noise_variance: float
    trials: int
    methods: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "trials", _integer(self.trials, "trials", 1))
        if self.system_source not in ("example1", "example2", "random"):
            raise ConfigError(f"unknown system source {self.system_source!r}")
        object.__setattr__(self, "noise_variance", _variance(self.noise_variance, "noise_variance"))
        object.__setattr__(self, "methods", tuple(self.methods))
        if not self.methods:
            raise ConfigError("scenario needs at least one method")
        if len(set(self.methods)) < len(self.methods):
            raise ConfigError(f"each method may be listed once, got {self.methods}")
        object.__setattr__(self, "N", _integer(self.N, "record length", 1))
        # Every trial picks p from the default AIC grid; p = n_x + 1 is the
        # smallest order it can pick.
        default_aic_grid(self.n_x, self.N)
        for method in self.methods:
            cfg = RealizationConfig(n_x=self.n_x, f=self.f, p=self.n_x + 1, method=method)
        object.__setattr__(self, "n_x", cfg.n_x)
        object.__setattr__(self, "f", cfg.f)


@dataclass(frozen=True)
class TrialRow:
    trial: int
    method: str
    fit: float
    error_g: float
    seed: int
    p: int
    failure: str | None = None


@dataclass(frozen=True)
class BenchReport:
    """Per-trial results; aggregates are always recomputed from the table."""

    scenario: Scenario
    master_seed: int
    rows: tuple[TrialRow, ...]

    def aggregates(self) -> dict:
        out = {}
        for method in self.scenario.methods:
            ok = [r for r in self.rows if r.method == method and r.failure is None]
            n_fail = sum(1 for r in self.rows if r.method == method and r.failure is not None)
            entry = {"failures": n_fail, "successes": len(ok)}
            errs = np.array([r.error_g for r in ok])
            # error_g is NaN for the methods that estimate no Markov rows
            for key, vals in (("fit", np.array([r.fit for r in ok])), ("error_g", errs[np.isfinite(errs)])):
                if vals.size:
                    entry.update({
                        f"{key}_mean": float(np.mean(vals)),
                        f"{key}_median": float(np.median(vals)),
                        f"{key}_var": float(np.var(vals, ddof=1)) if vals.size > 1 else 0.0,
                    })
            out[method] = entry
        return out


def _trial_seeds(master_seed: int, trial: int) -> tuple[int, int, int, int]:
    state = np.random.SeedSequence([master_seed, trial]).generate_state(4)
    return tuple(int(v) for v in state)


def _trial_data(sc: Scenario, master_seed: int, trial: int):
    """System, record, and reporting seed for one trial (method independent)."""
    report_seed, sys_seed, input_seed, noise_seed = _trial_seeds(master_seed, trial)
    if sc.system_source == "example1":
        system = example1_system()
        u = np.random.default_rng(input_seed).standard_normal(sc.N)
    elif sc.system_source == "example2":
        system, filt = example2_system()
        r = np.random.default_rng(input_seed).standard_normal(sc.N)
        u = lfilter(filt, [1.0], r)
    else:
        system = random_system(sys_seed, n_x=sc.n_x)
        u = gen_rbs(sc.N, 0.1, input_seed)
    e = np.sqrt(sc.noise_variance) * np.random.default_rng(noise_seed).standard_normal(sc.N)
    y = simulate(system, u, e)
    return system, SignalRecord(u=u, y=y), report_seed


def _run_trial(sc: Scenario, master_seed: int, trial: int) -> list[TrialRow]:
    def failed(seed: int, reason: str) -> list[TrialRow]:
        nan = float("nan")
        return [TrialRow(trial, m, nan, nan, seed, -1, reason) for m in sc.methods]

    try:
        system, rec, seed = _trial_data(sc, master_seed, trial)
    except ParsimidError as err:
        return failed(_trial_seeds(master_seed, trial)[0], f"data: {err}")
    # AIC and every method read the one preparation of the record.  AIC
    # leaves its top-order fit there, the parsim_opt weighting fit; any
    # other piece is made by the first method asking for it, inside its
    # own identify call.
    prepared = PreparedRecord(rec)
    try:
        p = select_order_aic(prepared, default_aic_grid(sc.n_x, len(rec)))
    except ParsimidError as err:
        return failed(seed, f"aic: {err}")

    g_true = impulse_response(system, FIT_LAGS)
    gff_true = g_true[: sc.f][::-1]

    rows = []
    for method in sc.methods:
        try:
            cfg = RealizationConfig(n_x=sc.n_x, f=sc.f, p=p, method=method)
            result = identify(prepared, cfg)
            fit = fit_metric(g_true, impulse_response(result.model, FIT_LAGS))
            # only the two banks estimate Markov rows
            last_row = result.diagnostics["markov_last_row"]
            err_val = error_g(last_row, gff_true) if last_row is not None else float("nan")
            rows.append(TrialRow(trial, method, fit, err_val, seed, p))
        except (ParsimidError, np.linalg.LinAlgError) as err:
            rows.append(TrialRow(trial, method, float("nan"), float("nan"), seed, p, str(err)))
    return rows


def monte_carlo(sc: Scenario, master_seed: int, jobs: int = 1) -> BenchReport:
    """Run a scenario: per trial, derive seeds, generate one data record,
    score every configured method on it, and collect the table.

    Individual trial failures are recorded per row (with the failing stage
    in the message) and never abort the run.  Results are independent of
    ``jobs`` because every trial is a pure function of
    (scenario, master_seed, trial index).  ``master_seed`` is an integer
    >= 0 and ``jobs`` one >= 1, else ConfigError.
    """
    master_seed, jobs = _integer(master_seed, "master seed", 0), _integer(jobs, "jobs", 1)
    args = (repeat(sc), repeat(master_seed), range(sc.trials))
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            per_trial = list(pool.map(_run_trial, *args))
    else:
        per_trial = list(map(_run_trial, *args))
    rows = tuple(row for trial_rows in per_trial for row in trial_rows)
    return BenchReport(scenario=sc, master_seed=master_seed, rows=rows)


def example1_scenario(
    N: int = 2000,
    trials: int = 50,
    methods=("parsim", "parsim_opt", "ssarx", "classical"),
) -> Scenario:
    return Scenario(
        name=f"example1_N{N}",
        system_source="example1",
        N=N, f=10, n_x=3,
        noise_variance=4.0,
        trials=trials, methods=tuple(methods),
    )


def example2_scenario(
    trials: int = 50,
    methods=("parsim", "parsim_opt", "ssarx", "classical"),
) -> Scenario:
    return Scenario(
        name="example2_N2000",
        system_source="example2",
        N=2000, f=7, n_x=2,
        noise_variance=217.1,
        trials=trials, methods=tuple(methods),
    )


def example3_scenario(
    noise_variance: float,
    trials: int = 50,
    methods=("parsim", "parsim_opt"),
) -> Scenario:
    return Scenario(
        name=f"example3_var{noise_variance:g}",
        system_source="random",
        N=1000, f=20, n_x=6,
        noise_variance=noise_variance,
        trials=trials, methods=tuple(methods),
    )


def run_error_vs_n(
    n_values=(1000, 1500, 2000, 2500, 3000),
    trials: int = 50,
    master_seed: int = 0,
    methods=("parsim", "parsim_opt"),
    jobs: int = 1,
) -> dict[int, BenchReport]:
    """Markov-parameter error sweep over sample sizes (plot data for the
    error-versus-N figure)."""
    return {
        n: monte_carlo(example1_scenario(N=n, trials=trials, methods=methods), master_seed, jobs)
        for n in n_values
    }


def run_joint_fit(
    trials: int = 50,
    master_seed: int = 0,
    methods=("parsim", "parsim_opt"),
    jobs: int = 1,
) -> dict[float, BenchReport]:
    """Random-system joint FIT study, one report per ``JOINT_FIT_NOISE_LEVELS`` entry."""
    return {
        var: monte_carlo(example3_scenario(var, trials=trials, methods=methods), master_seed, jobs)
        for var in JOINT_FIT_NOISE_LEVELS
    }


def _fmt(x: float) -> str:
    return repr(float(x))


def write_trials_csv(report: BenchReport, path) -> None:
    """Per-trial table with the fixed header trial,method,fit,error_g,seed."""
    lines = ["trial,method,fit,error_g,seed"]
    for r in report.rows:
        lines.append(f"{r.trial},{r.method},{_fmt(r.fit)},{_fmt(r.error_g)},{r.seed}")
    Path(path).write_text("\n".join(lines) + "\n")


def _jsonable(obj):
    if isinstance(obj, float):
        return None if not np.isfinite(obj) else obj
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return obj


def write_aggregates_json(report: BenchReport, path) -> None:
    """Aggregate sidecar: scenario settings, per-method statistics, chosen horizons."""
    chosen_p = {}
    failures = []
    for r in report.rows:
        chosen_p.setdefault(r.trial, r.p)
        if r.failure is not None:
            failures.append({"trial": r.trial, "method": r.method, "reason": r.failure})
    doc = {
        "scenario": asdict(report.scenario),
        "master_seed": report.master_seed,
        "aggregates": report.aggregates(),
        "chosen_p": [chosen_p[t] for t in sorted(chosen_p)],
        "failures": failures,
    }
    Path(path).write_text(json.dumps(_jsonable(doc), indent=2, sort_keys=True) + "\n")


def write_error_vs_n_csv(reports: dict[int, BenchReport], path) -> None:
    """Plot data: one row per (N, method) with mean and variance of the error."""
    lines = ["n_samples,method,error_g_mean,error_g_var"]
    for n in sorted(reports):
        agg = reports[n].aggregates()
        for method in reports[n].scenario.methods:
            entry = agg[method]
            if "error_g_mean" in entry:
                lines.append(
                    f"{n},{method},{_fmt(entry['error_g_mean'])},{_fmt(entry['error_g_var'])}"
                )
    Path(path).write_text("\n".join(lines) + "\n")


def write_joint_fit_csv(reports: dict[float, BenchReport], path) -> None:
    """Plot data: per noise level, paired FIT values of the configured methods."""
    methods = reports[min(reports)].scenario.methods
    lines = ["noise_variance,trial," + ",".join(f"fit_{m}" for m in methods)]
    for var in sorted(reports):
        rep = reports[var]
        by_trial: dict[int, dict[str, float]] = {}
        for r in rep.rows:
            by_trial.setdefault(r.trial, {})[r.method] = r.fit
        for t in sorted(by_trial):
            vals = ",".join(_fmt(by_trial[t].get(m, float("nan"))) for m in methods)
            lines.append(f"{_fmt(var)},{t},{vals}")
    Path(path).write_text("\n".join(lines) + "\n")
