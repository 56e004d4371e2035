"""Acceptance suite.

Each test exercises one release criterion at its stated tolerance and prints
a one-line pass marker (visible with ``pytest -s`` or on failure).  The
Monte Carlo criteria use fixed master seeds; every randomized quantity in
the library is a pure function of its seed.
"""

import subprocess
import sys
import time

import numpy as np
from scipy.linalg import solveh_banded

import parsimid as ps
from parsimid import markov_h, toeplitz_gram_band
from parsimid.arx_pre import PredictorMarkov, predictor_to_innovations
from parsimid.benchmark import (
    example1_scenario,
    example1_system,
    example2_scenario,
)

from helpers import child_env, noise_toeplitz, random_stable_model


def _report(num, text):
    print(f"criterion {num:2d}: PASS — {text}")


def test_c01_noise_free_exact_recovery():
    m = example1_system()
    rng = np.random.default_rng(314)
    u = rng.standard_normal(2000)
    rec = ps.SignalRecord(u=u, y=ps.simulate(m, u))  # e == 0
    g_true = ps.impulse_response(m, 100)
    for method in ("parsim", "parsim_opt"):
        start = time.perf_counter()
        cfg = ps.RealizationConfig(n_x=2, f=10, p=20, method=method)
        result = ps.identify(rec, cfg)
        elapsed = time.perf_counter() - start
        fit = ps.fit_metric(g_true, ps.impulse_response(result.model, 100))
        assert fit > 99.9, f"{method}: FIT {fit}"
        assert elapsed < 5.0, f"{method}: took {elapsed:.2f}s"
    _report(1, "noise-free recovery, FIT > 99.9 for parsim and parsim_opt")


def test_c02_toeplitz_rewrite_identity():
    rng = np.random.default_rng(42)
    start = time.perf_counter()
    for _ in range(100):
        i = int(rng.integers(1, 7))
        N = int(rng.integers(2, 51))
        h = rng.standard_normal(max(i - 1, 1))
        T, h_fi = noise_toeplitz(h, i, N)
        eps = rng.standard_normal(N + i - 1)
        E = np.array([eps[s : s + N] for s in range(i)])
        err = np.max(np.abs(h_fi @ E - eps @ T))
        assert err < 1e-12, f"i={i}, N={N}: {err}"
    assert time.perf_counter() - start < 1.0
    _report(2, "noise-row rewriting identity < 1e-12 on 100 random instances")


def test_c03_markov_recursion_oracle():
    rng = np.random.default_rng(7)
    start = time.perf_counter()
    for _ in range(200):
        m = random_stable_model(rng, n_x=int(rng.integers(1, 6)))
        A_bar = m.A - m.K @ m.C
        h_bar = [
            (m.C @ np.linalg.matrix_power(A_bar, j) @ m.K).item()
            for j in range(15)
        ]
        pm = PredictorMarkov(h_bar=h_bar, g_bar=np.zeros(15), residual_variance=1.0)
        got = predictor_to_innovations(pm).h
        expect = markov_h(m, 15)
        assert np.max(np.abs(got - expect)) < 1e-9
    assert time.perf_counter() - start < 5.0
    _report(3, "predictor-to-innovations recursion < 1e-9 on 200 random models")


def test_c04_noise_covariance_premise():
    rng = np.random.default_rng(2024)
    start = time.perf_counter()
    i, N = 4, 8
    h = np.array([0.9, 0.6, 0.3])
    Tm = noise_toeplitz(h, i, N)[0]
    sigma_e = 1.0
    draws = sigma_e * rng.standard_normal((10_000, N + i - 1)) @ Tm
    sample_cov = draws.T @ draws / draws.shape[0]
    target = sigma_e**2 * (Tm.T @ Tm)
    rel = np.linalg.norm(sample_cov - target) / np.linalg.norm(target)
    assert rel < 0.05, f"relative error {rel:.4f}"
    assert time.perf_counter() - start < 10.0
    _report(4, f"transformed-noise covariance matches the Gram, rel err {rel:.3f}")


def test_c05_blue_dominance_desk_scale():
    rng = np.random.default_rng(123)
    start = time.perf_counter()
    q, N, i = 5, 100, 4
    Z = rng.standard_normal((q, N))
    theta = rng.standard_normal(q)
    h = np.array([1.2, 0.8, 0.5])
    Tm = noise_toeplitz(h, i, N)[0]
    ab = toeplitz_gram_band(h, i, N)
    V = solveh_banded(ab, Z.T)
    A_w = Z @ V
    ZZt = Z @ Z.T
    reps = 2000
    ols = np.empty((reps, q))
    wls = np.empty((reps, q))
    for r in range(reps):
        eps = rng.standard_normal(N + i - 1)
        y = theta @ Z + eps @ Tm
        ols[r] = np.linalg.solve(ZZt, Z @ y)
        wls[r] = np.linalg.solve(A_w, y @ V)
    var_ols = ols.var(axis=0, ddof=1)
    var_wls = wls.var(axis=0, ddof=1)
    assert np.all(var_wls <= var_ols * 1.03), f"ratios {var_wls / var_ols}"
    assert time.perf_counter() - start < 30.0
    _report(5, f"per-coefficient WLS variance ratios {np.round(var_wls / var_ols, 3)}")


def test_c06_markov_error_ordering_over_sample_sizes():
    start = time.perf_counter()
    reports = ps.run_error_vs_n(n_values=(1000, 2000, 3000), trials=50, master_seed=0)
    for n, report in sorted(reports.items()):
        agg = report.aggregates()
        e_ols = agg["parsim"]["error_g_mean"]
        e_wls = agg["parsim_opt"]["error_g_mean"]
        assert e_wls < e_ols, f"N={n}: {e_wls:.4f} !< {e_ols:.4f}"
    assert time.perf_counter() - start < 600.0
    _report(6, "mean Error(G): weighted bank below plain bank at every N")


def test_c07_fit_ordering_first_benchmark():
    start = time.perf_counter()
    sc = example1_scenario(N=2000, trials=50, methods=("parsim", "parsim_opt", "ssarx"))
    report = ps.monte_carlo(sc, master_seed=0)
    agg = report.aggregates()
    # every method succeeds on every trial, so the medians cover the same records
    assert all(agg[m]["failures"] == 0 for m in sc.methods), agg
    med = {m: agg[m]["fit_median"] for m in sc.methods}
    assert med["parsim_opt"] > med["parsim"], med
    assert med["ssarx"] > med["parsim"], med
    assert time.perf_counter() - start < 600.0
    _report(7, f"median FIT parsim_opt {med['parsim_opt']:.1f} > parsim {med['parsim']:.1f}; "
               f"ssarx {med['ssarx']:.1f} > parsim")


def test_c08_fit_ordering_second_benchmark():
    start = time.perf_counter()
    sc = example2_scenario(trials=50, methods=("parsim", "parsim_opt", "ssarx"))
    report = ps.monte_carlo(sc, master_seed=0)
    agg = report.aggregates()
    # every method succeeds on every trial, so the medians cover the same records
    assert all(agg[m]["failures"] == 0 for m in sc.methods), agg
    med = {m: agg[m]["fit_median"] for m in sc.methods}
    assert med["parsim"] > med["ssarx"], med
    # reported, not asserted: the weighted bank tends to land slightly below
    # the plain bank here; weighting with the true noise Markov parameters
    # lands below it too (median FIT 60.9 against 63.8), so the estimated
    # weights are not the cause.  Rows 5-7's noise polynomials have a root
    # outside the unit circle, where GLS is not BLUE but inconsistent
    # (tests/test_estimators.py::TestNonMinimumPhaseRows)
    print(f"  (reported) example2 medians: parsim {med['parsim']:.1f}, "
          f"parsim_opt {med['parsim_opt']:.1f}, ssarx {med['ssarx']:.1f}")
    assert time.perf_counter() - start < 600.0
    _report(8, f"median FIT parsim {med['parsim']:.1f} > ssarx {med['ssarx']:.1f}")


def test_c09_random_system_robustness():
    start = time.perf_counter()
    reports = ps.run_joint_fit(trials=50, master_seed=3)
    shares = {}
    for var, report in reports.items():
        by_trial = {}
        for r in report.rows:
            if r.failure is None:
                by_trial.setdefault(r.trial, {})[r.method] = r.fit
        pairs = [d for d in by_trial.values() if len(d) == 2]
        wins = sum(1 for d in pairs if d["parsim_opt"] >= d["parsim"])
        shares[var] = wins / len(pairs)
    for var in (10.0, 100.0):
        assert shares[var] > 0.60, f"variance {var}: share {shares[var]:.2f}"
    print(f"  (reported) win shares by noise variance: "
          + ", ".join(f"{v:g}: {shares[v]:.0%}" for v in sorted(shares)))
    assert time.perf_counter() - start < 1200.0
    _report(9, f"weighted bank at least as good on {shares[10.0]:.0%} (var 10) "
               f"and {shares[100.0]:.0%} (var 100) of systems")


def test_c10_benchmark_determinism(tmp_path):
    outs = []
    for name in ("run1", "run2"):
        out = tmp_path / name
        proc = subprocess.run(
            [sys.executable, "-m", "parsimid.cli", "benchmark",
             "--scenario", "example1", "--trials", "3", "--seed", "11",
             "--methods", "parsim,parsim-opt", "--out", str(out)],
            capture_output=True,
            env=child_env(),
        )
        assert proc.returncode == 0, proc.stderr.decode()
        outs.append(out)
    for fname in ("trials.csv", "aggregates.json"):
        a = (outs[0] / fname).read_bytes()
        b = (outs[1] / fname).read_bytes()
        assert a == b, f"{fname} differs between identical runs"
    _report(10, "repeated benchmark runs are byte-identical")
