"""Checks of parsimid's outputs against computations made here.

Each reference check compares one public function with an independent
computation (scipy's simulator, a dense least-squares or generalized
least-squares solve, an AIC argmin written out here).  The property checks
apply to every result the timed loop produces.
"""

from __future__ import annotations

import numpy as np
from scipy import linalg, signal

# Limits on relative differences.  The measured differences are far below
# them: about 5e-15 for simulate, 0 for the OLS row and 1e-12 for the GLS row.
SIMULATE_TOL = 1e-10
LSTSQ_TOL = 1e-9
GLS_TOL = 1e-8
NOISE_FREE_FIT = 99.9
FIT_LAGS = 100


def _rel(a, b) -> float:
    a = np.asarray(a, dtype=float).ravel()
    b = np.asarray(b, dtype=float).ravel()
    return float(np.linalg.norm(a - b) / np.linalg.norm(b))


def _row_regression(rec, f: int, p: int):
    """Regressor [Y_p; U_p; u_f rows 1..f] and target y row f, from the raw record."""
    u, y = rec.u, rec.y
    cols = np.arange(len(rec) - f - p + 1)
    Z = np.vstack(
        [y[r + cols] for r in range(p)]
        + [u[r + cols] for r in range(p)]
        + [u[p + r + cols] for r in range(f)]
    )
    return Z, y[p + f - 1 + cols]


def simulate_vs_dlsim(ps, system, u, e) -> float:
    """Relative difference between ``simulate`` and ``scipy.signal.dlsim``."""
    D = np.asarray(system.D, dtype=float).reshape(1, 1)
    sys_d = (system.A, np.hstack([system.B, system.K]), system.C, np.hstack([D, [[1.0]]]), 1)
    _, y_ref, _ = signal.dlsim(sys_d, np.column_stack([u, e]))
    return _rel(ps.simulate(system, u, e), y_ref)


def parsim_row_vs_lstsq(ps, rec, n_x: int, f: int, p: int) -> float:
    """``parsim`` Markov row f against scipy's lstsq on the row-f regression."""
    cfg = ps.RealizationConfig(n_x=n_x, f=f, p=p, method="parsim")
    row = ps.realization.identify(rec, cfg).diagnostics["markov_last_row"]
    Z, target = _row_regression(rec, f, p)
    theta = linalg.lstsq(Z.T, target)[0]
    return _rel(row, theta[2 * p:])


def true_noise_markov(system, count: int) -> np.ndarray:
    """H_i = C A^(i-1) K for i = 1..count, from matrix powers."""
    return np.array([
        (system.C @ np.linalg.matrix_power(system.A, i - 1) @ system.K)[0, 0]
        for i in range(1, count + 1)
    ])


def parsim_opt_vs_gls(ps, system, rec, n_x: int, f: int, p: int) -> float:
    """``parsim_opt`` row f, weighted with the true H, against a dense GLS solve.

    Row f's noise is the moving average sum_{m<f} H_m e[k-m] with H_0 = 1,
    so its covariance is Toeplitz with autocovariance
    r(d) = sum_{m=d}^{f-1} H_m H_{m-d}.
    """
    H = true_noise_markov(system, f - 1)
    cfg = ps.RealizationConfig(n_x=n_x, f=f, p=p, method="parsim_opt")
    result = ps.realization.identify(rec, cfg, weighting_markov=ps.InnovationsMarkov(h=H))
    Z, target = _row_regression(rec, f, p)
    h0 = np.concatenate([[1.0], H])
    acov = np.zeros(Z.shape[1])
    acov[:f] = [h0[d:] @ h0[: f - d] for d in range(f)]
    chol = linalg.cho_factor(linalg.toeplitz(acov))
    WZt = linalg.cho_solve(chol, Z.T)
    theta = linalg.solve(Z @ WZt, WZt.T @ target, assume_a="pos")
    return _rel(result.diagnostics["markov_last_row"], theta[2 * p:])


def aic_argmin(rec, grid) -> int:
    """AIC(n) = n_eff ln(RSS/n_eff) + 4n on the window after the largest order."""
    u, y = rec.u, rec.y
    start, total = max(grid), len(rec)
    best_n, best = None, np.inf
    for n in sorted(grid):
        Phi = np.column_stack(
            [y[start - j: total - j] for j in range(1, n + 1)]
            + [u[start - j: total - j] for j in range(1, n + 1)]
        )
        t = y[start:]
        r = t - Phi @ linalg.lstsq(Phi, t)[0]
        aic = t.size * np.log((r @ r) / t.size) + 4.0 * n
        if aic < best:
            best_n, best = n, aic
    return best_n


def noise_free_fits(ps, system, u, n_x: int, f: int, p: int) -> dict[str, float]:
    """FIT of each method's impulse response on a noise-free record."""
    rec = ps.SignalRecord(u=u, y=ps.simulate(system, u))
    g_true = ps.impulse_response(system, FIT_LAGS)
    fits = {}
    for method in ps.METHODS:
        cfg = ps.RealizationConfig(n_x=n_x, f=f, p=p, method=method)
        model = ps.realization.identify(rec, cfg).model
        fits[method] = ps.fit_metric(g_true, ps.impulse_response(model, FIT_LAGS))
    return fits


def reference_checks(ps, seed: int) -> list[tuple[str, bool, str]]:
    """Run every reference check on inputs drawn from ``seed``.

    Returns (name, passed, detail) triples.
    """
    rng = np.random.default_rng([seed, 0x5EED])
    N = 2000
    ex1 = ps.example1_system()
    ex2, ex2_filter = ps.example2_system()
    rand = ps.random_system(int(rng.integers(2**32)))

    def record(system, u, variance):
        e = np.sqrt(variance) * rng.standard_normal(u.size)
        return ps.SignalRecord(u=u, y=ps.simulate(system, u, e))

    u1 = rng.standard_normal(N)
    u2 = signal.lfilter(ex2_filter, [1.0], rng.standard_normal(N))
    u3 = ps.gen_rbs(N, 0.1, int(rng.integers(2**32)))
    out = []

    for label, system, u in (("example1", ex1, u1), ("example2", ex2, u2), ("random", rand, u3)):
        diff = simulate_vs_dlsim(ps, system, u, rng.standard_normal(N))
        out.append((f"simulate_vs_dlsim[{label}]", diff <= SIMULATE_TOL, f"rel diff {diff:.3g}"))

    rec1 = record(ex1, u1, ex1.sigma_e2)
    rec2 = record(ex2, u2, ex2.sigma_e2)
    for label, rec, n_x, p in (("example1", rec1, 3, 12), ("example2", rec2, 2, 20)):
        diff = parsim_row_vs_lstsq(ps, rec, n_x, 10, p)
        out.append((f"parsim_row_vs_lstsq[{label}]", diff <= LSTSQ_TOL, f"rel diff {diff:.3g}"))

    short = ps.SignalRecord(u=rec1.u[:400], y=rec1.y[:400])
    diff = parsim_opt_vs_gls(ps, ex1, short, 3, 10, 10)
    out.append(("parsim_opt_vs_gls[example1]", diff <= GLS_TOL, f"rel diff {diff:.3g}"))

    for label, rec, n_x in (("example1", rec1, 3), ("example2", rec2, 2)):
        grid = ps.default_aic_grid(n_x, len(rec))
        got, want = ps.select_order_aic(rec, grid), aic_argmin(rec, grid)
        out.append((f"aic_vs_argmin[{label}]", got == want, f"select_order_aic {got}, argmin {want}"))

    fits = noise_free_fits(ps, ex2, u2, 2, 10, 20)
    for method, fit in fits.items():
        out.append((f"noise_free_fit[{method}]", fit > NOISE_FREE_FIT, f"FIT {fit:.6f}"))
    return out


def result_problem(result) -> str | None:
    """Why an identify result is malformed, or None when it is sound."""
    m = result.model
    for name in ("A", "B", "C", "K"):
        if not np.all(np.isfinite(getattr(m, name))):
            return f"non-finite {name}"
    s = np.asarray(result.singular_values)
    if np.any(s < 0) or np.any(np.diff(s) > 0):
        return f"singular values not non-negative and non-increasing: {s}"
    return None


def rows_problem(report, bank_methods=("parsim", "parsim_opt")) -> str | None:
    """Why a one-trial Monte Carlo report is malformed, or None when it is sound."""
    methods = [r.method for r in report.rows]
    if sorted(methods) != sorted(report.scenario.methods):
        return f"rows {methods} do not match methods {report.scenario.methods}"
    for r in report.rows:
        if r.failure is not None:
            continue
        if not np.isfinite(r.fit):
            return f"{r.method}: non-finite FIT"
        if r.method in bank_methods and not np.isfinite(r.error_g):
            return f"{r.method}: non-finite error_g"
    return None
