"""Why the weighted row bank helps: colored row noise.

Each row i of the future-output partition carries noise H_fi E_i.  Because
the innovations are scalar, that stacked product collapses to one white row
times a banded Toeplitz factor T, so the row noise has covariance
proportional to T'T.  Weighting the row regression by (T'T)^-1 is the
minimum-variance (BLUE) choice when the regressors are fixed, as at desk
scale below, and in the bank when row i's noise polynomial
1 + H_1 z^-1 + ... + H_{i-1} z^-(i-1) is minimum phase.  Where it is not,
the past outputs among the regressors correlate with the whitened noise
and the weighted rows are inconsistent (Example 2's rows 5-7).  This
script shows the effect twice: on a fixed desk-scale regression, and on
the Markov-parameter error of the first benchmark system, whose rows are
all minimum phase.

Run with:  python demos/02_weighted_bank_vs_plain.py
"""

import numpy as np
from scipy.linalg import solveh_banded, toeplitz

import parsimid as ps
from parsimid import toeplitz_gram_band

# ----------------------------------------------------------------------
# Desk scale: fixed 5 x 100 regressor, strongly colored noise.
# ----------------------------------------------------------------------
rng = np.random.default_rng(1)
q, N, i = 5, 100, 4
Z = rng.standard_normal((q, N))
theta = rng.standard_normal(q)
h = [1.2, 0.8, 0.5]
band = np.r_[h[::-1], 1.0]  # each column of T carries [H_3, H_2, H_1, H_0]
T = toeplitz(np.r_[band, np.zeros(N - 1)], np.r_[band[0], np.zeros(N - 1)])
V = solveh_banded(toeplitz_gram_band(h, i, N), Z.T)

ols, wls = [], []
for _ in range(1000):
    y = theta @ Z + rng.standard_normal(N + i - 1) @ T
    ols.append(np.linalg.solve(Z @ Z.T, Z @ y))
    wls.append(np.linalg.solve(Z @ V, y @ V))
ratio = np.var(wls, axis=0) / np.var(ols, axis=0)
print("per-coefficient variance ratio (weighted / plain):", np.round(ratio, 3))

# ----------------------------------------------------------------------
# Full pipeline: relative error of the last-row Markov estimates on the
# first benchmark system, 20 Monte Carlo records.
# ----------------------------------------------------------------------
system = ps.example1_system()
h_true = ps.InnovationsMarkov(h=ps.markov_h(system, 12))
target = np.append(ps.markov_g(system, 9)[::-1], 0.0)

errs = {"plain": [], "weighted": []}
for t in range(20):
    gen = np.random.default_rng(100 + t)
    u = gen.standard_normal(2000)
    e = 2.0 * gen.standard_normal(2000)
    rec = ps.SignalRecord(u=u, y=ps.simulate(system, u, e))
    blocks = ps.assemble_blocks(rec, f=10, p=12)
    errs["plain"].append(ps.error_g(ps.parsim_ols(blocks).g_rows[-1], target))
    errs["weighted"].append(ps.error_g(ps.parsim_wls(blocks, h_true).g_rows[-1], target))

for name, vals in errs.items():
    print(f"{name:9s} bank: mean Error(G) = {np.mean(vals):.3f}")
print("\nThe weighting matters most when the noise is strongly colored,")
print("as it is here (noise-channel Markov parameters decay like 0.98^k).")
