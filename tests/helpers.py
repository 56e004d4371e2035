"""Shared oracle helpers for the test suite.

These build the reference quantities (observability stacks, past-data
controllability maps, Markov Toeplitz blocks) directly from model matrices,
independently of the library's estimation code paths.
"""

import math
import os
from pathlib import Path
from types import SimpleNamespace

import numpy as np
from scipy.linalg import solveh_banded, toeplitz
from scipy.linalg.lapack import dpotrf, dpotrs, dsyev
from scipy.signal import lfilter, ss2tf

import parsimid
from parsimid import (
    DivergenceError,
    RankError,
    SignalRecord,
    StateSpaceModel,
    simulate,
)
from parsimid.benchmark import example1_system, example2_system
from parsimid.data_blocks import _hankel_design


def child_env(**overrides):
    """Environment for a child Python that imports the same parsimid as this process.

    The package's root leads PYTHONPATH, because a relative entry
    (PYTHONPATH=src) does not resolve from another working directory.  A
    RuntimeWarning is an error in the child, as pyproject.toml makes it in
    this one.
    """
    root = str(Path(parsimid.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [root, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path, "PYTHONWARNINGS": "error::RuntimeWarning", **overrides}


def design(blocks):
    """The read-only, Fortran-ordered N x (2p + 2f) design [Y_p' U_p' U_f' Y_f'] that ``blocks.ls`` factored."""
    D = _hankel_design(blocks.Y, blocks.U, blocks.p)
    D.setflags(write=False)
    return D


def row_blocks(blocks):
    """Row blocks Y_p, U_p, Z_p = [Y_p; U_p], U_f, Y_f: read-only views of ``design(blocks)``."""
    p, f, D = blocks.p, blocks.f, design(blocks).T
    return SimpleNamespace(
        Y_p=D[:p], U_p=D[p : 2 * p], Z_p=D[: 2 * p], U_f=D[2 * p : 2 * p + f], Y_f=D[2 * p + f :]
    )


def gamma_f(A, C, f):
    """Observability stack [C; CA; ...; CA^(f-1)]."""
    rows = [np.atleast_2d(C)[0]]
    for _ in range(f - 1):
        rows.append(rows[-1] @ A)
    return np.array(rows)


def l_p(A_bar, B_bar, K, p):
    """Past-data map [A_bar^(p-1) K, ..., K, A_bar^(p-1) B_bar, ..., B_bar]."""
    cols_y, cols_u = [], []
    My, Mu = np.array(K, dtype=float), np.array(B_bar, dtype=float)
    for _ in range(p):
        cols_y.append(My.copy())
        cols_u.append(Mu.copy())
        My = A_bar @ My
        Mu = A_bar @ Mu
    return np.hstack([np.hstack(cols_y[::-1]), np.hstack(cols_u[::-1])])


def true_gamma_lp(m: StateSpaceModel, f: int, p: int):
    return gamma_f(m.A, m.C, f) @ l_p(m.A - m.K @ m.C, m.B - m.K @ m.D, m.K, p)


def noise_toeplitz(h, i, N):
    """Dense noise factor T of row i, (N + i - 1) x N, and its column band.

    Column j of T carries band = [H_{i-1}, ..., H_1, H_0] in rows j..j+i-1
    with H_0 = 1, so that (stacked Markov row) @ (innovations Hankel)
    equals (innovations row) @ T.  ``h`` = [H_1, H_2, ...] needs at least
    i - 1 entries.
    """
    band = np.r_[np.asarray(h, dtype=float)[: i - 1][::-1], 1.0]
    T = toeplitz(np.r_[band, np.zeros(N - 1)], np.r_[band[0], np.zeros(N - 1)])
    return T, band


def toeplitz_gram_band(h, i, N):
    """Upper-banded LAPACK storage of row i's T'T (as ``solveh_banded`` reads it), a view of the lower band.

    T is :func:`noise_toeplitz`'s; lags past the end of ``h`` count as 0.
    With b = [H_0 = 1, H_1, ...], diagonal d of T'T is b[0] b[d] +
    b[1] b[d+1] + ... + b[i-1-d] b[i-1], summed here one term at a time from
    the first, as ``estimators._gram_diagonals`` adds it.  The band is one
    Fortran-ordered lower band (row d holds diagonal d), as the WLS bank
    factors it; as every diagonal is constant, its rows reversed, the view
    returned, are the upper storage.
    """
    b = np.zeros(i)
    b[0] = 1.0
    h = np.asarray(h, dtype=float).ravel()[: i - 1]
    b[1 : 1 + h.size] = h
    band = np.empty((i, N), order="F")
    for d in range(i):
        total = 0.0
        for m in range(d, i):
            total += b[m - d] * b[m]
        band[d] = total
    return band[::-1]


def toeplitz_gf(m: StateSpaceModel, f: int):
    """Lower-triangular input Toeplitz block [[D, 0, ...], [CB, D, ...], ...]."""
    G = np.zeros((f, f))
    d = m.D[0, 0]
    markov = [(m.C @ np.linalg.matrix_power(m.A, j) @ m.B).item() for j in range(f)]
    for r in range(f):
        G[r, r] = d
        for c in range(r):
            G[r, c] = markov[r - c - 1]
    return G


def colspace(M, rank):
    """Orthonormal basis of the leading column space, for angle comparisons."""
    U, _, _ = np.linalg.svd(np.asarray(M, dtype=float), full_matrices=False)
    return U[:, :rank]


def random_stable_model(rng, n_x, rho_range=(0.3, 0.95), k_scale=0.3):
    """Random stable SISO innovations-form model for property tests."""
    A0 = rng.standard_normal((n_x, n_x))
    rho = np.max(np.abs(np.linalg.eigvals(A0)))
    A = A0 * (rng.uniform(*rho_range) / rho)
    return StateSpaceModel(
        A=A,
        B=rng.standard_normal((n_x, 1)),
        C=rng.standard_normal((1, n_x)),
        D=0.0,
        K=k_scale * rng.standard_normal((n_x, 1)),
        sigma_e2=1.0,
    )


# Reference least-squares solvers: the per-problem lstsq fits that the
# nested-QR kernel replaced, kept to check the kernel against.

def _ref_arx_design(u, y, n, start):
    total = y.size
    Phi = np.empty((total - start, 2 * n))
    for j in range(1, n + 1):
        Phi[:, j - 1] = y[start - j : total - j]
        Phi[:, n + j - 1] = u[start - j : total - j]
    return Phi, y[start:]


def ref_solve_arx(u, y, n, start):
    """Minimum-norm order-n ARX fit by a full lstsq; (theta [h | g], rss, n_eff) or None.

    None means the input-lag block is rank deficient.
    """
    Phi, t = _ref_arx_design(u, y, n, start)
    if np.linalg.matrix_rank(Phi[:, n:]) < n:
        return None
    theta = np.linalg.lstsq(Phi, t, rcond=None)[0]
    r = t - Phi @ theta
    return theta, float(r @ r), t.size


def ref_select_order_aic(rec, grid):
    """AIC pick with one full lstsq per order on the common window, or None."""
    orders = sorted({int(n) for n in grid})
    n_total, start = len(rec), orders[-1]
    best_n, best_aic = None, np.inf
    for n in orders:
        if n_total < 10 * n or n_total - start <= 2 * n:
            continue
        fit = ref_solve_arx(rec.u, rec.y, n, start)
        if fit is None:
            continue
        _, rss, n_eff = fit
        with np.errstate(divide="ignore"):
            aic = n_eff * np.log(rss / n_eff) + 4.0 * n
        if aic < best_aic:
            best_n, best_aic = n, aic
    return best_n


def ref_parsim_ols(blocks):
    """OLS bank with one full lstsq per row: (gamma, g_rows)."""
    f, p, b = blocks.f, blocks.p, row_blocks(blocks)
    gamma = np.empty((f, 2 * p))
    g_rows = []
    for i in range(1, f + 1):
        Z = np.vstack([b.Z_p, b.U_f[:i]])
        theta = np.linalg.lstsq(Z.T, b.Y_f[i - 1], rcond=None)[0]
        gamma[i - 1] = theta[: 2 * p]
        g_rows.append(theta[2 * p :])
    return gamma, g_rows


def ref_parsim_wls(blocks, h):
    """WLS bank with two banded Cholesky solves per row: (gamma, g_rows).

    Row 1 is the plain regression; row i >= 2 forms Z V and y V with
    V = (T'T)^(-1) Z' by ``solveh_banded`` and solves the normal equations
    by lstsq, as ``parsim_wls`` did before its one-sweep whitening.
    """
    f, p, b = blocks.f, blocks.p, row_blocks(blocks)
    gamma = np.empty((f, 2 * p))
    g_rows = []
    for i in range(1, f + 1):
        Z = np.vstack([b.Z_p, b.U_f[:i]])
        y = b.Y_f[i - 1]
        if i == 1:
            theta = np.linalg.lstsq(Z.T, y, rcond=None)[0]
        else:
            V = solveh_banded(toeplitz_gram_band(h.h, i, blocks.N), Z.T)
            theta = np.linalg.lstsq(Z @ V, y @ V, rcond=None)[0]
        gamma[i - 1] = theta[: 2 * p]
        g_rows.append(theta[2 * p :])
    return gamma, g_rows


def ref_gram_solve_f2py(W, q):
    """``_lstsq.gram_solve`` through scipy's f2py wrappers of ``dsyev``, ``dpotrf`` and ``dpotrs``.

    The form the library had before it called the three routines without
    the interpreter lock; the lock-free calls must give its bytes.
    """
    G = W.T @ W
    A, b = G[:q, :q], G[:q, q]
    ev, _, info = dsyev(A, compute_v=0)
    if info != 0:
        raise RankError(f"Gram eigenvalues did not converge (dsyev info {info})")
    s = np.abs(ev)
    rank, s_min = int(np.sum(s > np.finfo(float).eps * q * s.max())), s.min()
    cond = float(s.max() / s_min) if s_min > 0 else float("inf")
    if rank == q:
        c, info = dpotrf(A, lower=1, clean=0)
        if info == 0:
            theta = dpotrs(c, b, lower=1)[0]
            Wq = W[:, :q]
            return theta + dpotrs(c, Wq.T @ (W[:, q] - Wq @ theta), lower=1)[0], rank, cond
    return np.linalg.lstsq(A, b, rcond=None)[0], rank, cond


def ref_simulate(m, u, e=None):
    """Step-by-step innovations-form recursion from the zero state.

    y[k] = C x[k] + D u[k] + e[k], x[k+1] = A x[k] + B u[k] + K e[k];
    raises DivergenceError at the first non-finite y, as ``simulate`` does.
    """
    u = np.asarray(u, dtype=float).ravel()
    e = np.zeros_like(u) if e is None else np.asarray(e, dtype=float).ravel()
    x = np.zeros(m.n_x)
    b, c, d, k = m.B[:, 0], m.C[0], m.D[0, 0], m.K[:, 0]
    y = np.empty_like(u)
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(u.size):
            yt = float(c @ x) + d * u[t] + e[t]
            if not math.isfinite(yt):
                raise DivergenceError(f"simulation diverged at step {t}")
            y[t] = yt
            x = m.A @ x + b * u[t] + k * e[t]
    return y


def ref_simulate_ss2tf(m, u, e=None):
    """``simulate`` by ``scipy.signal.ss2tf``: the two-input system [B K], [D 1], one transfer function per input."""
    u = np.asarray(u, dtype=float).ravel()
    e = np.zeros_like(u) if e is None else np.asarray(e, dtype=float).ravel()
    B_k, D_k = np.hstack([m.B, m.K]), np.hstack([m.D, [[1.0]]])
    num_g, den = ss2tf(m.A, B_k, m.C, D_k, input=0)
    num_h, _ = ss2tf(m.A, B_k, m.C, D_k, input=1)
    return lfilter(num_g[0], den, u) + lfilter(num_h[0], den, e)


def example_record(name, seed, noisy=False, n_total=2000):
    """Example 1 with white input, or Example 2 with its coloured input.

    ``noisy`` adds the paper's innovations (variance 4 and 217.1); the input
    draw does not depend on it.
    """
    rng = np.random.default_rng(seed)
    if name == "example1":
        system, u = example1_system(), rng.standard_normal(n_total)
    else:
        system, input_filter = example2_system()
        u = lfilter(input_filter, [1.0], rng.standard_normal(n_total))
    e = np.sqrt(system.sigma_e2) * rng.standard_normal(n_total) if noisy else None
    return SignalRecord(u=u, y=simulate(system, u, e))


def two_sine_record(noise, n_total=1500):
    """Example 1 driven by an input persistently exciting of order 4 only.

    The input is sin(0.3k) + 0.5 sin(1.1k); ``noise`` is the standard
    deviation of the white innovations.
    """
    k = np.arange(n_total)
    u = np.sin(0.3 * k) + 0.5 * np.sin(1.1 * k)
    e = noise * np.random.default_rng(0).standard_normal(k.size)
    return SignalRecord(u=u, y=simulate(example1_system(), u, e))


# Dense references for the estimators that now read the record's one QR:
# the future-input projector P = I - U_f' (U_f U_f')^(-1) U_f applied by its
# formula, and pseudo-inverse normal equations as the estimators solved them
# before.

def _ref_project(X, blocks):
    """X P, without forming the N x N projector."""
    U_f = row_blocks(blocks).U_f
    return X - (X @ U_f.T) @ np.linalg.solve(U_f @ U_f.T, U_f)


def _ref_regress(Y, Z):
    """Y Z' (Z Z')^+ by lstsq on the normal equations."""
    return np.linalg.lstsq(Z @ Z.T, (Y @ Z.T).T, rcond=None)[0].T


def ref_projected_gram(blocks):
    """Z_p P Z_p'."""
    Zp_perp = _ref_project(row_blocks(blocks).Z_p, blocks)
    return Zp_perp @ Zp_perp.T


def ref_classical_gamma(blocks):
    """Y_f P Z_p' (Z_p P Z_p')^+."""
    b = row_blocks(blocks)
    return _ref_regress(b.Y_f, _ref_project(b.Z_p, blocks))


def ref_ssarx_gamma(blocks, pm):
    """(Y_f - G_bar U_f - H_bar Y_f) Z_p' (Z_p Z_p')^+ with Toeplitz G_bar, H_bar from ``pm``."""
    f, b = blocks.f, row_blocks(blocks)
    G_bar = toeplitz(np.r_[0.0, pm.g_bar[: f - 1]], np.zeros(f))
    H_bar = toeplitz(np.r_[0.0, pm.h_bar[: f - 1]], np.zeros(f))
    return _ref_regress(b.Y_f - G_bar @ b.U_f - H_bar @ b.Y_f, b.Z_p)


def ref_w2(blocks):
    """Symmetric square root of Z_p P Z_p' by eigh, rounding-level negatives clamped to 0."""
    w, V = np.linalg.eigh(ref_projected_gram(blocks))
    return (V * np.sqrt(np.clip(w, 0.0, None))) @ V.T
