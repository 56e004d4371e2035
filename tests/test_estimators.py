import gc
import multiprocessing
import os
import sys
import threading
import time
import weakref

import numpy as np
import pytest
from scipy.linalg import cholesky_banded, solve_banded, solveh_banded, subspace_angles
from scipy.signal import lfilter

from parsimid import (
    ExcitationError,
    InnovationsMarkov,
    RankError,
    RealizationConfig,
    SignalRecord,
    assemble_blocks,
    default_aic_grid,
    error_g,
    fit_arx,
    identify,
    markov_g,
    markov_h,
    parsim_ols,
    parsim_wls,
    select_order_aic,
    simulate,
)
from parsimid import _lstsq, estimators
from parsimid.arx_pre import PredictorMarkov, predictor_to_innovations
from parsimid.estimators import classical_projection, ssarx_estimate
from parsimid.benchmark import _trial_data, example1_system, example2_scenario, example2_system, example3_scenario

from helpers import (
    colspace,
    example_record,
    gamma_f,
    noise_toeplitz,
    random_stable_model,
    ref_parsim_wls,
    row_blocks,
    toeplitz_gram_band,
)


def rel(a, b) -> float:
    return float(np.linalg.norm(np.ravel(a) - np.ravel(b)) / np.linalg.norm(np.ravel(b)))


def example1_record(n_total, sigma_e, seed):
    m = example1_system()
    rng = np.random.default_rng(seed)
    u = rng.standard_normal(n_total)
    e = sigma_e * rng.standard_normal(n_total)
    return m, SignalRecord(u=u, y=simulate(m, u, e))


class TestNoiseToeplitz:
    def test_two_by_two_display(self):
        T, _ = noise_toeplitz([0.7], i=2, N=2)
        np.testing.assert_array_equal(T, [[0.7, 0.0], [1.0, 0.7], [0.0, 1.0]])

    def test_single_row_is_identity(self):
        T, _ = noise_toeplitz([], i=1, N=5)
        np.testing.assert_array_equal(T, np.eye(5))

    def test_rewrite_identity(self):
        # stacked Markov row times innovations Hankel == innovations row times T
        rng = np.random.default_rng(0)
        i, N = 4, 30
        h = rng.standard_normal(i - 1)
        T, _ = noise_toeplitz(h, i, N)
        eps = rng.standard_normal(N + i - 1)
        E = np.array([eps[s : s + N] for s in range(i)])
        h_fi = np.append(h[::-1], 1.0)
        np.testing.assert_allclose(h_fi @ E, eps @ T, atol=1e-12)

    def test_band_column_structure(self):
        h = [0.5, -0.3, 0.2]
        i, N = 4, 7
        T, _ = noise_toeplitz(h, i, N)
        for j in range(N):
            col = T[:, j]
            np.testing.assert_array_equal(col[j : j + i], [0.2, -0.3, 0.5, 1.0])
            assert np.count_nonzero(col) == i

    def test_gram_band_pads_missing_lags(self):
        # H_m beyond the given h count as 0, as in the dense T of the padded h
        h = [0.5, -0.3]
        i, N = 5, 9
        dense, _ = noise_toeplitz(np.r_[h, 0.0, 0.0], i, N)
        M = dense.T @ dense
        ab = toeplitz_gram_band(h, i, N)
        np.testing.assert_array_equal(ab, toeplitz_gram_band(np.r_[h, 0.0, 0.0], i, N))
        for d in range(i):
            np.testing.assert_allclose(ab[i - 1 - d, d:], np.diagonal(M, d), atol=1e-13)
        np.testing.assert_array_equal(ab[:2], 0.0)

    def test_gram_band_matches_dense(self):
        rng = np.random.default_rng(1)
        for i, N in ((2, 6), (4, 12), (7, 20)):
            h = rng.standard_normal(i - 1)
            dense, _ = noise_toeplitz(h, i, N)
            M = dense.T @ dense
            ab = toeplitz_gram_band(h, i, N)
            for d in range(i):
                np.testing.assert_allclose(ab[i - 1 - d, d:], np.diagonal(M, offset=d), atol=1e-12)

    def test_bank_diagonals_are_the_bands_of_each_row(self):
        # parsim_wls takes every row's diagonals in one call; each is the
        # band that helpers.toeplitz_gram_band sums term by term for that
        # row alone, bit for bit, rows past the end of h included.
        rng, rows = np.random.default_rng(2), list(range(2, 26))
        for size in (6, *rng.integers(1, 25, size=40)):
            h = InnovationsMarkov(h=rng.standard_normal(size)).h
            for i, diagonals in zip(rows, estimators._gram_diagonals(h, rows)):
                band = toeplitz_gram_band(h, i, 3)[::-1]
                assert band.tobytes() == np.repeat(diagonals[:, None], 3, axis=1).tobytes()


class TestParsimOls:
    def test_noise_free_markov_recovery(self):
        m, rec = example1_record(2000, 0.0, seed=2)
        blocks = assemble_blocks(rec, f=10, p=20)
        est = parsim_ols(blocks)
        true_g = markov_g(m, 9)
        for i, row in enumerate(est.g_rows, start=1):
            # row holds [G_{i-1}, ..., G_1, G_0] with G_0 = D = 0
            expect = np.append(true_g[: i - 1][::-1], 0.0)
            np.testing.assert_allclose(row, expect, atol=1e-6)

    def test_single_row_bank_matches_plain_regression(self):
        _, rec = example1_record(500, 1.0, seed=3)
        blocks = assemble_blocks(rec, f=1, p=4)
        est = parsim_ols(blocks)
        b = row_blocks(blocks)
        Z = np.vstack([b.Z_p, b.U_f[:1]])
        theta = np.linalg.lstsq(Z.T, b.Y_f[0], rcond=None)[0]
        np.testing.assert_allclose(est.gamma_lp[0], theta[:8], atol=1e-12)
        np.testing.assert_allclose(est.g_rows[0], theta[8:], atol=1e-12)

    def test_constant_input_raises(self):
        rng = np.random.default_rng(4)
        rec = SignalRecord(u=np.ones(200), y=rng.standard_normal(200))
        with pytest.raises(ExcitationError):
            parsim_ols(assemble_blocks(rec, f=3, p=3))

    def test_row_counts(self):
        _, rec = example1_record(400, 1.0, seed=5)
        est = parsim_ols(assemble_blocks(rec, f=6, p=5))
        assert est.gamma_lp.shape == (6, 10)
        assert [row.size for row in est.g_rows] == [1, 2, 3, 4, 5, 6]


class TestParsimWls:
    def test_zero_markov_weights_equal_ols(self):
        _, rec = example1_record(600, 1.5, seed=6)
        blocks = assemble_blocks(rec, f=5, p=6)
        est_w = parsim_wls(blocks, InnovationsMarkov(h=np.zeros(4)))
        est_o = parsim_ols(blocks)
        np.testing.assert_allclose(est_w.gamma_lp, est_o.gamma_lp, atol=1e-10)
        for rw, ro in zip(est_w.g_rows, est_o.g_rows):
            np.testing.assert_allclose(rw, ro, atol=1e-10)

    def test_first_row_always_matches_ols(self):
        _, rec = example1_record(600, 1.5, seed=7)
        blocks = assemble_blocks(rec, f=5, p=6)
        est_w = parsim_wls(blocks, InnovationsMarkov(h=np.array([0.9, 0.5, 0.2, 0.1])))
        est_o = parsim_ols(blocks)
        np.testing.assert_allclose(est_w.gamma_lp[0], est_o.gamma_lp[0], atol=1e-12)
        np.testing.assert_allclose(est_w.g_rows[0], est_o.g_rows[0], atol=1e-12)

    def test_one_row_bank_is_the_ols_row(self):
        # f = 1 has no weighted row: the estimate is row 1, OLS's to the byte, with no Gram.
        _, rec = example1_record(600, 1.5, seed=7)
        blocks = assemble_blocks(rec, f=1, p=6)
        est_w = parsim_wls(blocks, InnovationsMarkov(h=np.array([0.9, 0.5])))
        est_o = parsim_ols(blocks)
        assert est_w.gamma_lp.tobytes() == est_o.gamma_lp.tobytes()
        assert [row.tobytes() for row in est_w.g_rows] == [row.tobytes() for row in est_o.g_rows]
        assert est_w.gram_rank == est_w.gram_cond == ()

    def test_short_markov_sequence_padded_with_zeros(self):
        _, rec = example1_record(600, 1.5, seed=8)
        blocks = assemble_blocks(rec, f=5, p=6)
        est_short = parsim_wls(blocks, InnovationsMarkov(h=np.array([0.9])))
        est_padded = parsim_wls(blocks, InnovationsMarkov(h=np.array([0.9, 0.0, 0.0, 0.0])))
        np.testing.assert_allclose(est_short.gamma_lp, est_padded.gamma_lp, atol=1e-12)

    def test_weighted_bank_beats_plain_on_markov_error(self):
        # colored-noise benchmark system: mean relative error of the last-row
        # Markov estimates should drop under the weighted bank
        m = example1_system()
        h = InnovationsMarkov(h=markov_h(m, 12))
        true_last = np.append(markov_g(m, 9)[::-1], 0.0)
        errs_o, errs_w = [], []
        for t in range(25):
            _, rec = example1_record(2000, 2.0, seed=100 + t)
            blocks = assemble_blocks(rec, f=10, p=12)
            errs_o.append(error_g(parsim_ols(blocks).g_rows[-1], true_last))
            errs_w.append(error_g(parsim_wls(blocks, h).g_rows[-1], true_last))
        assert np.mean(errs_w) < np.mean(errs_o)


class TestNonMinimumPhaseRows:
    """Characterization: the WLS rows whose noise polynomial is not minimum phase do not converge.

    Example 2, f = 7, p = 20, weighted with the true H.  Row i's noise
    polynomial is 1 + H_1 z^-1 + ... + H_{i-1} z^-(i-1).  GLS whitening
    with its covariance returns the row noise's Wold innovations, which
    mix in past innovations once a root lies outside the unit circle; the
    past outputs carry those, so the whitened regressors correlate with
    the whitened noise and GLS converges away from OLS, which stays
    consistent.  This pins the rows as they are: a change to the weighted
    rows changes this test.
    """

    F, P = 7, 20

    def test_rows_with_a_root_outside_the_circle_are_rows_5_to_7(self):
        h = markov_h(example2_system()[0], self.F - 1)
        roots = [np.max(np.abs(np.roots(np.r_[1.0, h[: i - 1]]))) for i in range(2, self.F + 1)]
        assert [i for i, r in zip(range(2, self.F + 1), roots) if r >= 1.0] == [5, 6, 7]

    def test_gap_to_ols_stays_on_rows_5_to_7(self):
        system, filt = example2_system()
        sigma_e = np.sqrt(example2_scenario().noise_variance)
        h = InnovationsMarkov(markov_h(system, self.F - 1))
        gap = {}
        for N in (8_000, 32_000):
            per_record = []
            for seed in range(3):
                rng = np.random.default_rng([seed, N])
                u = lfilter(filt, [1.0], rng.standard_normal(N))
                rec = SignalRecord(u=u, y=simulate(system, u, sigma_e * rng.standard_normal(N)))
                blocks = assemble_blocks(rec, self.F, self.P)
                ols, wls = parsim_ols(blocks).gamma_lp, parsim_wls(blocks, h).gamma_lp
                per_record.append(np.linalg.norm(wls - ols, axis=1) / np.linalg.norm(ols, axis=1))
            gap[N] = np.median(per_record, axis=0)  # gap[N][i - 1] is row i's
        # Measured: rows 2..7 read 0.009 / 0.043 / 0.068 / 0.21 / 0.41 / 0.48 at
        # N = 8,000 and 0.008 / 0.040 / 0.103 / 0.25 / 0.46 / 0.52 at 32,000.
        for N in gap:
            assert np.all(gap[N][4:] >= 0.15), (N, gap[N])
            assert np.all(gap[N][1:3] < 0.1), (N, gap[N])
        assert np.all(gap[32_000][4:] >= 0.8 * gap[8_000][4:]), gap


def bank_record(name, seed, noisy):
    """Record and f of the weighted-bank checks.

    Example 1 (white input), Example 2 (coloured input), or an Example 3
    trial record (random sixth-order system, band-limited binary input).
    """
    if name == "example3":
        return _trial_data(example3_scenario(10.0 if noisy else 0.0), seed, 0)[1], 20
    return example_record(name, seed, noisy=noisy), 10


def svd_gram_health(blocks, h):
    """(rank, cond) of each explicitly whitened Gram Z (T'T)^(-1) Z', rows 2..f, by SVD."""
    b, eps = row_blocks(blocks), np.finfo(float).eps
    out = []
    for i in range(2, blocks.f + 1):
        Z = np.vstack([b.Z_p, b.U_f[:i]])
        s = np.linalg.svd(Z @ solveh_banded(toeplitz_gram_band(h.h, i, blocks.N), Z.T), compute_uv=False)
        out.append((int(np.sum(s > eps * Z.shape[0] * s[0])), s[0] / s[-1]))
    return out


def whitened_qr_row(blocks, h, i):
    """Row i by lstsq on L^(-1) [Z' y'], T'T = L L' factored and swept by scipy's banded routines."""
    b = row_blocks(blocks)
    L = cholesky_banded(toeplitz_gram_band(h.h, i, blocks.N)[::-1], lower=True)
    Z = np.vstack([b.Z_p, b.U_f[:i]])
    W = solve_banded((i - 1, 0), L, np.column_stack([Z.T, b.Y_f[i - 1]]))
    return np.linalg.lstsq(W[:, :-1], W[:, -1], rcond=None)[0]


class TestWlsBankReference:
    """The one-sweep WLS bank against the two-solve ``solveh_banded`` bank."""

    # p as the Monte Carlo trials pick it (AIC on the default grid for n_x),
    # or p = 20 for Example 2.
    @pytest.mark.parametrize("name,aic_n_x", [("example1", 3), ("example2", None), ("example3", 6)])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_noisy_bank_matches_reference(self, name, aic_n_x, seed):
        rec, f = bank_record(name, seed, noisy=True)
        p = 20 if aic_n_x is None else select_order_aic(rec, default_aic_grid(aic_n_x, len(rec)))
        blocks = assemble_blocks(rec, f, p)
        h = predictor_to_innovations(fit_arx(rec, 30))
        gamma, g_rows = ref_parsim_wls(blocks, h)
        est = parsim_wls(blocks, h)
        for i in range(f):
            assert rel(est.gamma_lp[i], gamma[i]) < 1e-10, i
            assert rel(est.g_rows[i], g_rows[i]) < 1e-10, i
        assert est.gram_rank == tuple(2 * p + i for i in range(2, f + 1))
        assert len(est.gram_cond) == f - 1
        # The eigenvalues of the bank's Gram are the singular values of the
        # explicitly whitened one to about eps * s_max, so cond agrees to
        # about eps * cond relative (0.7 eps * cond at most on these rows).
        for (rank, cond), est_rank, est_cond in zip(svd_gram_health(blocks, h), est.gram_rank, est.gram_cond):
            assert est_rank == rank
            assert abs(est_cond / cond - 1) < 100 * np.finfo(float).eps * cond

    @pytest.mark.parametrize("name,aic_n_x", [("example1", 3), ("example2", None), ("example3", 6)])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_noisy_bank_matches_a_qr_solve_of_the_whitened_design(self, name, aic_n_x, seed):
        # Each row against lstsq on L^(-1) [Z' y'], with T'T = L L' factored
        # and swept by scipy's banded routines.  The one refinement step
        # brings the Gram solve to a QR solve's accuracy; without it,
        # Example 2 rows miss by up to 5e-11.
        rec, f = bank_record(name, seed, noisy=True)
        p = 20 if aic_n_x is None else select_order_aic(rec, default_aic_grid(aic_n_x, len(rec)))
        blocks = assemble_blocks(rec, f, p)
        h = predictor_to_innovations(fit_arx(rec, 30))
        est = parsim_wls(blocks, h)
        for i in range(2, f + 1):
            assert rel(np.r_[est.gamma_lp[i - 1], est.g_rows[i - 1]], whitened_qr_row(blocks, h, i)) <= 1e-12, i

    def test_rows_on_either_side_of_the_unscaled_band(self, monkeypatch):
        # Row 12 (bandwidth 11) sweeps the unit-diagonal factor over divided
        # windows, row 13 (bandwidth 12) the factor as it stands over the
        # windows as they are; both meet the QR reference's bound.
        rec, f = bank_record("example3", 0, noisy=True)
        blocks = assemble_blocks(rec, f, select_order_aic(rec, default_aic_grid(6, len(rec))))
        h = predictor_to_innovations(fit_arx(rec, 30))
        units = {}

        def recorded(ab, b, unit=True):
            units[ab.shape[0]] = unit
            return sweep(ab, b, unit)

        sweep = estimators.band_lower_solve
        monkeypatch.setattr(estimators, "band_lower_solve", recorded)
        est = parsim_wls(blocks, h)
        assert units == {i: i - 1 < 12 for i in range(2, f + 1)}
        for i in (12, 13):
            assert rel(np.r_[est.gamma_lp[i - 1], est.g_rows[i - 1]], whitened_qr_row(blocks, h, i)) <= 1e-12, i

    @pytest.mark.parametrize("name,p", [("example1", 10), ("example1", 20), ("example2", 20)])
    def test_noise_free_bank_keeps_minimum_norm(self, name, p):
        # The weighted Grams are rank deficient here (cond near 1e16); only
        # the lstsq cutoff on the small Gram keeps the null-space part of
        # the solution at zero, as the reference does.
        rec, f = bank_record(name, 0, noisy=False)
        blocks = assemble_blocks(rec, f, p)
        h = predictor_to_innovations(fit_arx(rec, 30))
        gamma, g_rows = ref_parsim_wls(blocks, h)
        est = parsim_wls(blocks, h)
        assert rel(est.gamma_lp, gamma) < 1e-10
        assert rel(np.concatenate(est.g_rows), np.concatenate(g_rows)) < 1e-10
        assert min(est.gram_rank) < 2 * p + 2
        assert all(rank < 2 * p + i for i, rank in enumerate(est.gram_rank, start=2))
        assert est.gram_rank == tuple(rank for rank, _ in svd_gram_health(blocks, h))

    # Noise-free records excite only the input-driven states (two for
    # Examples 1 and 2), and their output rows are exactly collinear: the
    # weighted bank keeps the minimum-norm solution, so the estimate has
    # rank n_x to rounding.
    @pytest.mark.parametrize(
        "name,n_x,p,bound", [("example1", 2, 20, 1e-13), ("example2", 2, 20, 1e-11), ("example3", 6, 10, 1e-9)]
    )
    def test_noise_free_singular_value_floor(self, name, n_x, p, bound):
        rec, f = bank_record(name, 0, noisy=False)
        s = identify(rec, RealizationConfig(n_x=n_x, f=f, p=p, method="parsim_opt")).singular_values
        assert s[n_x] / s[0] < bound

    def test_failed_gram_cholesky_falls_back_to_lstsq(self, monkeypatch):
        # A full-rank Gram whose dpotrf reports failure is solved by lstsq,
        # with the same answer.
        rec, f = bank_record("example1", 0, noisy=True)
        blocks = assemble_blocks(rec, f, p=9)
        h = predictor_to_innovations(fit_arx(rec, 30))
        calls = {"dpotrf": 0, "lstsq": 0}
        lock = threading.Lock()  # the bank's threads count concurrently

        def failing_cholesky(a):
            with lock:
                calls["dpotrf"] += 1
            return 1

        def counted_lstsq(*args, **kwargs):
            with lock:
                calls["lstsq"] += 1
            return lstsq(*args, **kwargs)

        lstsq = np.linalg.lstsq
        monkeypatch.setattr(_lstsq, "cholesky", failing_cholesky)
        monkeypatch.setattr(np.linalg, "lstsq", counted_lstsq)
        est = parsim_wls(blocks, h)
        monkeypatch.undo()
        assert calls == {"dpotrf": f - 1, "lstsq": f - 1}
        assert est.gram_rank == tuple(2 * 9 + i for i in range(2, f + 1))
        gamma, g_rows = ref_parsim_wls(blocks, h)
        for i in range(f):
            assert rel(est.gamma_lp[i], gamma[i]) < 1e-10, i
            assert rel(est.g_rows[i], g_rows[i]) < 1e-10, i

    def test_factorable_gram_below_the_cutoff_keeps_minimum_norm(self):
        # dpotrf factors this Gram, but its second singular value is under
        # lstsq's cutoff, so the solve drops that direction as lstsq does.
        # The columns e1, 2^-35 e2 and e1 + 2^35 e2 give G[:2, :3] =
        # [[1, 0, 1], [0, 2^-70, 1]] exactly.
        W = np.array([[1.0, 0.0, 1.0], [0.0, 2.0**-35, 2.0**35]])
        G = W.T @ W
        theta, rank, cond = _lstsq.gram_solve(W, 2)
        np.testing.assert_array_equal(theta, np.linalg.lstsq(G[:2, :2], G[:2, 2], rcond=None)[0])
        assert (rank, cond) == (1, 2.0**70)

    def test_failed_cholesky_names_the_row(self, monkeypatch):
        _, rec = example1_record(600, 1.5, seed=6)
        blocks = assemble_blocks(rec, f=5, p=6)

        def indefinite_from_row_3(h, rows):
            return [-d if i >= 3 else d for i, d in zip(rows, gram_diagonals(h, rows))]

        gram_diagonals = estimators._gram_diagonals
        monkeypatch.setattr(estimators, "_gram_diagonals", indefinite_from_row_3)
        with pytest.raises(RankError, match="at row 3"):
            parsim_wls(blocks, InnovationsMarkov(h=np.array([0.9, 0.5, 0.2, 0.1])))


def _bank_in_child(blocks, h, want):
    """Exit 0 if this process's bank equals ``want`` byte for byte."""
    est = parsim_wls(blocks, h)
    raise SystemExit(0 if bank_bytes(est) == bank_bytes(want) else 1)


def _threads_in_child(blocks):
    return estimators._bank_threads(blocks)


def bank_bytes(est):
    return est.gamma_lp.tobytes(), [row.tobytes() for row in est.g_rows], est.gram_rank, est.gram_cond


def weighted_bank(name, seed, p=10):
    rec, f = bank_record(name, seed, noisy=True)
    return assemble_blocks(rec, f, p), predictor_to_innovations(fit_arx(rec, 30))


def fresh_helpers(monkeypatch):
    """A new, empty helper pool for the bank, as a fresh process has; the test's own are left parked."""
    pool = estimators._Helpers()
    monkeypatch.setattr(estimators, "_helpers", pool)
    return pool


def threads(monkeypatch, count):
    """Run the bank on ``count`` threads (at most one per row), whatever the host's CPUs."""
    monkeypatch.setattr(estimators, "_bank_threads", lambda blocks: min(count, blocks.f - 1))


def bank_on_a_new_caller(blocks, h):
    """The calling thread and what its bank returned or raised.

    Joined with a timeout: a bank that waits for a helper that is not
    there would wait forever.
    """
    out = []

    def call():
        try:
            out.append(bank_bytes(parsim_wls(blocks, h)))
        except BaseException as err:
            out.append(err)

    caller = threading.Thread(target=call, daemon=True)
    caller.start()
    caller.join(timeout=60)
    assert not caller.is_alive(), "the bank did not return"
    return caller, out[0]


class Escape(BaseException):
    """Not an Exception, so the bank's row loop does not catch it."""


class TestThreadedBank:
    """Rows 2..f run on the calling thread and parked helpers; every output is the one-thread bank's, byte for byte."""

    @pytest.mark.parametrize("name", ["example1", "example2", "example3"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_threads_give_the_one_thread_bank(self, monkeypatch, name, seed):
        blocks, h = weighted_bank(name, seed)
        threads(monkeypatch, 1)
        want = bank_bytes(parsim_wls(blocks, h))
        for count in (2, 3):
            threads(monkeypatch, count)
            assert bank_bytes(parsim_wls(blocks, h)) == want

    def test_more_threads_than_cpus_under_fast_switching(self, monkeypatch):
        # Eight threads and a 10 us switch interval interleave the rows as
        # finely as the interpreter allows; the answer is still the serial one.
        blocks, h = weighted_bank("example3", 3)
        threads(monkeypatch, 1)
        want = bank_bytes(parsim_wls(blocks, h))
        threads(monkeypatch, 8)
        got = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            runner = threading.Thread(target=lambda: got.extend(bank_bytes(parsim_wls(blocks, h)) for _ in range(5)))
            runner.start()
            runner.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not runner.is_alive()
        assert got == [want] * 5

    def test_repeated_banks_keep_the_parked_helpers(self, monkeypatch):
        pool = fresh_helpers(monkeypatch)
        blocks, h = weighted_bank("example2", 0)
        threads(monkeypatch, 4)
        parsim_wls(blocks, h)  # starts the helpers
        before, helpers = threading.active_count(), list(pool.threads)
        assert len(helpers) == 3
        for _ in range(3):
            parsim_wls(blocks, h)
            assert threading.active_count() == before
        assert pool.threads == helpers and all(t.is_alive() and t.daemon for t in helpers)

    def test_failing_rows_raise_the_lowest_once_every_helper_is_parked(self, monkeypatch):
        pool = fresh_helpers(monkeypatch)
        blocks, h = weighted_bank("example1", 0)
        threads(monkeypatch, 3)
        want = bank_bytes(parsim_wls(blocks, h))  # starts the helpers
        before, helpers = threading.active_count(), list(pool.threads)
        assert len(helpers) == 2

        def indefinite_at_rows_3_5_and_10(h, rows):
            return [-d if i in (3, 5, 10) else d for i, d in zip(rows, gram_diagonals(h, rows))]

        gram_diagonals = estimators._gram_diagonals
        monkeypatch.setattr(estimators, "_gram_diagonals", indefinite_at_rows_3_5_and_10)
        for _ in range(3):
            with pytest.raises(RankError, match="at row 3 "):
                parsim_wls(blocks, h)
            assert threading.active_count() == before
            assert pool.jobs.empty()
        monkeypatch.setattr(estimators, "_gram_diagonals", gram_diagonals)
        assert bank_bytes(parsim_wls(blocks, h)) == want
        assert pool.threads == helpers

    def test_an_exception_that_escapes_a_helper_is_raised_and_the_helper_lives(self, monkeypatch):
        pool = fresh_helpers(monkeypatch)
        blocks, h = weighted_bank("example1", 0)
        threads(monkeypatch, 1)
        want = bank_bytes(parsim_wls(blocks, h))
        threads(monkeypatch, 2)
        parsim_wls(blocks, h)  # starts the helper
        helpers = list(pool.threads)

        both_take_a_row = threading.Barrier(2, timeout=60)
        seen = set()
        lock = threading.Lock()

        def escaping_on_the_helper(*args):
            with lock:
                first = threading.current_thread() not in seen
                seen.add(threading.current_thread())
            if first:
                both_take_a_row.wait()
            if escape and threading.current_thread() in helpers:
                raise Escape
            return row(*args)

        row = estimators._wls_row
        monkeypatch.setattr(estimators, "_wls_row", escaping_on_the_helper)
        escape = True
        assert isinstance(bank_on_a_new_caller(blocks, h)[1], Escape)
        assert pool.jobs.empty()
        # The same helper runs the next bank with the calling thread.
        escape, seen = False, set()
        both_take_a_row.reset()
        caller, got = bank_on_a_new_caller(blocks, h)
        assert got == want
        assert pool.threads == helpers and helpers[0].is_alive()
        assert seen == {caller, helpers[0]}

    def test_an_exception_that_escapes_the_calling_thread_is_raised_once_every_helper_is_done(self, monkeypatch):
        pool = fresh_helpers(monkeypatch)
        blocks, h = weighted_bank("example1", 0)
        threads(monkeypatch, 1)
        want = bank_bytes(parsim_wls(blocks, h))
        threads(monkeypatch, 2)
        parsim_wls(blocks, h)  # starts the helper
        helpers = list(pool.threads)

        both_take_a_row = threading.Barrier(2, timeout=60)
        caller_raised = threading.Event()
        rows = {}  # thread -> rows it solved
        lock = threading.Lock()

        def escaping_on_the_caller(blocks, diagonals, W):
            me = threading.current_thread()
            with lock:
                first = me not in rows
                rows.setdefault(me, [])
            if first:
                both_take_a_row.wait()
            if escape and me not in helpers:
                caller_raised.set()
                raise Escape
            if escape and first:
                # The helper's rows end well after the caller has raised.
                assert caller_raised.wait(timeout=60)
                time.sleep(0.1)
            out = row(blocks, diagonals, W)
            rows[me].append(diagonals.size)
            return out

        row = estimators._wls_row
        monkeypatch.setattr(estimators, "_wls_row", escaping_on_the_caller)
        escape = True
        with pytest.raises(Escape):
            parsim_wls(blocks, h)
        # Every row but the one the caller raised on was solved by the helper.
        assert len(rows[helpers[0]]) == blocks.f - 2
        assert pool.jobs.empty()
        # The same helper runs the next bank with the calling thread.
        escape, rows = False, {}
        caller, got = bank_on_a_new_caller(blocks, h)
        assert got == want
        assert pool.threads == helpers and helpers[0].is_alive()
        assert set(rows) == {caller, helpers[0]}

    def test_a_helper_that_cannot_start_leaves_the_bank_to_the_threads_that_did(self, monkeypatch):
        pool = fresh_helpers(monkeypatch)
        blocks, h = weighted_bank("example1", 0)
        threads(monkeypatch, 1)
        want = bank_bytes(parsim_wls(blocks, h))
        threads(monkeypatch, 3)
        start, tried = threading.Thread.start, []

        def second_helper_refused(thread):
            if thread.name == "parsim_wls helper":
                tried.append(thread)
                if len(tried) == 2:
                    raise RuntimeError("can't start new thread")
            start(thread)

        monkeypatch.setattr(threading.Thread, "start", second_helper_refused)
        assert bank_on_a_new_caller(blocks, h)[1] == want
        assert len(tried) == 2 and pool.threads == tried[:1]
        # The next bank starts the helper it lacks.
        assert bank_on_a_new_caller(blocks, h)[1] == want
        assert len(tried) == 3 and pool.threads == [tried[0], tried[2]]
        assert all(t.is_alive() for t in pool.threads)

    def test_a_parked_helper_keeps_nothing_of_the_last_bank(self, monkeypatch):
        pool = fresh_helpers(monkeypatch)
        blocks, h = weighted_bank("example1", 0)
        threads(monkeypatch, 2)
        parsim_wls(blocks, h)
        assert len(pool.threads) == 1 and pool.jobs.empty()
        gone = weakref.ref(blocks)
        del blocks
        gc.collect()
        assert gone() is None, "the parked helper still holds the bank's blocks"

    def test_a_bank_that_finds_the_helpers_held_runs_on_its_calling_thread(self, monkeypatch):
        pool = fresh_helpers(monkeypatch)
        first, h1 = weighted_bank("example1", 0)
        second, h2 = weighted_bank("example2", 1)
        threads(monkeypatch, 1)
        want = [bank_bytes(parsim_wls(first, h1)), bank_bytes(parsim_wls(second, h2))]
        threads(monkeypatch, 2)
        parsim_wls(first, h1)  # starts the helper
        # The helper holds the first caller's bank in a row until the
        # second caller's bank is done.
        helper_in_a_row, second_done = threading.Event(), threading.Event()
        ran = {id(first): set(), id(second): set()}
        lock = threading.Lock()

        def gated(blocks, *args):
            with lock:
                ran[id(blocks)].add(threading.current_thread())
            if blocks is first and threading.current_thread() in pool.threads:
                helper_in_a_row.set()
                second_done.wait(timeout=60)
            elif blocks is first:
                helper_in_a_row.wait(timeout=60)
            return row(blocks, *args)

        row = estimators._wls_row
        monkeypatch.setattr(estimators, "_wls_row", gated)
        got = {}
        callers = [
            threading.Thread(target=lambda: got.update(first=bank_bytes(parsim_wls(first, h1)))),
            threading.Thread(target=lambda: got.update(second=bank_bytes(parsim_wls(second, h2)))),
        ]
        callers[0].start()
        assert helper_in_a_row.wait(timeout=60)
        callers[1].start()
        callers[1].join(timeout=60)
        second_done.set()
        callers[0].join(timeout=60)
        assert not any(t.is_alive() for t in callers)
        assert [got.get("first"), got.get("second")] == want
        assert ran[id(second)] == {callers[1]}
        assert ran[id(first)] == {callers[0], pool.threads[0]}

    def test_a_fork_child_after_a_threaded_bank_runs_its_own(self, monkeypatch):
        blocks, h = weighted_bank("example2", 1)
        threads(monkeypatch, 2)
        want = parsim_wls(blocks, h)
        child = multiprocessing.get_context("fork").Process(target=_bank_in_child, args=(blocks, h, want))
        child.start()
        child.join(timeout=120)
        if child.is_alive():
            child.kill()
            child.join()
            pytest.fail("the forked child's bank did not finish in 120 s")
        assert child.exitcode == 0

    def test_thread_count(self):
        big, _ = weighted_bank("example1", 0)
        small = assemble_blocks(example_record("example1", 0, noisy=True, n_total=200), 10, 8)
        assert estimators._bank_threads(big) == min(len(os.sched_getaffinity(0)), big.f - 1)
        assert estimators._bank_threads(small) == 1
        # A multiprocessing child, such as a monte_carlo(jobs > 1) worker, runs its banks on one thread.
        with multiprocessing.get_context("fork").Pool(1) as pool:
            assert pool.apply(_threads_in_child, (big,)) == 1


class TestClassicalProjection:
    def test_noise_free_column_space(self):
        m, rec = example1_record(2000, 0.0, seed=9)
        blocks = assemble_blocks(rec, f=10, p=20)
        est = classical_projection(blocks)
        assert est.g_rows == ()
        # noise-free data only excites the input-driven pair of states, whose
        # observability stack is the first two columns of the full one
        target = gamma_f(m.A, m.C, 10)[:, :2]
        angles = subspace_angles(colspace(est.gamma_lp, 2), target)
        assert np.max(angles) < 1e-4

    def test_independent_white_noise_gives_small_estimate(self):
        rng = np.random.default_rng(10)
        rec = SignalRecord(u=rng.standard_normal(10000), y=rng.standard_normal(10000))
        est = classical_projection(assemble_blocks(rec, f=3, p=3))
        assert np.max(np.abs(est.gamma_lp)) < 0.05

    def test_scalar_case_matches_hand_computation(self):
        rng = np.random.default_rng(11)
        rec = SignalRecord(u=rng.standard_normal(60), y=rng.standard_normal(60))
        blocks = assemble_blocks(rec, f=1, p=1)
        est = classical_projection(blocks)
        b = row_blocks(blocks)
        P = np.eye(blocks.N) - b.U_f.T @ np.linalg.inv(b.U_f @ b.U_f.T) @ b.U_f
        expect = b.Y_f @ P @ b.Z_p.T @ np.linalg.pinv(b.Z_p @ P @ b.Z_p.T)
        np.testing.assert_allclose(est.gamma_lp, expect, atol=1e-9)


class TestSsarx:
    @staticmethod
    def exact_pm(m, count):
        A_bar = m.A - m.K @ m.C  # B_bar = B - K D = B, as D = 0
        h_bar = [(m.C @ np.linalg.matrix_power(A_bar, j) @ m.K).item()
                 for j in range(count)]
        g_bar = [(m.C @ np.linalg.matrix_power(A_bar, j) @ m.B).item()
                 for j in range(count)]
        return PredictorMarkov(h_bar=h_bar, g_bar=g_bar, residual_variance=1.0)

    def test_zero_gain_reduces_to_input_corrected_regression(self):
        rng = np.random.default_rng(12)
        m = random_stable_model(rng, n_x=2, k_scale=0.0)
        u = rng.standard_normal(800)
        rec = SignalRecord(u=u, y=simulate(m, u, 0.2 * rng.standard_normal(800)))
        blocks = assemble_blocks(rec, f=4, p=6)
        pm = self.exact_pm(m, 6)
        assert np.max(np.abs(pm.h_bar)) == 0.0
        est = ssarx_estimate(blocks, pm)
        G_bar = np.zeros((4, 4))
        for r in range(4):
            for c in range(r):
                G_bar[r, c] = pm.g_bar[r - c - 1]
        b = row_blocks(blocks)
        Y_corr = b.Y_f - G_bar @ b.U_f
        expect = np.linalg.lstsq((b.Z_p @ b.Z_p.T), (Y_corr @ b.Z_p.T).T, rcond=None)[0].T
        np.testing.assert_allclose(est.gamma_lp, expect, atol=1e-10)

    def test_noise_free_predictor_column_space(self):
        m, rec = example1_record(2000, 0.0, seed=13)
        blocks = assemble_blocks(rec, f=10, p=25)
        est = ssarx_estimate(blocks, self.exact_pm(m, 25))
        # only the input-driven state pair is excited without noise
        target = gamma_f(m.A - m.K @ m.C, m.C, 10)[:, :2]
        angles = subspace_angles(colspace(est.gamma_lp, 2), target)
        assert np.max(angles) < 1e-4

    def test_single_row_has_no_feedback_terms(self):
        _, rec = example1_record(500, 1.0, seed=14)
        blocks = assemble_blocks(rec, f=1, p=5)
        est = ssarx_estimate(blocks, self.exact_pm(example1_system(), 5))
        b = row_blocks(blocks)
        expect = np.linalg.lstsq((b.Z_p @ b.Z_p.T), (b.Y_f @ b.Z_p.T).T, rcond=None)[0].T
        np.testing.assert_allclose(est.gamma_lp, expect, atol=1e-10)

    def test_no_markov_rows(self):
        # the predictor parameters are an input, not an estimate
        _, rec = example1_record(500, 1.0, seed=15)
        blocks = assemble_blocks(rec, f=4, p=6)
        assert ssarx_estimate(blocks, self.exact_pm(example1_system(), 6)).g_rows == ()


class TestNoiseCovariancePremise:
    def test_sample_covariance_matches_gram(self):
        # the transformed white row has covariance (T' T) scaled by the
        # innovations variance
        rng = np.random.default_rng(17)
        i, N = 3, 6
        Tm, _ = noise_toeplitz([0.8, 0.4], i, N)
        draws = rng.standard_normal((4000, N + i - 1)) @ Tm
        sample_cov = draws.T @ draws / draws.shape[0]
        target = Tm.T @ Tm
        rel = np.linalg.norm(sample_cov - target) / np.linalg.norm(target)
        assert rel < 0.10
