"""The nested-QR least-squares kernel against per-problem lstsq solvers.

The references in ``helpers`` refit every problem with a full
``numpy.linalg.lstsq``; the library answers them all from one QR.
"""

import ctypes
import re
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import solve_triangular, toeplitz
from scipy.linalg.lapack import (
    dgeqrf,
    dgeqrt,
    dlange,
    dpbtrf,
    dpotrf,
    dpotrs,
    dsyev,
    dtbtrs,
    dtpqrt,
    dtrtri,
    dtrtrs,
)

from parsimid import (
    ConfigError,
    ExcitationError,
    RankError,
    assemble_blocks,
    default_aic_grid,
    fit_arx,
    parsim_ols,
    parsim_wls,
    select_order_aic,
)
from parsimid import _lstsq, estimators
from parsimid._lstsq import (
    NestedLstsq,
    band_cholesky,
    band_lower_solve,
    certified_full_rank,
    cholesky,
    cholesky_solve,
    full_rank_lstsq,
    gram_solve,
    numerical_rank,
    symmetric_eigenvalues,
)
from parsimid.arx_pre import _arx_design, _arx_qr, predictor_to_innovations
from parsimid.benchmark import _trial_data, example1_scenario, example2_scenario, example3_scenario

from helpers import (
    design,
    example_record,
    ref_gram_solve_f2py,
    ref_parsim_ols,
    ref_select_order_aic,
    ref_solve_arx,
    toeplitz_gram_band,
    two_sine_record,
)

TOL = 1e-10
SETTINGS = settings(max_examples=12, deadline=None, derandomize=True, database=None)
SCENARIOS = {
    "example1": example1_scenario(trials=1),
    "example2": example2_scenario(trials=1),
    "example3": example3_scenario(10.0, trials=1),
}
seeds = st.integers(0, 2**32 - 1)
scenario_names = st.sampled_from(sorted(SCENARIOS))


def rel(a, b) -> float:
    a, b = np.ravel(a), np.ravel(b)
    return float(np.linalg.norm(a - b) / np.linalg.norm(b))


def trial_record(name, seed):
    """The noisy record of one Monte Carlo trial of a paper scenario."""
    sc = SCENARIOS[name]
    _, rec = _trial_data(sc, seed, 0)
    return sc, rec


def factor(X, T):
    """NestedLstsq of a Fortran-ordered copy of [X | T], leaving X and T intact."""
    return NestedLstsq(np.asfortranarray(np.column_stack([X, T])), X.shape[1])


class TestNestedLstsq:
    @SETTINGS
    @given(seed=seeds, m=st.integers(8, 60), k=st.integers(1, 7), deficit=st.integers(0, 3))
    def test_every_sub_problem_matches_lstsq(self, seed, m, k, deficit):
        rng = np.random.default_rng(seed)
        rank = max(1, k - deficit)
        X = rng.standard_normal((m, rank)) @ rng.standard_normal((rank, k))
        T = rng.standard_normal((m, 3))
        ls = factor(X, T)
        assert ls.full_rank == (rank == k)
        assert ls.rank_below(slice(0, k), k) == (None if rank == k else rank)
        for q in range(1, k + 1):
            for j in range(3):
                want, *_ = np.linalg.lstsq(X[:, :q], T[:, j], rcond=None)
                # Target j is design column k + j; R maps its residual isometrically.
                theta = ls.regress(q, k + j)
                rss = float(np.sum((ls.R[:, k + j] - ls.R[:, :q] @ theta) ** 2))
                np.testing.assert_allclose(theta, want, rtol=0, atol=TOL * max(1.0, np.linalg.norm(want)))
                r = T[:, j] - X[:, :q] @ want
                assert rss == pytest.approx(r @ r, rel=1e-9)
                if j == 0:
                    assert ls.rss(q) == pytest.approx(rss, rel=1e-12)
        # Any set of design columns, leading or not, has the rank of its raw columns.
        A = np.column_stack([X, T])
        subsets = [slice(0, q) for q in range(1, k + 1)] + [slice(1, None, 2), slice(k - 1, None)]
        subsets += [np.sort(rng.choice(k + 3, size=rng.integers(1, k + 4), replace=False)) for _ in range(4)]
        for cols in subsets:
            assert ls.rank(cols) == np.linalg.matrix_rank(A[:, cols])

    def test_r_is_bit_identical_to_the_qr_of_the_stacked_design(self):
        # dgeqrt overwrites a Fortran-ordered float64 A, and R is bit-identical
        # to the factor of a copy.
        rec = example_record("example1", 0, noisy=True)
        A = _arx_design(rec.u, rec.y, 30, 30)
        assert A.flags.f_contiguous and A.dtype == np.float64
        want = np.triu(dgeqrt(8, A.copy())[0][:61])
        for buf in (np.ascontiguousarray(A), A):
            ls = NestedLstsq(buf, 60)
            np.testing.assert_array_equal(ls.R, want)
        np.testing.assert_array_equal(np.triu(A[:61]), want)

    # The designs the library factors (ARX at orders 10 and 30 for AIC and
    # the weighting, data blocks of Examples 1-3), then designs with fewer
    # rows or columns than the kernel's block of 8, or fewer rows than columns.
    @pytest.mark.parametrize(
        "case",
        [("arx", "example1", 10), ("arx", "example2", 30), ("arx", "example3", 30)]
        + [("blocks", "example1", 10, 8), ("blocks", "example2", 10, 20), ("blocks", "example3", 20, 10)]
        + [("random", m, n) for m, n in [(5, 3), (7, 7), (40, 5), (3, 9), (12, 30), (1, 1)]],
        ids=lambda case: "-".join(map(str, case)),
    )
    def test_r_matches_dgeqrf(self, case):
        # R differs from the level-2 Householder QR only by rounding.
        kind, *args = case
        if kind == "arx":
            _, rec = trial_record(args[0], 0)
            A = _arx_design(rec.u, rec.y, args[1], args[1])
        elif kind == "blocks":
            _, rec = trial_record(args[0], 0)
            A = design(assemble_blocks(rec, args[1], args[2]))
        else:
            A = np.random.default_rng(args[0] * args[1]).standard_normal(args)
        m, n = A.shape
        want = np.triu(dgeqrf(np.asfortranarray(A))[0][:n])
        got = NestedLstsq(np.asfortranarray(A), min(m, n)).R
        assert got.shape == want.shape == (min(m, n), n)
        assert np.linalg.norm(got - want) <= 1e-14 * np.linalg.norm(want)

    @pytest.mark.parametrize("noise", [0.0, 0.5])
    def test_input_lag_rank_of_a_two_sine_record(self, noise):
        # The two-sine input excites order 4: lag blocks of orders 5-10 are deficient.
        rec = two_sine_record(noise=noise)
        A = _arx_design(rec.u, rec.y, 10, 10)
        ls = NestedLstsq(A.copy(order="F"), 20)
        for n in range(1, 11):
            assert ls.rank(slice(1, 2 * n, 2)) == np.linalg.matrix_rank(A[:, 1 : 2 * n : 2]) == min(n, 4)
            assert ls.rank_below(slice(1, 2 * n, 2), n) == (None if n <= 4 else 4)

    @pytest.mark.parametrize("name", ["example1", "example2"])
    def test_input_rank_of_noise_free_designs(self, name):
        rec = example_record(name, 5)
        blocks = assemble_blocks(rec, 10, 20)
        for cols in (slice(20, 50), slice(0, 50)):
            assert blocks.ls.rank(cols) == np.linalg.matrix_rank(design(blocks)[:, cols])
        A = _arx_design(rec.u, rec.y, 30, 30)
        ls = NestedLstsq(A.copy(order="F"), 60)
        for n in (5, 20, 30):
            assert ls.rank(slice(1, 2 * n, 2)) == np.linalg.matrix_rank(A[:, 1 : 2 * n : 2]) == n

    def test_cutoff_scales_with_the_row_count(self):
        # sigma_min / sigma_max near 1e-14 lies between eps * k and eps * m:
        # lstsq on the full (m, k) problem drops that direction, and so must
        # the solve on the small R block.
        rng = np.random.default_rng(2)
        m, k = 2000, 4
        X = rng.standard_normal((m, k))
        X[:, 3] = X[:, 0] + 1e-14 * np.linalg.norm(X[:, 0]) * rng.standard_normal(m) / np.sqrt(m)
        t = rng.standard_normal(m)
        ls = factor(X, t)
        assert not ls.full_rank
        want = np.linalg.lstsq(X, t, rcond=None)[0]
        np.testing.assert_allclose(ls.regress(k, k), want, rtol=0, atol=TOL * np.linalg.norm(want))

    def test_a_stand_in_takes_the_design_row_count(self):
        # The same near-collinear design, given as the R factor of its first
        # rows with its last three appended.  The stand-in's R is the
        # design's, and with the design's m it drops the direction as lstsq
        # does; factored as a design of its own 7 rows, the cutoff keeps it.
        rng = np.random.default_rng(2)
        m, k = 2000, 4
        X = rng.standard_normal((m, k))
        X[:, 3] = X[:, 0] + 1e-14 * np.linalg.norm(X[:, 0]) * rng.standard_normal(m) / np.sqrt(m)
        A = np.column_stack([X, rng.standard_normal(m)])
        top = np.linalg.qr(A[:-3], mode="r")
        assert NestedLstsq(np.vstack([top, A[-3:]]), k).full_rank
        want = np.linalg.lstsq(X, A[:, k], rcond=None)[0]
        r = X @ want - A[:, k]
        ls = NestedLstsq.appended(top, A[-3:], k, m)
        assert ls.m == m and not ls.full_rank
        np.testing.assert_allclose(ls.regress(k, k), want, rtol=0, atol=TOL * np.linalg.norm(want))
        assert ls.rss(k) == pytest.approx(r @ r, rel=1e-12)

    @pytest.mark.parametrize("m,k,extra", [(200, 7, 5), (60, 41, 9), (40, 20, 1)])
    def test_appended_rows_give_the_stacks_factor(self, m, k, extra):
        # dtpqrt's R of [triangle; rows] is the stack's R up to row signs, and
        # a Fortran-ordered triangle and rows are factored in place.
        rng = np.random.default_rng(m + k)
        top = np.asfortranarray(np.linalg.qr(rng.standard_normal((m, k + 1)), mode="r"))
        rows = np.asfortranarray(rng.standard_normal((extra, k + 1)))
        want = np.linalg.qr(np.vstack([top, rows]), mode="r")
        ls = NestedLstsq.appended(top, rows, k, m + extra)
        assert ls.R.flags.c_contiguous and not ls.R.flags.writeable
        assert (ls.m, ls.k) == (m + extra, k) and ls.full_rank
        signs = np.sign(np.diagonal(ls.R)) * np.sign(np.diagonal(want))
        np.testing.assert_allclose(signs[:, None] * ls.R, want, rtol=0, atol=1e-12 * np.abs(want).max())
        np.testing.assert_array_equal(np.tril(ls.R, -1), 0.0)

    @pytest.mark.parametrize("q,cols", [(24, 45), (24, slice(40, 50)), (40, slice(40, 60)), (39, 41)])
    def test_full_rank_regression_is_scipys_triangular_solve_bit_for_bit(self, q, cols):
        rng = np.random.default_rng(3)
        ls = NestedLstsq(np.asfortranarray(rng.standard_normal((2000, 60))), 40)
        assert ls.full_rank
        want = solve_triangular(ls.R[:q, :q], ls.R[:q, cols])
        got = ls.regress(q, cols)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()

    def test_zero_pivot_in_the_triangular_solve_raises(self):
        rng = np.random.default_rng(4)
        X = rng.standard_normal((50, 3))
        X[:, 1] = 0.0
        ls = factor(X, rng.standard_normal(50))
        assert not ls.full_rank
        ls.full_rank = True  # send the singular block down the triangular path
        with pytest.raises(RankError, match="^singular matrix: resolution failed at diagonal 1$"):
            ls.regress(3, 3)

    def test_fewer_rows_than_columns_is_not_full_rank(self):
        rng = np.random.default_rng(1)
        X, t = rng.standard_normal((3, 5)), rng.standard_normal(3)
        ls = factor(X, t)
        assert not ls.full_rank
        np.testing.assert_allclose(ls.regress(5, 5), np.linalg.lstsq(X, t, rcond=None)[0], atol=1e-12)
        # Three rows are fitted exactly.
        assert ls.rss(5) == pytest.approx(0.0, abs=1e-24)

    def test_rank_deficient_rss_is_not_the_tail_alone(self):
        # Below full rank Q's first q columns span more than X, and a target
        # outside X's span keeps part of its residual in R's first q rows.
        rng = np.random.default_rng(5)
        X = rng.standard_normal((40, 2)) @ rng.standard_normal((2, 5))
        t = rng.standard_normal(40)
        ls = factor(X, t)
        assert not ls.full_rank
        want = t - X @ np.linalg.lstsq(X, t, rcond=None)[0]
        tail = ls.R[5:, 5]
        assert ls.rss(5) == pytest.approx(want @ want, rel=1e-12)
        assert tail @ tail < 0.99 * ls.rss(5)


class TestFullRankCertificate:
    """``full_rank`` is the SVD's verdict on X, reached without an SVD wherever the certificate holds."""

    @settings(SETTINGS, max_examples=150)
    @given(
        seed=seeds,
        m=st.integers(1, 80),
        k=st.integers(1, 10),
        log_cond=st.integers(0, 68).map(lambda t: t / 4),
        kind=st.sampled_from(["conditioned", "duplicate", "zero"]),
        scale=st.sampled_from([None, 1e300, 1e-300]),
        every_column=st.booleans(),
    )
    def test_full_rank_is_the_svd_verdict(self, seed, m, k, log_cond, kind, scale, every_column):
        rng = np.random.default_rng(seed)
        X = self.conditioned(rng, m, k, log_cond)
        if kind != "conditioned" and k >= 2:
            i, j = rng.choice(k, 2, replace=False)
            X[:, j] = X[:, i] if kind == "duplicate" else 0.0
        if scale is not None:
            X[:, slice(None) if every_column else rng.choice(k, rng.integers(1, k + 1), replace=False)] *= scale
        certified, _ = self.check_verdict(X, rng)
        if kind == "conditioned" and scale is None and m >= k and log_cond <= 6:
            assert certified

    @pytest.mark.parametrize("m", [8, 60, 2000])
    def test_condition_sweep_meets_every_verdict(self, m):
        rng = np.random.default_rng(m)
        verdicts = {self.check_verdict(self.conditioned(rng, m, 6, log_cond), rng) for log_cond in np.arange(0, 17.25, 0.25)}
        # Certified; full rank by the SVD alone, between the certificate's
        # limit and the cutoff; and rank deficient.
        assert verdicts == {(True, True), (False, True), (False, False)}

    @staticmethod
    def conditioned(rng, m, k, log_cond):
        """An (m, k) X whose min(m, k) singular values run log-evenly from 1 down to 10^-log_cond."""
        r = min(m, k)
        Q1 = np.linalg.qr(rng.standard_normal((m, r)))[0]
        Q2 = np.linalg.qr(rng.standard_normal((k, r)))[0]
        return (Q1 * np.logspace(0, -log_cond, r)) @ Q2.T

    @staticmethod
    def check_verdict(X, rng):
        """Assert that ``full_rank`` of [X | T] is the SVD's verdict on X; return (certified, full_rank)."""
        (m, k), s = X.shape, np.linalg.svd(X, compute_uv=False)
        ls = factor(X, rng.standard_normal((m, 2)))
        certified = certified_full_rank(ls.R[:k, :k], m)
        if m >= k and 0.5 < s.min() / (np.finfo(float).eps * max(m, k) * s.max()) < 2:
            # So near the cutoff, the SVDs of X and of R may round to
            # different sides of it.  The certificate gives no verdict there,
            # and R's SVD decides, as it did before the certificate.
            assert not certified
        else:
            assert ls.full_rank == (numerical_rank(s, m, k) == k)
        return certified, bool(ls.full_rank)

    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_the_library_designs_are_certified(self, name):
        _, rec = trial_record(name, 0)
        for ls in (NestedLstsq(_arx_design(rec.u, rec.y, 30, 30), 60), assemble_blocks(rec, 10, 20).ls):
            assert certified_full_rank(ls.R[: ls.k, : ls.k], ls.m)

    def test_non_finite_or_subnormal_diagonal_gives_no_verdict(self):
        R = np.triu(np.ones((3, 3)))
        for bad in (0.0, 1e-310, np.inf, np.nan):
            R[1, 1] = bad
            assert not certified_full_rank(R, 10)
        R[1, 1] = 1.0
        assert certified_full_rank(R, 10)
        # An inverse that overflows, and a bound past the cutoff.
        assert not certified_full_rank(np.array([[1e-300, 1e300], [0.0, 1e-300]]), 10)
        assert not certified_full_rank(np.array([[1.0, 1.0], [0.0, 1e-13]]), 10)


ONE_FORMAT = "LAPACK operands must be writable, Fortran-contiguous, non-empty float64 matrices of the routine's shape"


def _strided_columns(a):
    buf = np.zeros((a.shape[0], 2 * a.shape[1]), order="F")
    buf[:, ::2] = a
    return buf[:, ::2]


def _strided_rows(a):
    buf = np.zeros((2 * a.shape[0], a.shape[1]), order="F")
    buf[::2] = a
    return buf[::2]


def _leading_dimension_past_n(a):
    buf = np.zeros((a.shape[0] + 3, a.shape[1]), order="F")
    buf[: a.shape[0]] = a
    return buf[: a.shape[0]]


def _read_only(a):
    a = a.copy(order="F")
    a.setflags(write=False)
    return a


# Every operand the lock-free routines reject, made from a good one; the
# last two break a shape rule, which only some operands have.
SHAPE_RULES = ("wrong-rows", "not-square")
BAD_OPERANDS = {
    "float32": lambda a: a.astype(np.float32, order="F"),
    "c-order": np.ascontiguousarray,
    "1-d": lambda a: a[:, 0].copy(),
    "3-d": lambda a: a[None],
    "empty": lambda a: a[:, :0],
    "read-only": _read_only,
    "strided-columns": _strided_columns,
    "columns-reversed": lambda a: np.asfortranarray(a)[:, ::-1],
    "strided-rows": _strided_rows,
    "leading-dimension-past-n": _leading_dimension_past_n,
    "wrong-rows": lambda a: np.asfortranarray(a[:-1]),
    "not-square": lambda a: np.asfortranarray(a[:, :-1]),
}


class TestLapackWrappers:
    """Each LAPACK wrapper the kernels call, on a 3 x 3 input, with the kernels' arguments.

    The floor's scipy may differ in a wrapper's signature; each test names one wrapper.
    """

    A = np.array([[4.0, 1.0, 0.5], [1.0, 3.0, 1.0], [0.5, 1.0, 2.0]])  # symmetric positive definite
    R = np.triu(A)

    def check_dgeqrt(self):
        buf = np.asfortranarray(self.A)
        qr = dgeqrt(min(8, *buf.shape), buf, overwrite_a=True)[0]
        np.testing.assert_allclose(np.triu(qr).T @ np.triu(qr), self.A.T @ self.A, atol=1e-12)

    def check_dtpqrt(self):
        R, rows = np.asfortranarray(self.R), np.asfortranarray(self.A[:2])
        got = dtpqrt(0, min(8, 3), R, rows, overwrite_a=True, overwrite_b=True)[0]
        stack = np.vstack([self.R, self.A[:2]])
        np.testing.assert_allclose(np.triu(got).T @ np.triu(got), stack.T @ stack, atol=1e-12)

    def check_dtrtri(self):
        inv, info = dtrtri(self.R.T, lower=1)
        assert info == 0
        np.testing.assert_allclose(inv, np.linalg.inv(self.R.T), atol=1e-14)

    def check_dlange(self):
        assert dlange("F", self.R.T) == pytest.approx(np.linalg.norm(self.R))

    def check_dtrtrs(self):
        b = np.array([1.0, 2.0, 3.0])
        x, info = dtrtrs(self.R.T, b, lower=1, trans=1)
        assert info == 0
        np.testing.assert_allclose(self.R @ x, b, atol=1e-14)

    def check_dsyev(self):
        ev, _, info = dsyev(self.A, compute_v=0)
        assert info == 0
        np.testing.assert_allclose(ev, np.linalg.eigvalsh(self.A), atol=1e-14)

    def check_dpotrf(self):
        c, info = dpotrf(self.A, lower=1, clean=0)
        assert info == 0
        L = np.tril(c)
        np.testing.assert_allclose(L @ L.T, self.A, atol=1e-14)

    def check_dpotrs(self):
        b = np.array([1.0, 2.0, 3.0])
        x = dpotrs(np.linalg.cholesky(self.A), b, lower=1)[0]
        np.testing.assert_allclose(self.A @ x, b, atol=1e-14)

    def check_dpbtrf(self):
        # The bank's lower-band storage: T'T of one Markov parameter 0.5, a tridiagonal Toeplitz.
        band = toeplitz_gram_band([0.5], 2, 3)[::-1]
        L, info = dpbtrf(band, lower=1, overwrite_ab=1)
        assert info == 0 and np.shares_memory(L, band)
        lower = np.diag(L[0]) + np.diag(L[1, :2], -1)
        np.testing.assert_allclose(lower @ lower.T, toeplitz([1.25, 0.5, 0.0]), atol=1e-14)

    def check_dtbtrs(self):
        L = np.array([[1.0, 1.0, 1.0], [0.5, 0.25, 0.0]])  # unit diagonal, one subdiagonal
        W = np.asfortranarray(self.A)
        x = dtbtrs(L, W, uplo="L", diag="U", overwrite_b=True)[0]
        dense = np.eye(3) + np.diag([0.5, 0.25], -1)
        np.testing.assert_allclose(dense @ x, self.A, atol=1e-14)

    # The bank's lock-free routines, from scipy.linalg.cython_lapack's
    # exports, bit for bit against scipy's wrappers of the same routines.
    def bank_band(self, i=4, N=50):
        return toeplitz_gram_band([0.9, -0.5, 0.3], i, N)[::-1].copy(order="F")

    def check_band_cholesky(self):
        band = self.bank_band()
        want, info = dpbtrf(band.copy(order="F"), lower=1)
        assert info == 0 and band_cholesky(band) == 0
        assert band.tobytes() == want.tobytes()

    def check_band_lower_solve(self):
        L = self.bank_band()
        band_cholesky(L)
        W = np.asfortranarray(np.random.default_rng(0).standard_normal((L.shape[1], 7)))
        want = dtbtrs(L, W[:, :5], uplo="L", diag="U")[0]
        assert band_lower_solve(L, W[:, :5]) == 0
        assert W[:, :5].tobytes() == want.tobytes()
        # The columns past the right-hand sides are untouched.
        assert W[:, 5:].tobytes() == np.random.default_rng(0).standard_normal((L.shape[1], 7))[:, 5:].tobytes()

    def check_band_lower_solve_non_unit(self):
        # The factor as it stands, its diagonal read (diag N).
        L = self.bank_band()
        band_cholesky(L)
        W = np.asfortranarray(np.random.default_rng(0).standard_normal((L.shape[1], 7)))
        want = dtbtrs(L, W[:, :5], uplo="L", diag="N")[0]
        assert band_lower_solve(L, W[:, :5], unit=False) == 0
        assert W[:, :5].tobytes() == want.tobytes()
        assert W[:, 5:].tobytes() == np.random.default_rng(0).standard_normal((L.shape[1], 7))[:, 5:].tobytes()

    @pytest.mark.parametrize(
        "name",
        ["dgeqrt", "dtpqrt", "dtrtri", "dlange", "dtrtrs", "dsyev", "dpotrf", "dpotrs", "dpbtrf", "dtbtrs",
         "band_cholesky", "band_lower_solve", "band_lower_solve_non_unit", "symmetric_eigenvalues", "cholesky",
         "cholesky_solve"],
    )
    def test_wrapper_takes_the_kernels_arguments(self, name):
        getattr(self, f"check_{name}")()

    def test_non_unit_sweep_reports_a_zero_diagonal_as_scipy_does(self):
        L = self.bank_band()
        L[0, 2] = 0.0
        b = np.ones((L.shape[1], 1), order="F")
        assert band_lower_solve(L, b, unit=False) == dtbtrs(L, b, uplo="L", diag="N")[1] == 3

    def test_band_cholesky_reports_a_leading_minor(self):
        band = -self.bank_band()
        assert band_cholesky(np.asfortranarray(band)) == 1

    # gram_solve's routines, from scipy.linalg.cython_lapack's exports, bit
    # for bit against scipy's wrappers with the arguments gram_solve gave them.
    def gram(self, q=12):
        W = np.random.default_rng(1).standard_normal((40, q + 1))
        G = W.T @ W
        # Unequal triangles: each routine must read the one scipy's reads.
        G[0, 1] += 1e-3
        G[2, 0] -= 2e-3
        return G[:q, :q]

    def check_symmetric_eigenvalues(self):
        A = self.gram()
        want, _, info = dsyev(A, compute_v=0)
        a = np.array(A, order="F")
        got, got_info = symmetric_eigenvalues(a)
        assert got_info == info == 0 and got.tobytes() == want.tobytes()

    def check_cholesky(self):
        A = self.gram()
        want, info = dpotrf(A, lower=1, clean=0)
        got = np.array(A, order="F")
        assert cholesky(got) == info == 0
        assert got.tobytes() == want.tobytes()  # the upper triangle untouched, as clean=0 leaves it

    def check_cholesky_solve(self):
        c = dpotrf(self.gram(), lower=1, clean=0)[0]
        rng = np.random.default_rng(2)
        b, B = rng.standard_normal(12), rng.standard_normal((12, 3))
        x, X = b.copy(), np.array(B, order="F")
        assert cholesky_solve(c, x[:, None]) == cholesky_solve(c, X) == 0
        assert x.tobytes() == dpotrs(c, b, lower=1)[0].tobytes()
        assert X.tobytes() == dpotrs(c, B, lower=1)[0].tobytes()

    def test_eigenvalues_report_non_convergence_as_scipy_does(self):
        A = np.diag([1.0, np.inf, 2.0])
        assert symmetric_eigenvalues(np.asfortranarray(A))[1] == dsyev(A, compute_v=0)[2] == 2

    def test_cholesky_reports_a_leading_minor(self):
        a = -np.array(self.gram(), order="F")
        assert cholesky(a) == dpotrf(-self.gram(), lower=1)[1] == 1

    @pytest.mark.parametrize(
        "routine,call",
        [
            ("dpbtrf", lambda t: band_cholesky(t.bank_band())),
            ("dtbtrs", lambda t: band_lower_solve(t.bank_band(), np.zeros((50, 2), order="F"))),
            ("dsyev", lambda t: symmetric_eigenvalues(np.array(t.gram(), order="F"))),
            ("dpotrf", lambda t: cholesky(np.array(t.gram(), order="F"))),
            ("dpotrs", lambda t: cholesky_solve(np.array(t.gram(), order="F"), np.zeros((12, 1), order="F"))),
        ],
    )
    def test_an_illegal_argument_is_a_value_error(self, monkeypatch, routine, call):
        # LAPACK's info, the last argument, names an illegal argument by -k.
        def illegal_fourth(*args):
            ctypes.c_int.from_address(args[-1]).value = -4

        monkeypatch.setattr(_lstsq, f"_{routine.upper()}", illegal_fourth)
        with pytest.raises(ValueError, match=f"^{routine}: illegal value in argument 4$"):
            call(self)

    # Each operand of the five lock-free routines: (routine, its good
    # operands, the position of the one made bad, its shape rule).
    OPERANDS = {
        "band_cholesky-ab": (band_cholesky, lambda t: [t.bank_band()], 0, None),
        "band_lower_solve-ab": (band_lower_solve, lambda t: [t.bank_band(), np.zeros((50, 2), order="F")], 0, None),
        "band_lower_solve-b": (band_lower_solve, lambda t: [t.bank_band(), np.zeros((50, 2), order="F")], 1, "wrong-rows"),
        "band_lower_solve-non-unit-ab": (
            partial(band_lower_solve, unit=False), lambda t: [t.bank_band(), np.zeros((50, 2), order="F")], 0, None
        ),
        "band_lower_solve-non-unit-b": (
            partial(band_lower_solve, unit=False),
            lambda t: [t.bank_band(), np.zeros((50, 2), order="F")],
            1,
            "wrong-rows",
        ),
        "symmetric_eigenvalues-a": (symmetric_eigenvalues, lambda t: [np.array(t.gram(), order="F")], 0, "not-square"),
        "cholesky-a": (cholesky, lambda t: [np.array(t.gram(), order="F")], 0, "not-square"),
        "cholesky_solve-c": (
            cholesky_solve, lambda t: [np.array(t.gram(), order="F"), np.zeros((12, 2), order="F")], 0, "not-square"
        ),
        "cholesky_solve-b": (
            cholesky_solve, lambda t: [np.array(t.gram(), order="F"), np.zeros((12, 2), order="F")], 1, "wrong-rows"
        ),
    }

    def test_the_table_starts_from_good_operands(self):
        for routine, operands, _, _ in self.OPERANDS.values():
            routine(*operands(self))

    @pytest.mark.parametrize(
        "operand,form",
        [
            pytest.param(operand, form, id=f"{operand}-{form}")
            for operand, (_, _, _, shape_rule) in OPERANDS.items()
            for form in BAD_OPERANDS
            if form not in SHAPE_RULES or form == shape_rule
        ],
    )
    def test_one_operand_format(self, monkeypatch, operand, form):
        routine, operands, at, _ = self.OPERANDS[operand]
        args = operands(self)
        args[at] = BAD_OPERANDS[form](args[at])

        def never_called(*args):
            raise AssertionError("LAPACK called on a rejected operand")

        for name in ("_DPBTRF", "_DTBTRS", "_DSYEV", "_DPOTRF", "_DPOTRS"):
            monkeypatch.setattr(_lstsq, name, never_called)
        with pytest.raises(ValueError, match=f"^{re.escape(ONE_FORMAT)}$"):
            routine(*args)


class TestLapackSignatures:
    """``_lapack`` takes a routine only if the capsule's C signature is the declared one."""

    def test_the_declared_signatures_load(self):
        C, I, D = _lstsq._C, _lstsq._I, _lstsq._D
        assert callable(_lstsq._lapack("dpotrf", C, I, D, I, I))

    @pytest.mark.parametrize(
        "name,params",
        [
            ("dpotrf", ("char *", "int *", "int *", "double *", "int *", "int *")),  # one int too many
            ("dpotrf", ("char *", "int *", "int *", "int *", "int *")),  # an int for the matrix
            ("dpotrf", ("char *", "int *", "double *", "int *")),  # no info
            ("spotrf", ("char *", "int *", "double *", "int *", "int *")),  # single precision
        ],
        ids=["extra-argument", "wrong-type", "missing-argument", "float-routine"],
    )
    def test_a_wrong_declaration_fails(self, name, params):
        declared = f"void ({', '.join(params)})"
        with pytest.raises(ImportError, match=rf"^scipy\.linalg\.cython_lapack\.{name} is 'void \(.*\)', not '{re.escape(declared)}'$"):
            _lstsq._lapack(name, *params)

    def test_a_wrong_declaration_fails_the_import(self):
        path = Path(_lstsq.__file__)
        source = path.read_text()
        right = '_DPOTRS = _lapack("dpotrs", _C, _I, _I, _D, _I, _D, _I, _I)'
        assert right in source
        code = compile(source.replace(right, right.replace("_D, _I, _D", "_D, _I, _I")), str(path), "exec")
        with pytest.raises(ImportError, match=r"^scipy\.linalg\.cython_lapack\.dpotrs is "):
            exec(code, {"__name__": "parsimid._lstsq_copy", "__package__": "parsimid"})


class TestGramSolve:
    """``gram_solve`` gives the bytes of its f2py form (``helpers.ref_gram_solve_f2py``)."""

    @SETTINGS
    @given(
        seed=seeds,
        m=st.integers(1, 80),
        q=st.integers(1, 30),
        deficit=st.integers(0, 3),
        scale=st.sampled_from([1e-8, 1.0, 1e8]),
    )
    def test_matches_the_f2py_form_byte_for_byte(self, seed, m, q, deficit, scale):
        rng = np.random.default_rng(seed)
        W = scale * rng.standard_normal((m, q + 1))
        if deficit and q > deficit:
            W[:, :q] = W[:, : q - deficit] @ rng.standard_normal((q - deficit, q))
        theta, rank, cond = gram_solve(W, q)
        want, want_rank, want_cond = ref_gram_solve_f2py(W, q)
        assert theta.tobytes() == want.tobytes()
        assert (rank, cond) == (want_rank, want_cond)

    @pytest.mark.parametrize("name", ["example1", "example2", "example3"])
    def test_every_bank_row_matches_the_f2py_form(self, monkeypatch, name):
        sc, rec = trial_record(name, 4)
        blocks = assemble_blocks(rec, sc.f, 10)
        h = predictor_to_innovations(fit_arx(rec, 30))
        rows = []

        def compared(W, q):
            got, want = gram_solve(W, q), ref_gram_solve_f2py(W, q)
            rows.append(got[0].tobytes() == want[0].tobytes() and got[1:] == want[1:])
            return got

        monkeypatch.setattr(estimators, "gram_solve", compared)
        parsim_wls(blocks, h)
        assert rows == [True] * (sc.f - 1)

    def test_eigenvalues_that_do_not_converge_raise(self, monkeypatch):
        eigenvalues = _lstsq.symmetric_eigenvalues

        def infinite_diagonal(a):
            a[1, 1] = np.inf
            return eigenvalues(a)

        monkeypatch.setattr(_lstsq, "symmetric_eigenvalues", infinite_diagonal)
        W = np.diag([1.0, 2.0, 3.0, 4.0])
        with pytest.raises(RankError, match=r"^Gram eigenvalues did not converge \(dsyev info 2\)$"):
            gram_solve(W, 3)


class TestRankOwner:
    """``numerical_rank`` is lstsq's cutoff; ``full_rank_lstsq`` is lstsq behind a full-rank check."""

    @SETTINGS
    @given(
        seed=seeds, short=st.integers(2, 12), extra=st.integers(0, 40), deficit=st.integers(1, 3), tall=st.booleans()
    )
    def test_numerical_rank_is_matrix_rank(self, seed, short, extra, deficit, tall):
        rng = np.random.default_rng(seed)
        m, n = (short + extra, short) if tall else (short, short + extra)
        rank = max(1, short - deficit)
        M = rng.standard_normal((m, rank)) @ rng.standard_normal((rank, n))
        got = numerical_rank(np.linalg.svd(M, compute_uv=False), *M.shape)
        assert got == np.linalg.matrix_rank(M) == rank

    @SETTINGS
    @given(seed=seeds, n=st.integers(1, 8), extra=st.integers(0, 30), targets=st.sampled_from([None, 1, 3]))
    def test_full_rank_lstsq_matches_lstsq(self, seed, n, extra, targets):
        rng = np.random.default_rng(seed)
        M = rng.standard_normal((n + extra, n))
        T = rng.standard_normal(n + extra if targets is None else (n + extra, targets))
        X, rms = full_rank_lstsq(M, T, "design")
        want = np.linalg.lstsq(M, T, rcond=None)[0]
        np.testing.assert_array_equal(X, want)
        assert rms == pytest.approx(np.linalg.norm(T - M @ want) / np.sqrt(T.size), rel=1e-12, abs=1e-300)

    @SETTINGS
    @given(seed=seeds, n=st.integers(2, 8), extra=st.integers(0, 30), deficit=st.integers(1, 3))
    def test_full_rank_lstsq_refuses_a_deficient_design(self, seed, n, extra, deficit):
        rng = np.random.default_rng(seed)
        rank = max(1, n - deficit)
        M = rng.standard_normal((n + extra, rank)) @ rng.standard_normal((rank, n))
        with pytest.raises(RankError, match=f"^design has rank {rank} < {n}$"):
            full_rank_lstsq(M, rng.standard_normal(n + extra), "design")


class TestAicOrder:
    @SETTINGS
    @given(name=scenario_names, seed=seeds)
    def test_noisy_pick_matches_reference(self, name, seed):
        sc, rec = trial_record(name, seed)
        grid = default_aic_grid(sc.n_x, len(rec))
        assert select_order_aic(rec, grid) == ref_select_order_aic(rec, grid)

    @SETTINGS
    @given(name=st.sampled_from(["example1", "example2"]), seed=seeds)
    def test_noise_free_pick_fits_exactly(self, name, seed):
        # Every grid order exceeds the true order, so RSS is at rounding
        # level throughout and the pick itself is not reproducible.
        rec = example_record(name, seed)
        n = select_order_aic(rec, default_aic_grid(3, len(rec)))
        assert fit_arx(rec, n).residual_variance < 1e-20 * np.var(rec.y)

    def test_fallback_skips_orders_beyond_the_input_excitation(self):
        rec = two_sine_record(noise=0.5)
        assert select_order_aic(rec, range(1, 11)) == 4
        assert ref_select_order_aic(rec, range(1, 11)) == 4

    def test_fallback_raises_when_no_order_is_excited(self):
        with pytest.raises(ConfigError, match="n=6: input-lag regressor.*n=8: input-lag"):
            select_order_aic(two_sine_record(noise=0.5), [6, 8])

    @settings(SETTINGS, max_examples=40)
    @given(
        kind=st.sampled_from(["noisy", "noise-free", "two-sine"]),
        name=scenario_names,
        noise=st.sampled_from([0.0, 0.5]),
        seed=st.integers(0, 3),
        n=st.integers(1, 30),
        extra=st.integers(0, 10),
    )
    def test_an_accepted_order_holds_every_lower_order(self, kind, name, noise, seed, n, extra):
        # AIC checks only the largest order that _arx_qr accepts: on its factor
        # every leading input-lag set clears its own cutoff too (interlacing),
        # with an SVD wherever the design is not certified full rank.
        if kind == "noisy":
            rec = trial_record(name, seed)[1]
        elif kind == "noise-free":
            rec = example_record("example1" if name == "example3" else name, seed)
        else:
            # Excites input lags up to order 4 only.
            rec, n = two_sine_record(noise=noise), min(n, 4)
        try:
            ls = _arx_qr(rec, n, n + extra)
        except (ConfigError, ExcitationError):
            return
        for m in range(1, n):
            assert ls.rank_below(slice(1, 2 * m, 2), m) is None


class TestOlsBank:
    @SETTINGS
    @given(name=scenario_names, seed=seeds)
    def test_noisy_bank_matches_reference(self, name, seed):
        sc, rec = trial_record(name, seed)
        p = int(np.random.default_rng(seed).integers(sc.n_x + 1, 21))
        blocks = assemble_blocks(rec, sc.f, p)
        gamma, g_rows = ref_parsim_ols(blocks)
        est = parsim_ols(blocks)
        assert rel(est.gamma_lp, gamma) < TOL
        assert rel(np.concatenate(est.g_rows), np.concatenate(g_rows)) < TOL

    @pytest.mark.parametrize("name,p", [("example1", 10), ("example1", 20), ("example2", 20)])
    def test_noise_free_bank_keeps_minimum_norm(self, name, p):
        blocks = assemble_blocks(example_record(name, 3), 10, p)
        gamma, g_rows = ref_parsim_ols(blocks)
        est = parsim_ols(blocks)
        assert rel(est.gamma_lp, gamma) < TOL
        assert rel(np.concatenate(est.g_rows), np.concatenate(g_rows)) < TOL


class TestArxFit:
    @SETTINGS
    @given(name=scenario_names, seed=seeds, n=st.integers(1, 30))
    def test_noisy_fit_matches_reference(self, name, seed, n):
        _, rec = trial_record(name, seed)
        pm = fit_arx(rec, n)
        theta, rss, n_eff = ref_solve_arx(rec.u, rec.y, n, n)
        assert rel(np.concatenate([pm.h_bar, pm.g_bar]), theta) < TOL
        assert pm.residual_variance == pytest.approx(rss / (n_eff - 2 * n), rel=1e-9)

    @pytest.mark.parametrize("name,n", [("example1", 10), ("example1", 30), ("example2", 20)])
    def test_noise_free_fit_keeps_minimum_norm(self, name, n):
        rec = example_record(name, 4)
        pm = fit_arx(rec, n)
        theta, _, _ = ref_solve_arx(rec.u, rec.y, n, n)
        assert rel(np.concatenate([pm.h_bar, pm.g_bar]), theta) < TOL
