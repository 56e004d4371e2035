"""The nested-QR least-squares kernel against per-problem lstsq solvers.

The references in ``helpers`` refit every problem with a full
``numpy.linalg.lstsq``; the library answers them all from one QR.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import solve_triangular
from scipy.linalg.lapack import dgeqrf, dgeqrt

from parsimid import (
    ConfigError,
    RankError,
    SignalRecord,
    assemble_blocks,
    default_aic_grid,
    fit_arx,
    parsim_ols,
    select_order_aic,
    simulate,
)
from parsimid._lstsq import NestedLstsq, full_rank_lstsq, numerical_rank
from parsimid.arx_pre import _arx_design
from parsimid.benchmark import _trial_data, example1_scenario, example2_scenario, example3_scenario

from helpers import (
    example_record,
    ref_parsim_ols,
    ref_select_order_aic,
    ref_solve_arx,
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
    _, rec, _ = _trial_data(sc, seed, 0)
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
                    solved = ls.solve(q)
                    np.testing.assert_array_equal(solved[0], theta)
                    assert solved[1] == pytest.approx(rss, rel=1e-12)
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
        "design",
        [("arx", "example1", 10), ("arx", "example2", 30), ("arx", "example3", 30)]
        + [("blocks", "example1", 10, 8), ("blocks", "example2", 10, 20), ("blocks", "example3", 20, 10)]
        + [("random", m, n) for m, n in [(5, 3), (7, 7), (40, 5), (3, 9), (12, 30), (1, 1)]],
        ids=lambda design: "-".join(map(str, design)),
    )
    def test_r_matches_dgeqrf(self, design):
        # R differs from the level-2 Householder QR only by rounding.
        kind, *args = design
        if kind == "arx":
            _, rec = trial_record(args[0], 0)
            A = _arx_design(rec.u, rec.y, args[1], args[1])
        elif kind == "blocks":
            _, rec = trial_record(args[0], 0)
            A = assemble_blocks(rec, args[1], args[2]).design
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
            assert blocks.ls.rank(cols) == np.linalg.matrix_rank(blocks.design[:, cols])
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
        np.testing.assert_allclose(ls.solve(k)[0], want, rtol=0, atol=TOL * np.linalg.norm(want))

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
        with pytest.raises(np.linalg.LinAlgError, match="singular"):
            ls.regress(3, 3)

    def test_fewer_rows_than_columns_is_not_full_rank(self):
        rng = np.random.default_rng(1)
        X, t = rng.standard_normal((3, 5)), rng.standard_normal(3)
        ls = factor(X, t)
        assert not ls.full_rank
        np.testing.assert_allclose(ls.solve(5)[0], np.linalg.lstsq(X, t, rcond=None)[0], atol=1e-12)


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
