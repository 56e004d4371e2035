import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from parsimid import (
    ConfigError,
    ExcitationError,
    SignalRecord,
    assemble_blocks,
    simulate,
)
from parsimid.benchmark import example1_system

from helpers import design, row_blocks, toeplitz_gf, true_gamma_lp, two_sine_record


class TestAssembleBlocks:
    def test_minimal_example(self):
        rec = SignalRecord(u=[1.0, 2.0, 3.0], y=[1.0, 2.0, 3.0])
        blocks = assemble_blocks(rec, f=1, p=1)
        assert blocks.N == 2
        # Columns Y_p', U_p', U_f', Y_f'.
        np.testing.assert_array_equal(design(blocks), [[1, 1, 2, 2], [2, 2, 3, 3]])
        b = row_blocks(blocks)
        np.testing.assert_array_equal(b.Z_p, [[1, 2], [1, 2]])
        np.testing.assert_array_equal(b.Y_f, [[2, 3]])

    def test_column_count_formula(self):
        rng = np.random.default_rng(0)
        rec = SignalRecord(u=rng.standard_normal(100), y=rng.standard_normal(100))
        for f, p in ((1, 1), (5, 7), (10, 20)):
            blocks = assemble_blocks(rec, f, p)
            assert blocks.N == 100 - f - p + 1
            assert design(blocks).shape == (blocks.N, 2 * (f + p))

    def test_anti_diagonal_property(self):
        # Within each block, design entry (c, r) depends only on r + c.
        rng = np.random.default_rng(1)
        rec = SignalRecord(u=rng.standard_normal(60), y=rng.standard_normal(60))
        f, p = 4, 6
        blocks = assemble_blocks(rec, f=f, p=p)
        for lo, hi in ((0, p), (p, 2 * p), (2 * p, 2 * p + f), (2 * p + f, 2 * (p + f))):
            M = design(blocks)[:, lo:hi]
            np.testing.assert_array_equal(M[1:, :-1], M[:-1, 1:])

    def test_ls_factors_the_design(self):
        rng = np.random.default_rng(2)
        rec = SignalRecord(u=rng.standard_normal(40), y=rng.standard_normal(40))
        f, p = 3, 4
        blocks = assemble_blocks(rec, f=f, p=p)
        assert blocks.ls.k == 2 * p + f and blocks.ls.m == blocks.N
        R, D = blocks.ls.R, design(blocks)
        np.testing.assert_allclose(R.T @ R, D.T @ D, rtol=0, atol=1e-12 * np.linalg.norm(D) ** 2)

    def test_row_partitions(self):
        # Future row i (1-based) is the record window that starts at time
        # p + i - 1; past row j starts at time j - 1.
        rng = np.random.default_rng(3)
        rec = SignalRecord(u=rng.standard_normal(50), y=rng.standard_normal(50))
        f, p = 5, 3
        blocks = assemble_blocks(rec, f=f, p=p)
        N, D = blocks.N, design(blocks)
        for i in range(1, f + 1):
            np.testing.assert_array_equal(D[:, 2 * p + f + i - 1], rec.y[p + i - 1 : p + i - 1 + N])
            np.testing.assert_array_equal(D[:, 2 * p + i - 1], rec.u[p + i - 1 : p + i - 1 + N])
        for j in range(1, p + 1):
            np.testing.assert_array_equal(D[:, j - 1], rec.y[j - 1 : j - 1 + N])
            np.testing.assert_array_equal(D[:, p + j - 1], rec.u[j - 1 : j - 1 + N])

    @pytest.mark.parametrize("f,p", [(4, 3), (1, 1), (10, 20)])
    def test_windows_are_the_records_sliding_windows_read_only(self, f, p):
        rng = np.random.default_rng(9)
        rec = SignalRecord(u=rng.standard_normal(60), y=rng.standard_normal(60))
        blocks = assemble_blocks(rec, f=f, p=p)
        for window, signal in ((blocks.Y, rec.y), (blocks.U, rec.u)):
            want = sliding_window_view(signal, f + p)
            assert (window.shape, window.strides) == (want.shape, want.strides)
            np.testing.assert_array_equal(window, want)
            assert np.shares_memory(window, signal)
            assert not window.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                window[0, 0] = 1.0

    def test_excitation_of_order_f_plus_p(self):
        # Two sinusoids excite order 4: f + p = 4 passes, f + p = 5 does not.
        rec = two_sine_record(noise=0.0)
        assert assemble_blocks(rec, f=2, p=2).N == 1500 - 3
        with pytest.raises(ExcitationError, match="order 5 \\(rank 4\\)"):
            assemble_blocks(rec, f=3, p=2)
        with pytest.raises(ExcitationError, match="order 200"):
            assemble_blocks(SignalRecord(u=np.ones(200), y=np.ones(200)), f=100, p=100)

    def test_record_too_short(self):
        rec = SignalRecord(u=np.ones(5), y=np.ones(5))
        with pytest.raises(ConfigError, match="8"):
            assemble_blocks(rec, f=4, p=4)


class TestTruncationResidual:
    def test_residual_decays_with_past_horizon(self):
        # With the true range-space product and input Toeplitz block, the
        # row-model residual is the truncation remainder, which shrinks as
        # the past horizon grows.
        m = example1_system()
        rng = np.random.default_rng(8)
        u = rng.standard_normal(2000)
        y = simulate(m, u)  # noise-free
        rec = SignalRecord(u=u, y=y)

        def residual(p):
            blocks = assemble_blocks(rec, f=10, p=p)
            b = row_blocks(blocks)
            fitted = true_gamma_lp(m, 10, p) @ b.Z_p + toeplitz_gf(m, 10) @ b.U_f
            return np.linalg.norm(b.Y_f - fitted) / np.linalg.norm(b.Y_f)

        assert residual(20) < residual(5)
