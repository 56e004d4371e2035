import numpy as np
import pytest

from parsimid import (
    ConfigError,
    ExcitationError,
    SignalRecord,
    assemble_blocks,
    build_hankel,
    simulate,
)
from parsimid.benchmark import example1_system

from helpers import toeplitz_gf, true_gamma_lp, two_sine_record


class TestBuildHankel:
    def test_basic_indexing(self):
        H = build_hankel([1, 2, 3, 4, 5], 0, 2, 3)
        np.testing.assert_array_equal(H, [[1, 2, 3], [2, 3, 4]])

    def test_single_row_is_sliding_window(self):
        sig = np.arange(10.0)
        H = build_hankel(sig, 3, 1, 4)
        np.testing.assert_array_equal(H, [[3, 4, 5, 6]])

    def test_constant_signal(self):
        H = build_hankel(np.full(8, 2.5), 1, 3, 4)
        np.testing.assert_array_equal(H, np.full((3, 4), 2.5))

    def test_out_of_range(self):
        with pytest.raises(IndexError):
            build_hankel([1, 2, 3], 0, 2, 3)
        with pytest.raises(IndexError):
            build_hankel([1, 2, 3], -1, 1, 3)


class TestAssembleBlocks:
    def test_minimal_example(self):
        rec = SignalRecord(u=[1.0, 2.0, 3.0], y=[1.0, 2.0, 3.0])
        blocks = assemble_blocks(rec, f=1, p=1)
        assert blocks.N == 2
        np.testing.assert_array_equal(blocks.U_p, [[1, 2]])
        np.testing.assert_array_equal(blocks.Y_p, [[1, 2]])
        np.testing.assert_array_equal(blocks.U_f, [[2, 3]])
        np.testing.assert_array_equal(blocks.Y_f, [[2, 3]])
        np.testing.assert_array_equal(blocks.Z_p, [[1, 2], [1, 2]])

    def test_column_count_formula(self):
        rng = np.random.default_rng(0)
        rec = SignalRecord(u=rng.standard_normal(100), y=rng.standard_normal(100))
        for f, p in ((1, 1), (5, 7), (10, 20)):
            blocks = assemble_blocks(rec, f, p)
            assert blocks.N == 100 - f - p + 1

    def test_anti_diagonal_property(self):
        rng = np.random.default_rng(1)
        rec = SignalRecord(u=rng.standard_normal(60), y=rng.standard_normal(60))
        blocks = assemble_blocks(rec, f=4, p=6)
        for M in (blocks.U_p, blocks.Y_p, blocks.U_f, blocks.Y_f):
            rows, cols = M.shape
            for r in range(rows):
                for c in range(cols):
                    if r + 1 < rows and c >= 1:
                        assert M[r, c] == M[r + 1, c - 1]

    def test_z_p_row_order(self):
        rng = np.random.default_rng(2)
        rec = SignalRecord(u=rng.standard_normal(40), y=rng.standard_normal(40))
        blocks = assemble_blocks(rec, f=3, p=4)
        np.testing.assert_array_equal(blocks.Z_p[:4], blocks.Y_p)
        np.testing.assert_array_equal(blocks.Z_p[4:], blocks.U_p)

    def test_row_partitions(self):
        # Future row i (1-based) is the record window that starts at time
        # p + i - 1; past row j starts at time j - 1.
        rng = np.random.default_rng(3)
        rec = SignalRecord(u=rng.standard_normal(50), y=rng.standard_normal(50))
        f, p = 5, 3
        blocks = assemble_blocks(rec, f=f, p=p)
        N = blocks.N
        for i in range(1, f + 1):
            np.testing.assert_array_equal(blocks.Y_f[i - 1], rec.y[p + i - 1 : p + i - 1 + N])
            np.testing.assert_array_equal(blocks.U_f[i - 1], rec.u[p + i - 1 : p + i - 1 + N])
        for j in range(1, p + 1):
            np.testing.assert_array_equal(blocks.Y_p[j - 1], rec.y[j - 1 : j - 1 + N])
            np.testing.assert_array_equal(blocks.U_p[j - 1], rec.u[j - 1 : j - 1 + N])

    def test_read_only_views_of_one_stack(self):
        rng = np.random.default_rng(9)
        rec = SignalRecord(u=rng.standard_normal(60), y=rng.standard_normal(60))
        f, p = 4, 3
        blocks = assemble_blocks(rec, f=f, p=p)
        np.testing.assert_array_equal(blocks.stack, np.vstack([blocks.Z_p, blocks.U_f]))
        for view in (blocks.Y_p, blocks.U_p, blocks.Z_p, blocks.U_f):
            assert view.base is blocks.stack
        assert blocks.stack.shape == (2 * p + f, blocks.N)
        for block in (blocks.stack, blocks.Y_p, blocks.U_p, blocks.Z_p, blocks.U_f, blocks.Y_f):
            assert not block.flags.writeable

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
            fitted = true_gamma_lp(m, 10, p) @ blocks.Z_p + toeplitz_gf(m, 10) @ blocks.U_f
            return np.linalg.norm(blocks.Y_f - fitted) / np.linalg.norm(blocks.Y_f)

        assert residual(20) < residual(5)
