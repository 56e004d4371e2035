import re

import numpy as np
import pytest

from parsimid import (
    METHODS,
    ConfigError,
    ExcitationError,
    RealizationConfig,
    SignalRecord,
    assemble_blocks,
    fit_arx,
    identify,
    markov_g,
    markov_h,
    select_order_aic,
    simulate,
)
from parsimid.arx_pre import (
    PredictorMarkov,
    _fit_arx_from_blocks,
    predictor_to_innovations,
    predictor_to_innovations_g,
)
from parsimid.benchmark import _trial_data, example1_system, example3_scenario

from helpers import example_record, random_stable_model


def gen_arx(coeff_y, coeff_u, n_total, sigma_e, seed):
    """Simulate y[k] = sum a_i y[k-i] + sum b_i u[k-i] + e[k] directly."""
    rng = np.random.default_rng(seed)
    u = rng.standard_normal(n_total)
    e = sigma_e * rng.standard_normal(n_total)
    y = np.zeros(n_total)
    na, nb = len(coeff_y), len(coeff_u)
    for k in range(n_total):
        acc = e[k]
        for i, a in enumerate(coeff_y, start=1):
            if k - i >= 0:
                acc += a * y[k - i]
        for i, b in enumerate(coeff_u, start=1):
            if k - i >= 0:
                acc += b * u[k - i]
        y[k] = acc
    return SignalRecord(u=u, y=y)


class TestFitArx:
    def test_exact_on_noise_free_arx1(self):
        rec = gen_arx([0.5], [1.0], 400, 0.0, seed=0)
        pm = fit_arx(rec, 1)
        assert pm.h_bar[0] == pytest.approx(0.5, abs=1e-10)
        assert pm.g_bar[0] == pytest.approx(1.0, abs=1e-10)
        assert pm.residual_variance == pytest.approx(0.0, abs=1e-18)

    def test_consistent_on_noisy_arx1_with_extra_orders(self):
        rec = gen_arx([0.5], [1.0], 20000, 0.3, seed=1)
        pm = fit_arx(rec, 3)
        np.testing.assert_allclose(pm.h_bar, [0.5, 0.0, 0.0], atol=0.05)
        np.testing.assert_allclose(pm.g_bar, [1.0, 0.0, 0.0], atol=0.05)
        assert pm.residual_variance == pytest.approx(0.09, rel=0.1)

    def test_example1_first_coefficient_within_3_standard_errors(self):
        m = example1_system()
        rng = np.random.default_rng(2)
        n, order = 2000, 20
        u = rng.standard_normal(n)
        e = 2.0 * rng.standard_normal(n)
        rec = SignalRecord(u=u, y=simulate(m, u, e))
        pm = fit_arx(rec, order)
        # oracle: first predictor Markov parameter is C K
        target = (m.C @ m.K).item()
        # standard error from the regression itself
        total = len(rec)
        Phi = np.empty((total - order, 2 * order))
        for j in range(1, order + 1):
            Phi[:, j - 1] = rec.y[order - j : total - j]
            Phi[:, order + j - 1] = rec.u[order - j : total - j]
        cov = pm.residual_variance * np.linalg.inv(Phi.T @ Phi)
        se = np.sqrt(cov[0, 0])
        assert abs(pm.h_bar[0] - target) < 3 * se

    def test_white_noise_coefficients_vanish(self):
        rng = np.random.default_rng(3)
        rec = SignalRecord(u=rng.standard_normal(10000), y=rng.standard_normal(10000))
        pm = fit_arx(rec, 5)
        assert np.max(np.abs(pm.h_bar)) < 0.1
        assert np.max(np.abs(pm.g_bar)) < 0.1

    def test_error_rate_shrinks_with_sample_size(self):
        target = 0.5
        medians = []
        for n_total in (1000, 10000, 100000):
            errs = []
            for seed in range(20):
                pm = fit_arx(gen_arx([0.5], [1.0], n_total, 0.5, seed=seed), 5)
                errs.append(abs(pm.h_bar[0] - target))
            medians.append(np.median(errs))
        assert medians[0] > medians[1] > medians[2]

    def test_record_too_short(self):
        rec = gen_arx([0.5], [1.0], 50, 0.1, seed=4)
        with pytest.raises(ConfigError):
            fit_arx(rec, 10)

    def test_constant_input_not_exciting(self):
        rng = np.random.default_rng(5)
        rec = SignalRecord(u=np.ones(500), y=rng.standard_normal(500))
        with pytest.raises(ExcitationError):
            fit_arx(rec, 3)


def record(name, noisy, n_total):
    """The first ``n_total`` samples of an Example 1 or 2 record of seed 0, or of Example 3's trial-0 record (N = 1000)."""
    if name != "example3":
        return example_record(name, 0, noisy, n_total)
    rec = _trial_data(example3_scenario(10.0, trials=1), 0, 0)[1]
    return SignalRecord(u=rec.u[:n_total], y=rec.y[:n_total])


def block_cases(lengths, fs=(2, 10, 20)):
    """(f, p, N_total) at every f whose blocks fit the record: N = N_total - f - p + 1 >= f + p."""
    return [(f, p, n_total) for f in fs for p, n_total in lengths if n_total - f - p + 1 >= f + p]


RECORDS = [("example1", True), ("example2", True), ("example3", True), ("example1", False), ("example2", False)]
# The data-length bound N_total = 10 p, and longer records.  (10, 4, 40) and
# (20, 8, 80) leave the blocks fewer rows than 2p + 2f.  Example 3's
# band-limited binary input switches too rarely to excite the blocks of a
# record under 100 samples long.
BLOCK_CASES = [
    (name, noisy, *case)
    for name, noisy in RECORDS
    for case in block_cases([(4, 40), (8, 80), (20, 200), (13, 1000)])
    if name != "example3" or case[2] >= 100
]


class TestFitFromBlocks:
    """The order-p fit read from the R factor of the record's blocks is ``fit_arx``'s."""

    @pytest.mark.parametrize(
        "name,noisy,f,p,n_total",
        BLOCK_CASES,
        ids=[f"{n}-{'noisy' if z else 'noise_free'}-f{f}-p{p}-N{t}" for n, z, f, p, t in BLOCK_CASES],
    )
    def test_matches_fit_arx(self, name, noisy, f, p, n_total):
        rec = record(name, noisy, n_total)
        blocks = assemble_blocks(rec, f, p)
        got, want = _fit_arx_from_blocks(rec, blocks), fit_arx(rec, p)
        theta_got, theta_want = (np.concatenate([pm.h_bar, pm.g_bar]) for pm in (got, want))
        assert np.linalg.norm(theta_got - theta_want) <= 1e-12 * np.linalg.norm(theta_want)
        # A noise-free record's RSS is rounding, so it is compared on the scale of y.
        scale = want.residual_variance if noisy else np.mean(rec.y**2)
        assert abs(got.residual_variance - want.residual_variance) <= 1e-12 * scale

    def test_cases_reach_blocks_shorter_than_their_design(self):
        assert any(n_total - f - p + 1 < 2 * p + 2 * f for _, _, f, p, n_total in BLOCK_CASES)

    # N_total = 10p - 1, and N_total - p = 2p + 1 (which the 10p bound already refuses).
    @pytest.mark.parametrize("f,p,n_total", block_cases([(8, 79), (20, 199), (8, 25), (20, 61)], fs=(2, 10)))
    def test_identify_raises_fit_arx_text_at_arx(self, f, p, n_total):
        rec = record("example1", True, n_total)
        assemble_blocks(rec, f, p)
        for method in METHODS:
            order = max(p, f - 1) if method == "ssarx" else p
            with pytest.raises(ConfigError) as want:
                fit_arx(rec, order)
            with pytest.raises(ConfigError, match=f"^arx: {re.escape(str(want.value))}$"):
                identify(rec, RealizationConfig(n_x=1, f=f, p=p, method=method))


class TestSelectOrderAic:
    def test_recovers_arx2_order(self):
        rec = gen_arx([0.4, 0.3], [1.0, -0.5], 3000, 0.02, seed=6)
        assert select_order_aic(rec, range(1, 11)) == 2

    def test_grid_of_one(self):
        rec = gen_arx([0.5], [1.0], 500, 0.1, seed=7)
        assert select_order_aic(rec, [4]) == 4

    def test_pure_noise_selects_smallest(self):
        rng = np.random.default_rng(8)
        rec = SignalRecord(u=rng.standard_normal(5000), y=rng.standard_normal(5000))
        assert select_order_aic(rec, range(2, 12)) == 2

    def test_exact_tie_selects_smallest(self):
        # A zero output fits with zero RSS at every order, so every AIC value is -inf.
        rng = np.random.default_rng(12)
        rec = SignalRecord(u=rng.standard_normal(400), y=np.zeros(400))
        assert select_order_aic(rec, range(1, 8)) == 1

    def test_scale_invariance(self):
        rec = gen_arx([0.4, 0.3], [1.0, -0.5], 2000, 0.5, seed=9)
        chosen = select_order_aic(rec, range(1, 15))
        for scale in (1e-3, 1e4):
            scaled = SignalRecord(u=rec.u, y=scale * rec.y)
            assert select_order_aic(scaled, range(1, 15)) == chosen

    @pytest.mark.parametrize("grid,value", [([4.5, 6], "4.5"), ([6.9], "6.9")])
    def test_non_integer_order_rejected(self, grid, value):
        # int() used to truncate these: [4.5, 6] fitted order 4, and [6.9] picked 6.
        rec = gen_arx([0.5], [1.0], 500, 0.1, seed=7)
        with pytest.raises(ConfigError, match=f"^ARX order must be an integer, got {value}$"):
            select_order_aic(rec, grid)

    def test_numpy_integer_grid_accepted(self):
        rec = gen_arx([0.4, 0.3], [1.0, -0.5], 3000, 0.02, seed=6)
        assert select_order_aic(rec, np.arange(1, 11)) == select_order_aic(rec, range(1, 11)) == 2

    def test_empty_grid(self):
        rec = gen_arx([0.5], [1.0], 500, 0.1, seed=10)
        with pytest.raises(ConfigError):
            select_order_aic(rec, [])

    def test_all_orders_unfittable(self):
        rec = gen_arx([0.5], [1.0], 50, 0.1, seed=11)
        with pytest.raises(ConfigError):
            select_order_aic(rec, [20, 30])

    def test_unfittable_grid_lists_each_order_from_the_lowest(self):
        # Every order is fitted on the window the largest one leaves: 5 samples here.
        rec = gen_arx([0.5], [1.0], 100, 0.1, seed=11)
        with pytest.raises(ConfigError) as err:
            select_order_aic(rec, [4, 95])
        assert str(err.value) == (
            "no ARX order in the grid could be fitted: "
            "n=4: ARX order 4 leaves no degrees of freedom on 5 samples; "
            "n=95: record of length 100 too short for ARX order 95: need at least 950 samples"
        )


class TestPredictorMarkov:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -1.0], ids=["nan", "inf", "negative"])
    def test_residual_variance_must_be_finite_and_non_negative(self, bad):
        with pytest.raises(ConfigError, match="^residual_variance must be finite and >= 0"):
            PredictorMarkov(h_bar=[0.1], g_bar=[1.0], residual_variance=bad)


class TestMarkovRecursion:
    def test_first_term_passthrough(self):
        pm = PredictorMarkov(h_bar=[0.7, 0.1], g_bar=[0.0, 0.0], residual_variance=1.0)
        assert predictor_to_innovations(pm).h[0] == 0.7

    def test_scalar_oracle(self):
        # A=0.5, C=1, K=0.2 -> A_bar=0.3; predictor sequence [0.2, 0.06]
        # innovations sequence must be [CK, CAK] = [0.2, 0.1]
        pm = PredictorMarkov(h_bar=[0.2, 0.06], g_bar=[1.0, 0.3], residual_variance=1.0)
        np.testing.assert_allclose(predictor_to_innovations(pm).h, [0.2, 0.1], atol=1e-15)

    def test_zeros_stay_zero(self):
        pm = PredictorMarkov(h_bar=np.zeros(6), g_bar=np.zeros(6), residual_variance=0.0)
        np.testing.assert_array_equal(predictor_to_innovations(pm).h, np.zeros(6))

    def test_matches_direct_markov_for_random_models(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            m = random_stable_model(rng, n_x=int(rng.integers(1, 6)))
            A_bar = m.A - m.K @ m.C
            count = 15
            h_bar = [(m.C @ np.linalg.matrix_power(A_bar, j) @ m.K).item()
                     for j in range(count)]
            pm = PredictorMarkov(h_bar=h_bar, g_bar=np.zeros(count), residual_variance=1.0)
            np.testing.assert_allclose(
                predictor_to_innovations(pm).h, markov_h(m, count), atol=1e-9
            )


class TestInputChannelRecursion:
    def test_first_term(self):
        pm = PredictorMarkov(h_bar=[0.2], g_bar=[1.0], residual_variance=1.0)
        assert predictor_to_innovations_g(pm)[0] == 1.0

    def test_scalar_oracle(self):
        # A=0.5, B=1, C=1, K=0.2: predictor g = [1, 0.3] -> innovations [CB, CAB] = [1, 0.5]
        pm = PredictorMarkov(h_bar=[0.2, 0.06], g_bar=[1.0, 0.3], residual_variance=1.0)
        np.testing.assert_allclose(predictor_to_innovations_g(pm), [1.0, 0.5], atol=1e-15)

    def test_zero_gain_passthrough(self):
        pm = PredictorMarkov(h_bar=np.zeros(4), g_bar=[1.0, 0.5, 0.25, 0.125],
                             residual_variance=1.0)
        np.testing.assert_array_equal(predictor_to_innovations_g(pm), pm.g_bar)

    def test_matches_direct_markov_for_random_models(self):
        rng = np.random.default_rng(13)
        for _ in range(25):
            m = random_stable_model(rng, n_x=int(rng.integers(1, 5)))
            A_bar = m.A - m.K @ m.C  # B_bar = B - K D = B, as D = 0
            count = 12
            h_bar = [(m.C @ np.linalg.matrix_power(A_bar, j) @ m.K).item()
                     for j in range(count)]
            g_bar = [(m.C @ np.linalg.matrix_power(A_bar, j) @ m.B).item()
                     for j in range(count)]
            pm = PredictorMarkov(h_bar=h_bar, g_bar=g_bar, residual_variance=1.0)
            np.testing.assert_allclose(
                predictor_to_innovations_g(pm), markov_g(m, count), atol=1e-9
            )
