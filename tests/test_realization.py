import re
import warnings
from itertools import permutations

import numpy as np
import pytest
from scipy.linalg import subspace_angles

from parsimid import (
    METHODS,
    ConfigError,
    ExcitationError,
    InnovationsMarkov,
    ParsimidError,
    PreparedRecord,
    RankError,
    RealizationConfig,
    SignalRecord,
    assemble_blocks,
    default_aic_grid,
    fit_arx,
    fit_metric,
    identify,
    impulse_response,
    markov_g,
    markov_h,
    select_order_aic,
    simulate,
    weight_w2,
)
from parsimid.arx_pre import predictor_to_innovations
from parsimid.estimators import RangeEstimate
from parsimid.realization import estimate_bk, extract_ac, weighted_svd_realize
from parsimid.benchmark import (
    EXAMPLE2_GAMMA,
    _trial_data,
    example1_scenario,
    example1_system,
    example2_scenario,
    example2_system,
    example3_scenario,
)
from parsimid import _lstsq, arx_pre, benchmark, data_blocks, estimators, realization

from helpers import (
    example_record,
    gamma_f,
    random_stable_model,
    ref_classical_gamma,
    ref_projected_gram,
    ref_ssarx_gamma,
    ref_w2,
    true_gamma_lp,
    two_sine_record,
)


def rel(a, b) -> float:
    return float(np.linalg.norm(a - b) / np.linalg.norm(b))


def weighted_gram(gamma, w2):
    """(gamma W2)(gamma W2)': the part of gamma W2 that an orthogonal factor on the right leaves alone."""
    M = gamma @ w2
    return M @ M.T


class TestWeightW2:
    """W2 = R22' against the symmetric root of Z_p P Z_p' and the projection formulas it replaced."""

    CASES = [
        (name, noisy, f, p)
        for name in ("example1", "example2")
        for noisy in (True, False)
        for f, p in ((10, 20), (1, 1))
    ]

    @staticmethod
    def prepared(name, noisy, f, p):
        rec = example_record(name, 0, noisy)
        return rec, assemble_blocks(rec, f, p)

    @pytest.mark.parametrize("name,noisy,f,p", CASES)
    def test_factor_squares_to_projected_gram(self, name, noisy, f, p):
        _, blocks = self.prepared(name, noisy, f, p)
        W2 = weight_w2(blocks)
        assert W2.shape == (2 * p, 2 * p)
        assert rel(W2 @ W2.T, ref_projected_gram(blocks)) < 1e-10

    @pytest.mark.parametrize("name,noisy,f,p", CASES)
    def test_weighted_estimates_match_projection_references(self, name, noisy, f, p):
        rec, blocks = self.prepared(name, noisy, f, p)
        pm = fit_arx(rec, max(p, f - 1))
        W2, W2_ref = weight_w2(blocks), ref_w2(blocks)
        for gamma, gamma_ref in (
            (realization.classical_projection(blocks).gamma_lp, ref_classical_gamma(blocks)),
            (realization.ssarx_estimate(blocks, pm).gamma_lp, ref_ssarx_gamma(blocks, pm)),
        ):
            assert rel(weighted_gram(gamma, W2), weighted_gram(gamma_ref, W2_ref)) < 1e-10

    @pytest.mark.parametrize("name,noisy,f,p", CASES)
    def test_weighted_svd_agrees_with_the_symmetric_root(self, name, noisy, f, p):
        _, blocks = self.prepared(name, noisy, f, p)
        gamma = realization.parsim_ols(blocks).gamma_lp
        U, s, _ = np.linalg.svd(gamma @ weight_w2(blocks))
        U_ref, s_ref, _ = np.linalg.svd(gamma @ ref_w2(blocks))
        np.testing.assert_allclose(s, s_ref, rtol=0, atol=1e-10 * s_ref[0])
        # The leading two directions are separated by a clear gap on every record.
        n = min(2, f)
        np.testing.assert_allclose(np.abs(U[:, :n]), np.abs(U_ref[:, :n]), rtol=0, atol=1e-10)

    @pytest.mark.parametrize("f,p,n_total", [(10, 1, 21), (4, 6, 22)])
    def test_short_record_keeps_a_square_factor(self, f, p, n_total):
        # N < 2p + f: the QR has fewer than 2p rows below the U_f rows.
        rng = np.random.default_rng(1)
        rec = SignalRecord(u=rng.standard_normal(n_total), y=rng.standard_normal(n_total))
        blocks = assemble_blocks(rec, f, p)
        assert blocks.N < 2 * p + f
        W2 = weight_w2(blocks)
        assert W2.shape == (2 * p, 2 * p)
        assert rel(W2 @ W2.T, ref_projected_gram(blocks)) < 1e-10
        cfg = RealizationConfig(n_x=1, f=f, p=p, method="classical")
        _, s = weighted_svd_realize(realization.classical_projection(blocks), cfg, W2)
        assert s.size == min(f, 2 * p)


class TestWeightedSvd:
    @staticmethod
    def exact_estimate(m, f, p):
        return RangeEstimate(gamma_lp=true_gamma_lp(m, f, p), g_rows=())

    def test_exact_rank_input_recovers_column_space(self):
        rng = np.random.default_rng(2)
        m = random_stable_model(rng, n_x=3)
        cfg = RealizationConfig(n_x=3, f=8, p=6, method="classical")
        Gh, svals = weighted_svd_realize(self.exact_estimate(m, 8, 6), cfg, np.eye(12))
        angles = subspace_angles(Gh, gamma_f(m.A, m.C, 8))
        assert np.max(angles) < 1e-8
        assert svals.size == 8

    def test_scaling_homogeneity(self):
        rng = np.random.default_rng(3)
        m = random_stable_model(rng, n_x=2)
        est = self.exact_estimate(m, 6, 5)
        cfg = RealizationConfig(n_x=2, f=6, p=5, method="classical")
        G1, _ = weighted_svd_realize(est, cfg, np.eye(10))
        est2 = RangeEstimate(gamma_lp=2.0 * est.gamma_lp, g_rows=())
        G2, _ = weighted_svd_realize(est2, cfg, np.eye(10))
        np.testing.assert_allclose(np.abs(G2), np.sqrt(2.0) * np.abs(G1), atol=1e-9)
        assert np.max(subspace_angles(G1, G2)) < 1e-10

    def test_w2_modes_agree_on_exact_rank_input(self):
        rng = np.random.default_rng(4)
        m = random_stable_model(rng, n_x=2)
        u = rng.standard_normal(800)
        rec = SignalRecord(u=u, y=simulate(m, u))
        blocks = assemble_blocks(rec, f=6, p=8)
        est = self.exact_estimate(m, 6, 8)
        cfg = RealizationConfig(n_x=2, f=6, p=8, method="classical")
        Gw, _ = weighted_svd_realize(est, cfg, weight_w2(blocks))
        Gi, _ = weighted_svd_realize(est, cfg, np.eye(16))
        assert np.max(subspace_angles(Gw, Gi)) < 1e-8

    def test_rank_error_lists_spectrum(self):
        est = RangeEstimate(gamma_lp=np.outer(np.arange(1.0, 5.0), np.ones(6)), g_rows=())
        cfg = RealizationConfig(n_x=2, f=4, p=3, method="classical")
        with pytest.raises(RankError, match="singular values"):
            weighted_svd_realize(est, cfg, np.eye(6))

    def test_noise_free_pipeline_singular_gap(self):
        m = example1_system()
        rng = np.random.default_rng(5)
        u = rng.standard_normal(2000)
        rec = SignalRecord(u=u, y=simulate(m, u))
        cfg = RealizationConfig(n_x=2, f=10, p=20, method="parsim")
        result = identify(rec, cfg)
        s = result.singular_values
        assert s[2] / s[1] < 1e-6


class TestExtractAc:
    def test_scalar_shift(self):
        Gamma = np.array([[1.0], [0.5], [0.25]])
        A, C, _ = extract_ac(Gamma)
        assert A[0, 0] == pytest.approx(0.5, abs=1e-12)
        assert C[0, 0] == pytest.approx(1.0, abs=1e-12)

    def test_similarity_invariant_eigenvalues(self):
        rng = np.random.default_rng(6)
        m = random_stable_model(rng, n_x=3)
        T = rng.standard_normal((3, 3)) + 3 * np.eye(3)
        Gamma = gamma_f(m.A, m.C, 7) @ T
        A, C, _ = extract_ac(Gamma)
        np.testing.assert_allclose(
            np.sort_complex(np.linalg.eigvals(A)),
            np.sort_complex(np.linalg.eigvals(m.A)),
            atol=1e-9,
        )

    def test_example2_double_pole(self):
        m, _ = example2_system()
        A, _, _ = extract_ac(gamma_f(m.A, m.C, 7))
        roots = np.roots([1.0, -2 * EXAMPLE2_GAMMA, EXAMPLE2_GAMMA**2])
        np.testing.assert_allclose(
            np.sort(np.linalg.eigvals(A).real), np.sort(roots.real), atol=1e-8
        )
        assert np.max(np.abs(np.linalg.eigvals(A).imag)) < 1e-8

    def test_rank_deficient_top_block(self):
        Gamma = np.zeros((4, 2))
        Gamma[:, 0] = [1.0, 0.5, 0.25, 0.125]
        with pytest.raises(RankError):
            extract_ac(Gamma)


class TestEstimateBK:
    def test_exact_markov_inputs_recover_gains(self):
        rng = np.random.default_rng(7)
        m = random_stable_model(rng, n_x=3)
        # Bank-style sequences: rows i = 2..8 each observe G_1..G_{i-1}.
        g = markov_g(m, 8)
        b_seqs = [g[: i - 1] for i in range(2, 9)]
        B, K, b_rms, k_rms = estimate_bk(m.A, m.C, b_seqs, markov_h(m, 10))
        np.testing.assert_allclose(B, m.B, atol=1e-9)
        np.testing.assert_allclose(K, m.K, atol=1e-9)
        assert b_rms < 1e-9 and k_rms < 1e-9

    def test_zero_estimates_give_zero_gains(self):
        rng = np.random.default_rng(8)
        m = random_stable_model(rng, n_x=2)
        B, K, b_rms, k_rms = estimate_bk(m.A, m.C, [np.zeros(4)], np.zeros(6))
        np.testing.assert_array_equal(B, np.zeros((2, 1)))
        np.testing.assert_array_equal(K, np.zeros((2, 1)))
        assert b_rms == 0.0 and k_rms == 0.0

    def test_fit_rms_is_the_residual_rms(self):
        rng = np.random.default_rng(9)
        m = random_stable_model(rng, n_x=2)
        g, h = markov_g(m, 8), markov_h(m, 8)
        g_obs, h_obs = (seq + 1e-3 * rng.standard_normal(8) for seq in (g, h))
        B, K, b_rms, k_rms = estimate_bk(m.A, m.C, [g_obs], h_obs)
        O = gamma_f(m.A, m.C, 8)
        assert b_rms == pytest.approx(np.sqrt(np.mean(((O @ B).ravel() - g_obs) ** 2)), rel=1e-9)
        assert k_rms == pytest.approx(np.sqrt(np.mean(((O @ K).ravel() - h_obs) ** 2)), rel=1e-9)
        assert 0.0 < b_rms < 1e-3 and 0.0 < k_rms < 1e-3

    def test_example1_noise_free_realization_impulse(self):
        m = example1_system()
        rng = np.random.default_rng(11)
        u = rng.standard_normal(2000)
        rec = SignalRecord(u=u, y=simulate(m, u))
        result = identify(rec, RealizationConfig(n_x=2, f=10, p=20, method="parsim"))
        got = impulse_response(result.model, 10)
        np.testing.assert_allclose(got, impulse_response(m, 10), atol=1e-6)
        np.testing.assert_allclose(got[:4], [0.0, 0.21, 0.196, -0.0504], atol=1e-6)


class TestIdentify:
    def test_noise_free_fit_all_bank_methods(self):
        m = example1_system()
        rng = np.random.default_rng(12)
        u = rng.standard_normal(2000)
        rec = SignalRecord(u=u, y=simulate(m, u))
        g_true = impulse_response(m, 100)
        for method in ("parsim", "parsim_opt"):
            result = identify(rec, RealizationConfig(n_x=2, f=10, p=20, method=method))
            fit = fit_metric(g_true, impulse_response(result.model, 100))
            assert fit > 99.9

    def test_injected_weights_reproduce_default(self):
        m = example1_system()
        rng = np.random.default_rng(13)
        u = rng.standard_normal(1500)
        e = 2.0 * rng.standard_normal(1500)
        rec = SignalRecord(u=u, y=simulate(m, u, e))
        cfg = RealizationConfig(n_x=3, f=10, p=12, method="parsim_opt")
        default = identify(rec, cfg)
        pm_w = fit_arx(rec, max(cfg.p, arx_pre.max_arx_order(len(rec))))
        injected = identify(rec, cfg, weighting_markov=predictor_to_innovations(pm_w))
        np.testing.assert_array_equal(injected.model.A, default.model.A)
        np.testing.assert_array_equal(injected.model.B, default.model.B)
        np.testing.assert_array_equal(injected.model.K, default.model.K)

    def test_ssarx_converts_to_innovations_form(self):
        rng = np.random.default_rng(14)
        m = random_stable_model(rng, n_x=2, k_scale=0.2)
        u = rng.standard_normal(5000)
        e = 0.1 * rng.standard_normal(5000)
        rec = SignalRecord(u=u, y=simulate(m, u, e))
        result = identify(rec, RealizationConfig(n_x=2, f=8, p=15, method="ssarx"))
        fit = fit_metric(impulse_response(m, 80), impulse_response(result.model, 80))
        assert fit > 90.0
        assert result.diagnostics["stable"]

    def test_classical_method_runs(self):
        rng = np.random.default_rng(15)
        m = random_stable_model(rng, n_x=2, k_scale=0.1)
        u = rng.standard_normal(4000)
        e = 0.1 * rng.standard_normal(4000)
        rec = SignalRecord(u=u, y=simulate(m, u, e))
        result = identify(rec, RealizationConfig(n_x=2, f=8, p=15, method="classical"))
        fit = fit_metric(impulse_response(m, 80), impulse_response(result.model, 80))
        assert fit > 80.0

    def test_stage_labels_on_errors(self):
        rec = SignalRecord(u=np.ones(30), y=np.ones(30))
        with pytest.raises(ConfigError, match="blocks:"):
            identify(rec, RealizationConfig(n_x=2, f=20, p=20, method="parsim"))

    def test_numpys_linalg_error_is_a_labelled_rank_error(self, monkeypatch):
        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        rec = example_record("example1", seed=16, noisy=True, n_total=1200)
        monkeypatch.setattr(realization.np.linalg, "svd", fail)
        with pytest.raises(RankError, match="^svd: SVD did not converge$") as err:
            identify(rec, RealizationConfig(n_x=3, f=10, p=12, method="parsim"))
        assert isinstance(err.value.__cause__, np.linalg.LinAlgError)

    def test_gram_eigenvalues_that_do_not_converge_fail_the_estimate(self, monkeypatch):
        monkeypatch.setattr(_lstsq, "symmetric_eigenvalues", lambda a: (np.zeros(a.shape[0]), 3))
        rec = example_record("example1", seed=16, noisy=True, n_total=1200)
        with pytest.raises(RankError, match=r"^estimate: Gram eigenvalues did not converge \(dsyev info 3\)$"):
            identify(rec, RealizationConfig(n_x=3, f=10, p=12, method="parsim_opt"))

    def test_diagnostics_contents(self):
        m = example1_system()
        rng = np.random.default_rng(16)
        u = rng.standard_normal(1200)
        e = 2.0 * rng.standard_normal(1200)
        rec = SignalRecord(u=u, y=simulate(m, u, e))
        result = identify(rec, RealizationConfig(n_x=3, f=10, p=10, method="parsim"))
        diag = result.diagnostics
        for key in ("method", "stable", "spectral_radius", "arx_residual_variance",
                    "svd_tail_fraction", "shift_residual_rms", "markov_last_row"):
            assert key in diag
        assert isinstance(diag["stable"], bool)
        assert diag["markov_last_row"].size == 10

    def test_markov_last_row_only_for_banks(self):
        # classical and SSARX estimate no Markov rows; SSARX's predictor
        # parameters are not innovations-form G estimates
        rec = example_record("example1", seed=16, noisy=True, n_total=1200)
        for method in METHODS:
            result = identify(rec, RealizationConfig(n_x=3, f=10, p=10, method=method))
            row = result.diagnostics["markov_last_row"]
            if method in ("parsim", "parsim_opt"):
                assert row.size == 10, method
            else:
                assert row is None, method

    def test_noise_free_exactness_random_models(self):
        # reachable/observable stable models, exciting input, no noise:
        # both bank methods recover the impulse response almost exactly
        rng = np.random.default_rng(17)
        checked = 0
        while checked < 5:
            n_x = int(rng.integers(1, 5))
            m = random_stable_model(rng, n_x=n_x, k_scale=0.2)
            u = rng.standard_normal(2000)
            rec = SignalRecord(u=u, y=simulate(m, u))
            g_true = impulse_response(m, 50)
            for method in ("parsim", "parsim_opt"):
                cfg = RealizationConfig(n_x=n_x, f=n_x + 2, p=20, method=method)
                result = identify(rec, cfg)
                g_hat = impulse_response(result.model, 50)
                rel = np.linalg.norm(g_hat - g_true) / np.linalg.norm(g_true)
                assert rel < 1e-5, f"{method} n_x={n_x}: {rel}"
            checked += 1

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            RealizationConfig(n_x=0, f=10, p=5)
        with pytest.raises(ConfigError):
            RealizationConfig(n_x=10, f=10, p=5)
        with pytest.raises(ConfigError):
            RealizationConfig(n_x=2, f=10, p=5, method="other")

    @pytest.mark.parametrize(
        "settings,name,value",
        [
            (dict(n_x=2.5, f=10, p=8), "n_x", "2.5"),
            (dict(n_x=3, f=10.0, p=8), "future horizon", "10.0"),
            (dict(n_x=3, f=10, p=8.5), "past horizon", "8.5"),
        ],
    )
    def test_non_integer_setting_rejected(self, settings, name, value):
        # identify used to fail on these with "slice indices must be integers".
        with pytest.raises(ConfigError, match=f"^{name} must be an integer, got {value}$"):
            RealizationConfig(**settings)

    def test_numpy_integer_settings_accepted(self):
        _, rec = seed2_example1_record()
        cfg = RealizationConfig(n_x=np.int64(3), f=np.int32(10), p=np.int64(8), method="parsim")
        want = identify(rec, RealizationConfig(n_x=3, f=10, p=8, method="parsim"))
        np.testing.assert_array_equal(identify(rec, cfg).singular_values, want.singular_values)


def seed2_example1_record():
    """The record of ``parsimid simulate --system example1 --noise-variance 4 --seed 2``."""
    m = example1_system()
    rng = np.random.default_rng(2)
    u = rng.standard_normal(2000)
    e = 2.0 * rng.standard_normal(2000)
    return m, SignalRecord(u=u, y=simulate(m, u, e))


class TestArxOrder:
    def test_ssarx_fits_order_f_minus_1_when_aic_picks_a_short_past(self):
        m, rec = seed2_example1_record()
        p = select_order_aic(rec, default_aic_grid(3, len(rec)))
        assert p == 8
        result = identify(rec, RealizationConfig(n_x=3, f=10, p=p, method="ssarx"))
        assert result.diagnostics["arx_order"] == 9
        fit = fit_metric(impulse_response(m, 100), impulse_response(result.model, 100))
        assert fit > 40.0

    @pytest.mark.parametrize(
        "method,p,arx_order,weighting_order",
        [
            ("parsim", 8, 8, None),
            ("parsim_opt", 8, 8, 30),
            ("parsim_opt", 40, 40, 40),
            ("classical", 8, 8, None),
            ("ssarx", 8, 9, None),
            ("ssarx", 12, 12, None),
        ],
    )
    def test_orders_in_diagnostics(self, method, p, arx_order, weighting_order):
        _, rec = seed2_example1_record()
        diag = identify(rec, RealizationConfig(n_x=3, f=10, p=p, method=method)).diagnostics
        assert diag["arx_order"] == arx_order
        assert diag["weighting_arx_order"] == weighting_order
        if method == "parsim_opt":
            # Rows 2..10 of the weighted bank, each with 2p + i regressors.
            assert diag["wls_gram_rank"] == [2 * p + i for i in range(2, 11)]
            assert len(diag["wls_gram_cond"]) == 9
            assert all(1.0 <= c < 1e12 for c in diag["wls_gram_cond"])
        else:
            assert diag["wls_gram_rank"] is None and diag["wls_gram_cond"] is None

    def test_injected_weighting_has_no_weighting_order(self):
        _, rec = seed2_example1_record()
        cfg = RealizationConfig(n_x=3, f=10, p=8, method="parsim_opt")
        result = identify(rec, cfg, weighting_markov=InnovationsMarkov(h=np.zeros(9)))
        assert result.diagnostics["weighting_arx_order"] is None

    @pytest.mark.parametrize("method", ["parsim", "classical", "ssarx"])
    def test_injected_weighting_rejected_for_other_methods(self, method):
        _, rec = seed2_example1_record()
        cfg = RealizationConfig(n_x=3, f=10, p=8, method=method)
        with pytest.raises(ConfigError, match=f"weighting_markov applies to parsim_opt only, got method '{method}'"):
            identify(rec, cfg, weighting_markov=InnovationsMarkov(h=np.zeros(9)))


# (record, n_x, f, p): Example 1 at the AIC order of its c06 records and at
# a past shorter than f - 1, and Example 2 at a long past.
STAGE_CASES = {
    "example1-p13": ("example1", 3, 10, 13),
    "example1-short-past": ("example1", 3, 10, 4),
    "example2-p20": ("example2", 2, 7, 20),
}


def assert_float_array(value, shape):
    assert isinstance(value, np.ndarray) and value.dtype == np.float64
    assert value.shape == shape
    assert np.all(np.isfinite(value))


class TestWhatIdentifyHandsItsStages:
    """The internal stages convert nothing: ``identify``, their one caller, hands them finite float64 arrays of the shapes they read."""

    STAGES = ("parsim_ols", "parsim_wls", "classical_projection", "ssarx_estimate",
              "weighted_svd_realize", "extract_ac", "estimate_bk")

    def calls(self, monkeypatch, method, case):
        name, n_x, f, p = STAGE_CASES[case]
        calls = count_calls(monkeypatch, *self.STAGES)
        results = {}
        for stage in ("weighted_svd_realize", "extract_ac"):
            def kept(*args, _fn=getattr(realization, stage), _stage=stage):
                results[_stage] = _fn(*args)
                return results[_stage]

            monkeypatch.setattr(realization, stage, kept)
        identify(example_record(name, 0, noisy=True), RealizationConfig(n_x=n_x, f=f, p=p, method=method))
        return calls, results, (n_x, f, p)

    @pytest.mark.parametrize("case", STAGE_CASES)
    @pytest.mark.parametrize("method", METHODS)
    def test_the_svd_reads_the_estimate_and_a_read_only_w2(self, monkeypatch, method, case):
        calls, _, (n_x, f, p) = self.calls(monkeypatch, method, case)
        [(est, cfg, w2)] = calls["weighted_svd_realize"]
        assert isinstance(est, RangeEstimate) and cfg.n_x == n_x
        assert_float_array(est.gamma_lp, (f, 2 * p))
        assert_float_array(w2, (2 * p, 2 * p))
        assert not w2.flags.writeable

    @pytest.mark.parametrize("case", STAGE_CASES)
    @pytest.mark.parametrize("method", METHODS)
    def test_the_bank_rows_hold_one_markov_parameter_per_future_index(self, monkeypatch, method, case):
        calls, _, (_, f, p) = self.calls(monkeypatch, method, case)
        [(est, _, _)] = calls["weighted_svd_realize"]
        if method in ("parsim", "parsim_opt"):
            assert len(est.g_rows) == f
            for i, row in enumerate(est.g_rows, start=1):
                assert_float_array(row, (i,))
        else:
            assert est.g_rows == ()
        assert len(est.gram_rank) == len(est.gram_cond) == (f - 1 if method == "parsim_opt" else 0)

    @pytest.mark.parametrize("case", STAGE_CASES)
    @pytest.mark.parametrize("method", METHODS)
    def test_the_shift_reads_the_svds_f_by_n_x_factor(self, monkeypatch, method, case):
        calls, results, (n_x, f, _) = self.calls(monkeypatch, method, case)
        [(Gamma_hat,)] = calls["extract_ac"]
        assert Gamma_hat is results["weighted_svd_realize"][0]
        assert_float_array(Gamma_hat, (f, n_x))

    @pytest.mark.parametrize("case", STAGE_CASES)
    @pytest.mark.parametrize("method", METHODS)
    def test_the_gain_fits_read_the_shifts_pair_and_1d_sequences(self, monkeypatch, method, case):
        calls, results, (n_x, f, p) = self.calls(monkeypatch, method, case)
        [(A, C, b_seqs, k_seq)] = calls["estimate_bk"]
        A_want, C_want, _ = results["extract_ac"]
        assert A is A_want and C is C_want
        assert_float_array(A, (n_x, n_x))
        assert_float_array(C, (1, n_x))
        arx_order = max(p, f - 1) if method == "ssarx" else p
        # Bank row i gives its i - 1 parameters past the feedthrough; the
        # other methods give one ARX sequence.
        lengths = range(1, f) if method in ("parsim", "parsim_opt") else [arx_order]
        assert isinstance(b_seqs, list) and len(b_seqs) == len(lengths)
        for s, n in zip(b_seqs, lengths):
            assert_float_array(s, (n,))
        assert_float_array(k_seq, (arx_order,))

    @pytest.mark.parametrize("p", range(2, 13))
    def test_ssarx_reads_at_least_f_minus_1_predictor_parameters(self, monkeypatch, p):
        calls = count_calls(monkeypatch, "ssarx_estimate")
        identify(example_record("example1", 0, noisy=True), RealizationConfig(n_x=3, f=10, p=p, method="ssarx"))
        [(blocks, pm)] = calls["ssarx_estimate"]
        assert (blocks.f, blocks.p) == (10, p)
        assert pm.g_bar.size == pm.h_bar.size == max(p, 9)


# The finite records of ROADMAP item 4: Example 1's c06 record, master seed
# 0, with u and y scaled (u scale, y scale).
EXTREME_SCALES = {
    **{f"y*{s:g}": (1.0, s) for s in (1e200, 1e-200, 1e300, 1e-300)},
    **{f"u*{s:g}": (s, 1.0) for s in (1e200, 1e-200, 1e300, 1e-300)},
    "both*1e-310": (1e-310, 1e-310),
}


class TestExtremeRecords:
    """A finite record of extreme magnitude gives a finite model or a typed error labelled with its stage."""

    @pytest.mark.parametrize("scale", EXTREME_SCALES)
    @pytest.mark.parametrize("method", METHODS)
    def test_outcome_is_a_finite_model_or_a_labelled_parsimid_error(self, method, scale):
        rec = _trial_data(example1_scenario(), 0, 0)[1]
        su, sy = EXTREME_SCALES[scale]
        rec = SignalRecord(u=rec.u * su, y=rec.y * sy)
        # Some of these records warn in numpy before they fail (ROADMAP
        # item 4); what is pinned here is the kind of the outcome.
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            got = outcome(identify, rec, RealizationConfig(n_x=3, f=10, p=12, method=method))
        if isinstance(got, str):
            assert re.match(r"^\w+Error: (blocks|arx|estimate|svd|shift|gains): ", got), got
        else:
            for name in ("A", "B", "C", "K"):
                assert np.all(np.isfinite(getattr(got.model, name))), name
            assert np.all(np.isfinite(got.singular_values))


class TestGains:
    def test_classical_b_comes_from_the_arx_input_sequence(self, monkeypatch):
        _, rec = seed2_example1_record()
        cfg = RealizationConfig(n_x=3, f=10, p=12, method="classical")
        base = identify(rec, cfg).model
        convert = realization.predictor_to_innovations_g
        monkeypatch.setattr(realization, "predictor_to_innovations_g", lambda pm: 2.0 * convert(pm))
        doubled = identify(rec, cfg).model
        np.testing.assert_allclose(doubled.B, 2.0 * base.B, rtol=1e-12)
        np.testing.assert_array_equal(doubled.K, base.K)
        np.testing.assert_array_equal(doubled.A, base.A)

    @pytest.mark.parametrize("method", METHODS)
    def test_fit_rms_finite_on_a_noisy_record(self, method):
        _, rec = seed2_example1_record()
        diag = identify(rec, RealizationConfig(n_x=3, f=10, p=12, method=method)).diagnostics
        for key in ("b_fit_rms", "k_fit_rms"):
            assert np.isfinite(diag[key]) and diag[key] >= 0.0, key


class TestInnovationsConversion:
    @pytest.mark.parametrize(
        "method,converts",
        [("parsim", {"h"}), ("parsim_opt", {"h"}), ("classical", {"h", "g"}), ("ssarx", set())],
    )
    def test_conversion_only_for_innovations_gains(self, monkeypatch, method, converts):
        # The SSARX gains come from the predictor-form ARX sequences, so the
        # innovations-form conversion is skipped for that method.  B comes
        # from the bank's Markov rows, so only classical, which has none,
        # converts the input channel.
        counts = {}
        for name in ("predictor_to_innovations", "predictor_to_innovations_g"):
            def counted(*args, _fn=getattr(realization, name), _name=name, **kwargs):
                counts[_name] = counts.get(_name, 0) + 1
                return _fn(*args, **kwargs)

            monkeypatch.setattr(realization, name, counted)
        _, rec = seed2_example1_record()
        identify(rec, RealizationConfig(n_x=3, f=10, p=12, method=method))
        assert ("h" in converts) == (counts.get("predictor_to_innovations", 0) >= 1)
        assert counts.get("predictor_to_innovations_g", 0) == int("g" in converts)


class TestPreparedRecord:
    """Every method reads one prepared record: one excitation check, one factorization."""

    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.parametrize("f,p", [(3, 3), (4, 3)])
    def test_every_method_rejects_a_non_exciting_input_in_blocks(self, method, f, p):
        # Persistently exciting of order 4 only, with Example 1's noise (variance 4).
        rec = two_sine_record(noise=2.0, n_total=2000)
        with pytest.raises(ExcitationError, match=f"^input is not persistently exciting of order {f + p}"):
            assemble_blocks(rec, f, p)
        with pytest.raises(ExcitationError, match="^blocks: input is not persistently exciting"):
            identify(rec, RealizationConfig(n_x=2, f=f, p=p, method=method))

    @pytest.mark.parametrize("method", METHODS)
    def test_one_record_factorization_per_identify_call(self, monkeypatch, method):
        built = count_factors(monkeypatch)
        _, rec = seed2_example1_record()
        identify(rec, RealizationConfig(n_x=3, f=10, p=20, method=method))
        N = len(rec) - 10 - 20 + 1
        assert [b for b in built if b[1] == N] == [("parsimid.data_blocks", N)]
        assert not [b for b in built if b[0] == "parsimid.estimators"]

    def test_a_failed_preparation_fails_every_method_sharing_it(self):
        prepared = PreparedRecord(two_sine_record(noise=2.0, n_total=2000))
        for method in METHODS:
            with pytest.raises(ExcitationError, match="^blocks: input is not persistently exciting"):
                identify(prepared, RealizationConfig(n_x=2, f=3, p=3, method=method))

    def test_a_failing_weighting_fit_fails_at_arx(self):
        # Six sines: persistently exciting of order 12, enough for the blocks
        # (f + p = 9) and short of the weighting fit's order max_arx_order(2000) = 30.
        k = np.arange(2000)
        u = sum(np.sin(w * k) for w in (0.3, 0.7, 1.1, 1.5, 1.9, 2.3))
        e = 2.0 * np.random.default_rng(0).standard_normal(k.size)
        prepared = PreparedRecord(SignalRecord(u=u, y=simulate(example1_system(), u, e)))
        for method in ("parsim", "classical", "ssarx"):
            identify(prepared, RealizationConfig(n_x=3, f=5, p=4, method=method))
        with pytest.raises(ExcitationError, match="^arx: input-lag regressor of ARX order 30 is rank deficient"):
            identify(prepared, RealizationConfig(n_x=3, f=5, p=4, method="parsim_opt"))

    def test_one_record_serves_two_horizon_pairs(self, monkeypatch):
        calls = count_calls(monkeypatch, "assemble_blocks", "weight_w2", "fit_arx")
        _, rec = seed2_example1_record()
        cfgs = [RealizationConfig(n_x=3, f=10, p=p, method=m) for p in (8, 12) for m in METHODS]
        alone = [identify(rec, cfg) for cfg in cfgs]
        for log in calls.values():
            log.clear()
        prepared = PreparedRecord(rec)
        for cfg, want in zip(cfgs, alone):
            assert_same_bytes(identify(prepared, cfg), want)
        assert [args[1:] for args in calls["assemble_blocks"]] == [(10, 8), (10, 12)]
        assert len(calls["weight_w2"]) == 2
        # The weighting order 30 (kept across both pairs) and SSARX's
        # f - 1 = 9 at p = 8; each order-p fit is read from its pair's blocks.
        assert [args[1] for args in calls["fit_arx"]] == [30, 9]

    def test_shared_arrays_are_read_only(self):
        _, rec = seed2_example1_record()
        blocks = assemble_blocks(rec, 10, 8)
        for shared in (blocks.ls.R, weight_w2(blocks)):
            with pytest.raises(ValueError, match="read-only"):
                shared[0, 0] = 1.0

    @pytest.mark.parametrize(
        "p,inject",
        [(8, False), (12, False), (8, True)],
        ids=["p8-ssarx-fits-order-9", "p12", "p8-injected-weighting"],
    )
    def test_methods_sharing_a_record_match_a_bare_record_in_any_order(self, p, inject):
        _, rec = seed2_example1_record()
        cfgs = {m: RealizationConfig(n_x=3, f=10, p=p, method=m) for m in METHODS}
        kwargs = {m: {} for m in METHODS}
        if inject:
            h = predictor_to_innovations(fit_arx(rec, 20))
            kwargs["parsim_opt"] = {"weighting_markov": h}
        alone = {m: identify(rec, cfgs[m], **kwargs[m]) for m in METHODS}
        for order in permutations(METHODS):
            prepared = PreparedRecord(rec)
            for m in order:
                assert_same_bytes(identify(prepared, cfgs[m], **kwargs[m]), alone[m])

    def test_one_trial_prepares_its_record_once(self, monkeypatch):
        calls = count_calls(monkeypatch, "assemble_blocks", "weight_w2", "fit_arx")
        built = count_factors(monkeypatch)
        sc = example1_scenario(trials=1, methods=("parsim", "parsim_opt", "classical"))
        rows = benchmark._run_trial(sc, 0, 0)
        assert [r.failure for r in rows] == [None, None, None]
        p = rows[0].p
        assert len(calls["assemble_blocks"]) == 1
        assert len(calls["weight_w2"]) == 1
        # AIC leaves its top-order fit, the weighting fit of order 30, in the
        # record, and the order-p fit is read from the blocks.
        assert [args[1] for args in calls["fit_arx"]] == []
        assert [b for b in built if b[0] == "parsimid.data_blocks"] == [
            ("parsimid.data_blocks", sc.N - sc.f - p + 1)
        ]
        assert not [b for b in built if b[0] == "parsimid.estimators"]
        # Every ARX factor is arx_pre's: AIC's on the window of its largest
        # order, 30, and the order-p fit's, the (2p + 1)-row triangle of the
        # blocks' R with the last f - 1 samples appended; none of N - p rows.
        assert [b for b in built if b[0] == "parsimid.arx_pre"] == [
            ("parsimid.arx_pre", sc.N - 30), ("parsimid.arx_pre", 2 * p + sc.f)
        ]


AIC_SCENARIOS = {
    "example1": example1_scenario(trials=1),
    "example2": example2_scenario(trials=1),
    "example3": example3_scenario(10.0, trials=1),
}


class TestAicHandoff:
    """AIC leaves its top-order fit in a prepared record, and changes nothing else."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("name", AIC_SCENARIOS)
    def test_kept_fit_is_fit_arx_of_the_top_order(self, monkeypatch, name, seed):
        sc = AIC_SCENARIOS[name]
        rec = _trial_data(sc, seed, 0)[1]
        grid = default_aic_grid(sc.n_x, len(rec))
        prepared = PreparedRecord(rec)
        select_order_aic(prepared, grid)
        calls = count_calls(monkeypatch, "fit_arx")
        kept, want = prepared.arx(grid[-1]), fit_arx(rec, grid[-1])
        assert calls["fit_arx"] == []
        assert kept.h_bar.tobytes() == want.h_bar.tobytes()
        assert kept.g_bar.tobytes() == want.g_bar.tobytes()
        assert repr(kept.residual_variance) == repr(want.residual_variance)

    @pytest.mark.parametrize("name", ["example1", "example3"])
    def test_identify_on_an_aic_prepared_record_matches_a_bare_record(self, name):
        sc = AIC_SCENARIOS[name]
        for seed in (0, 1):
            rec = _trial_data(sc, seed, 0)[1]
            prepared = PreparedRecord(rec)
            p = select_order_aic(prepared, default_aic_grid(sc.n_x, len(rec)))
            for method in METHODS:
                cfg = RealizationConfig(n_x=sc.n_x, f=sc.f, p=p, method=method)
                got, want = outcome(identify, prepared, cfg), outcome(identify, rec, cfg)
                if isinstance(want, str):
                    assert got == want, method
                else:
                    assert_same_bytes(got, want)

    # Two Example 1 sines excite input lags up to order 4 only.
    @pytest.mark.parametrize(
        "grid,error",
        [([4, 5, 6, 300], ConfigError), (range(1, 11), ExcitationError)],
        ids=["top-order-too-long", "top-order-not-exciting"],
    )
    def test_nothing_kept_when_the_top_order_cannot_be_fitted(self, monkeypatch, grid, error):
        prepared = PreparedRecord(two_sine_record(noise=0.5))
        assert select_order_aic(prepared, grid) == 4
        calls = count_calls(monkeypatch, "fit_arx")
        with pytest.raises(error):
            prepared.arx(max(grid))
        assert [args[1] for args in calls["fit_arx"]] == [max(grid)]

    def test_a_top_order_fit_failing_validation_is_not_kept(self, monkeypatch):
        _, rec = seed2_example1_record()
        grid = default_aic_grid(3, len(rec))

        def invalid(*args):
            raise ConfigError("residual_variance must be finite and >= 0, got nan")

        monkeypatch.setattr(realization, "_arx_fit", invalid)
        prepared = PreparedRecord(rec)
        assert select_order_aic(prepared, grid) == 8
        calls = count_calls(monkeypatch, "fit_arx")
        prepared.arx(grid[-1])
        assert [args[1] for args in calls["fit_arx"]] == [grid[-1]]

    @pytest.mark.parametrize("name", AIC_SCENARIOS)
    def test_bare_and_prepared_records_pick_the_same_order(self, name):
        sc = AIC_SCENARIOS[name]
        for seed in range(4):
            rec = _trial_data(sc, seed, 0)[1]
            for grid in (default_aic_grid(sc.n_x, len(rec)), range(sc.n_x + 1, 12), [sc.n_x + 1]):
                assert select_order_aic(PreparedRecord(rec), grid) == select_order_aic(rec, grid)


def outcome(call, *args):
    """The call's result, or its error as ``"Type: message"``."""
    try:
        return call(*args)
    except ParsimidError as err:
        return f"{type(err).__name__}: {err}"


def count_calls(monkeypatch, *names):
    """The arguments of every call made through each of ``realization``'s ``names``."""
    calls = {name: [] for name in names}
    for name, log in calls.items():
        def counted(*args, _fn=getattr(realization, name), _log=log):
            _log.append(args)
            return _fn(*args)

        monkeypatch.setattr(realization, name, counted)
    return calls


def count_factors(monkeypatch):
    """Every NestedLstsq made through each module attribute that holds the name, as (module, rows factored).

    A factor made by appending rows to a triangle counts the rows of the stack.
    """
    built = []
    for module in (data_blocks, estimators, arx_pre):
        class Counted(_lstsq.NestedLstsq):
            where = module.__name__

            def __init__(self, A, k):
                built.append((self.where, A.shape[0]))
                super().__init__(A, k)

            @classmethod
            def appended(cls, R, rows, k, m):
                built.append((cls.where, R.shape[0] + rows.shape[0]))
                return super().appended(R, rows, k, m)

        monkeypatch.setattr(module, "NestedLstsq", Counted, raising=False)
    return built


def assert_same_bytes(got, want):
    """The same model, singular values and diagnostics, to the last bit."""
    for name in ("A", "B", "C", "K", "sigma_e2"):
        assert np.asarray(getattr(got.model, name)).tobytes() == np.asarray(getattr(want.model, name)).tobytes(), name
    assert got.singular_values.tobytes() == want.singular_values.tobytes()
    assert got.diagnostics.keys() == want.diagnostics.keys()
    for key, value in want.diagnostics.items():
        if value is None or isinstance(value, str):
            assert got.diagnostics[key] == value, key
        else:
            assert np.asarray(got.diagnostics[key]).tobytes() == np.asarray(value).tobytes(), key
