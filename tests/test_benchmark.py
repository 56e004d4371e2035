import json

import numpy as np
import pytest
from scipy.signal import lfilter

from parsimid import (
    ConfigError,
    DivergenceError,
    ExcitationError,
    Scenario,
    default_aic_grid,
    error_g,
    fit_metric,
    gen_rbs,
    impulse_response,
    markov_h,
    monte_carlo,
    random_system,
    select_order_aic,
    simulate,
    write_aggregates_json,
    write_error_vs_n_csv,
    write_joint_fit_csv,
    write_trials_csv,
)
from parsimid import benchmark
from parsimid.benchmark import (
    EXAMPLE2_GAMMA,
    _minimal,
    _trial_data,
    _trial_seeds,
    example1_scenario,
    example1_system,
    example2_scenario,
    example2_system,
    example3_scenario,
)
from parsimid.ss_model import STABILITY_MARGIN, spectral_radius


class TestExampleSystems:
    def test_example1_impulse_long_division(self):
        m = example1_system()
        imp = np.zeros(40)
        imp[0] = 1.0
        oracle = lfilter([0.0, 0.21, 0.07], [1.0, -0.6, 0.8], imp)
        np.testing.assert_allclose(impulse_response(m, 40), oracle, atol=1e-13)

    def test_example1_noise_channel_geometric(self):
        m = example1_system()
        np.testing.assert_allclose(
            markov_h(m, 6), [0.98**k for k in range(1, 7)], atol=1e-13
        )
        # full noise-channel impulse response starts with the unit direct term
        e = np.zeros(8)
        e[0] = 1.0
        np.testing.assert_allclose(
            simulate(m, np.zeros(8), e), [0.98**k for k in range(8)], atol=1e-13
        )
        assert m.sigma_e2 == 4.0

    def test_example1_stable(self):
        m = example1_system()
        assert spectral_radius(m) < 1.0 - STABILITY_MARGIN
        # input-channel poles at sqrt(0.8), noise pole at 0.98
        assert spectral_radius(m) == pytest.approx(0.98, abs=1e-12)
        eigs = np.abs(np.linalg.eigvals(m.A))
        np.testing.assert_allclose(sorted(eigs), [np.sqrt(0.8), np.sqrt(0.8), 0.98], atol=1e-12)

    def test_example2_filter_coefficients(self):
        # (1 - g q^-1)^2 (1 + g q^-1)^2 = 1 - 2 g^2 q^-2 + g^4 q^-4
        _, filt = example2_system()
        g = EXAMPLE2_GAMMA
        oracle = np.polymul(np.polymul([1.0, -g], [1.0, -g]), np.polymul([1.0, g], [1.0, g]))
        np.testing.assert_allclose(filt, oracle, atol=1e-14)
        np.testing.assert_allclose(filt, [1.0, 0.0, -2 * g * g, 0.0, g**4], atol=1e-14)

    def test_example2_matrices(self):
        m, _ = example2_system()
        np.testing.assert_allclose(
            np.linalg.eigvals(m.A), [EXAMPLE2_GAMMA, EXAMPLE2_GAMMA], atol=1e-7
        )
        assert (m.C @ m.B).item() == pytest.approx(4.0, abs=1e-14)
        assert m.sigma_e2 == 217.1
        np.testing.assert_array_equal(m.K, [[-0.21], [-0.559]])


class TestRandomSystem:
    def test_determinism(self):
        a = random_system(42)
        b = random_system(42)
        for field in ("A", "B", "C", "D", "K"):
            np.testing.assert_array_equal(getattr(a, field), getattr(b, field))

    def test_pole_constraint_over_seeds(self):
        for seed in range(100):
            rho = spectral_radius(random_system(seed))
            assert 0.78 < rho < 0.9

    def test_minimality_and_predictor_stability(self):
        for seed in range(20):
            m = random_system(seed)
            n = m.n_x
            gains = np.hstack([m.B, m.K])
            ctrb = np.hstack([np.linalg.matrix_power(m.A, j) @ gains for j in range(n)])
            obsv = np.vstack([m.C @ np.linalg.matrix_power(m.A, j) for j in range(n)])
            assert np.linalg.matrix_rank(ctrb) == n
            assert np.linalg.matrix_rank(obsv) == n
            assert np.max(np.abs(np.linalg.eigvals(m.A - m.K @ m.C))) < 1.0

    def test_feedthrough_zero_and_order(self):
        m = random_system(7)
        assert m.D[0, 0] == 0.0
        assert m.n_x == 6

    def test_minimal_rejects_lost_controllability_or_observability(self):
        m = example1_system()
        zero_gain, zero_c = np.zeros((3, 1)), np.zeros((1, 3))
        assert _minimal(m.A, m.B, m.C, m.K)
        assert not _minimal(m.A, zero_gain, m.C, zero_gain)
        assert not _minimal(m.A, m.B, zero_c, m.K)


class TestGenRbs:
    def test_binary_values(self):
        s = gen_rbs(5000, 0.1, seed=0)
        assert set(np.unique(s)) <= {-1.0, 1.0}

    def test_full_band_is_sign_of_white_noise(self):
        s = gen_rbs(10000, 1.0, seed=1)
        rho1 = np.corrcoef(s[:-1], s[1:])[0, 1]
        assert abs(rho1) < 0.1

    def test_low_band_switches_slowly(self):
        s = gen_rbs(10000, 0.1, seed=2)
        rho1 = np.corrcoef(s[:-1], s[1:])[0, 1]
        assert rho1 > 0.5

    def test_band_validation(self):
        for band in (0.0, 1.5, float("nan")):
            with pytest.raises(ConfigError, match=rf"^band_high must be in \(0, 1\], got {band}$"):
                gen_rbs(100, band, seed=0)


class TestMetrics:
    def test_fit_perfect(self):
        g = np.array([1.0, 2.0, 3.0])
        assert fit_metric(g, g) == 100.0

    def test_fit_mean_predictor_scores_zero(self):
        g = np.array([1.0, 2.0, 3.0])
        assert fit_metric(g, np.full(3, g.mean())) == pytest.approx(0.0, abs=1e-12)

    def test_fit_hand_example(self):
        assert fit_metric([1.0, -1.0], [0.0, 0.0]) == pytest.approx(0.0, abs=1e-12)

    def test_fit_constant_reference(self):
        with pytest.raises(ConfigError):
            fit_metric(np.ones(5), np.zeros(5))

    def test_error_g_cases(self):
        G = np.array([0.5, -0.2, 0.1])
        assert error_g(G, G) == 0.0
        assert error_g(2 * G, G) == pytest.approx(1.0, abs=1e-12)
        assert error_g(np.zeros(3), G) == pytest.approx(1.0, abs=1e-12)

    def test_error_g_scale_invariance(self):
        rng = np.random.default_rng(3)
        G = rng.standard_normal(6)
        Gh = rng.standard_normal(6)
        assert error_g(7.5 * Gh, 7.5 * G) == pytest.approx(error_g(Gh, G), rel=1e-12)

    def test_error_g_zero_reference(self):
        with pytest.raises(ConfigError):
            error_g(np.ones(3), np.zeros(3))


def row_key(r):
    # NaN-tolerant comparison key (NaN != NaN under dataclass equality)
    return (r.trial, r.method, repr(r.fit), repr(r.error_g), r.seed, r.p, r.failure)


def noise_free_scenario():
    return Scenario(
        name="noise_free", system_source="example1", N=2000, f=10, n_x=2,
        noise_variance=0.0, trials=1, methods=("parsim",),
    )


class TestScenarios:
    # the paper's settings for its three examples
    @pytest.mark.parametrize(
        "sc, name, source, N, f, n_x, noise_variance",
        [
            (example1_scenario(), "example1_N2000", "example1", 2000, 10, 3, 4.0),
            (example1_scenario(N=800), "example1_N800", "example1", 800, 10, 3, 4.0),
            (example2_scenario(), "example2_N2000", "example2", 2000, 7, 2, 217.1),
            (example3_scenario(10.0), "example3_var10", "random", 1000, 20, 6, 10.0),
        ],
    )
    def test_fixed_settings(self, sc, name, source, N, f, n_x, noise_variance):
        assert (sc.name, sc.system_source, sc.N, sc.f, sc.n_x, sc.noise_variance) == (
            name, source, N, f, n_x, noise_variance
        )

    def test_default_trials_and_methods(self):
        assert example1_scenario().trials == example2_scenario().trials == 50
        assert example3_scenario(1.0).trials == 50
        assert example1_scenario().methods == ("parsim", "parsim_opt", "ssarx", "classical")
        assert example2_scenario(methods=["ssarx"]).methods == ("ssarx",)
        assert example3_scenario(1.0).methods == ("parsim", "parsim_opt")

    def test_future_horizon_below_two_rejected(self):
        with pytest.raises(ConfigError, match="future horizon must be >= 2, got 1"):
            Scenario(
                name="f1", system_source="example1", N=2000, f=1, n_x=1,
                noise_variance=4.0, trials=1, methods=("parsim",),
            )

    # each would otherwise record the same ConfigError in every trial row
    @pytest.mark.parametrize(
        "n_x, f, methods, message, noise_variance",
        [
            (3, 10, ("parsim_ols",), "unknown method 'parsim_ols'", 4.0),
            (12, 10, ("parsim",), "model order must satisfy 1 <= n_x <= f - 1, got n_x=12, f=10", 4.0),
            (3, 10, (), "scenario needs at least one method", 4.0),
            (3, 10, ("parsim",), "noise_variance must be finite and >= 0, got -1.0", -1.0),
            (3, 10, ("parsim",), "noise_variance must be finite and >= 0, got nan", float("nan")),
            # every simulated record would diverge
            (3, 10, ("parsim",), "noise_variance must be finite and >= 0, got inf", float("inf")),
            # every trial would score the method twice
            (3, 10, ("parsim", "ssarx", "parsim"), "each method may be listed once", 4.0),
        ],
    )
    def test_unrunnable_settings_rejected(self, n_x, f, methods, message, noise_variance):
        with pytest.raises(ConfigError, match=message):
            Scenario(
                name="bad", system_source="example1", N=2000, f=f, n_x=n_x,
                noise_variance=noise_variance, trials=2, methods=methods,
            )

    # 10 samples per ARX order: the default AIC grid of every trial would be empty
    @pytest.mark.parametrize("N, n_x", [(30, 3), (80, 8)])
    def test_record_too_short_for_the_aic_grid_rejected(self, N, n_x):
        with pytest.raises(ConfigError, match=f"^record of length {N} cannot support any ARX order above {n_x}$"):
            Scenario(
                name="bad", system_source="example1", N=N, f=10, n_x=n_x,
                noise_variance=1.0, trials=2, methods=("parsim",),
            )


class TestMonteCarlo:
    def test_noise_free_single_trial(self):
        report = monte_carlo(noise_free_scenario(), master_seed=0)
        assert len(report.rows) == 1
        assert report.rows[0].failure is None
        assert report.rows[0].fit > 99.9

    def test_determinism(self):
        sc = example1_scenario(N=800, trials=3, methods=("parsim", "ssarx"))
        a = monte_carlo(sc, master_seed=5)
        b = monte_carlo(sc, master_seed=5)
        assert [row_key(r) for r in a.rows] == [row_key(r) for r in b.rows]

    def test_methods_share_trial_data(self):
        # the single-method run must reproduce the same per-trial scores as
        # the multi-method run: all methods consume identical records
        sc_pair = example1_scenario(N=800, trials=3, methods=("parsim", "classical"))
        sc_solo = example1_scenario(N=800, trials=3, methods=("parsim",))
        pair = monte_carlo(sc_pair, master_seed=9)
        solo = monte_carlo(sc_solo, master_seed=9)
        pair_fits = [r.fit for r in pair.rows if r.method == "parsim"]
        solo_fits = [r.fit for r in solo.rows]
        np.testing.assert_array_equal(pair_fits, solo_fits)

    def test_aggregates_recomputable(self):
        sc = example1_scenario(N=800, trials=4, methods=("parsim",))
        report = monte_carlo(sc, master_seed=2)
        agg = report.aggregates()["parsim"]
        fits = np.array([r.fit for r in report.rows if r.failure is None])
        assert agg["fit_mean"] == pytest.approx(float(np.mean(fits)), rel=1e-15)
        assert agg["fit_median"] == pytest.approx(float(np.median(fits)), rel=1e-15)
        assert agg["fit_var"] == pytest.approx(float(np.var(fits, ddof=1)), rel=1e-12)

    def test_failures_recorded_not_raised(self):
        # f=10 needs an order-9 ARX for the ssarx pre-estimates, which an
        # 80-sample record cannot support (10 samples per order, so the AIC
        # grid is 4..8); that forces per-trial failures that must be
        # recorded, not raised
        sc = Scenario(
            name="forced_failure", system_source="example1", N=80, f=10, n_x=3,
            noise_variance=4.0, trials=2, methods=("ssarx",),
        )
        report = monte_carlo(sc, master_seed=1)
        assert all(r.failure is not None and r.failure.startswith("arx:") for r in report.rows)
        assert report.aggregates()["ssarx"]["failures"] == 2

    @pytest.mark.parametrize(
        "patched, error, stage",
        [
            # the simulated output is not finite
            ("simulate", DivergenceError("simulation diverged at step 0"), "data: simulation diverged"),
            # an input that is not persistently exciting fails every order
            ("select_order_aic", ExcitationError(
                "input-lag regressor of ARX order 4 is rank deficient: input is not persistently exciting"
            ), "aic: input-lag regressor"),
            # numpy's LAPACK failure is typed by the stage runner, not raised
            ("select_order_aic", np.linalg.LinAlgError("SVD did not converge"), "aic: SVD did not converge"),
        ],
    )
    def test_early_failure_fills_every_method_row(self, monkeypatch, patched, error, stage):
        # A scenario's settings always give a finite record that fits its
        # default AIC grid, so the stage is made to fail here.
        def fail(*args):
            raise error

        monkeypatch.setattr(benchmark, patched, fail)
        sc = Scenario(
            name="early_failure", system_source="example1", N=800, f=10, n_x=3,
            noise_variance=1.0, trials=2, methods=("parsim", "ssarx", "classical"),
        )
        report = monte_carlo(sc, master_seed=6)
        assert [(r.trial, r.method) for r in report.rows] == [
            (t, m) for t in range(2) for m in sc.methods
        ]
        for r in report.rows:
            assert r.failure.startswith(stage)
            assert r.seed == _trial_seeds(6, r.trial)[0]
            assert r.p == -1 and np.isnan(r.fit) and np.isnan(r.error_g)
        assert report.aggregates()["ssarx"]["failures"] == 2

    def test_every_trial_picks_p_by_aic(self):
        sc = example1_scenario(N=800, trials=3, methods=("parsim", "ssarx"))
        report = monte_carlo(sc, master_seed=12)
        for trial in range(sc.trials):
            rec = _trial_data(sc, 12, trial)[1]
            p = select_order_aic(rec, default_aic_grid(sc.n_x, sc.N))
            assert [r.p for r in report.rows if r.trial == trial] == [p, p]

    def test_error_g_only_for_bank_methods(self):
        sc = example1_scenario(N=800, trials=2, methods=("parsim", "parsim_opt", "classical", "ssarx"))
        report = monte_carlo(sc, master_seed=3)
        for r in report.rows:
            if r.failure is not None:
                continue
            if r.method in ("parsim", "parsim_opt"):
                assert np.isfinite(r.error_g)
            else:
                assert np.isnan(r.error_g)

    def test_jobs_do_not_change_results(self):
        sc = example1_scenario(N=800, trials=4, methods=("parsim",))
        serial = monte_carlo(sc, master_seed=4, jobs=1)
        parallel = monte_carlo(sc, master_seed=4, jobs=2)
        assert [row_key(r) for r in serial.rows] == [row_key(r) for r in parallel.rows]

    @pytest.mark.parametrize("jobs,trials,workers", [(4, 1, None), (8, 3, 3), (2, 4, 2)])
    def test_workers_are_capped_at_the_trial_count(self, monkeypatch, jobs, trials, workers):
        # A fork pool starts all of its workers at the first submit, so it
        # gets one per trial at most, and a lone trial runs in this process.
        # The recorder maps serially and starts no process.
        pools = []

        class Recorder:
            def __init__(self, max_workers):
                pools.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(benchmark, "ProcessPoolExecutor", Recorder)
        sc = example1_scenario(N=300, trials=trials, methods=("parsim",))
        rows = monte_carlo(sc, 0, jobs=jobs).rows
        assert pools == ([] if workers is None else [workers])
        assert [row_key(r) for r in rows] == [row_key(r) for r in monte_carlo(sc, 0, jobs=1).rows]


class TestWriters:
    def test_trials_csv_header_and_determinism(self, tmp_path):
        sc = example1_scenario(N=800, trials=2, methods=("parsim",))
        report = monte_carlo(sc, master_seed=6)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_trials_csv(report, p1)
        write_trials_csv(report, p2)
        assert p1.read_bytes() == p2.read_bytes()
        lines = p1.read_text().splitlines()
        assert lines[0] == "trial,method,fit,error_g,seed"
        assert len(lines) == 3

    def test_aggregates_json(self, tmp_path):
        sc = example1_scenario(N=800, trials=2, methods=("parsim", "classical"))
        report = monte_carlo(sc, master_seed=7)
        path = tmp_path / "agg.json"
        write_aggregates_json(report, path)
        doc = json.loads(path.read_text())
        assert doc["master_seed"] == 7
        assert "parsim" in doc["aggregates"]
        assert len(doc["chosen_p"]) == 2

    def test_aggregates_json_lists_failures(self, monkeypatch, tmp_path):
        # the simulated output is not finite, so every row fails at the data stage
        def diverged(*args):
            raise DivergenceError("simulation diverged at step 0")

        monkeypatch.setattr(benchmark, "simulate", diverged)
        sc = Scenario(
            name="early_failure", system_source="example1", N=800, f=10, n_x=3,
            noise_variance=1.0, trials=2, methods=("parsim", "ssarx", "classical"),
        )
        report = monte_carlo(sc, master_seed=6)
        path = tmp_path / "agg.json"
        write_aggregates_json(report, path)
        failures = json.loads(path.read_text())["failures"]
        failed = [r for r in report.rows if r.failure is not None]
        assert len(failed) == 6
        assert [(f["trial"], f["method"], f["reason"]) for f in failures] == [
            (r.trial, r.method, r.failure) for r in failed
        ]
        assert all(f["reason"].startswith("data:") for f in failures)
        assert all(set(f) == {"trial", "method", "reason"} for f in failures)

    def test_sweep_csv(self, tmp_path):
        reports = {
            n: monte_carlo(example1_scenario(N=n, trials=2, methods=("parsim", "parsim_opt")), 8)
            for n in (600, 800)
        }
        path = tmp_path / "sweep.csv"
        write_error_vs_n_csv(reports, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "n_samples,method,error_g_mean,error_g_var"
        assert len(lines) == 5

    def test_joint_fit_csv(self, tmp_path):
        reports = {
            var: monte_carlo(example3_scenario(var, trials=2), 9)
            for var in (1.0, 10.0)
        }
        path = tmp_path / "joint.csv"
        write_joint_fit_csv(reports, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "noise_variance,trial,fit_parsim,fit_parsim_opt"
        assert len(lines) == 5
