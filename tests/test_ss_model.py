import json

import numpy as np
import pytest
from scipy.signal import lfilter

from parsimid import (
    ConfigError,
    DivergenceError,
    InnovationsMarkov,
    SignalRecord,
    StateSpaceModel,
    error_g,
    fit_metric,
    impulse_response,
    load_model,
    markov_g,
    markov_h,
    model_to_dict,
    save_model,
    simulate,
    toeplitz_gram_band,
)
from parsimid.arx_pre import PredictorMarkov
from parsimid.benchmark import EXAMPLE2_GAMMA, example1_system, example2_system
from parsimid.ss_model import STABILITY_MARGIN, model_from_dict, observability, spectral_radius

from helpers import gamma_f, random_stable_model, ref_simulate


def scalar_model(a, b, c, k, d=0.0, var=1.0):
    return StateSpaceModel(A=a, B=b, C=c, D=d, K=k, sigma_e2=var)


class TestSimulate:
    def test_zero_everything_gives_zero(self):
        m = scalar_model(0.5, 1.0, 1.0, 0.2)
        y = simulate(m, np.zeros(20), np.zeros(20))
        np.testing.assert_array_equal(y, np.zeros(20))

    def test_impulse_gives_markov_parameters(self):
        rng = np.random.default_rng(2)
        m = random_stable_model(rng, n_x=3)
        u = np.zeros(30)
        u[0] = 1.0
        y = simulate(m, u)
        assert y[0] == m.D[0, 0]
        np.testing.assert_allclose(y[1:], markov_g(m, 29), atol=1e-13)

    def test_example1_impulse_matches_long_division(self):
        # Oracle: divide (0.21 q^-1 + 0.07 q^-2) by (1 - 0.6 q^-1 + 0.8 q^-2)
        m = example1_system()
        imp = np.zeros(50)
        imp[0] = 1.0
        oracle = lfilter([0.0, 0.21, 0.07], [1.0, -0.6, 0.8], imp)
        y = simulate(m, imp)
        np.testing.assert_allclose(y, oracle, atol=1e-14)
        np.testing.assert_allclose(y[1:4], [0.21, 0.196, -0.0504], atol=1e-14)

    def test_length_mismatch(self):
        m = scalar_model(0.5, 1.0, 1.0, 0.2)
        with pytest.raises(ConfigError):
            simulate(m, np.zeros(5), np.zeros(4))

    @pytest.mark.parametrize("a,c,step", [(2.0, 1.0, 1024), (1.5, -3.0, 1747)])
    def test_divergence_reports_step(self, a, c, step):
        m = StateSpaceModel(A=a, B=1.0, C=c, D=0.0, K=0.0, sigma_e2=0.0)
        message = f"simulation diverged at step {step}$"
        with pytest.raises(DivergenceError, match=message):
            ref_simulate(m, np.ones(5000))
        with pytest.raises(DivergenceError, match=message):
            simulate(m, np.ones(5000))

    def test_linearity(self):
        rng = np.random.default_rng(3)
        m = random_stable_model(rng, n_x=4)
        n = 50
        u1, u2 = rng.standard_normal(n), rng.standard_normal(n)
        e1, e2 = rng.standard_normal(n), rng.standard_normal(n)
        a, b = 1.7, -0.3
        lhs = simulate(m, a * u1 + b * u2, a * e1 + b * e2)
        rhs = a * simulate(m, u1, e1) + b * simulate(m, u2, e2)
        np.testing.assert_allclose(lhs, rhs, atol=1e-10)


class TestObservability:
    def test_one_row_c_matches_reference(self):
        rng = np.random.default_rng(3)
        for n_x in (1, 3, 6):
            m = random_stable_model(rng, n_x=n_x)
            np.testing.assert_allclose(
                observability(m.A, m.C, 12), gamma_f(m.A, m.C, 12), rtol=1e-14, atol=0
            )

    def test_two_row_c_stacks_block_rows(self):
        A = np.array([[0.5, 1.0], [0.0, -0.25]])
        C = np.array([[1.0, 0.0], [0.0, 2.0]])
        O = observability(A, C, 3)
        assert O.shape == (6, 2)
        for k in range(3):
            np.testing.assert_array_equal(O[2 * k : 2 * k + 2], C @ np.linalg.matrix_power(A, k))


class TestMarkov:
    def test_first_parameter_is_cb(self):
        rng = np.random.default_rng(4)
        m = random_stable_model(rng, n_x=3)
        assert markov_g(m, 1)[0] == pytest.approx((m.C @ m.B).item(), abs=1e-15)

    def test_scalar_powers_g(self):
        m = scalar_model(0.5, 1.0, 1.0, 0.2)
        np.testing.assert_allclose(markov_g(m, 4), [1.0, 0.5, 0.25, 0.125], atol=1e-15)

    def test_scalar_powers_h(self):
        m = scalar_model(0.5, 1.0, 1.0, 0.2)
        np.testing.assert_allclose(markov_h(m, 3), [0.2, 0.1, 0.05], atol=1e-15)

    def test_zero_gain_h(self):
        m = scalar_model(0.5, 1.0, 1.0, 0.0)
        np.testing.assert_array_equal(markov_h(m, 5), np.zeros(5))

    def test_impulse_response_matches_simulate(self):
        rng = np.random.default_rng(5)
        for n_x in (1, 4, 10):
            m = random_stable_model(rng, n_x=n_x)
            u = np.zeros(50)
            u[0] = 1.0
            np.testing.assert_allclose(
                impulse_response(m, 50), simulate(m, u), atol=1e-12
            )

    def test_count_validation(self):
        m = scalar_model(0.5, 1.0, 1.0, 0.2)
        with pytest.raises(ConfigError):
            markov_g(m, 0)


class TestStability:
    def test_scalar_stable(self):
        m = scalar_model(0.5, 1.0, 1.0, 0.0)
        assert spectral_radius(m) < 1.0 - STABILITY_MARGIN
        assert spectral_radius(m) == pytest.approx(0.5, abs=1e-15)

    def test_boundary_unstable(self):
        m = StateSpaceModel(A=1.0, B=1.0, C=1.0, D=0.0, K=0.0)
        assert spectral_radius(m) >= 1.0 - STABILITY_MARGIN

    def test_example2_double_pole(self):
        # Characteristic polynomial of [[2g, -g^2], [1, 0]] is (z - g)^2.
        m, _ = example2_system()
        roots = np.roots([1.0, -2 * EXAMPLE2_GAMMA, EXAMPLE2_GAMMA**2])
        np.testing.assert_allclose(roots, [EXAMPLE2_GAMMA, EXAMPLE2_GAMMA], atol=1e-12)
        assert spectral_radius(m) == pytest.approx(EXAMPLE2_GAMMA, abs=1e-7)
        assert spectral_radius(m) < 1.0 - STABILITY_MARGIN


class TestSerialization:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(6)
        m = random_stable_model(rng, n_x=4)
        # exercise non-terminating decimals
        m = StateSpaceModel(A=m.A / 3.0, B=m.B, C=m.C, D=m.D, K=m.K, sigma_e2=1 / 7)
        path = tmp_path / "model.json"
        save_model(m, path)
        back = load_model(path)
        for field in ("A", "B", "C", "D", "K"):
            np.testing.assert_array_equal(getattr(back, field), getattr(m, field))
        assert back.sigma_e2 == m.sigma_e2

    def test_dict_keys(self):
        d = model_to_dict(scalar_model(0.5, 1.0, 1.0, 0.2))
        assert set(d) == {"A", "B", "C", "D", "K", "sigma_e2", "n_x", "n_u", "n_y"}
        assert d["n_x"] == 1 and d["n_u"] == 1 and d["n_y"] == 1

    @pytest.mark.parametrize(
        "doc, message",
        [
            ([1.0, 2.0], "malformed model document"),
            ({"A": "abc", "B": 1.0, "C": 1.0, "D": 0.0, "K": 0.0, "sigma_e2": 1.0}, "could not convert string"),
            # numeric strings are not parsed, as "sigma_e2": "1" is not
            ({"A": [["0.5"]], "B": [["1"]], "C": [["1"]], "D": [["0"]], "K": [["0.2"]], "sigma_e2": 1.0},
             "^A: could not convert string entries to float$"),
            ({"A": 0.5, "B": 1.0, "C": 1.0, "D": 0.0, "K": 0.0, "sigma_e2": 1.0, "n_x": None}, "malformed"),
            ({"A": 0.5, "B": 1.0, "C": 1.0, "D": 0.0, "K": 0.0, "sigma_e2": 1.0, "n_x": float("inf")}, "malformed"),
            # Example 1 has 3 states; a size is never truncated or parsed.
            ({**model_to_dict(example1_system()), "n_x": 3.9}, "malformed model document: n_x must be an integer, got 3.9"),
            ({**model_to_dict(example1_system()), "n_x": "3"}, "malformed model document: n_x must be an integer, got '3'"),
            # a bool is never a size, even where True would match the one state
            ({"A": 0.5, "B": 1.0, "C": 1.0, "D": 0.0, "K": 0.0, "sigma_e2": 1.0, "n_x": True},
             "malformed model document: n_x must be an integer, got True"),
        ],
        ids=["list", "string-matrix", "numeric-string-matrix", "null-n_x", "infinite-n_x", "fractional-n_x", "string-n_x", "bool-n_x"],
    )
    def test_malformed_document_is_config_error(self, tmp_path, doc, message):
        with pytest.raises(ConfigError, match=message):
            model_from_dict(doc)
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ConfigError, match=message):
            load_model(path)

    def test_unknown_keys_are_ignored(self, tmp_path):
        m = example1_system()
        path = tmp_path / "model.json"
        save_model(m, path)
        doc = json.loads(path.read_text())
        doc["diagnostics"] = {"stable": True, "singular_values": [3.0, 1.0, 0.5]}
        path.write_text(json.dumps(doc))
        assert model_to_dict(load_model(path)) == model_to_dict(m)

    def test_invalid_json_is_config_error(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text('{"A": [[0.5]')
        with pytest.raises(ConfigError, match="could not parse model file .*model.json"):
            load_model(path)

    def test_dict_validation(self):
        d = model_to_dict(scalar_model(0.5, 1.0, 1.0, 0.2))
        d["n_x"] = 3
        with pytest.raises(ConfigError):
            model_from_dict(d)
        del d["n_x"]
        del d["A"]
        with pytest.raises(ConfigError):
            model_from_dict(d)


class TestValidation:
    def test_sigma_nonnegative(self):
        with pytest.raises(ConfigError):
            StateSpaceModel(A=0.5, B=1.0, C=1.0, D=0.0, K=0.0, sigma_e2=-1.0)

    def test_dimension_mismatch(self):
        with pytest.raises(ConfigError):
            StateSpaceModel(A=np.eye(2), B=[[1.0]], C=[[1.0, 0.0]], D=0.0, K=[[0.0], [0.0]])

    def test_siso_enforced(self):
        with pytest.raises(ConfigError):
            StateSpaceModel(A=np.eye(2), B=np.ones((2, 2)), C=np.ones((1, 2)),
                            D=np.ones((1, 2)), K=np.zeros((2, 1)))

    def test_record_validation(self):
        with pytest.raises(ConfigError):
            SignalRecord(u=[1.0, 2.0], y=[1.0])
        with pytest.raises(ConfigError):
            SignalRecord(u=[1.0, np.nan], y=[1.0, 2.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize(
        "name",
        [*"ABCDK", "u", "y", "h_bar", "g_bar", "h", "simulate-u", "simulate-e", "toeplitz_gram_band-h",
         "fit_metric-g_o", "fit_metric-g_hat",
         "error_g-G_hat", "error_g-G_true"],
    )
    def test_non_finite_entries_rejected(self, name, bad):
        # Every value type, and every function taking a signal or weight, takes
        # the one finiteness rule, named after the offending field.
        matrices = dict(A=0.5, B=1.0, C=1.0, D=0.0, K=0.2)
        makers = {
            **{m: lambda v, m=m: StateSpaceModel(**{**matrices, m: v}) for m in matrices},
            "u": lambda v: SignalRecord(u=[1.0, v], y=[1.0, 2.0]),
            "y": lambda v: SignalRecord(u=[1.0, 2.0], y=[v, 2.0]),
            "h_bar": lambda v: PredictorMarkov(h_bar=[0.5, v], g_bar=[1.0, 0.0], residual_variance=1.0),
            "g_bar": lambda v: PredictorMarkov(h_bar=[0.5, 0.1], g_bar=[v, 0.0], residual_variance=1.0),
            "h": lambda v: InnovationsMarkov(h=[0.5, v, 0.1]),
            "simulate-u": lambda v: simulate(example1_system(), [0.0, v, 0.0, 1.0]),
            "simulate-e": lambda v: simulate(example1_system(), np.ones(4), [0.0, v, 0.0, 0.0]),
            "toeplitz_gram_band-h": lambda v: toeplitz_gram_band([v], 2, 3),
            "fit_metric-g_o": lambda v: fit_metric([1.0, v], [1.0, 0.0]),
            "fit_metric-g_hat": lambda v: fit_metric([1.0, 0.0], [1.0, v]),
            "error_g-G_hat": lambda v: error_g([1.0, v], [1.0, 0.0]),
            "error_g-G_true": lambda v: error_g([1.0, 0.0], [1.0, v]),
        }
        field = name.split("-")[-1]
        with pytest.raises(ConfigError, match=f"^{field} contains non-finite entries$"):
            makers[name](bad)

    def test_immutability(self):
        m = scalar_model(0.5, 1.0, 1.0, 0.2)
        with pytest.raises(ValueError):
            m.A[0, 0] = 9.0
