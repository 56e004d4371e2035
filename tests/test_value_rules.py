"""Every public entry point that takes a size, a variance or an array applies ss_model's rules.

``ss_model._integer`` owns the integer rule: any integer type but bool,
numpy's too, at least a lower bound.  ``ss_model._variance`` owns the
variance rule: a finite value >= 0.  ``ss_model._freeze`` owns the
conversion of an array: a string (a numeric one too), bytes, a complex
number or a ragged sequence is a ConfigError naming the field.  A float or bool size such as 2.5, 10.0 or True is a
ConfigError with the owner's text, never a bare TypeError and never a
silent truncation.  An object that validates a value stores the rule's
result, so a numpy integer gives the same Python values as an int.
"""

import dataclasses
import json
import re

import numpy as np
import pytest

from parsimid import (
    ConfigError,
    InnovationsMarkov,
    PredictorMarkov,
    RangeEstimate,
    RealizationConfig,
    Scenario,
    SignalRecord,
    StateSpaceModel,
    assemble_blocks,
    default_aic_grid,
    error_g,
    estimate_bk,
    example1_scenario,
    example1_system,
    example3_scenario,
    extract_ac,
    fit_arx,
    fit_metric,
    gen_rbs,
    identify,
    impulse_response,
    markov_g,
    markov_h,
    monte_carlo,
    parsim_wls,
    random_system,
    select_order_aic,
    simulate,
    toeplitz_gram_band,
    weighted_svd_realize,
    write_aggregates_json,
)
from parsimid.arx_pre import max_arx_order

from helpers import design, example_record

MODEL = example1_system()
REC = example_record("example1", 0, noisy=True, n_total=500)


def _blocks(f, p):
    b = assemble_blocks(REC, f, p)
    return design(b), b.ls.R, b.f, b.p, b.N


def _small_run(master_seed=1, jobs=1):
    return monte_carlo(example1_scenario(N=300, trials=1, methods=("parsim",)), master_seed, jobs)


# (entry point, what its message names the value, lower bound, a valid value)
INTEGERS = {
    "markov_g": (lambda v: markov_g(MODEL, v), "count", 1, 5),
    "markov_h": (lambda v: markov_h(MODEL, v), "count", 1, 5),
    "impulse_response": (lambda v: impulse_response(MODEL, v), "count", 1, 5),
    "fit_arx": (lambda v: fit_arx(REC, v), "ARX order", 1, 4),
    "select_order_aic": (lambda v: select_order_aic(REC, [v, 6]), "ARX order", 1, 4),
    "default_aic_grid-n_x": (lambda v: default_aic_grid(v, 2000), "n_x", 1, 3),
    "default_aic_grid-n_total": (lambda v: default_aic_grid(3, v), "record length", 1, 2000),
    "max_arx_order": (max_arx_order, "record length", 1, 250),
    "assemble_blocks-f": (lambda v: _blocks(v, 8), "future horizon", 1, 10),
    "assemble_blocks-p": (lambda v: _blocks(10, v), "past horizon", 1, 8),
    "extract_ac-n_x": (lambda v: extract_ac(np.array([[1.0], [0.5], [0.25]]), v), "n_x", 1, 1),
    "toeplitz_gram_band-i": (lambda v: toeplitz_gram_band([0.5, 0.2, 0.1], v, 20), "bank row", 1, 3),
    "toeplitz_gram_band-N": (lambda v: toeplitz_gram_band([0.5, 0.2, 0.1], 3, v), "N", 1, 20),
    "RealizationConfig-n_x": (lambda v: RealizationConfig(n_x=v, f=10, p=8), "n_x", 1, 3),
    "RealizationConfig-f": (lambda v: RealizationConfig(n_x=3, f=v, p=8), "future horizon", 2, 10),
    "RealizationConfig-p": (lambda v: RealizationConfig(n_x=3, f=10, p=v), "past horizon", 1, 8),
    "random_system": (lambda v: random_system(7, n_x=v), "n_x", 1, 3),
    "random_system-seed": (lambda v: random_system(v, n_x=3), "seed", 0, 7),
    "gen_rbs": (lambda v: gen_rbs(v, 0.1, 4), "N", 1, 50),
    "gen_rbs-seed": (lambda v: gen_rbs(50, 0.1, v), "seed", 0, 4),
    "Scenario-N": (lambda v: example1_scenario(N=v), "record length", 1, 2000),
    "Scenario-trials": (lambda v: example1_scenario(trials=v), "trials", 1, 3),
    "monte_carlo-master_seed": (lambda v: _small_run(master_seed=v), "master seed", 0, 1),
    "monte_carlo-jobs": (lambda v: _small_run(jobs=v), "jobs", 1, 1),
}

# (entry point, what its message names the value)
VARIANCES = {
    "StateSpaceModel": (lambda v: StateSpaceModel(A=0.5, B=1.0, C=1.0, D=0.0, K=0.0, sigma_e2=v), "sigma_e2"),
    "PredictorMarkov": (lambda v: PredictorMarkov(h_bar=[0.1], g_bar=[1.0], residual_variance=v), "residual_variance"),
    "Scenario": (lambda v: example3_scenario(v, trials=1), "noise_variance"),
}

MATRICES = dict(A=0.5, B=1.0, C=1.0, D=0.0, K=0.2)

# (entry point given an array at one field, that field's name)
CONVERSIONS = {
    **{f"StateSpaceModel-{m}": (lambda v, m=m: StateSpaceModel(**{**MATRICES, m: v}), m) for m in MATRICES},
    "SignalRecord-u": (lambda v: SignalRecord(u=v, y=[1.0, 2.0]), "u"),
    "SignalRecord-y": (lambda v: SignalRecord(u=[1.0, 2.0], y=v), "y"),
    "simulate-u": (lambda v: simulate(MODEL, v), "u"),
    "simulate-e": (lambda v: simulate(MODEL, np.ones(2), v), "e"),
    "PredictorMarkov-h_bar": (lambda v: PredictorMarkov(h_bar=v, g_bar=[1.0, 0.0], residual_variance=1.0), "h_bar"),
    "PredictorMarkov-g_bar": (lambda v: PredictorMarkov(h_bar=[0.5, 0.1], g_bar=v, residual_variance=1.0), "g_bar"),
    "InnovationsMarkov": (lambda v: InnovationsMarkov(h=v), "h"),
    "toeplitz_gram_band": (lambda v: toeplitz_gram_band(v, 2, 3), "h"),
    "estimate_bk-b_seqs": (lambda v: estimate_bk(0.5 * np.eye(1), np.ones((1, 1)), [v], [0.5]), "b_seqs"),
    "estimate_bk-k_seq": (lambda v: estimate_bk(0.5 * np.eye(1), np.ones((1, 1)), [[1.0, 0.5]], v), "k_seq"),
    "extract_ac": (lambda v: extract_ac(v, 1), "Gamma_hat"),
    "estimate_bk-A": (lambda v: estimate_bk(v, np.ones((1, 1)), [[1.0, 0.5]], [0.5]), "A"),
    "estimate_bk-C": (lambda v: estimate_bk(0.5 * np.eye(1), v, [[1.0, 0.5]], [0.5]), "C"),
    "weighted_svd_realize-w2": (
        lambda v: weighted_svd_realize(
            RangeEstimate(gamma_lp=np.ones((2, 2)), g_rows=()), RealizationConfig(n_x=1, f=2, p=1), v
        ),
        "w2",
    ),
    "RangeEstimate-gamma_lp": (lambda v: RangeEstimate(gamma_lp=v, g_rows=()), "gamma_lp"),
    "fit_metric-g_o": (lambda v: fit_metric(v, [1.0, 0.0]), "g_o"),
    "fit_metric-g_hat": (lambda v: fit_metric([1.0, 0.0], v), "g_hat"),
    "error_g-G_hat": (lambda v: error_g(v, [1.0, 0.0]), "G_hat"),
    "error_g-G_true": (lambda v: error_g([1.0, 0.0], v), "G_true"),
}

# (call with a value of the wrong kind or shape, its ConfigError's message)
WRONG_KINDS = {
    "StateSpaceModel-A": (
        lambda: StateSpaceModel(A=np.zeros((2, 3)), B=1.0, C=1.0, D=0.0, K=0.0),
        "A must be square with at least one state, got shape (2, 3)",
    ),
    "StateSpaceModel-no-state": (
        lambda: StateSpaceModel(A=np.zeros((0, 0)), B=[], C=[], D=0.0, K=[]),
        "A must be square with at least one state, got shape (0, 0)",
    ),
    "PredictorMarkov-lengths": (
        lambda: PredictorMarkov(h_bar=[0.5, 0.1], g_bar=[1.0], residual_variance=1.0),
        "h_bar and g_bar must have equal length",
    ),
    "RangeEstimate-g_rows": (
        lambda: RangeEstimate(gamma_lp=np.zeros((2, 4)), g_rows=(np.zeros(1), np.zeros(1))),
        "g_rows[1] must have 2 entries, got 1",
    ),
    "RangeEstimate-gamma_lp-str": (
        lambda: RangeEstimate(gamma_lp="x", g_rows=()), "gamma_lp: could not convert string entries to float"
    ),
    "RangeEstimate-list-row": (
        lambda: RangeEstimate(gamma_lp=np.zeros((2, 4)), g_rows=([0.5], [0.5])), "g_rows[1] must have 2 entries, got 1"
    ),
    "RangeEstimate-rows-not-iterable": (
        lambda: RangeEstimate(gamma_lp=np.zeros((2, 4)), g_rows=5), "g_rows must be an iterable of rows, got int"
    ),
    "RangeEstimate-str-row": (
        lambda: RangeEstimate(gamma_lp=np.zeros((2, 4)), g_rows=("x",)), "g_rows[0]: could not convert string entries to float"
    ),
    "extract_ac-columns": (lambda: extract_ac(np.ones((4, 2)), 3), "observability factor must have 3 columns, got (4, 2)"),
    "fit_metric-lengths": (lambda: fit_metric([1.0, 0.0], [1.0]), "length mismatch: 2 vs 1"),
    "error_g-lengths": (lambda: error_g([1.0], [1.0, 0.0]), "length mismatch: 1 vs 2"),
    "Scenario-system_source": (
        lambda: Scenario(
            name="s", system_source="example4", N=300, f=10, n_x=3, noise_variance=4.0, trials=1, methods=("parsim",)
        ),
        "unknown system source 'example4'",
    ),
    "StateSpaceModel-str": (
        lambda: StateSpaceModel(A=0.5, B=1.0, C=1.0, D=0.0, K=0.0, sigma_e2="1"), "sigma_e2 must be a number, got '1'"
    ),
    "StateSpaceModel-None": (
        lambda: StateSpaceModel(A=0.5, B=1.0, C=1.0, D=0.0, K=0.0, sigma_e2=None), "sigma_e2 must be a number, got None"
    ),
    "Scenario-str": (
        lambda: Scenario(
            name="s", system_source="example1", N=300, f=10, n_x=3, noise_variance="4", trials=1, methods=("parsim",)
        ),
        "noise_variance must be a number, got '4'",
    ),
    "gen_rbs-band": (lambda: gen_rbs(100, "0.1", 0), "band_high must be a number, got '0.1'"),
    "select_order_aic-None": (
        lambda: select_order_aic(REC, None), "order grid must be an iterable of integers, got None"
    ),
    "select_order_aic-int": (lambda: select_order_aic(REC, 5), "order grid must be an iterable of integers, got 5"),
    "parsim_wls": (
        lambda: parsim_wls(assemble_blocks(REC, 10, 8), np.zeros(9)),
        "weighting must be an InnovationsMarkov, got ndarray",
    ),
    "identify-weighting_markov": (
        lambda: identify(REC, RealizationConfig(n_x=3, f=10, p=8), weighting_markov=np.zeros(9)),
        "estimate: weighting must be an InnovationsMarkov, got ndarray",
    ),
}


def same(a, b) -> bool:
    """Equal values of one type: arrays bit for bit, dataclasses field by field, NaN equal to NaN."""
    if isinstance(a, np.ndarray):
        return isinstance(b, np.ndarray) and a.dtype == b.dtype and np.array_equal(a, b, equal_nan=True)
    if dataclasses.is_dataclass(a):
        return type(a) is type(b) and all(
            same(getattr(a, f.name), getattr(b, f.name)) for f in dataclasses.fields(a)
        )
    if isinstance(a, (list, tuple)):
        return type(a) is type(b) and len(a) == len(b) and all(map(same, a, b))
    return type(a) is type(b) and (a == b or (a != a and b != b))


@pytest.mark.parametrize("value", [2.5, 10.0, True])
@pytest.mark.parametrize("entry", INTEGERS)
def test_non_integer_size_rejected(entry, value):
    call, name, _, _ = INTEGERS[entry]
    with pytest.raises(ConfigError, match=f"^{re.escape(name)} must be an integer, got {value!r}$"):
        call(value)


@pytest.mark.parametrize("entry", INTEGERS)
def test_size_below_its_bound_rejected(entry):
    call, name, low, _ = INTEGERS[entry]
    with pytest.raises(ConfigError, match=f"^{re.escape(name)} must be >= {low}, got {low - 1}$"):
        call(low - 1)


@pytest.mark.parametrize("dtype", [np.int32, np.int64])
@pytest.mark.parametrize("entry", INTEGERS)
def test_numpy_integer_size_matches_int(entry, dtype):
    call, _, _, valid = INTEGERS[entry]
    assert same(call(dtype(valid)), call(valid))


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -1.0])
@pytest.mark.parametrize("entry", VARIANCES)
def test_variance_outside_its_range_rejected(entry, value):
    call, name = VARIANCES[entry]
    with pytest.raises(ConfigError, match=f"^{name} must be finite and >= 0, got {value}$"):
        call(value)


@pytest.mark.parametrize("entry", WRONG_KINDS)
def test_wrong_kind_of_value_rejected(entry):
    call, message = WRONG_KINDS[entry]
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        call()


# Each was a bare numpy or Python error before the value rules; a NaN A
# also printed LAPACK's DLASCL complaint on stderr, twice.
BEFORE_LAPACK = {
    "estimate_bk-A-str": (
        lambda: estimate_bk("x", np.ones((1, 1)), [[1.0]], [1.0]), "A: could not convert string entries to float"
    ),
    "estimate_bk-A-nan": (
        lambda: estimate_bk(np.full((2, 2), np.nan), np.ones((1, 2)), [[1.0, 0.5]], [1.0, 0.5]),
        "A contains non-finite entries",
    ),
    "estimate_bk-A-not-square": (
        lambda: estimate_bk(np.zeros((2, 3)), np.ones((1, 2)), [[1.0]], [1.0]),
        "A must be square with at least one state, got shape (2, 3)",
    ),
    "estimate_bk-C-states": (
        lambda: estimate_bk(0.5 * np.eye(2), np.ones((1, 3)), [[1.0, 0.5]], [1.0, 0.5]),
        "C must have 2 columns, one per state of A, got shape (1, 3)",
    ),
    "estimate_bk-b_seqs-None": (
        lambda: estimate_bk(0.5 * np.eye(1), np.ones((1, 1)), None, [1.0]),
        "b_seqs must be an iterable of sequences, got None",
    ),
    "weighted_svd_realize-w2-shape": (
        lambda: weighted_svd_realize(
            RangeEstimate(gamma_lp=np.ones((2, 4)), g_rows=()), RealizationConfig(n_x=1, f=2, p=2), np.eye(3)
        ),
        "w2 must have shape (4, 4), got (3, 3)",
    ),
    "extract_ac-n_x": (lambda: extract_ac(np.ones((4, 2)), 1.5), "n_x must be an integer, got 1.5"),
}


@pytest.mark.parametrize("entry", BEFORE_LAPACK)
def test_gain_and_realization_inputs_rejected_before_lapack(entry, capfd):
    call, message = BEFORE_LAPACK[entry]
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        call()
    assert capfd.readouterr().err == ""


def test_range_estimate_stores_read_only_arrays():
    est = RangeEstimate(gamma_lp=[[1, 2]], g_rows=([0.5], (1, 2)))
    assert est.gamma_lp.dtype == float and not est.gamma_lp.flags.writeable
    assert all(type(row) is np.ndarray and not row.flags.writeable for row in est.g_rows)
    np.testing.assert_array_equal(est.g_rows[1], [1.0, 2.0])


def test_range_estimate_rows_convert_together_or_one_by_one_alike():
    # Flat rows of 1, 2, 3 entries are converted in one pass; nested rows one
    # by one.  Both store the same read-only float copies.
    rows = (np.array([1]), np.array([2.0, 3.0]), [True, 4, 5.5])
    together = RangeEstimate(gamma_lp=np.zeros((3, 2)), g_rows=rows)
    one_by_one = RangeEstimate(gamma_lp=np.zeros((3, 2)), g_rows=([[1]], [[2.0], [3.0]], [[1.0, 4, 5.5]]))
    for a, b in zip(together.g_rows, one_by_one.g_rows, strict=True):
        assert a.dtype == float and a.tobytes() == b.tobytes() and not a.flags.writeable
    with pytest.raises(ValueError):
        together.g_rows[0].setflags(write=True)
    rows[1][0] = 9.0
    assert together.g_rows[1][0] == 2.0


def test_range_estimate_reads_one_shot_rows_once():
    rows = (np.array([1.0]), np.array([2.0, 3.0]))
    est = RangeEstimate(gamma_lp=np.ones((2, 4)), g_rows=iter(rows))
    assert [row.tobytes() for row in est.g_rows] == [row.tobytes() for row in rows]
    nested = RangeEstimate(gamma_lp=np.ones((2, 4)), g_rows=(row[:, None] for row in rows))
    assert [row.tobytes() for row in nested.g_rows] == [row.tobytes() for row in rows]


# A numeric string is not parsed and a complex array is not cut to its real
# part: the conversion takes entries of numpy's bool, integer or float kinds.
@pytest.mark.parametrize(
    "value",
    ["x", [[1.0], [1.0, 2.0]], "1", b"1", np.array(0.5 + 1j), np.array([1.0, 1j])],
    ids=["string", "ragged", "numeric-string", "bytes", "complex", "complex-entry"],
)
@pytest.mark.parametrize("entry", CONVERSIONS)
def test_non_numeric_or_ragged_array_rejected(entry, value):
    call, name = CONVERSIONS[entry]
    with pytest.raises(ConfigError, match=f"^{name}: "):
        call(value)


@pytest.mark.parametrize("entry", VARIANCES)
def test_zero_variance_accepted(entry):
    call, _ = VARIANCES[entry]
    call(0.0)


@pytest.mark.parametrize("dtype", [np.int32, np.int64])
def test_scenario_and_diagnostics_hold_python_numbers(dtype):
    # ``same`` checks the other config fields: RealizationConfig's, and Scenario's N and trials.
    sc = Scenario(
        name="s", system_source="example1", N=300, f=dtype(10), n_x=dtype(3),
        noise_variance=np.float32(4.0), trials=1, methods=("parsim",),
    )
    assert type(sc.f) is int and type(sc.n_x) is int and type(sc.noise_variance) is float
    diagnostics = identify(REC, RealizationConfig(n_x=dtype(3), f=dtype(10), p=dtype(8))).diagnostics
    assert type(diagnostics["f"]) is int and type(diagnostics["p"]) is int


def test_numpy_integer_scenario_writes_the_same_aggregates(tmp_path):
    path = tmp_path / "numpy.json"
    write_aggregates_json(monte_carlo(example1_scenario(N=np.int64(300), trials=1, methods=("parsim",)), 1), path)
    want = tmp_path / "int.json"
    write_aggregates_json(_small_run(), want)
    assert path.read_bytes() == want.read_bytes()
    assert json.loads(path.read_text())["scenario"]["N"] == 300
