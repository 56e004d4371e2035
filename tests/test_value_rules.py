"""Every public entry point that takes a size or a variance applies ss_model's rules.

``ss_model._integer`` owns the integer rule: any integer type, numpy's too,
at least a lower bound.  ``ss_model._variance`` owns the variance rule: a
finite value >= 0.  A float size such as 2.5 or 10.0 is a ConfigError with
the owner's text, never a bare TypeError and never a silent truncation.  An
object that validates a value stores the rule's result, so a numpy integer
gives the same Python values as an int.
"""

import dataclasses
import json
import re

import numpy as np
import pytest

from parsimid import (
    ConfigError,
    PredictorMarkov,
    RealizationConfig,
    Scenario,
    StateSpaceModel,
    assemble_blocks,
    default_aic_grid,
    example1_scenario,
    example1_system,
    example3_scenario,
    fit_arx,
    gen_rbs,
    identify,
    impulse_response,
    markov_g,
    markov_h,
    monte_carlo,
    random_system,
    select_order_aic,
    toeplitz_gram_band,
    write_aggregates_json,
)
from parsimid.arx_pre import max_arx_order

from helpers import example_record

MODEL = example1_system()
REC = example_record("example1", 0, noisy=True, n_total=500)


def _blocks(f, p):
    b = assemble_blocks(REC, f, p)
    return b.design, b.ls.R, b.f, b.p, b.N


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
    "toeplitz_gram_band-i": (lambda v: toeplitz_gram_band([0.5, 0.2, 0.1], v, 20), "bank row", 1, 3),
    "toeplitz_gram_band-N": (lambda v: toeplitz_gram_band([0.5, 0.2, 0.1], 3, v), "N", 1, 20),
    "RealizationConfig-n_x": (lambda v: RealizationConfig(n_x=v, f=10, p=8), "n_x", 1, 3),
    "RealizationConfig-f": (lambda v: RealizationConfig(n_x=3, f=v, p=8), "future horizon", 2, 10),
    "RealizationConfig-p": (lambda v: RealizationConfig(n_x=3, f=10, p=v), "past horizon", 1, 8),
    "random_system": (lambda v: random_system(7, n_x=v), "n_x", 1, 3),
    "gen_rbs": (lambda v: gen_rbs(v, 0.1, 4), "N", 1, 50),
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


@pytest.mark.parametrize("value", [2.5, 10.0])
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
