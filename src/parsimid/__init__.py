"""Subspace identification of SISO state-space models.

Estimates innovations-form models (A, B, C, D, K) from input/output data
through row-wise regression banks (ordinary or weighted least squares), a
classical single-projection estimator, and an ARX-pre-estimating
predictor-form method, plus a Monte Carlo benchmark harness.

The package exports what the demos, the CLI, the benchmark (``bench/``)
and the README use, plus the five error types; the imports below are the
one declaration of these 44 names:

* errors: ``ParsimidError``, ``ConfigError``, ``DivergenceError``,
  ``ExcitationError``, ``RankError``;
* models and records: ``StateSpaceModel``, ``SignalRecord``,
  ``simulate``, ``impulse_response``, ``markov_g``, ``markov_h``,
  ``save_model``, ``load_model``, ``model_to_dict``;
* the pipeline: ``RealizationConfig``, ``PreparedRecord``, ``identify``,
  ``METHODS``, ``select_order_aic``, ``default_aic_grid``, ``fit_arx``,
  ``InnovationsMarkov``, ``assemble_blocks``, ``parsim_ols``,
  ``parsim_wls``, ``toeplitz_gram_band``, ``weight_w2``;
* the benchmark: ``Scenario``, ``example1_scenario``,
  ``example2_scenario``, ``example3_scenario``, ``example1_system``,
  ``example2_system``, ``random_system``, ``gen_rbs``, ``fit_metric``,
  ``error_g``, ``monte_carlo``, ``run_error_vs_n``, ``run_joint_fit``,
  ``write_trials_csv``, ``write_aggregates_json``,
  ``write_error_vs_n_csv``, ``write_joint_fit_csv``.

Every exported name that takes a size, a variance or an array applies
``ss_model``'s value rules to it.  The pipeline's internal stages (the
classical and SSARX estimators, the weighted SVD, the shift and the gain
fits, the Markov conversions, ``RangeEstimate``) are reached through their
submodules: ``identify`` is their one caller, and they take what it hands
them as it is.
"""

from .arx_pre import InnovationsMarkov, default_aic_grid, fit_arx
from .benchmark import (
    Scenario,
    error_g,
    example1_scenario,
    example1_system,
    example2_scenario,
    example2_system,
    example3_scenario,
    fit_metric,
    gen_rbs,
    monte_carlo,
    random_system,
    run_error_vs_n,
    run_joint_fit,
    write_aggregates_json,
    write_error_vs_n_csv,
    write_joint_fit_csv,
    write_trials_csv,
)
from .data_blocks import assemble_blocks
from .errors import (
    ConfigError,
    DivergenceError,
    ExcitationError,
    ParsimidError,
    RankError,
)
from .estimators import METHODS, parsim_ols, parsim_wls, toeplitz_gram_band
from .realization import (
    PreparedRecord,
    RealizationConfig,
    identify,
    select_order_aic,
    weight_w2,
)
from .ss_model import (
    SignalRecord,
    StateSpaceModel,
    impulse_response,
    load_model,
    markov_g,
    markov_h,
    model_to_dict,
    save_model,
    simulate,
)

__version__ = "0.1.0"
