"""Subspace identification of SISO state-space models.

Estimates innovations-form models (A, B, C, D, K) from input/output data
through row-wise regression banks (ordinary or weighted least squares), a
classical single-projection estimator, and an ARX-pre-estimating
predictor-form method, plus a Monte Carlo benchmark harness.
"""

from .arx_pre import (
    InnovationsMarkov,
    PredictorMarkov,
    default_aic_grid,
    fit_arx,
    predictor_to_innovations,
    predictor_to_innovations_g,
)
from .benchmark import (
    BenchReport,
    Scenario,
    TrialRow,
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
from .data_blocks import DataBlocks, assemble_blocks
from .errors import (
    ConfigError,
    DivergenceError,
    ExcitationError,
    ParsimidError,
    RankError,
)
from .estimators import (
    METHODS,
    RangeEstimate,
    classical_projection,
    parsim_ols,
    parsim_wls,
    ssarx_estimate,
    toeplitz_gram_band,
)
from .realization import (
    IdentifiedModel,
    PreparedRecord,
    RealizationConfig,
    estimate_bk,
    extract_ac,
    identify,
    select_order_aic,
    weight_w2,
    weighted_svd_realize,
)
from .ss_model import (
    SignalRecord,
    StateSpaceModel,
    impulse_response,
    load_model,
    markov_g,
    markov_h,
    model_from_dict,
    model_to_dict,
    save_model,
    simulate,
    spectral_radius,
)

__version__ = "0.1.0"
