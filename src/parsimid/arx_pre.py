"""High-order ARX pre-estimation of predictor Markov parameters.

With feedthrough fixed to zero, the predictor form truncated at order n is
the ARX model

    y[k] = sum_{i=1..n} h_bar[i] y[k-i] + sum_{i=1..n} g_bar[i] u[k-i] + e[k]

whose coefficients are the predictor Markov parameters
h_bar[i] = C A_bar^(i-1) K and g_bar[i] = C A_bar^(i-1) B_bar.  A recursion
converts them to the innovations-form parameters H_i = C A^(i-1) K (and
G_i = C A^(i-1) B), which drive the noise weighting of the row-wise
weighted-least-squares bank; the recursion is a scipy.signal.lfilter
impulse response.  An ARX fit comes from one QR factorization of an
interleaved lag design (``_lstsq.NestedLstsq``); the AIC order search
(``realization.select_order_aic``) reads every order from one such QR.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.signal import lfilter

from ._lstsq import NestedLstsq
from .errors import ConfigError, ExcitationError
from .ss_model import SignalRecord, _freeze, _integer, _variance

__all__ = [
    "PredictorMarkov",
    "InnovationsMarkov",
    "fit_arx",
    "predictor_to_innovations",
    "predictor_to_innovations_g",
    "default_aic_grid",
    "max_arx_order",
]

# Pragmatic floor on data per coefficient; keeps the high-order fit from
# blowing up its variance on short records.
MIN_SAMPLES_PER_ORDER = 10

# Largest order in the default AIC grid.
AIC_MAX_ORDER = 30


@dataclass(frozen=True)
class PredictorMarkov:
    """ARX coefficients: predictor Markov parameters plus residual variance."""

    h_bar: np.ndarray
    g_bar: np.ndarray
    residual_variance: float

    def __post_init__(self):
        h, g = _freeze(np.ravel(self.h_bar), "h_bar"), _freeze(np.ravel(self.g_bar), "g_bar")
        if h.shape != g.shape:
            raise ConfigError("h_bar and g_bar must have equal length")
        object.__setattr__(self, "residual_variance", _variance(self.residual_variance, "residual_variance"))
        object.__setattr__(self, "h_bar", h)
        object.__setattr__(self, "g_bar", g)


@dataclass(frozen=True)
class InnovationsMarkov:
    """Innovations-form noise Markov parameters h[i] = C A^(i-1) K."""

    h: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "h", _freeze(np.ravel(self.h), "h"))


def _arx_design(u: np.ndarray, y: np.ndarray, n: int, start: int) -> np.ndarray:
    """Fortran-ordered [Phi | t]: lags [y1 u1 ... yn un] (order m uses 2m columns), then targets."""
    total = y.size
    A = np.empty((total - start, 2 * n + 1), order="F")
    for j in range(1, n + 1):
        A[:, 2 * j - 2] = y[start - j : total - j]
        A[:, 2 * j - 1] = u[start - j : total - j]
    A[:, 2 * n] = y[start:]
    return A


def _check_input_lags(ls: NestedLstsq, n: int) -> None:
    """Raise unless the input lags 1..n of a factored interleaved design have full rank.

    Noise-free records make the output lags exactly collinear, and the
    minimum-norm solution is still right there; a deficient input-lag
    block is a genuine excitation failure.
    """
    if ls.rank_below(slice(1, 2 * n, 2), n) is not None:
        raise ExcitationError(
            f"input-lag regressor of ARX order {n} is rank deficient: input is not persistently exciting"
        )


def _check_order(n: int, n_total: int, start: int) -> None:
    """Raise unless order n can be fitted on the samples from ``start`` on."""
    _integer(n, "ARX order", 1)
    if n_total < MIN_SAMPLES_PER_ORDER * n:
        raise ConfigError(
            f"record of length {n_total} too short for ARX order {n}: need at least {MIN_SAMPLES_PER_ORDER * n} samples"
        )
    if n_total - start <= 2 * n:
        raise ConfigError(f"ARX order {n} leaves no degrees of freedom on {n_total - start} samples")


def fit_arx(rec: SignalRecord, n: int) -> PredictorMarkov:
    """Least-squares fit of the order-n ARX model (feedthrough fixed to 0).

    Args:
        rec: Data record with at least 10 * n samples.
        n: Model order; also the number of Markov parameters returned.

    Returns:
        PredictorMarkov with h_bar (output-lag coefficients), g_bar
        (input-lag coefficients), and residual_variance
        RSS / (n_eff - 2 n).

    Raises:
        ConfigError: If n is not an integer >= 1 or is too large for the record.
        ExcitationError: If the input-lag block is rank deficient.
    """
    _check_order(n, len(rec), n)
    ls = NestedLstsq(_arx_design(rec.u, rec.y, n, start=n), 2 * n)
    _check_input_lags(ls, n)
    return _arx_markov(*ls.solve(2 * n), ls.m, n)


def _arx_markov(theta: np.ndarray, rss: float, m: int, n: int) -> PredictorMarkov:
    """The order-n fit from its interleaved coefficients and RSS on m samples."""
    return PredictorMarkov(h_bar=theta[0::2], g_bar=theta[1::2], residual_variance=rss / (m - 2 * n))


def max_arx_order(n_total: int) -> int:
    """Largest order of the default AIC grid: AIC_MAX_ORDER, pruned by the data-length rule."""
    return min(AIC_MAX_ORDER, _integer(n_total, "record length", 1) // MIN_SAMPLES_PER_ORDER)


def default_aic_grid(n_x: int, n_total: int) -> list[int]:
    """Default order grid {n_x + 1, ..., max_arx_order(n_total)}, for integers n_x >= 1 and n_total >= 1."""
    n_x = _integer(n_x, "n_x", 1)
    grid = list(range(n_x + 1, max_arx_order(n_total) + 1))
    if not grid:
        raise ConfigError(
            f"record of length {n_total} cannot support any ARX order above {n_x}"
        )
    return grid


def _predictor_impulse(h_bar: np.ndarray, num: np.ndarray) -> np.ndarray:
    """First num.size impulse-response terms of num(z) / (1 - h_bar(z)), lags from 1."""
    return lfilter(num, np.r_[1.0, -h_bar], np.eye(1, num.size)[0]) if num.size else np.zeros(0)


def predictor_to_innovations(pm: PredictorMarkov) -> InnovationsMarkov:
    """Innovations Markov parameters from predictor ones.

    H_1 = h_bar_1 and H_i = h_bar_i + sum_{j=1..i-1} h_bar_j H_{i-j}, i.e.
    the impulse response of h_bar(z) / (1 - h_bar(z)).
    """
    return InnovationsMarkov(h=_predictor_impulse(pm.h_bar, pm.h_bar))


def predictor_to_innovations_g(pm: PredictorMarkov) -> np.ndarray:
    """Input-channel analogue: G_i = g_bar_i + sum_{j=1..i-1} h_bar_j G_{i-j}."""
    return _predictor_impulse(pm.h_bar, pm.g_bar)
