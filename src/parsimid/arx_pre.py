"""High-order ARX pre-estimation of predictor Markov parameters.

With feedthrough fixed to zero, the predictor form truncated at order n is
the ARX model

    y[k] = sum_{i=1..n} h_bar[i] y[k-i] + sum_{i=1..n} g_bar[i] u[k-i] + e[k]

whose coefficients are the predictor Markov parameters
h_bar[i] = C A_bar^(i-1) K and g_bar[i] = C A_bar^(i-1) B_bar.  A recursion
converts them to the innovations-form parameters H_i = C A^(i-1) K (and
G_i = C A^(i-1) B), which drive the noise weighting of the row-wise
weighted-least-squares bank; the recursion is a scipy.signal.lfilter
impulse response.  Every ARX rule is this module's: ``_arx_qr`` bounds
the order, factors the interleaved lag design (``_lstsq.NestedLstsq``) and
checks its input lags, and ``_arx_fit`` reads a fit and its RSS from that
factor.  ``fit_arx`` is the two in turn; the AIC order search
(``realization.select_order_aic``) reads every order through them.
``_fit_arx_from_blocks`` reads the order-p fit, after the same checks,
from the R factor of the record's data blocks of past horizon p, which
hold that regression on all but the last f - 1 samples (``_block_stack``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.signal import lfilter

from ._lstsq import NestedLstsq
from .data_blocks import DataBlocks
from .errors import ConfigError, ExcitationError
from .ss_model import SignalRecord, _freeze, _integer, _variance

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
        h, g = _freeze(self.h_bar, "h_bar", -1), _freeze(self.g_bar, "g_bar", -1)
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
        object.__setattr__(self, "h", _freeze(self.h, "h", -1))


def _arx_design(u: np.ndarray, y: np.ndarray, n: int, start: int) -> np.ndarray:
    """Fortran-ordered [Phi | t]: lags [y1 u1 ... yn un] (order m uses 2m columns), then targets."""
    total = y.size
    A = np.empty((total - start, 2 * n + 1), order="F")
    for j in range(1, n + 1):
        A[:, 2 * j - 2] = y[start - j : total - j]
        A[:, 2 * j - 1] = u[start - j : total - j]
    A[:, 2 * n] = y[start:]
    return A


def _block_stack(rec: SignalRecord, blocks: DataBlocks) -> np.ndarray:
    """A (2n + f) x (2n + 1) stand-in, n = blocks.p, with the Gram of the order-n design from sample n on.

    The blocks' design [Y_p' U_p' U_f' Y_f'] holds that regression on the
    samples n .. N_total - f: y lag l is its column n - l, u lag l column
    2n - l and y_t column 2n + f.  Their R factor's first 2n rows of those
    columns, in ``_arx_design``'s order, and a row holding the norm of the
    target's residual below them have the Gram of the design on those
    samples; the f - 1 samples past the blocks are appended as rows, as in
    a row-append update of a QR (Golub & Van Loan, section 12.5).  The
    checks of ``_arx_qr`` and of the blocks leave R at least 2n rows.
    """
    n, f, R = blocks.p, blocks.f, blocks.ls.R
    lags = np.arange(n - 1, -1, -1)
    cols = np.append(np.column_stack([lags, n + lags]).ravel(), 2 * n + f)
    S = np.zeros((2 * n + f, 2 * n + 1), order="F")
    S[: 2 * n] = R[: 2 * n, cols]
    S[2 * n, 2 * n] = np.linalg.norm(R[2 * n :, 2 * n + f])
    S[2 * n + 1 :] = _arx_design(rec.u, rec.y, n, len(rec) - f + 1)
    return S


def _arx_qr(rec: SignalRecord, n: int, start: int, blocks: DataBlocks | None = None) -> NestedLstsq:
    """The factored order-n design on the samples from ``start`` on, if order n passes every ARX check.

    Order n needs 10 n samples and more than 2 n rows, else ConfigError,
    and input lags 1..n of full rank, else ExcitationError.  Noise-free
    records make the output lags exactly collinear, and the minimum-norm
    fit is still right there.  Given the record's ``blocks`` of past
    horizon n (and ``start`` = n), it factors their ``_block_stack`` in
    place of the design.
    """
    n, n_total = _integer(n, "ARX order", 1), len(rec)
    if n_total < MIN_SAMPLES_PER_ORDER * n:
        raise ConfigError(
            f"record of length {n_total} too short for ARX order {n}: need at least {MIN_SAMPLES_PER_ORDER * n} samples"
        )
    if n_total - start <= 2 * n:
        raise ConfigError(f"ARX order {n} leaves no degrees of freedom on {n_total - start} samples")
    if blocks is None:
        ls = NestedLstsq(_arx_design(rec.u, rec.y, n, start), 2 * n)
    else:
        ls = NestedLstsq(_block_stack(rec, blocks), 2 * n, n_total - start)
    if ls.rank_below(slice(1, 2 * n, 2), n) is not None:
        raise ExcitationError(f"input-lag regressor of ARX order {n} is rank deficient: input is not persistently exciting")
    return ls


def _arx_fit(ls: NestedLstsq, n: int) -> PredictorMarkov:
    """The order-n fit read from a factored design of order n or more, with its RSS on ``ls.m`` samples."""
    theta = ls.regress(2 * n, ls.k)
    return PredictorMarkov(h_bar=theta[0::2], g_bar=theta[1::2], residual_variance=ls.rss(2 * n) / (ls.m - 2 * n))


def fit_arx(rec: SignalRecord, n: int) -> PredictorMarkov:
    """Least-squares fit of the order-n ARX model (feedthrough fixed to 0).

    ``_arx_qr`` checks n and factors the design; ``_arx_fit`` reads the fit.

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
    return _arx_fit(_arx_qr(rec, n, n), n)


def _fit_arx_from_blocks(rec: SignalRecord, blocks: DataBlocks) -> PredictorMarkov:
    """``fit_arx(rec, blocks.p)``, to rounding, read from the R factor of the record's ``blocks`` with no QR of its design."""
    return _arx_fit(_arx_qr(rec, blocks.p, blocks.p, blocks), blocks.p)


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
