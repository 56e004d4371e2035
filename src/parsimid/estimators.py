"""Range-space estimators for the extended observability matrix.

Four methods estimate the product of the extended observability matrix and
the past-data controllability map from the same data blocks:

* ``parsim_ols``  - a bank of f ordinary least-squares row fits that keeps
  the causal (lower-triangular) structure of the input Toeplitz term.
* ``parsim_wls``  - the same bank with each row solved by weighted least
  squares.  Rewriting the stacked noise term H_fi E_i as a single white
  row times a banded Toeplitz factor T gives the row noise covariance
  sigma_e^2 T'T, whose inverse is the optimal (BLUE) weighting.
* ``classical_projection`` - the single-projection estimator that removes
  the future input by orthogonal projection and regresses on the past.
* ``ssarx_estimate`` - predictor-form estimator that subtracts the effect
  of future inputs and outputs using pre-estimated predictor Markov
  parameters, then regresses on the past (Jansson-style SSARX).

Every unweighted regression is of a block of the record on leading rows
of [Y_p; U_p; U_f], so the one QR of the design [Y_p' U_p' U_f' Y_f'] that
:func:`data_blocks.assemble_blocks` makes (``blocks.ls``) answers the OLS
rows, WLS row 1, the projection (by Frisch-Waugh-Lovell) and SSARX.  WLS
rows 2..f each factor their banded T'T = L L' once (LAPACK ``dpbtrf`` on
lower-band storage, which factors faster than upper), whiten the row's
regressor and target columns of ``blocks.design`` with one banded
triangular sweep W = L^(-1) [Z' y'] (``dtbtrs`` on the unit-diagonal
factor D^(-1) L, D = diag(L), with the columns divided by D as they are
copied in), and solve on the small Gram W'W by :func:`_lstsq.gram_solve`:
its eigenvalues give the rank and condition, and a full-rank Gram is
solved by Cholesky and refined once against W.  All solves keep
pseudo-inverse (minimum-norm) semantics, and every rank is decided by
:func:`_lstsq.numerical_rank`'s cutoff, eps * max dimension * s_max:
noise-free records make the output-side rows exactly collinear.  Input excitation is checked
once, for every method, by :func:`data_blocks.assemble_blocks`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import toeplitz
from scipy.linalg.lapack import dpbtrf, dtbtrs

from ._lstsq import gram_solve
from .arx_pre import InnovationsMarkov, PredictorMarkov
from .data_blocks import DataBlocks
from .errors import ConfigError, RankError
from .ss_model import _integer

__all__ = [
    "RangeEstimate",
    "toeplitz_gram_band",
    "parsim_ols",
    "parsim_wls",
    "classical_projection",
    "ssarx_estimate",
    "METHODS",
]

METHODS = ("parsim", "parsim_opt", "classical", "ssarx")


@dataclass(frozen=True)
class RangeEstimate:
    """Stacked estimate of the observability/controllability product.

    Attributes:
        gamma_lp: (f, 2p) stack; innovations-form methods estimate
            Gamma_f L_p, the SSARX path estimates the predictor-form
            product.
        g_rows: One row per future index i with the i estimated Markov
            parameters [G_{i-1}, ..., G_1, G_0] (the two banks); empty for
            the classical projection and SSARX, which estimate none.
        gram_rank: WLS bank only: the numerical rank of the weighted Gram
            Z (T'T)^(-1) Z' of rows 2..f, the count of its singular values
            (absolute eigenvalues) above lstsq's cutoff.
        gram_cond: WLS bank only: s_max / s_min of the same Grams, from
            the same eigenvalues (inf for a singular one).
    """

    gamma_lp: np.ndarray
    g_rows: tuple[np.ndarray, ...]
    gram_rank: tuple[int, ...] = ()
    gram_cond: tuple[float, ...] = ()

    def __post_init__(self):
        for i, row in enumerate(self.g_rows, start=1):
            if row.size != i:
                raise ConfigError(f"g_rows[{i - 1}] must have {i} entries, got {row.size}")


def toeplitz_gram_band(h, i: int, N: int) -> np.ndarray:
    """Upper-banded LAPACK storage of T'T (as ``dpbtrf`` and ``solveh_banded`` read it).

    T, (N + i - 1) x N, maps a white innovations row onto row i's noise:
    column j carries [H_{i-1}, ..., H_1, H_0 = 1] in rows j..j+i-1.  T'T
    is symmetric positive definite, banded with bandwidth i - 1, and
    Toeplitz: diagonal d holds sum_{m=d..i-1} H_m H_{m-d}.  As every
    diagonal is constant, the rows reversed are the lower-band storage.
    """
    i, N = _integer(i, "bank row", 1), _integer(N, "N", 1)
    h = np.asarray(h, dtype=float).ravel()[: i - 1]
    # [H_0, H_1, ..., H_{i-1}]; missing high lags count as 0
    b_nat = np.r_[np.zeros(i - 1 - h.size), h[::-1], 1.0][::-1]
    diagonals = [b_nat[d:] @ b_nat[: i - d] for d in range(i)]
    return np.repeat(np.array(diagonals[::-1])[:, None], N, axis=1)


def _bank_estimate(thetas, blocks: DataBlocks, **gram) -> RangeEstimate:
    """Stack the row solutions [Gamma_fi L_p, G_fi] of a bank."""
    k = 2 * blocks.p
    return RangeEstimate(
        gamma_lp=np.array([t[:k] for t in thetas]), g_rows=tuple(t[k:] for t in thetas), **gram
    )


def parsim_ols(blocks: DataBlocks) -> RangeEstimate:
    """Row-wise ordinary least-squares bank.

    Row i regresses future output row i on [Z_p; U_i], the first 2p + i
    columns of ``blocks.design``, estimating [Gamma_fi L_p, G_fi] jointly;
    stacking the f first parts gives the range-space estimate.
    """
    thetas = []
    for i in range(1, blocks.f + 1):
        thetas.append(blocks.ls.regress(2 * blocks.p + i, blocks.ls.k + i - 1))
    return _bank_estimate(thetas, blocks)


def parsim_wls(blocks: DataBlocks, h: InnovationsMarkov) -> RangeEstimate:
    """Row-wise weighted least-squares bank.

    Uses the inverse of the row noise covariance T'T as the weighting;
    the innovations variance cancels and is never applied.  Row i factors
    the banded T'T = L L' (bandwidth i - 1, lower-band storage) once,
    whitens [Z' y'] with one banded triangular sweep into an N x (q + 1)
    buffer W = L^(-1) [Z' y'], and solves the normal equations of the
    small Gram W'W; the N x N inverse is never formed.  The band is
    ``toeplitz_gram_band``'s upper storage with its rows reversed, and the
    lower-band factor is faster to make than the upper one.  The sweep
    runs on the unit-diagonal D^(-1) L (D = diag(L)) over the columns
    divided by D, which is the same L^(-1) [Z' y'] with no division on its
    critical path.  :func:`_lstsq.gram_solve` takes the Gram's eigenvalues
    (the singular values lstsq would find), returns its rank and
    condition as ``gram_rank`` and ``gram_cond``, and solves a full-rank
    Gram by Cholesky with one refinement step against W, which brings the
    row to the accuracy of a QR solve of the whitened design; a
    rank-deficient one, or one whose Cholesky factorization fails, is
    solved by lstsq for the minimum-norm answer.
    Row 1 has white row noise and coincides with the OLS row.

    Args:
        blocks: Data blocks.
        h: Innovations Markov parameters H_1..H_{f-1}; parameters beyond
            the available length are treated as zero.

    Raises:
        RankError: If a row's banded Cholesky factorization fails (guarded;
            cannot occur for finite weights since H_0 = 1).
    """
    thetas = [blocks.ls.regress(2 * blocks.p + 1, blocks.ls.k)]
    ranks, conds = [], []
    for i in range(2, blocks.f + 1):
        q = 2 * blocks.p + i
        L, info = dpbtrf(toeplitz_gram_band(h.h, i, blocks.N)[::-1], lower=1)
        if info != 0:
            raise RankError(f"noise weighting Gram is not positive definite at row {i} (dpbtrf info {info})")
        # L^(-1) X = (D^(-1) L)^(-1) (D^(-1) X), D = diag(L): the sweep on the
        # unit-diagonal factor makes no division on its critical path.
        d = L[0].copy()
        for k in range(1, i):
            L[k, : blocks.N - k] /= d[k:]
        W = np.empty((blocks.N, q + 1), order="F")
        np.divide(blocks.design[:, :q], d[:, None], out=W[:, :q])
        np.divide(blocks.design[:, 2 * blocks.p + blocks.f + i - 1], d, out=W[:, q])
        W = dtbtrs(L, W, uplo="L", diag="U", overwrite_b=True)[0]
        theta, rank, cond = gram_solve(W, q)
        thetas.append(theta)
        ranks.append(rank)
        conds.append(cond)
    return _bank_estimate(thetas, blocks, gram_rank=tuple(ranks), gram_cond=tuple(conds))


def classical_projection(blocks: DataBlocks) -> RangeEstimate:
    """Single-projection estimator.

    Regresses the future outputs on the past stack with the future input
    projected out, Y_f P Z_p' (Z_p P Z_p')^+.  By the Frisch-Waugh-Lovell
    theorem that is the Z_p block of the regression of Y_f on the whole
    stack [Z_p; U_f], read from ``blocks.ls``.  The input Toeplitz term is
    discarded by the projection, so no Markov parameter rows are produced.
    """
    k = 2 * blocks.p + blocks.f
    coef = blocks.ls.regress(k, slice(k, k + blocks.f))
    return RangeEstimate(gamma_lp=coef[: 2 * blocks.p].T, g_rows=())


def ssarx_estimate(blocks: DataBlocks, pm: PredictorMarkov) -> RangeEstimate:
    """Predictor-form estimator with ARX pre-subtraction.

    Builds the lower-triangular Toeplitz matrices of predictor Markov
    parameters from ``pm`` (feedthrough fixed to 0, zero diagonal on the
    output-feedback factor), removes their contribution from the future
    outputs, and regresses the corrected outputs on the past stack.  The
    corrected outputs are linear in Y_f and U_f, so their coefficients on
    Z_p are (I - H_bar) coef(Y_f | Z_p) - G_bar coef(U_f | Z_p), both read
    from ``blocks.ls``.  The result estimates the predictor-form
    observability product; ``pm`` is an input, not an estimate, so
    ``g_rows`` is empty.

    Raises:
        ConfigError: If ``pm`` supplies fewer than f - 1 parameters.
    """
    f = blocks.f
    if pm.h_bar.size < f - 1:
        raise ConfigError(f"need at least {f - 1} predictor Markov parameters, got {pm.h_bar.size}")

    G_bar = toeplitz(np.r_[0.0, pm.g_bar[: f - 1]], np.zeros(f))
    H_bar = toeplitz(np.r_[0.0, pm.h_bar[: f - 1]], np.zeros(f))
    # Columns 2p.. of [X | T] are U_f then Y_f.
    coef = blocks.ls.regress(2 * blocks.p, slice(2 * blocks.p, None)).T
    gamma_lp = (np.eye(f) - H_bar) @ coef[f:] - G_bar @ coef[:f]
    return RangeEstimate(gamma_lp=gamma_lp, g_rows=())
