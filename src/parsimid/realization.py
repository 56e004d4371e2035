"""Model realization from a range-space estimate, and the identify pipeline.

The weighted singular value decomposition compresses the stacked estimate
to its leading rank-n_x part; the observability factor U S^(1/2) then
yields (A, C) by shift invariance, and (B, K) follow from linear fits to
estimated Markov parameters.  Every method shares this realization; SSARX
realizes the predictor form, so its A = A_bar + K C is formed at the end.
Ranks are decided in ``_lstsq``: the SVD's by ``numerical_rank``, and the
shift's and the gain fits' by ``full_rank_lstsq``, which solves them.
Every method identifying one record reads one :class:`PreparedRecord`, which
keeps its data blocks and W2 per horizon pair and its ARX fits per order.
The AIC order search (:func:`select_order_aic`) solves its largest grid
order on the way, and leaves that fit in the record it is given.
"""

from __future__ import annotations

from contextlib import contextmanager, suppress
from dataclasses import dataclass, field

import numpy as np

from ._lstsq import NestedLstsq, full_rank_lstsq, numerical_rank
from .arx_pre import (
    InnovationsMarkov,
    PredictorMarkov,
    _arx_design,
    _arx_markov,
    _check_input_lags,
    _check_order,
    fit_arx,
    max_arx_order,
    predictor_to_innovations,
    predictor_to_innovations_g,
)
from .data_blocks import DataBlocks, assemble_blocks
from .errors import ConfigError, ExcitationError, ParsimidError, RankError
from .estimators import (
    METHODS,
    RangeEstimate,
    classical_projection,
    parsim_ols,
    parsim_wls,
    ssarx_estimate,
)
from .ss_model import SignalRecord, StateSpaceModel, _integer, is_stable, observability, spectral_radius

__all__ = [
    "RealizationConfig",
    "IdentifiedModel",
    "PreparedRecord",
    "select_order_aic",
    "weight_w2",
    "weighted_svd_realize",
    "extract_ac",
    "estimate_bk",
    "identify",
]


@dataclass(frozen=True)
class RealizationConfig:
    """Settings for one identification run.

    Attributes:
        n_x: Target model order, 1 <= n_x <= f - 1.
        f: Future horizon, >= 2.
        p: Past horizon, >= 1 (also the ARX pre-estimation order).
        method: One of "parsim", "parsim_opt", "classical", "ssarx".

    The SVD step always weights columns by a square-root factor of the
    projected past Gram matrix (:func:`weight_w2`) and rows by the identity.
    """

    n_x: int
    f: int
    p: int
    method: str = "parsim_opt"

    def __post_init__(self):
        for name, what, low in (("f", "future horizon", 2), ("n_x", "n_x", 1), ("p", "past horizon", 1)):
            object.__setattr__(self, name, _integer(getattr(self, name), what, low))
        if self.n_x > self.f - 1:
            raise ConfigError(
                f"model order must satisfy 1 <= n_x <= f - 1, got n_x={self.n_x}, f={self.f}"
            )
        if self.method not in METHODS:
            raise ConfigError(f"unknown method {self.method!r}; expected one of {METHODS}")


@dataclass(frozen=True)
class IdentifiedModel:
    """Result of :func:`identify`: the model plus diagnostics."""

    model: StateSpaceModel
    singular_values: np.ndarray
    diagnostics: dict = field(default_factory=dict)


def weight_w2(blocks: DataBlocks) -> np.ndarray:
    """Column weighting: a square-root factor of the projected past Gram matrix.

    Returns W2 = R22', (2p, 2p), with W2 W2' = Z_p P Z_p', where P projects
    onto the orthogonal complement of the future-input rows.  R22 is the
    trailing block of a QR of the record's R factor (``blocks.ls``) with
    the U_f columns moved first.  W2 differs from the symmetric root of
    Z_p P Z_p' by an orthogonal factor on the right, so the weighted SVD
    gives the same singular values and left vectors with either.  When
    N < 2p + f the QR has fewer than 2p rows below U_f's, and W2 is padded
    with zero columns.  W2 is read-only, as every method identifying a
    :class:`PreparedRecord` reads the same one.
    """
    p2, f = 2 * blocks.p, blocks.f
    R = blocks.ls.R
    R22 = np.linalg.qr(np.hstack([R[:, p2 : p2 + f], R[:, :p2]]), mode="r")[f:, f:]
    w2 = np.vstack([R22, np.zeros((p2 - R22.shape[0], p2))]).T
    w2.setflags(write=False)
    return w2


@dataclass(frozen=True, eq=False)
class PreparedRecord:
    """One record, shared by every method identifying it.

    Each piece is made on first use and kept, keyed by what it is made
    from: the data blocks (design, QR and excitation check) and the W2
    weighting per horizon pair (f, p), and the ARX fit per order.  A piece
    whose preparation raises is not kept, so every later call raises
    afresh.  The pieces are made through this module's names
    (``assemble_blocks``, ``weight_w2``, ``fit_arx``), so a wrapper put in
    their place here sees every call.  The one exception is the fit of the
    largest order of an AIC grid: :func:`select_order_aic` solves it from
    the same design ``fit_arx`` would build, and keeps it here, bit for
    bit the fit ``fit_arx`` makes.
    """

    rec: SignalRecord
    _memo: dict = field(default_factory=dict, init=False, repr=False)

    def _kept(self, key, make, *args):
        if key not in self._memo:
            self._memo[key] = make(*args)
        return self._memo[key]

    def blocks(self, f: int, p: int) -> DataBlocks:
        return self._kept(("blocks", f, p), assemble_blocks, self.rec, f, p)

    def w2(self, f: int, p: int) -> np.ndarray:
        return self._kept(("w2", f, p), weight_w2, self.blocks(f, p))

    def arx(self, n: int) -> PredictorMarkov:
        return self._kept(("arx", n), fit_arx, self.rec, n)


def select_order_aic(rec: SignalRecord | PreparedRecord, grid) -> int:
    """Pick the ARX order from ``grid`` by the Akaike criterion.

    Every candidate is fitted on the common window starting at the largest
    grid order so the criterion values compare identical samples:
    AIC(n) = n_eff * ln(RSS / n_eff) + 2 * (2 n).  Ties break toward the
    smaller order.

    The grid is walked from the largest order down.  One QR of the largest
    fittable order's interleaved design holds every fit (``NestedLstsq``),
    and each order takes the input-lag excitation check on it.  When the
    largest grid order is fittable, its window is the one ``fit_arx``
    uses, so its fit is ``fit_arx(rec, n)``; given a :class:`PreparedRecord`,
    AIC keeps that fit there for the methods that read the record.  The
    chosen order is the same for a bare record and a prepared one.

    Raises:
        ConfigError: If the grid is empty, holds an order that is not an
            integer >= 1, or no candidate can be fitted.
    """
    prep = rec if isinstance(rec, PreparedRecord) else PreparedRecord(rec)
    orders = sorted({_integer(n, "ARX order", 1) for n in grid})
    if not orders:
        raise ConfigError("order grid is empty")
    n_total, start = len(prep.rec), orders[-1]
    failures, aic, ls = {}, {}, None
    for n in reversed(orders):
        try:
            _check_order(n, n_total, start)
            # Both checks bound n from above, so the first order to pass is the largest fittable one.
            if ls is None:
                ls = NestedLstsq(_arx_design(prep.rec.u, prep.rec.y, n, start), 2 * n)
            _check_input_lags(ls, n)
        except (ConfigError, ExcitationError) as err:
            failures[n] = err
            continue
        theta, rss = ls.solve(2 * n)
        if n == start:
            # The top order's QR and window are fit_arx's.  As in ``_kept``, a
            # fit that fails validation is not kept.
            with suppress(ConfigError):
                prep._kept(("arx", n), _arx_markov, theta, rss, ls.m, n)
        with np.errstate(divide="ignore"):
            aic[n] = ls.m * np.log(rss / ls.m) + 2.0 * (2 * n)
    if not aic:
        raise ConfigError(
            "no ARX order in the grid could be fitted: "
            + "; ".join(f"n={n}: {failures[n]}" for n in sorted(failures))
        )
    return min(sorted(aic), key=aic.get)


def weighted_svd_realize(
    est: RangeEstimate,
    cfg: RealizationConfig,
    w2: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Rank-n_x observability factor from the weighted SVD.

    Args:
        est: Stacked range-space estimate.
        cfg: Realization settings; cfg.n_x many directions are kept.
        w2: Column weighting, (2p, 2p): a square-root factor W2 of the
            weight W2 W2'; only W2 W2' shapes the singular values and left
            vectors.  :func:`weight_w2` in the pipeline.

    Returns:
        (Gamma_hat, singular_values): Gamma_hat = U_nx sqrt(S_nx) of shape
        (f, n_x), and the full singular spectrum for diagnostics.

    Raises:
        RankError: If n_x exceeds the numerical rank of the weighted
            matrix; the message lists the spectrum.
    """
    M = est.gamma_lp @ w2
    U, s, _ = np.linalg.svd(M, full_matrices=False)
    rank = numerical_rank(s, *M.shape)
    if cfg.n_x > rank:
        raise RankError(f"requested order {cfg.n_x} exceeds numerical rank {rank}; singular values: {s}")
    Gamma_hat = U[:, : cfg.n_x] * np.sqrt(s[: cfg.n_x])
    return Gamma_hat, s


def extract_ac(Gamma_hat: np.ndarray, n_x: int) -> tuple[np.ndarray, np.ndarray]:
    """(A, C) from the shift structure of the observability factor.

    C is the first block row; A solves Gamma[:-1] A = Gamma[1:] in the
    least-squares sense.

    Raises:
        ConfigError: If the factor has fewer than n_x + 1 rows.
        RankError: If the top block is column-rank deficient.
    """
    G = np.asarray(Gamma_hat, dtype=float)
    if G.ndim != 2 or G.shape[1] != n_x:
        raise ConfigError(f"observability factor must have {n_x} columns, got {G.shape}")
    if G.shape[0] < n_x + 1:
        raise ConfigError(
            f"need at least n_x + 1 = {n_x + 1} block rows for the shift, got {G.shape[0]}"
        )
    A, _ = full_rank_lstsq(G[:-1], G[1:], "top block of the observability factor")
    return A, G[:1].copy()


def estimate_bk(
    A: np.ndarray,
    C: np.ndarray,
    b_seqs,
    k_seq,
) -> tuple[np.ndarray, np.ndarray, float, float]:
    """(B, K) and the RMS of each fit, from estimated Markov parameters.

    Each member of ``b_seqs`` is a sequence C A^(i-1) B, i = 1, 2, ...; B
    fits all of them jointly.  ``k_seq`` is the sequence C A^(i-1) K,
    i = 1, 2, ...  Both fits read one observability stack of (A, C).

    Raises:
        ConfigError: If ``b_seqs`` or ``k_seq`` holds no value.
        RankError: If the observability stack of (A, C) is rank deficient.
    """
    b_seqs, k_seq = [np.ravel(s) for s in b_seqs], np.ravel(k_seq)
    if not k_seq.size or not sum(s.size for s in b_seqs):
        raise ConfigError("no Markov-parameter observations to fit a gain from")
    O = observability(A, C, max(s.size for s in [*b_seqs, k_seq]))
    what = "observability stack of (A, C)"
    B, b_rms = full_rank_lstsq(np.vstack([O[: s.size] for s in b_seqs]), np.concatenate(b_seqs), what)
    K, k_rms = full_rank_lstsq(O[: k_seq.size], k_seq, what)
    return B[:, None], K[:, None], b_rms, k_rms


@contextmanager
def _stage(name: str):
    """Context manager labeling errors with the pipeline stage."""
    try:
        yield
    except ParsimidError as exc:
        raise type(exc)(f"{name}: {exc}") from exc
    except np.linalg.LinAlgError as exc:
        raise RankError(f"{name}: {exc}") from exc


def identify(
    rec: SignalRecord | PreparedRecord,
    cfg: RealizationConfig,
    weighting_markov: InnovationsMarkov | None = None,
) -> IdentifiedModel:
    """End-to-end identification of one record.

    Pipeline: data blocks -> high-order ARX pre-estimation (order p, or
    max(p, f - 1) for SSARX) ->
    range-space estimate by the configured method -> weighted SVD ->
    shift-invariance (A, C) -> Markov-parameter fits for (B, K), D = 0
    (:func:`estimate_bk`).  B fits the bank's Markov rows, or for classical
    the ARX input sequence, and K the ARX noise sequence, both converted to
    innovations form.  SSARX fits both to the predictor-form ARX sequences,
    as its (A, C) are the predictor form's, and returns A = A_bar + K C.

    Args:
        rec: Input/output record, or a :class:`PreparedRecord` of it that
            other calls share: its blocks and W2 for (cfg.f, cfg.p) and its
            ARX fits are reused, their conversions are not kept, and the
            result is the same as on the bare record.  A bare record is
            prepared for this call alone.
        cfg: Realization settings.
        weighting_markov: Optional override for the Markov parameters that
            drive the WLS weighting (parsim_opt only, else ConfigError);
            defaults to the innovations sequence of an ARX of order
            max(p, max_arx_order(N)).

    Returns:
        IdentifiedModel.  An unstable estimate is not an error; it is
        flagged in ``diagnostics["stable"]``.  ``arx_order`` and
        ``weighting_arx_order`` (parsim_opt, else None) give the ARX orders;
        ``wls_gram_rank`` and ``wls_gram_cond`` (parsim_opt, else None) give
        the rank and s_max / s_min of the weighted Gram of WLS rows 2..f;
        ``b_fit_rms`` and ``k_fit_rms`` give the RMS residuals of the B and
        K fits; ``markov_last_row`` is the bank's row-f Markov estimate
        [G_{f-1}, ..., G_0] (parsim and parsim_opt, else None).

    Raises:
        ParsimidError subclasses labeled with the failing stage; a record
            not persistently exciting of order f + p fails at ``blocks:``.
    """
    if weighting_markov is not None and cfg.method != "parsim_opt":
        raise ConfigError(f"weighting_markov applies to parsim_opt only, got method {cfg.method!r}")
    prep = rec if isinstance(rec, PreparedRecord) else PreparedRecord(rec)
    with _stage("blocks"):
        blocks = prep.blocks(cfg.f, cfg.p)
    with _stage("arx"):
        # SSARX subtracts f - 1 predictor Markov parameters.
        arx_order = max(cfg.p, cfg.f - 1) if cfg.method == "ssarx" else cfg.p
        pm = prep.arx(arx_order)

    weighting_order = None
    with _stage("estimate"):
        if cfg.method == "parsim":
            est = parsim_ols(blocks)
        elif cfg.method == "parsim_opt":
            if weighting_markov is None:
                # The noise-weighting pre-estimate needs a genuinely high-order ARX:
                # with a slowly decaying predictor, an ARX truncated at the (often
                # short) past horizon biases the leading Markov parameters enough
                # to cancel the variance gain of the weighted bank.
                weighting_order = max(cfg.p, max_arx_order(len(prep.rec)))
                weighting_markov = predictor_to_innovations(prep.arx(weighting_order))
            est = parsim_wls(blocks, weighting_markov)
        elif cfg.method == "classical":
            est = classical_projection(blocks)
        else:
            est = ssarx_estimate(blocks, pm)

    with _stage("svd"):
        Gamma_hat, svals = weighted_svd_realize(est, cfg, prep.w2(cfg.f, cfg.p))

    with _stage("shift"):
        A_like, C_hat = extract_ac(Gamma_hat, cfg.n_x)
        shift_rms = float(np.sqrt(np.mean((Gamma_hat[:-1] @ A_like - Gamma_hat[1:]) ** 2)))

    with _stage("gains"):
        if cfg.method == "ssarx":
            b_seqs, k_seq = [pm.g_bar], pm.h_bar
        else:
            if cfg.method == "classical":
                b_seqs = [predictor_to_innovations_g(pm)]
            else:
                # Bank row i holds [G_{i-1}, ..., G_1, G_0]; G_0 is the feedthrough, D = 0.
                b_seqs = [row[-2::-1] for row in est.g_rows[1:]]
            k_seq = predictor_to_innovations(pm).h
        B_hat, K_hat, b_rms, k_rms = estimate_bk(A_like, C_hat, b_seqs, k_seq)
        # SSARX realizes the predictor form, whose transition matrix is A - K C.
        A_hat = A_like + K_hat @ C_hat if cfg.method == "ssarx" else A_like
        model = StateSpaceModel(
            A=A_hat, B=B_hat, C=C_hat, D=0.0, K=K_hat, sigma_e2=pm.residual_variance,
        )

    tail = float(np.sum(svals[cfg.n_x :]) / np.sum(svals)) if np.sum(svals) > 0 else 0.0
    diagnostics = {
        "method": cfg.method,
        "f": cfg.f,
        "p": cfg.p,
        "stable": is_stable(model),
        "spectral_radius": spectral_radius(model),
        "arx_order": arx_order,
        "weighting_arx_order": weighting_order,
        "arx_residual_variance": pm.residual_variance,
        "svd_tail_fraction": tail,
        "shift_residual_rms": shift_rms,
        "b_fit_rms": b_rms,
        "k_fit_rms": k_rms,
        "markov_last_row": est.g_rows[-1].copy() if est.g_rows else None,
        "wls_gram_rank": list(est.gram_rank) if cfg.method == "parsim_opt" else None,
        "wls_gram_cond": list(est.gram_cond) if cfg.method == "parsim_opt" else None,
    }
    return IdentifiedModel(model=model, singular_values=svals, diagnostics=diagnostics)
