"""Range-space estimators for the extended observability matrix.

Four methods estimate the product of the extended observability matrix and
the past-data controllability map from the same data blocks:

* ``parsim_ols``  - a bank of f ordinary least-squares row fits that keeps
  the causal (lower-triangular) structure of the input Toeplitz term.
* ``parsim_wls``  - the same bank with each row solved by weighted least
  squares.  Rewriting the stacked noise term H_fi E_i as a single white
  row times a banded Toeplitz factor T gives the row noise covariance
  sigma_e^2 T'T, and the bank weights by its inverse.  That is the BLUE
  weighting when row i's noise polynomial 1 + H_1 z^-1 + ... +
  H_{i-1} z^-(i-1) is minimum phase.  Otherwise the whitened row noise
  mixes in past innovations, which the past outputs in the regressors
  carry, and GLS is inconsistent where OLS is not: Example 2's rows 5-7
  keep their distance from the OLS rows as N grows.
* ``classical_projection`` - the single-projection estimator that removes
  the future input by orthogonal projection and regresses on the past.
* ``ssarx_estimate`` - predictor-form estimator that subtracts the effect
  of future inputs and outputs using pre-estimated predictor Markov
  parameters, then regresses on the past (Jansson-style SSARX).

Every unweighted regression is of a block of the record on leading rows
of [Y_p; U_p; U_f], so the one QR of the design [Y_p' U_p' U_f' Y_f'] that
:func:`data_blocks.assemble_blocks` makes (``blocks.ls``) answers the OLS
rows, WLS row 1, the projection (by Frisch-Waugh-Lovell) and SSARX.  WLS
rows 2..f each fill the band of T'T from its diagonals, which the calling
thread computes for every row before the rows start (``_gram_diagonals``),
factor it as L L' once, in place (LAPACK ``dpbtrf``), whiten the row's
regressor and target columns, read from the record's windows
(``blocks.Y``, ``blocks.U``), into the leading columns of one workspace
per thread with one banded triangular sweep W = L^(-1) [Z' y']
(``dtbtrs``: a row of bandwidth below ``_UNSCALED_BAND`` sweeps the
unit-diagonal factor D^(-1) L, D = diag(L), with the columns divided by
D as they are copied in, and a wider row sweeps L as it stands over the
columns as they are), and solve on the small Gram W'W by
:func:`_lstsq.gram_solve`: its eigenvalues give the rank and condition,
and a full-rank Gram is solved by Cholesky and refined once against W.  The rows are independent and run on one thread
per usable CPU (the process's affinity set), at most one per row: the
calling thread and the process's helper threads (``_Helpers``), which
the first threaded bank starts, every later one reuses, and which park
on one job queue between banks; a ``multiprocessing`` child, or a bank
too small to gain, runs on one.
Every LAPACK call of a row is one of ``_lstsq``'s lock-free wrappers (see
its module docstring), and numpy's whitening copies and matmuls release
the lock too, so the threads overlap in all but a row's short Python steps.
All solves keep pseudo-inverse (minimum-norm) semantics, and every rank
is decided by :func:`_lstsq.numerical_rank`'s cutoff, eps * max dimension
* s_max: noise-free records make the output-side rows exactly collinear.
Input excitation is checked once, for every method, by
:func:`data_blocks.assemble_blocks`.
"""

from __future__ import annotations

import multiprocessing
import os
import queue
import threading
from dataclasses import dataclass

import numpy as np
from scipy.linalg import toeplitz

from ._lstsq import band_cholesky, band_lower_solve, gram_solve
from .arx_pre import InnovationsMarkov, PredictorMarkov
from .data_blocks import DataBlocks
from .errors import ConfigError, RankError

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

    The estimators build it and :func:`realization.identify` reads it; it
    keeps the arrays it is given, unconverted.
    """

    gamma_lp: np.ndarray
    g_rows: tuple[np.ndarray, ...]
    gram_rank: tuple[int, ...] = ()
    gram_cond: tuple[float, ...] = ()


def _gram_diagonals(h: np.ndarray, rows) -> list[np.ndarray]:
    """For each bank row i of ``rows``, the i diagonals of its T'T.

    T, (N + i - 1) x N, maps a white innovations row onto row i's noise:
    column j carries [H_{i-1}, ..., H_1, H_0 = 1] in rows j..j+i-1, so T'T
    is symmetric positive definite, banded with bandwidth i - 1, and
    Toeplitz.  ``h`` is a converted [H_1, H_2, ...]; lags past its end
    count as 0.  With b = [H_0, H_1, ...], diagonal d of row i is the sum
    of b[m - d] b[m] over m = d..i-1: the running sums of row d of
    triu(toeplitz(b)) * b, read at column i - 1, give every row's at once,
    each added one term at a time from m = d up, b[0] b[d] + b[1] b[d+1]
    + ... + b[i-1-d] b[i-1].
    """
    top = max(rows, default=1)
    h = h[: top - 1]
    b = np.r_[1.0, h, np.zeros(top - 1 - h.size)]
    sums = np.cumsum(np.triu(toeplitz(b)) * b, axis=1)
    return [sums[:i, i - 1] for i in rows]


def _bank_estimate(thetas, blocks: DataBlocks, **gram) -> RangeEstimate:
    """Stack the row solutions [Gamma_fi L_p, G_fi] of a bank."""
    k = 2 * blocks.p
    return RangeEstimate(
        gamma_lp=np.array([t[:k] for t in thetas]), g_rows=tuple(t[k:] for t in thetas), **gram
    )


def parsim_ols(blocks: DataBlocks) -> RangeEstimate:
    """Row-wise ordinary least-squares bank.

    Row i regresses future output row i on [Z_p; U_i], the first 2p + i
    columns of the blocks' design, estimating [Gamma_fi L_p, G_fi] jointly;
    stacking the f first parts gives the range-space estimate.
    """
    thetas = []
    for i in range(1, blocks.f + 1):
        thetas.append(blocks.ls.regress(2 * blocks.p + i, blocks.ls.k + i - 1))
    return _bank_estimate(thetas, blocks)


# A bank whose heaviest row sweeps fewer multiply-adds than this,
# N (2p + f + 1)(f - 1), runs on one thread: below it a second thread costs
# more in hand-offs of the interpreter lock than it saves (see CHANGES.md).
_THREADED_SWEEP = 400_000
# A row of bandwidth i - 1 at least this wide sweeps its factor L as it
# stands over undivided windows: from there the unit-diagonal form's
# divisions cost more than they save (see CHANGES.md).
_UNSCALED_BAND = 12


def _bank_threads(blocks: DataBlocks) -> int:
    """Threads for the WLS bank on ``blocks``: one per usable CPU, at most one per row 2..f.

    Usable CPUs are the process's affinity set (``os.cpu_count`` where the
    platform has none).  A ``multiprocessing`` child, such as a
    ``monte_carlo(jobs > 1)`` worker, takes one, as its siblings spend the
    CPUs, and so does a bank below ``_THREADED_SWEEP``.
    """
    p, f = blocks.p, blocks.f
    if multiprocessing.parent_process() is not None or blocks.N * (2 * p + f + 1) * (f - 1) < _THREADED_SWEEP:
        return 1
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        cpus = os.cpu_count() or 1
    return max(1, min(cpus, f - 1))


class _Helpers:
    """The process's helper threads of the WLS bank, parked between banks.

    A helper is a daemon thread started by the first bank that needs it
    and never stopped: it takes a (job, outcomes) pair from the job queue,
    runs the job, puts its outcome, and parks again on the queue.  One
    bank at a time runs on the helpers; a bank that finds them held by
    another thread's runs on its calling thread alone.
    """

    def __init__(self):
        self.held = threading.Lock()  # by the bank running on the helpers
        self.jobs = queue.SimpleQueue()  # of (job, outcomes) pairs, one per helper a bank uses
        self.threads: list[threading.Thread] = []

    def run(self, job, count: int) -> None:
        """job() on the calling thread and on ``count`` helpers; returns once every helper's outcome is in.

        If another thread's bank holds the helpers, job() runs on the
        calling thread alone; if a helper cannot start, on the calling
        thread and the helpers that did.  An exception that escapes a
        helper's job is raised here once every outcome is in; the helper
        lives on.
        """
        if count < 1 or not self.held.acquire(blocking=False):
            job()
            return
        try:
            while len(self.threads) < count:
                helper = threading.Thread(target=self._serve, name="parsim_wls helper", daemon=True)
                try:
                    helper.start()
                except RuntimeError:  # can't start new thread: the bank runs on those that did
                    break
                self.threads.append(helper)
            # Each bank reads only its own outcomes, so an interrupted bank
            # leaves the next nothing to wait out.
            outcomes = queue.SimpleQueue()
            handed = min(count, len(self.threads))
            for _ in range(handed):
                self.jobs.put((job, outcomes))
            try:
                job()
            finally:
                errors = [outcomes.get() for _ in range(handed)]
            for error in errors:
                if error is not None:
                    raise error
        finally:
            self.held.release()

    def _serve(self):
        while True:
            job, outcomes = self.jobs.get()
            outcome = None
            try:
                job()
            except BaseException as err:  # raised by the bank's run
                outcome = err
            # Nothing of the bank stays here while this parks: the job, which
            # holds its blocks and rows, goes before the caller can have every
            # outcome, and an error, whose traceback holds the job's frame, after.
            del job
            outcomes.put(outcome)
            del outcome


_helpers = _Helpers()


def _renew_helpers():
    """In a fork child, where the parent's helpers do not run: none, and fresh locks."""
    global _helpers
    _helpers = _Helpers()


if hasattr(os, "register_at_fork"):  # not on Windows, which cannot fork
    os.register_at_fork(after_in_child=_renew_helpers)


def _wls_row(blocks: DataBlocks, diagonals: np.ndarray, W: np.ndarray) -> tuple[np.ndarray, int, float]:
    """Row i >= 2 of the WLS bank, whitened into the leading columns of the workspace W: gram_solve's answer.

    ``diagonals`` are the i diagonals of the row's T'T (:func:`_gram_diagonals`).
    """
    p, N, i = blocks.p, blocks.N, diagonals.size
    q = 2 * p + i
    # The lower band, Fortran-ordered as the kernel requires.
    L = np.empty((i, N), order="F")
    L[:] = diagonals[:, None]
    info = band_cholesky(L)
    if info != 0:
        raise RankError(f"noise weighting Gram is not positive definite at row {i} (dpbtrf info {info})")
    unit = i - 1 < _UNSCALED_BAND
    if unit:
        # L^(-1) X = (D^(-1) L)^(-1) (D^(-1) X), D = diag(L): the sweep on the
        # unit-diagonal factor makes no division on its critical path.  D is
        # read 2(p + i) times, faster from a copy than from the band's strided row.
        d = L[0].copy()
        for k in range(1, i):
            L[k, : N - k] /= d[k:]
    # Through the transposes, each window column is read and written in
    # one contiguous pass (the untransposed views stride across W).
    for window, out in (
        (blocks.Y[:, :p].T, W[:, :p].T),
        (blocks.U[:, : p + i].T, W[:, p:q].T),
        (blocks.Y[:, p + i - 1], W[:, q]),
    ):
        if unit:
            np.divide(window, d, out=out)
        else:
            out[...] = window
    band_lower_solve(L, W[:, : q + 1], unit)
    return gram_solve(W[:, : q + 1], q)


def parsim_wls(blocks: DataBlocks, h: InnovationsMarkov) -> RangeEstimate:
    """Row-wise weighted least-squares bank.

    Uses the inverse of the row noise covariance T'T as the weighting;
    the innovations variance cancels and is never applied.  Row i factors
    the band of T'T = L L' (bandwidth i - 1) in place, once,
    whitens [Z' y'] with one banded triangular sweep into the leading
    q + 1 columns of its thread's N x (2p + f + 1) workspace,
    W = L^(-1) [Z' y'], and solves the normal equations of the
    small Gram W'W; the N x N inverse is never formed.  A row of
    bandwidth below ``_UNSCALED_BAND`` (12) sweeps the unit-diagonal
    D^(-1) L (D = diag(L)) over the columns divided by D, which is the
    same L^(-1) [Z' y'] with no division on its critical path; a wider
    row sweeps L itself over the columns as they are, where the divisions
    would cost more than they save.  :func:`_lstsq.gram_solve` takes the
    Gram's eigenvalues (the singular values lstsq would find), returns its
    rank and condition as ``gram_rank`` and ``gram_cond``, and solves a
    full-rank Gram by Cholesky with one refinement step against W, which
    brings the row to the accuracy of a QR solve of the whitened design; a
    rank-deficient one, or one whose Cholesky factorization fails, is
    solved by lstsq for the minimum-norm answer.
    Row 1 has white row noise and coincides with the OLS row.

    Rows 2..f are independent.  The calling thread computes the band
    diagonals of every row first; then the rows are taken heaviest first
    (row f) by the calling thread and by helper threads, one thread per
    usable CPU and at most one per row; a ``multiprocessing`` child, or a
    bank whose heaviest sweep is below ``_THREADED_SWEEP``, runs on one.
    The helpers are daemon threads of the process: the first threaded
    bank starts them, they park on one job queue between banks, and the
    call returns once each has handed back the outcome of its job, so no
    thread works on the bank after it.  A bank that finds them held by
    another thread's bank runs on its calling thread alone, and one whose
    helper cannot start runs on the threads that did.  A fork child
    starts its own.  Each thread owns one workspace.  A row
    holds the interpreter lock only between its calls: its LAPACK calls
    run without it (the ``_lstsq`` module docstring), and numpy's
    whitening copies and matmuls release it.  Each row is computed by one
    thread on the same operands, so the estimate does not depend on the
    thread count.

    Args:
        blocks: Data blocks.
        h: Innovations Markov parameters H_1..H_{f-1}; parameters beyond
            the available length are treated as zero.

    Raises:
        ConfigError: If h is not an InnovationsMarkov.
        RankError: If a row's banded Cholesky factorization fails (guarded;
            cannot occur for finite weights since H_0 = 1).  A failing row
            raises once every helper's outcome is in; of several, the
            lowest-numbered row's error is raised.
    """
    if not isinstance(h, InnovationsMarkov):
        raise ConfigError(f"weighting must be an InnovationsMarkov, got {type(h).__name__}")
    p, f, N = blocks.p, blocks.f, blocks.N
    todo = list(range(2, f + 1))  # popped from the end: row f first
    diagonals = dict(zip(todo, _gram_diagonals(h.h, todo)))
    done = [None] * (f + 1)
    lock = threading.Lock()

    def work():
        # Row i whitens [Y_p' U_p' U_i' y_i'] into W's leading 2p + i + 1 columns.
        W = np.empty((N, 2 * p + f + 1), order="F")
        while True:
            with lock:
                if not todo:
                    return
                i = todo.pop()
            try:
                done[i] = _wls_row(blocks, diagonals[i], W)
            except Exception as err:  # raised below, once every helper is parked
                done[i] = err

    _helpers.run(work, _bank_threads(blocks) - 1)
    rows = done[2:]
    for row in rows:
        if isinstance(row, Exception):
            raise row
    thetas = [blocks.ls.regress(2 * p + 1, blocks.ls.k), *(theta for theta, _, _ in rows)]
    return _bank_estimate(
        thetas, blocks, gram_rank=tuple(rank for _, rank, _ in rows), gram_cond=tuple(cond for _, _, cond in rows)
    )


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
    ``g_rows`` is empty.  ``pm`` holds at least f - 1 parameters:
    :func:`realization.identify` fits order max(p, f - 1).
    """
    f = blocks.f
    G_bar = toeplitz(np.r_[0.0, pm.g_bar[: f - 1]], np.zeros(f))
    H_bar = toeplitz(np.r_[0.0, pm.h_bar[: f - 1]], np.zeros(f))
    # Columns 2p.. of [X | T] are U_f then Y_f.
    coef = blocks.ls.regress(2 * blocks.p, slice(2 * blocks.p, None)).T
    gamma_lp = (np.eye(f) - H_bar) @ coef[f:] - G_bar @ coef[:f]
    return RangeEstimate(gamma_lp=gamma_lp, g_rows=())
