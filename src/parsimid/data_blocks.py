"""Hankel data blocks of a record and their one QR factorization.

Given a record of length ``N_total`` and horizons ``f`` (future) and ``p``
(past), the blocks share N = N_total - f - p + 1 columns.  Column c of a
block collects one window of the record, so entry (r, c) of each block
depends only on r + c (constant anti-diagonals).  The past stack
``Z_p = [Y_p; U_p]`` is the regressor that summarizes the state.  Every
estimator regresses a block of the record on leading rows of the stack
[Y_p; U_p; U_f | Y_f], so one QR of that stack serves them all.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ._lstsq import _EPS, NestedLstsq
from .errors import ConfigError, ExcitationError
from .ss_model import SignalRecord

__all__ = ["DataBlocks", "build_hankel", "assemble_blocks"]


def build_hankel(signal, first_index: int, rows: int, cols: int) -> np.ndarray:
    """Hankel matrix with entry (r, c) = signal[first_index + r + c]."""
    sig = np.asarray(signal, dtype=float).ravel()
    if rows < 1 or cols < 1:
        raise ConfigError(f"rows and cols must be >= 1, got {rows}, {cols}")
    last = first_index + rows + cols - 2
    if first_index < 0 or last >= sig.size:
        raise IndexError(
            f"hankel window [{first_index}, {last}] out of range for signal of length {sig.size}"
        )
    return sliding_window_view(sig, cols)[first_index : first_index + rows].copy()


@dataclass(frozen=True)
class DataBlocks:
    """Past/future Hankel blocks of one record, prepared once per identify call.

    Column 0 of the future blocks sits at absolute time ``p``.  ``Y_p``,
    ``U_p``, ``Z_p`` and ``U_f`` are read-only row views of the regressor
    ``stack`` [Y_p; U_p; U_f]; row i (1-based) of a bank regresses
    ``Y_f[i-1]`` on its first 2p + i rows.  ``Y_f`` is a view of the output
    Hankel.  ``ls`` holds the QR of [stack' Y_f'], whose R factor answers
    every regression the estimators make and the W2 weighting.
    """

    stack: np.ndarray
    Y_p: np.ndarray
    U_p: np.ndarray
    Z_p: np.ndarray
    U_f: np.ndarray
    Y_f: np.ndarray
    ls: NestedLstsq
    f: int
    p: int
    N: int


def assemble_blocks(rec: SignalRecord, f: int, p: int) -> DataBlocks:
    """Build the data blocks of one record, whose input must be persistently exciting.

    Args:
        rec: Input/output record of length N_total >= f + p.
        f: Future horizon, >= 1.
        p: Past horizon, >= 1.

    Returns:
        DataBlocks with N = N_total - f - p + 1 columns; column 0 of the
        future blocks sits at absolute time ``p``.

    Raises:
        ConfigError: If the record is shorter than f + p.
        ExcitationError: If the input Hankel [U_p; U_f] has rank below f + p.
    """
    if f < 1 or p < 1:
        raise ConfigError(f"horizons must be >= 1, got f={f}, p={p}")
    n_total = len(rec)
    if n_total < f + p:
        raise ConfigError(
            f"record of length {n_total} too short: need at least f + p = {f + p} samples"
        )
    N = n_total - f - p + 1
    Y = build_hankel(rec.y, 0, f + p, N)
    stack = np.vstack([Y[:p], build_hankel(rec.u, 0, f + p, N)])
    ls = NestedLstsq(stack.T, Y[p:].T)
    # R's U_p and U_f columns have the singular values of the (f + p) x N input
    # Hankel; with N < f + p there are fewer than f + p of them.
    s = np.linalg.svd(ls.R[:, p : 2 * p + f], compute_uv=False)
    rank = int(np.sum(s > _EPS * max(f + p, N) * s[0]))
    if rank < f + p:
        raise ExcitationError(
            f"input is not persistently exciting of order {f + p} (rank {rank})"
        )
    for block in (Y, stack):
        block.setflags(write=False)
    return DataBlocks(
        stack=stack, Y_p=stack[:p], U_p=stack[p : 2 * p], Z_p=stack[: 2 * p],
        U_f=stack[2 * p :], Y_f=Y[p:], ls=ls, f=f, p=p, N=N,
    )
