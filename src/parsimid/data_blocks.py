"""Hankel data blocks of a record, as windows of its signals, and one QR of their design.

Given a record of length ``N_total`` and horizons ``f`` (future) and ``p``
(past), the blocks share N = N_total - f - p + 1 columns.  Column c of a
block collects one window of the record, so entry (r, c) of each block
depends only on r + c (constant anti-diagonals).  The past stack
``Z_p = [Y_p; U_p]`` is the regressor that summarizes the state.  Every
estimator regresses a block of the record on leading rows of
[Y_p; U_p; U_f], so one N x (2p + 2f) design [Y_p' U_p' U_f' Y_f'] and
one QR of it serve them all.  The design is built straight into the
buffer that the QR overwrites, and is not kept: the blocks keep the
record's windows, which hold every block without a copy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ._lstsq import NestedLstsq
from .errors import ConfigError, ExcitationError
from .ss_model import SignalRecord, _integer


def _hankel_design(Y: np.ndarray, U: np.ndarray, p: int) -> np.ndarray:
    """A new Fortran-ordered [Y_p' U_p' U_f' Y_f'] from the windows Y and U."""
    N, width = Y.shape
    design = np.empty((N, 2 * width), order="F")
    design[:, :p] = Y[:, :p]
    design[:, p : p + width] = U
    design[:, p + width :] = Y[:, p:]
    return design


@dataclass(frozen=True)
class DataBlocks:
    """Past/future Hankel blocks of one record, made once per (f, p) of a ``PreparedRecord``.

    ``Y`` and ``U`` are the read-only N x (f + p) windows of y and u: column
    r is Hankel row r, the samples r .. r + N - 1, so the first p columns
    are the past blocks' rows and the last f the future blocks' (column 0
    of the future blocks sits at absolute time ``p``).  Row i (1-based) of
    a bank regresses column 2p + f + i - 1 of the design [Y_p' U_p' U_f'
    Y_f'] on its first 2p + i columns.  ``ls`` holds the QR of the design
    with X = [Y_p' U_p' U_f'], whose R factor answers every regression the
    estimators make and the W2 weighting.
    """

    Y: np.ndarray
    U: np.ndarray
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
        ConfigError: If f or p is not an integer >= 1, or the record is shorter than f + p.
        ExcitationError: If the input Hankel [U_p; U_f] has rank below f + p.
    """
    f, p = _integer(f, "future horizon", 1), _integer(p, "past horizon", 1)
    n_total = len(rec)
    if n_total < f + p:
        raise ConfigError(
            f"record of length {n_total} too short: need at least f + p = {f + p} samples"
        )
    Y, U = (sliding_window_view(s, f + p) for s in (rec.y, rec.u))
    # NestedLstsq factors the new design in place, so it is never copied.
    ls = NestedLstsq(_hankel_design(Y, U, p), 2 * p + f)
    # The U_p and U_f columns are the (f + p) x N input Hankel; with N < f + p
    # it has fewer than f + p singular values.
    rank = ls.rank_below(slice(p, 2 * p + f), f + p)
    if rank is not None:
        raise ExcitationError(
            f"input is not persistently exciting of order {f + p} (rank {rank})"
        )
    return DataBlocks(Y=Y, U=U, ls=ls, f=f, p=p, N=n_total - f - p + 1)
