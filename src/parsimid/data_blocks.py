"""Hankel data blocks of a record, as one design matrix, and its one QR factorization.

Given a record of length ``N_total`` and horizons ``f`` (future) and ``p``
(past), the blocks share N = N_total - f - p + 1 columns.  Column c of a
block collects one window of the record, so entry (r, c) of each block
depends only on r + c (constant anti-diagonals).  The past stack
``Z_p = [Y_p; U_p]`` is the regressor that summarizes the state.  Every
estimator regresses a block of the record on leading rows of
[Y_p; U_p; U_f], so one N x (2p + 2f) design [Y_p' U_p' U_f' Y_f'] and
one QR of it serve them all.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ._lstsq import NestedLstsq
from .errors import ConfigError, ExcitationError
from .ss_model import SignalRecord, _integer

__all__ = ["DataBlocks", "assemble_blocks"]


@dataclass(frozen=True)
class DataBlocks:
    """Past/future Hankel blocks of one record, made once per (f, p) of a ``PreparedRecord``.

    ``design`` is the read-only, Fortran-ordered N x (2p + 2f) matrix
    [Y_p' U_p' U_f' Y_f']: its columns are the block rows, and column 0 of
    the future blocks sits at absolute time ``p``.  Row i (1-based) of a
    bank regresses column 2p + f + i - 1 on the first 2p + i columns.
    ``ls`` holds the QR of ``design`` with X = [Y_p' U_p' U_f'], whose R
    factor answers every regression the estimators make and the W2
    weighting.
    """

    design: np.ndarray
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
    N = n_total - f - p + 1
    # Window j of a signal is its Hankel row j: samples j .. j + N - 1.
    Y, U = (sliding_window_view(s, f + p) for s in (rec.y, rec.u))
    design = np.empty((N, 2 * (f + p)), order="F")
    design[:, :p] = Y[:, :p]
    design[:, p : 2 * p + f] = U
    design[:, 2 * p + f :] = Y[:, p:]
    design.setflags(write=False)
    ls = NestedLstsq(design.copy(order="F"), 2 * p + f)
    # The U_p and U_f columns are the (f + p) x N input Hankel; with N < f + p
    # it has fewer than f + p singular values.
    rank = ls.rank_below(slice(p, 2 * p + f), f + p)
    if rank is not None:
        raise ExcitationError(
            f"input is not persistently exciting of order {f + p} (rank {rank})"
        )
    return DataBlocks(design=design, ls=ls, f=f, p=p, N=N)
