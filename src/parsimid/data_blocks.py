"""Hankel data blocks and the future-input annihilating projector.

Given a record of length ``N_total`` and horizons ``f`` (future) and ``p``
(past), the blocks share N = N_total - f - p + 1 columns.  Column c of a
block collects one window of the record, so entry (r, c) of each block
depends only on r + c (constant anti-diagonals).  The past stack
``Z_p = [Y_p; U_p]`` is the regressor that summarizes the state.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ConfigError, ExcitationError
from .ss_model import SignalRecord

__all__ = [
    "DataBlocks",
    "Projector",
    "build_hankel",
    "assemble_blocks",
    "orth_projection_complement",
]


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
    Hankel, and ``Zp_perp`` is Z_p with the U_f row space projected out.
    """

    stack: np.ndarray
    Y_p: np.ndarray
    U_p: np.ndarray
    Z_p: np.ndarray
    U_f: np.ndarray
    Y_f: np.ndarray
    Zp_perp: np.ndarray
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
    # The tall transpose has the same singular values and cutoff; its SVD is up to 4x faster.
    rank = np.linalg.matrix_rank(stack[p:].T)
    if rank < f + p:
        raise ExcitationError(
            f"input is not persistently exciting of order {f + p} (rank {rank})"
        )
    Zp_perp = orth_projection_complement(stack[2 * p :]).apply(stack[: 2 * p])
    for block in (Y, stack, Zp_perp):
        block.setflags(write=False)
    return DataBlocks(
        stack=stack, Y_p=stack[:p], U_p=stack[p : 2 * p], Z_p=stack[: 2 * p],
        U_f=stack[2 * p :], Y_f=Y[p:], Zp_perp=Zp_perp, f=f, p=p, N=N,
    )


@dataclass(frozen=True)
class Projector:
    """Orthogonal projector onto the complement of the U_f row space.

    Stored as an orthonormal basis ``Q`` (columns) of the row space being
    annihilated, so X @ P = X - (X @ Q) @ Q.T can be applied without ever
    forming the N x N matrix.
    """

    basis: np.ndarray

    def apply(self, X: np.ndarray) -> np.ndarray:
        """Right-multiply by the projector: returns X @ P."""
        X = np.atleast_2d(np.asarray(X, dtype=float))
        return X - (X @ self.basis) @ self.basis.T


def orth_projection_complement(U_f) -> Projector:
    """Projector annihilating the row space of U_f.

    Computed from an orthogonal decomposition of U_f rather than the
    explicit inverse formula, which is the numerically robust route to
    I - U_f.T (U_f U_f.T)^(-1) U_f.

    Raises:
        ExcitationError: If U_f is row-rank deficient; no silent
            pseudo-inverse fallback is taken.
    """
    U = np.atleast_2d(np.asarray(U_f, dtype=float))
    rows, N = U.shape
    if rows > N:
        raise ConfigError(f"U_f has more rows ({rows}) than columns ({N})")
    _, s, Vt = np.linalg.svd(U, full_matrices=False)
    tol = np.finfo(float).eps * max(U.shape) * (s[0] if s.size else 0.0)
    rank = int(np.sum(s > tol))
    if rank < rows:
        raise ExcitationError(
            f"future input block is rank deficient ({rank} < {rows}): input is not persistently exciting"
        )
    basis = Vt[:rows].T.copy()
    basis.setflags(write=False)
    return Projector(basis=basis)
