"""Least squares on nested regressor sets from one QR (Qin & Ljung, SYSID 2003).

With [X | T] = Q R, any column c of [X | T] regressed on the leading
columns X[:, :q] reduces to R[:q, :q] theta = R[:q, c] with residual
R[q:, c].  R[:q, :q] has the singular values of X[:, :q], so lstsq with the
cutoff eps * max(m, q) * s_max keeps the full problem's minimum-norm
solution.  If X clears its own cutoff, interlacing puts every leading
block above its cutoff too, and a triangular solve gives that same
solution.  Likewise R[:, cols] has the singular values of any set of
design columns, so their numerical rank needs no pass over the m rows.
R is read-only, as every method identifying a record reads the same one.

:func:`gram_solve` answers the same minimum-norm question on the Gram
G = W'W of a tall W, whose eigenvalues are the singular values of the
system G[:q, :q] theta = G[:q, q], and refines a full-rank solve against W.
Every rank of the pipeline is :func:`numerical_rank`'s, by lstsq's cutoff,
and every fit that needs full column rank is :func:`full_rank_lstsq`'s.
"""

import numpy as np
from scipy.linalg.lapack import dgeqrt, dpotrf, dpotrs, dsyev, dtrtrs

from .errors import RankError

_EPS = np.finfo(float).eps


def numerical_rank(s: np.ndarray, m: int, n: int) -> int:
    """Count of the singular values ``s`` of an (m, n) matrix above lstsq's cutoff eps * max(m, n) * s_max."""
    return int(np.sum(s > _EPS * max(m, n) * s.max()))


def full_rank_lstsq(M: np.ndarray, T: np.ndarray, what: str) -> tuple[np.ndarray, float]:
    """lstsq's X and the RMS of M X - T; RankError "{what} has rank r < n" unless M's n columns have rank n."""
    X, _, rank, _ = np.linalg.lstsq(M, T, rcond=None)
    if rank < M.shape[1]:
        raise RankError(f"{what} has rank {rank} < {M.shape[1]}")
    return X, float(np.sqrt(np.mean((M @ X - T) ** 2)))


class NestedLstsq:
    """One QR (LAPACK ``dgeqrt``) of the (m, k + t) design A = [X | T], whose first k columns are X."""

    def __init__(self, A: np.ndarray, k: int):
        self.m, self.k = A.shape[0], k
        # dgeqrt, the compact-WY QR with recursive panels (Elmroth & Gustavson
        # 2000), in blocks of nb = 8 columns.  On the library's designs, about
        # 1000-2000 rows by 15-86 columns, it takes 0.44-0.57x the time of
        # dgeqrf, whose panel step is level-2, from 31 columns up and
        # 0.64-0.97x below; R agrees with dgeqrf's to about 1e-16.  A
        # Fortran-ordered float64 A is factored in place, so the caller's
        # buffer is overwritten; any other A is copied first.
        qr = dgeqrt(min(8, *A.shape), A, overwrite_a=True)[0]
        self.R = np.triu(qr[: qr.shape[1]])
        self.R.setflags(write=False)
        self.full_rank = self.rank(slice(0, k)) == k

    def rank(self, cols) -> int:
        """``np.linalg.matrix_rank`` of the design columns ``cols``, read from R."""
        Rc = self.R[:, cols]
        return numerical_rank(np.linalg.svd(Rc, compute_uv=False), self.m, Rc.shape[1])

    def rank_below(self, cols, need: int) -> int | None:
        """Rank of the X columns ``cols`` if below ``need``, else None; a full-rank X takes no SVD (interlacing)."""
        rank = need if self.full_rank else self.rank(cols)
        return rank if rank < need else None

    def regress(self, q: int, cols) -> np.ndarray:
        """Minimum-norm coefficients of the columns ``cols`` of [X | T] on X[:, :q]."""
        R11, b = self.R[:q, :q], self.R[:q, cols]
        if self.full_rank:
            # The LAPACK routine behind scipy's solve_triangular, called
            # without its argument checks, which cost several times the
            # solve at these sizes.  R is C-ordered, so R11.T is the
            # Fortran-ordered lower triangle and is passed without a copy.
            x, info = dtrtrs(R11.T, b, lower=1, trans=1)
            if info > 0:
                raise np.linalg.LinAlgError(f"singular matrix: resolution failed at diagonal {info - 1}")
            return x
        return np.linalg.lstsq(R11, b, rcond=_EPS * max(self.m, q))[0]

    def solve(self, q: int) -> tuple[np.ndarray, float]:
        """Minimum-norm coefficients and residual sum of squares of the first target on X[:, :q]."""
        c = self.k
        theta = self.regress(q, c)
        r = self.R[:q, :q] @ theta - self.R[:q, c]
        tail = self.R[q:, c]
        return theta, float(r @ r + tail @ tail)


def gram_solve(W: np.ndarray, q: int) -> tuple[np.ndarray, int, float]:
    """``np.linalg.lstsq(G[:q, :q], G[:q, q], rcond=None)`` on the Gram G = W'W: (theta, rank, cond).

    The singular values of the symmetric G[:q, :q] are the absolute values
    of its eigenvalues, which LAPACK ``dsyev`` computes without vectors in
    a fraction of the SVD's time.  The rank is their
    :func:`numerical_rank`, and cond is s_max / s_min (inf when s_min is
    0).  At full rank the Cholesky solve (``dpotrf``/``dpotrs``) gives the
    same solution, and one fixed-precision refinement step against W
    (Bjorck), theta += G^(-1) W_q'(w - W_q theta) with W_q = W[:, :q] and
    w = W[:, q], brings it to the accuracy of a QR solve of W_q theta = w.
    A rank-deficient Gram, or one whose Cholesky factorization fails, is
    solved by lstsq itself, which keeps the minimum-norm semantics.
    """
    G = W.T @ W
    A, b = G[:q, :q], G[:q, q]
    ev, _, info = dsyev(A, compute_v=0)
    if info != 0:
        raise np.linalg.LinAlgError(f"Gram eigenvalues did not converge (dsyev info {info})")
    s = np.abs(ev)
    rank, s_min = numerical_rank(s, q, q), s.min()
    cond = float(s.max() / s_min) if s_min > 0 else float("inf")
    if rank == q:
        c, info = dpotrf(A, lower=1, clean=0)
        if info == 0:
            theta = dpotrs(c, b, lower=1)[0]
            Wq = W[:, :q]
            return theta + dpotrs(c, Wq.T @ (W[:, q] - Wq @ theta), lower=1)[0], rank, cond
    return np.linalg.lstsq(A, b, rcond=None)[0], rank, cond
