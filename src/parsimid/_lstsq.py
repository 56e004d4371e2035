"""Least squares on nested regressor sets from one QR (Qin & Ljung, SYSID 2003).

With [X | T] = Q R, any column c of [X | T] regressed on the leading
columns X[:, :q] reduces to R[:q, :q] theta = R[:q, c] with residual
R[q:, c].  R[:q, :q] has the singular values of X[:, :q], so lstsq with the
cutoff eps * max(m, q) * s_max keeps the full problem's minimum-norm
solution.  If X clears its own cutoff, interlacing puts every leading
block above its cutoff too, and a triangular solve gives that same
solution.  X's full column rank is certified without an SVD, by the
bound cond(R11) <= ||R11||_F ||R11^(-1)||_F of a triangular inverse; only
a design that the bound cannot clear takes the SVD.  Likewise R[:, cols]
has the singular values of any set of design columns, so their numerical
rank needs no pass over the m rows.  ``NestedLstsq.regress`` reads every
such fit and ``NestedLstsq.rss`` every RSS; the designs and their rules
are the callers' (``data_blocks``, ``arx_pre``).  R is read-only, as
every method identifying a record reads the same one.  A smaller matrix
with a design's Gram has its R up to row signs, and stands in for it
given the design's row count m, which sets the cutoff and the certificate.

:func:`gram_solve` answers the same minimum-norm question on the Gram
G = W'W of a tall W, whose eigenvalues are the singular values of the
system G[:q, :q] theta = G[:q, q], and refines a full-rank solve against W.
Every rank of the pipeline is :func:`numerical_rank`'s, by lstsq's cutoff,
and every fit that needs full column rank is :func:`full_rank_lstsq`'s.
The kernels' own failures (a zero pivot on the triangular path, a Gram
whose eigenvalues do not converge) raise RankError; a LinAlgError from
numpy itself is left to the caller's stage (``errors._stage``).

:func:`band_cholesky` and :func:`band_lower_solve` call LAPACK ``dpbtrf``
and ``dtbtrs`` without holding the interpreter lock, so the WLS bank's
rows can run on several threads at once; scipy's own wrappers of the two
routines hold it.
"""

import ctypes

import numpy as np
from scipy.linalg import cython_lapack
from scipy.linalg.lapack import dgeqrt, dlange, dpotrf, dpotrs, dsyev, dtrtri, dtrtrs

from .errors import RankError

_EPS = np.finfo(float).eps
_TINY, _HUGE = np.finfo(float).tiny, np.finfo(float).max


def _lapack(name: str, *argtypes):
    """LAPACK routine ``name`` as a ctypes function, from the pointer ``scipy.linalg.cython_lapack`` exports.

    The capsule's name is its C signature, read from the capsule itself,
    so no library or symbol name is involved.  A ctypes call releases the
    interpreter lock and checks nothing: the callers check every operand.
    """
    capsule = cython_lapack.__pyx_capi__[name]
    name_of = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(("PyCapsule_GetName", ctypes.pythonapi))
    pointer = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
        ("PyCapsule_GetPointer", ctypes.pythonapi)
    )
    return ctypes.CFUNCTYPE(None, *argtypes)(pointer(capsule, name_of(capsule)))


_CHAR, _INT, _PTR = ctypes.c_char_p, ctypes.POINTER(ctypes.c_int), ctypes.c_void_p
_DPBTRF = _lapack("dpbtrf", _CHAR, _INT, _INT, _PTR, _INT, _INT)
_DTBTRS = _lapack("dtbtrs", _CHAR, _CHAR, _CHAR, _INT, _INT, _INT, _PTR, _INT, _PTR, _INT, _INT)


def _ints(*values):
    return [ctypes.byref(ctypes.c_int(v)) for v in values]


def _check_band(ab: np.ndarray) -> None:
    if ab.dtype != np.float64 or ab.ndim != 2 or not ab.flags.f_contiguous or ab.shape[0] < 1:
        raise ValueError("band must be a Fortran-contiguous float64 band of at least one row")


def band_cholesky(ab: np.ndarray) -> int:
    """LAPACK ``dpbtrf`` on the lower band ``ab`` of a symmetric matrix, in place: ab becomes L's band.

    ``ab`` is the (kd + 1, n) lower-band storage (row d holds diagonal d),
    Fortran-contiguous float64 and writable.  Returns LAPACK's info: 0, or
    k > 0 if the leading minor of order k is not positive definite.
    """
    _check_band(ab)
    if not ab.flags.writeable:
        raise ValueError("band must be writable")
    info = ctypes.c_int()
    _DPBTRF(b"L", *_ints(ab.shape[1], ab.shape[0] - 1), ab.ctypes.data, *_ints(ab.shape[0]), ctypes.byref(info))
    if info.value < 0:
        raise ValueError(f"dpbtrf: illegal value in argument {-info.value}")
    return info.value


def band_lower_solve(ab: np.ndarray, b: np.ndarray) -> int:
    """LAPACK ``dtbtrs``: b := L^(-1) b in place, L unit lower-triangular with the subdiagonals of ``ab``.

    ``ab`` is a lower band as :func:`band_cholesky` takes it (its
    diagonal row is not read); ``b`` is a writable float64 (n, nrhs)
    matrix with contiguous columns, such as leading columns of a Fortran
    array.  Returns LAPACK's info, which is 0 for a unit diagonal.
    """
    _check_band(ab)
    n = ab.shape[1]
    if (
        b.dtype != np.float64
        or b.ndim != 2
        or b.shape[0] != n
        or not b.flags.writeable
        or b.strides[0] != 8
        or (b.shape[1] > 1 and (b.strides[1] % 8 or b.strides[1] < 8 * n))
    ):
        raise ValueError(f"right-hand sides must be a writable float64 ({n}, nrhs) matrix with contiguous columns")
    ldb = b.strides[1] // 8 if b.shape[1] > 1 else max(1, n)
    info = ctypes.c_int()
    _DTBTRS(
        b"L", b"N", b"U", *_ints(n, ab.shape[0] - 1, b.shape[1]), ab.ctypes.data, *_ints(ab.shape[0]),
        b.ctypes.data, *_ints(ldb), ctypes.byref(info),
    )
    if info.value < 0:
        raise ValueError(f"dtbtrs: illegal value in argument {-info.value}")
    return info.value


def numerical_rank(s: np.ndarray, m: int, n: int) -> int:
    """Count of the singular values ``s`` of an (m, n) matrix above lstsq's cutoff eps * max(m, n) * s_max."""
    return int(np.sum(s > _EPS * max(m, n) * s.max()))


def certified_full_rank(R: np.ndarray, m: int) -> bool:
    """True if the (k, k) upper-triangular R of m rows certifiably clears lstsq's cutoff.

    cond(R) <= ||R||_F ||R^(-1)||_F (LAPACK ``dtrtri`` and ``dlange``), and
    the bound must sit a thousand times inside the cutoff 1 / (eps *
    max(m, k)), far beyond the rounding of the inverse and of an SVD.  A
    False is no verdict: m < k, a zero, subnormal or non-finite diagonal, a
    non-finite inverse or a bound near the cutoff all leave it to the SVD.
    """
    k = R.shape[1]
    if m < k:
        return False
    d = np.abs(np.diagonal(R))
    if not np.all((d >= _TINY) & (d <= _HUGE)):
        return False
    # R.T is the same triangle, lower and in Fortran order.
    inv, info = dtrtri(R.T, lower=1)
    if info != 0 or not np.isfinite(inv).all():
        return False
    # Python floats: an overflowing product is inf, with no warning.
    return float(dlange("F", R.T)) * float(dlange("F", inv)) * _EPS * max(m, k) <= 1e-3


def full_rank_lstsq(M: np.ndarray, T: np.ndarray, what: str) -> tuple[np.ndarray, float]:
    """lstsq's X and the RMS of M X - T; RankError "{what} has rank r < n" unless M's n columns have rank n."""
    X, _, rank, _ = np.linalg.lstsq(M, T, rcond=None)
    if rank < M.shape[1]:
        raise RankError(f"{what} has rank {rank} < {M.shape[1]}")
    return X, float(np.sqrt(np.mean((M @ X - T) ** 2)))


class NestedLstsq:
    """One QR (LAPACK ``dgeqrt``) of the (m, k + t) design A = [X | T], whose first k columns are X.

    ``m`` is the design's row count, A's own unless given: an A that stands
    in for a taller design with the same Gram is given the design's.
    """

    def __init__(self, A: np.ndarray, k: int, m: int | None = None):
        self.m, self.k = A.shape[0] if m is None else m, k
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
        self.full_rank = certified_full_rank(self.R[:k, :k], self.m) or self.rank(slice(0, k)) == k

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
                raise RankError(f"singular matrix: resolution failed at diagonal {info - 1}")
            return x
        return np.linalg.lstsq(R11, b, rcond=_EPS * max(self.m, q))[0]

    def rss(self, q: int) -> float:
        """RSS of the first target on X[:, :q]: at full rank, the squared norm of R's target below row q.

        Below full rank Q's first q columns span more than X[:, :q], so the
        minimum-norm fit's residual on R's first q rows is added.
        """
        tail = self.R[q:, self.k]
        if self.full_rank:
            return float(tail @ tail)
        r = self.R[:q, :q] @ self.regress(q, self.k) - self.R[:q, self.k]
        return float(r @ r + tail @ tail)


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
        raise RankError(f"Gram eigenvalues did not converge (dsyev info {info})")
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
