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
every method identifying a record reads the same one.  A triangle with
rows appended (``NestedLstsq.appended``) has a taller design's Gram, so
its R is that design's up to row signs, and stands in for it given the
design's row count m, which sets the cutoff and the certificate.

:func:`gram_solve` answers the same minimum-norm question on the Gram
G = W'W of a tall W, whose eigenvalues are the singular values of the
system G[:q, :q] theta = G[:q, q], and refines a full-rank solve against W.
Every rank of the pipeline is :func:`numerical_rank`'s, by lstsq's cutoff,
and every fit that needs full column rank is :func:`full_rank_lstsq`'s.
The kernels' own failures (a zero pivot on the triangular path, a Gram
whose eigenvalues do not converge) raise RankError; a LinAlgError from
numpy itself is left to the caller's stage (``errors._stage``).

The WLS bank's five LAPACK routines run without the interpreter lock, so
the bank's rows run on several threads at once: :func:`band_cholesky`
(``dpbtrf``), :func:`band_lower_solve` (``dtbtrs``), and, inside
:func:`gram_solve`, :func:`symmetric_eigenvalues` (``dsyev``),
:func:`cholesky` (``dpotrf``) and :func:`cholesky_solve` (``dpotrs``).
scipy's f2py wrappers of them hold the lock for the whole call, so each
is called by ``ctypes``, which releases it, through the function pointer
that ``scipy.linalg.cython_lapack`` exports, whose C signature is checked
against the declared one at import.  They pass the arguments scipy's
wrapper passes, so their results are that wrapper's bits.  Every operand
has one format, which :func:`_address` checks before any call: a writable,
Fortran-contiguous, non-empty float64 matrix whose leading dimension is
its row count, such as a Fortran array's leading columns or ``x[:, None]``
of a vector; any other operand is a ValueError.
"""

import ctypes
import re

import numpy as np
from scipy.linalg import cython_lapack
from scipy.linalg.lapack import dgeqrt, dlange, dtpqrt, dtrtri, dtrtrs

from .errors import RankError

_EPS = np.finfo(float).eps
_TINY, _HUGE = np.finfo(float).tiny, np.finfo(float).max
_F64 = np.dtype(np.float64)

_name_of = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(("PyCapsule_GetName", ctypes.pythonapi))
_pointer_of = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
    ("PyCapsule_GetPointer", ctypes.pythonapi)
)
# The C parameter types of the routines called, and their ctypes argument
# types: a character is passed as bytes, an integer or a double by its
# address, a Python int.
_C, _I, _D = "char *", "int *", "double *"
_C_PARAMS = {_C: ctypes.c_char_p, _I: ctypes.c_void_p, _D: ctypes.c_void_p}


def _lapack(name: str, *params: str):
    """LAPACK routine ``name`` of the C parameter types ``params`` as a ctypes function, from ``scipy.linalg.cython_lapack``.

    The capsule that scipy exports is named by the routine's C signature,
    read from the capsule itself, so no library or symbol name is
    involved.  That signature, with Cython's typedef of double spelt
    ``double``, must read ``void (params)``: any other raises ImportError,
    so a changed ABI fails at import instead of writing through a wrong
    pointer.  A ctypes call releases the interpreter lock and checks
    nothing: the callers check every operand.
    """
    capsule = cython_lapack.__pyx_capi__[name]
    signature = _name_of(capsule)
    declared = f"void ({', '.join(params)})"
    if re.sub(r"__pyx_t_\w*_d \*", "double *", signature.decode()) != declared:
        raise ImportError(f"scipy.linalg.cython_lapack.{name} is {signature.decode()!r}, not {declared!r}")
    return ctypes.CFUNCTYPE(None, *(_C_PARAMS[p] for p in params))(_pointer_of(capsule, signature))


_DPBTRF = _lapack("dpbtrf", _C, _I, _I, _D, _I, _I)
_DTBTRS = _lapack("dtbtrs", _C, _C, _C, _I, _I, _I, _D, _I, _D, _I, _I)
_DSYEV = _lapack("dsyev", _C, _C, _I, _D, _I, _D, _D, _I, _I)
_DPOTRF = _lapack("dpotrf", _C, _I, _D, _I, _I)
_DPOTRS = _lapack("dpotrs", _C, _I, _I, _D, _I, _D, _I, _I)

_INT = ctypes.sizeof(ctypes.c_int)
_BYTE = ctypes.c_char
_BAD_OPERAND = "LAPACK operands must be writable, Fortran-contiguous, non-empty float64 matrices of the routine's shape"


def _ints(*values):
    """C ints holding ``values`` and a zeroed info after them, and the address of each (the info's last)."""
    ints = (ctypes.c_int * (len(values) + 1))(*values)
    at = ctypes.addressof(ints)
    return ints, range(at, at + _INT * len(ints), _INT)


def _info(routine: str, ints) -> int:
    """LAPACK's info, the last of ``ints``; ValueError if it names an illegal argument."""
    info = ints[-1]
    if info < 0:
        raise ValueError(f"{routine}: illegal value in argument {-info}")
    return info


def _address(a: np.ndarray, rows: int | None = None, square: bool = False) -> int:
    """Buffer-protocol address of ``a`` if it is an operand of the lock-free routines; ValueError otherwise.

    An operand is a writable, Fortran-contiguous, non-empty float64
    matrix, so its leading dimension is its row count; ``rows`` and
    ``square`` add the routine's shape rule.
    """
    if (
        a.dtype != _F64
        or a.ndim != 2
        or not a.size
        or not (a.flags.f_contiguous and a.flags.writeable)
        or (square and a.shape[0] != a.shape[1])
        or (rows is not None and a.shape[0] != rows)
    ):
        raise ValueError(_BAD_OPERAND)
    return ctypes.addressof(_BYTE.from_buffer(a.T))


def band_cholesky(ab: np.ndarray) -> int:
    """LAPACK ``dpbtrf`` on the lower band ``ab`` of a symmetric matrix, in place: ab becomes L's band.

    ``ab`` is the (kd + 1, n) lower-band storage (row d holds diagonal d).
    Returns LAPACK's info: 0, or k > 0 if the leading minor of order k is
    not positive definite.
    """
    at = _address(ab)
    ints, (n, kd, ldab, info) = _ints(ab.shape[1], ab.shape[0] - 1, ab.shape[0])
    _DPBTRF(b"L", n, kd, at, ldab, info)
    return _info("dpbtrf", ints)


def band_lower_solve(ab: np.ndarray, b: np.ndarray, unit: bool = True) -> int:
    """LAPACK ``dtbtrs``: b := L^(-1) b in place, L lower-triangular with the band ``ab``.

    ``ab`` is a lower band as :func:`band_cholesky` takes it; ``b`` is
    (n, nrhs).  With ``unit`` L has a unit diagonal and the band's
    diagonal row is not read (diag ``U``); without it L is the band as it
    stands (diag ``N``), such as :func:`band_cholesky`'s factor.  Returns
    LAPACK's info: 0, or k > 0 if a non-unit L's diagonal k is zero.
    """
    at = _address(ab)
    size = ab.shape[1]
    bt = _address(b, size)
    ints, (n, kd, nrhs, ldab, ldb, info) = _ints(size, ab.shape[0] - 1, b.shape[1], ab.shape[0], size)
    _DTBTRS(b"L", b"N", b"U" if unit else b"N", n, kd, nrhs, at, ldab, bt, ldb, info)
    return _info("dtbtrs", ints)


def symmetric_eigenvalues(a: np.ndarray) -> tuple[np.ndarray, int]:
    """LAPACK ``dsyev`` without vectors on the upper triangle of the square ``a``: (eigenvalues, info).

    The routine overwrites ``a``.  The call is scipy's
    ``dsyev(a, compute_v=0)`` (work of max(3n - 1, 1)), so the
    eigenvalues, ascending, are its bits.  info > 0 counts the
    off-diagonals that did not converge.
    """
    at = _address(a, square=True)
    size = a.shape[0]
    out = np.empty((size + max(3 * size - 1, 1), 1))  # the eigenvalues, then the work
    ints, (n, lda, lwork, info) = _ints(size, size, out.size - size)
    w = _address(out)
    _DSYEV(b"N", b"U", n, at, lda, w, w + 8 * size, lwork, info)
    return out[:size, 0], _info("dsyev", ints)


def cholesky(a: np.ndarray) -> int:
    """LAPACK ``dpotrf`` on the lower triangle of the square ``a``, in place: it becomes L's, A = L L'.

    The strict upper triangle is not read or written.  Returns LAPACK's
    info: 0, or k > 0 if the leading minor of order k is not positive
    definite.
    """
    at = _address(a, square=True)
    ints, (n, lda, info) = _ints(a.shape[0], a.shape[0])
    _DPOTRF(b"L", n, at, lda, info)
    return _info("dpotrf", ints)


def cholesky_solve(c: np.ndarray, b: np.ndarray) -> int:
    """LAPACK ``dpotrs``: b := A^(-1) b in place, with A = L L' and L the lower triangle of the square ``c``.

    ``c`` is as :func:`cholesky` leaves it, and only read; ``b`` is
    (n, nrhs).  Returns LAPACK's info, 0.
    """
    ct = _address(c, square=True)
    size = c.shape[0]
    bt = _address(b, size)
    ints, (n, nrhs, lda, ldb, info) = _ints(size, b.shape[1], size, size)
    _DPOTRS(b"L", n, nrhs, ct, lda, bt, ldb, info)
    return _info("dpotrs", ints)


def numerical_rank(s: np.ndarray, m: int, n: int) -> int:
    """Count of the singular values ``s`` of an (m, n) matrix above lstsq's cutoff eps * max(m, n) * s_max."""
    return int(np.count_nonzero(s > _EPS * max(m, n) * s.max()))


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

    ``m`` is the design's row count.  :meth:`appended` makes one from a
    triangular factor and rows to append, which stands in for a taller
    design with the same Gram and is given that design's m.
    """

    def __init__(self, A: np.ndarray, k: int):
        # dgeqrt, the compact-WY QR with recursive panels (Elmroth & Gustavson
        # 2000), in blocks of nb = 8 columns.  On the library's designs, about
        # 1000-2000 rows by 15-86 columns, it takes 0.44-0.57x the time of
        # dgeqrf, whose panel step is level-2, from 31 columns up and
        # 0.64-0.97x below; R agrees with dgeqrf's to about 1e-16.  A
        # Fortran-ordered float64 A is factored in place, so the caller's
        # buffer is overwritten; any other A is copied first.
        qr = dgeqrt(min(8, *A.shape), A, overwrite_a=True)[0]
        self._hold(np.triu(qr[: qr.shape[1]]), k, A.shape[0])

    @classmethod
    def appended(cls, R: np.ndarray, rows: np.ndarray, k: int, m: int) -> "NestedLstsq":
        """The factor of the stack [R; rows], for a square upper-triangular R, standing in for a design of m rows.

        LAPACK ``dtpqrt``, the triangular-pentagonal QR, appends the rows
        to R (the row-append update of Golub & Van Loan, section 12.5) in
        blocks of nb = 8 columns, as ``dgeqrt`` factors; it writes R's
        upper triangle only.  Fortran-ordered float64 R and rows are
        overwritten; any others are copied first.
        """
        R = dtpqrt(0, min(8, R.shape[1]), R, rows, overwrite_a=True, overwrite_b=True)[0]
        ls = cls.__new__(cls)
        ls._hold(np.ascontiguousarray(R), k, m)
        return ls

    def _hold(self, R: np.ndarray, k: int, m: int) -> None:
        """Keep the read-only R of a design of m rows whose first k columns are X, and decide X's rank."""
        self.m, self.k, self.R = m, k, R
        self.R.setflags(write=False)
        self.full_rank = certified_full_rank(R[:k, :k], m) or self.rank(slice(0, k)) == k

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
    solved by lstsq itself, which keeps the minimum-norm semantics.  Each
    routine takes its own Fortran copy of G[:q, :q] and runs without the
    interpreter lock (module docstring).
    """
    G = W.T @ W
    A, b = G[:q, :q], G[:q, q]
    ev, info = symmetric_eigenvalues(np.array(A, order="F"))
    if info != 0:
        raise RankError(f"Gram eigenvalues did not converge (dsyev info {info})")
    s = np.abs(ev)
    rank, s_min = numerical_rank(s, q, q), s.min()
    cond = float(s.max() / s_min) if s_min > 0 else float("inf")
    if rank == q:
        c = np.array(A, order="F")
        if cholesky(c) == 0:
            theta = np.array(b)
            cholesky_solve(c, theta[:, None])
            Wq = W[:, :q]
            step = Wq.T @ (W[:, q] - Wq @ theta)
            cholesky_solve(c, step[:, None])
            return theta + step, rank, cond
    return np.linalg.lstsq(A, b, rcond=None)[0], rank, cond
