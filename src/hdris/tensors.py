"""Dense complex multiway arrays and the rank-one multilinear operations built on them.

Conventions used throughout:

* Flat storage is column-major: mode-1 index varies fastest.  All reshapes,
  vectorizations and tensorizations therefore use Fortran order.
* ``unfold(X, n)`` puts mode ``n`` on the rows and arranges the remaining
  modes along the columns in ascending mode order (the usual matricization
  convention in the multilinear-algebra literature).
* Modes are numbered from 1.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .flopcount import FlopCounter

__all__ = [
    "ComplexTensor",
    "RankOneFactors",
    "kron",
    "khatri_rao",
    "unfold",
    "fold",
    "vec",
    "dominant_left_singular_vector",
    "hosvd_rank1",
]


class ComplexTensor:
    """Immutable dense complex-valued multiway array.

    Parameters
    ----------
    data : array_like
        Values with one axis per mode.  Copied and cast to complex128; the
        stored array is marked read-only.
    """

    __slots__ = ("data",)

    def __init__(self, data) -> None:
        arr = np.array(data, dtype=np.complex128, copy=True)
        if arr.ndim < 1:
            raise ValueError("tensor must have order >= 1")
        if any(d < 1 for d in arr.shape):
            raise ValueError("all mode extents must be >= 1, got %s" % (arr.shape,))
        arr.setflags(write=False)
        object.__setattr__(self, "data", arr)

    def __setattr__(self, name, value):  # immutability guard
        raise AttributeError("ComplexTensor is immutable")

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ComplexTensor)
            and bool(np.array_equal(self.data, other.data))
        )


def _as_array(x) -> np.ndarray:
    if isinstance(x, ComplexTensor):
        return x.data
    return np.asarray(x)


# ---------------------------------------------------------------- products #


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product of two vectors or matrices (left operand varies slowest)."""
    return np.kron(np.asarray(a), np.asarray(b))


def khatri_rao(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Column-wise Kronecker product of two matrices with equal column counts."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.ndim != 2 or b.ndim != 2:
        raise ValueError("khatri_rao expects matrices, got %s and %s" % (a.shape, b.shape))
    if a.shape[1] != b.shape[1]:
        raise ValueError(
            "column counts must match: %d vs %d" % (a.shape[1], b.shape[1])
        )
    m, n = a.shape[0], b.shape[0]
    return (a[:, None, :] * b[None, :, :]).reshape(m * n, a.shape[1])


# ----------------------------------------------------- unfold / fold / vec #


def _check_mode(mode: int, order: int) -> None:
    if not 1 <= mode <= order:
        raise ValueError("mode %d out of range for order-%d tensor" % (mode, order))


def unfold(x: ComplexTensor | np.ndarray, mode: int) -> np.ndarray:
    """Mode-``mode`` matricization of a tensor or ndarray: extent of ``mode``
    on rows, remaining modes along columns in ascending order."""
    arr = _as_array(x)
    _check_mode(mode, arr.ndim)
    return np.moveaxis(arr, mode - 1, 0).reshape(arr.shape[mode - 1], -1, order="F")


def fold(m: np.ndarray, mode: int, dims: Sequence[int]) -> ComplexTensor:
    """Inverse of :func:`unfold` for the given target dims."""
    dims = tuple(int(d) for d in dims)
    _check_mode(mode, len(dims))
    m = np.asarray(m)
    rest = tuple(d for i, d in enumerate(dims) if i != mode - 1)
    if m.shape != (dims[mode - 1], int(np.prod(rest))):
        raise ValueError(
            "matrix shape %s does not match mode-%d unfolding of dims %s"
            % (m.shape, mode, (dims,))
        )
    arr = m.reshape((dims[mode - 1],) + rest, order="F")
    return ComplexTensor(np.moveaxis(arr, 0, mode - 1))


def vec(a) -> np.ndarray:
    """Column-major vectorization of a matrix or tensor."""
    arr = _as_array(a)
    return arr.reshape(-1, order="F").copy()


# ------------------------------------------------------- rank-one routines #

# A stack's trace-one Grams are squared at most this many times; a member
# whose leading eigenvalue gap exceeds ~5e-4 (relative) certifies within it.
_MAX_SQUARINGS = 16
# Certificate on 1 - ||A||_F^2 for a trace-one Hermitian PSD A: it equals
# sum_{i != j} mu_i mu_j >= 2 mu_1 (1 - mu_1), so at most ~5e-15 of A's
# eigenvalue mass lies off the leading eigenvector.
_CERTIFICATE_TOL = 1e-14


def _eigh_top(gram: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Leading eigenpair of each Gram of a stack: the first eigenbasis
    column holding the largest eigenvalue."""
    w, basis = np.linalg.eigh(gram)
    pick = np.arange(len(gram))
    lead = np.argmax(w, axis=1)
    return basis[pick, :, lead], w[pick, lead]


def _squared_top(
    gram: np.ndarray, trace: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Leading eigenpair of each Gram of a stack by repeated squaring.

    A = G / tr(G) is squared in two alternating buffers, A <- A^2 /
    tr(A^2), until every member meets the certificate 1 - ||A||_F^2 <=
    _CERTIFICATE_TOL or _MAX_SQUARINGS is reached.  A certified A is rank
    one to within the certificate: its largest-diagonal column is the
    leading eigenvector, and the vector's Rayleigh quotient on the Gram
    the eigenvalue.  Returns (vectors, eigenvalues, certified mask);
    entries of uncertified members are meaningless.
    """
    a = gram * (1.0 / trace)[:, None, None]
    spare = np.empty_like(a)
    for step in range(_MAX_SQUARINGS + 1):
        flat = a.reshape(len(a), -1).view(np.float64)
        mass = np.einsum("bi,bi->b", flat, flat)        # ||A||_F^2 = tr(A^2)
        certified = 1.0 - mass <= _CERTIFICATE_TOL
        if step == _MAX_SQUARINGS or certified.all():
            break
        np.matmul(a, a, out=spare)
        spare *= (1.0 / mass)[:, None, None]
        a, spare = spare, a
    pick = np.arange(len(a))
    col = np.argmax(np.diagonal(a, axis1=1, axis2=2).real, axis=1)
    x = a[pick, :, col]
    x /= np.linalg.norm(x, axis=1)[:, None]
    eig = np.einsum("bi,bi->b", x.conj(), (gram @ x[:, :, None])[:, :, 0]).real
    return x, eig, certified


def dominant_left_singular_vector(
    m: np.ndarray,
    counter: FlopCounter | None = None,
) -> tuple[np.ndarray, float | np.ndarray]:
    """Dominant left singular vector and singular value of a complex matrix,
    or of every matrix in a stack.

    Works on the smaller of the two Gram matrices instead of a full SVD.
    A single matrix (or a stack of one) decomposes its Gram with
    ``np.linalg.eigh``.  A stack of B > 1 forms all its Grams in one
    product and finds their leading eigenvectors by repeated squaring
    (power method, Golub & Van Loan, *Matrix Computations*, 8.2): each
    trace-one Gram A is squared, A <- A^2 / tr(A^2), until it certifies by
    1 - ||A||_F^2 <= 1e-14.  For a trace-one PSD A with eigenvalues mu_i
    that quantity is sum_{i != j} mu_i mu_j >= 2 mu_1 (1 - mu_1), so a
    certified A holds at most ~5e-15 of its eigenvalue mass off the
    leading eigenvector.  The vector is read off A's largest-diagonal
    column and the eigenvalue is its Rayleigh quotient on the Gram.
    Members still uncertified after 16 squarings (exact or near ties of
    the leading singular value) fall back to ``np.linalg.eigh`` and get
    its bits.

    Each returned vector has unit norm and its largest-modulus entry is
    made real and positive, which fixes the phase gauge deterministically.
    With a degenerate leading singular value the eigenbasis column chosen
    is the first one holding the largest eigenvalue, so repeated calls
    agree bit for bit.

    Parameters
    ----------
    m : ndarray, shape (r, c) or (..., r, c)
    counter : FlopCounter, optional
        Charged for the Gram products (and the tall-case back-projections):
        a stack of B matrices costs B times one matrix.  The eigensolver
        and the squarings are not charged.

    Returns
    -------
    u : ndarray, shape (r,) or (..., r)
    sigma : float, or ndarray of shape (...) for a stack

    Raises
    ------
    ValueError
        If any matrix of the stack is zero, or so small that its Gram
        underflows to zero.
    """
    m = np.asarray(m, dtype=np.complex128)
    if m.ndim < 2:
        raise ValueError("expected a matrix or a stack of matrices, got shape %s" % (m.shape,))
    rows, cols = m.shape[-2:]
    stack = m.reshape(-1, rows, cols)
    batch = len(stack)
    stack_h = stack.conj().transpose(0, 2, 1)
    wide = rows <= cols
    gram = stack @ stack_h if wide else stack_h @ stack
    del stack_h                 # freed before the squaring allocates its buffers
    if counter is not None:
        counter.add(batch * (rows * cols * rows if wide else cols * rows * cols + rows * cols))
    trace = np.trace(gram, axis1=1, axis2=2).real
    # the trace of a Gram is positive unless its matrix is zero (or underflows)
    if not trace.min() > 0.0:
        raise ValueError("dominant singular vector of a zero matrix is undefined")
    if batch == 1:
        top, sigma_sq = _eigh_top(gram)
    else:
        top, sigma_sq, certified = _squared_top(gram, trace)
        if not certified.all():
            rest = ~certified
            top[rest], sigma_sq[rest] = _eigh_top(gram[rest])
    pick = np.arange(batch)
    if wide:
        u = top
        sigma = np.sqrt(sigma_sq)
    else:
        mv = (stack @ top[:, :, None])[:, :, 0]
        sigma = np.linalg.norm(mv, axis=1)
        u = mv / sigma[:, None]
    modulus = np.abs(u)
    k = np.argmax(modulus, axis=1)
    u = u * (u[pick, k].conj() / modulus[pick, k])[:, None]
    if m.ndim == 2:
        return u[0], float(sigma[0])
    return u.reshape(m.shape[:-1]), sigma.reshape(m.shape[:-2])


@dataclass(frozen=True)
class RankOneFactors:
    """Rank-one multilinear decomposition: one unit vector per mode plus a
    complex amplitude.  ``reconstruct`` rebuilds core * v1 o v2 o ... o vN."""

    vectors: tuple
    core: complex

    def __post_init__(self):
        if len(self.vectors) < 1:
            raise ValueError("need at least one factor vector")
        for i, v in enumerate(self.vectors):
            nrm = np.linalg.norm(v)
            if abs(nrm - 1.0) > 1e-6:
                raise ValueError("factor vector %d is not unit norm (|v|=%g)" % (i + 1, nrm))

    def reconstruct(self) -> np.ndarray:
        return functools.reduce(np.multiply.outer, self.vectors) * self.core


def hosvd_rank1(
    x: ComplexTensor | np.ndarray,
    counter: FlopCounter | None = None,
) -> RankOneFactors:
    """Rank-one truncated higher-order SVD of ``x``, a ComplexTensor or an
    ndarray (a view such as a transposed array is read in place).

    Each mode's factor is the dominant left singular vector of that mode's
    unfolding; the amplitude is the tensor contracted with all factor vectors
    conjugated.

    Raises
    ------
    ValueError
        If ``x`` is zero (from :func:`dominant_left_singular_vector`).
    """
    cur = _as_array(x)
    vectors = tuple(
        dominant_left_singular_vector(unfold(cur, mode), counter)[0]
        for mode in range(1, cur.ndim + 1)
    )
    for v in vectors:
        if counter is not None:
            counter.add(cur.size)
        cur = np.tensordot(v.conj(), cur, axes=(0, 0))
    return RankOneFactors(vectors, complex(cur))
