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
    "hadamard",
    "unfold",
    "fold",
    "vec",
    "unvec",
    "dominant_left_singular_vector",
    "hosvd_rank1",
]

_ZERO_NORM = 1e-300


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

    @classmethod
    def from_vec(cls, flat, dims: Sequence[int]) -> "ComplexTensor":
        flat = np.asarray(flat, dtype=np.complex128).reshape(-1)
        dims = tuple(int(d) for d in dims)
        if flat.size != int(np.prod(dims)):
            raise ValueError(
                "flat length %d does not match dims %s" % (flat.size, (dims,))
            )
        return cls(flat.reshape(dims, order="F"))

    @property
    def dims(self) -> tuple:
        return self.data.shape

    @property
    def order(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def vec(self) -> np.ndarray:
        """Column-major vectorization (mode-1 index fastest)."""
        return self.data.reshape(-1, order="F").copy()

    def norm(self) -> float:
        return float(np.linalg.norm(self.data))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ComplexTensor)
            and self.dims == other.dims
            and bool(np.array_equal(self.data, other.data))
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ComplexTensor(dims={self.dims})"


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


def hadamard(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Element-wise product of two arrays of identical shape."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape:
        raise ValueError("shapes must match: %s vs %s" % (a.shape, b.shape))
    return a * b


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


def unvec(v: np.ndarray, rows: int, cols: int) -> np.ndarray:
    """Reassemble a rows x cols matrix from its column-major vectorization."""
    v = np.asarray(v).reshape(-1)
    if v.size != rows * cols:
        raise ValueError("vector length %d != %d x %d" % (v.size, rows, cols))
    return v.reshape(rows, cols, order="F")


# ------------------------------------------------------- rank-one routines #


def dominant_left_singular_vector(
    m: np.ndarray,
    counter: FlopCounter | None = None,
) -> tuple[np.ndarray, float | np.ndarray]:
    """Dominant left singular vector and singular value of a complex matrix,
    or of every matrix in a stack.

    Works on the smaller of the two Gram matrices instead of a full SVD;
    a stack forms all its Grams in one product and decomposes them in one
    ``np.linalg.eigh`` call.  Each returned vector has unit norm and its
    largest-modulus entry is made real and positive, which fixes the phase
    gauge deterministically.  With a degenerate leading singular value the
    eigenbasis column chosen is the first one holding the largest
    eigenvalue, so repeated calls agree bit for bit.

    Parameters
    ----------
    m : ndarray, shape (r, c) or (..., r, c)
    counter : FlopCounter, optional
        Charged for the Gram products (and the tall-case back-projections):
        a stack of B matrices costs B times one matrix.

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
    if counter is not None:
        counter.add(batch * (rows * cols * rows if wide else cols * rows * cols + rows * cols))
    w, basis = np.linalg.eigh(gram)
    pick = np.arange(batch)
    lead = np.argmax(w, axis=1)
    sigma_sq = w[pick, lead]
    # sigma^2 of a Gram is positive unless its matrix is zero (or underflows)
    if not sigma_sq.min() > 0.0:
        raise ValueError("dominant singular vector of a zero matrix is undefined")
    top = basis[pick, :, lead]                              # batch x (rows or cols)
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

    @property
    def dims(self) -> tuple:
        return tuple(len(v) for v in self.vectors)

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
        If ``x`` has (numerically) zero norm.
    """
    cur = _as_array(x)
    if not np.linalg.norm(cur) > _ZERO_NORM:
        raise ValueError("rank-one HOSVD of a zero tensor is undefined")
    vectors = tuple(
        dominant_left_singular_vector(unfold(cur, mode), counter)[0]
        for mode in range(1, cur.ndim + 1)
    )
    for v in vectors:
        if counter is not None:
            counter.add(cur.size)
        cur = np.tensordot(v.conj(), cur, axes=(0, 0))
    return RankOneFactors(vectors, complex(cur))
