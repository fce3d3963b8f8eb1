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
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = [
    "ComplexTensor",
    "RankOneFactors",
    "kron",
    "khatri_rao",
    "unfold",
    "fold",
    "vec",
    "dominant_left_singular_vector",
    "eigh_top",
    "psd_top",
    "gram_macs",
    "hosvd_rank1",
    "hosvd_rank1_macs",
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
    """Kronecker product of two vectors or matrices (left operand varies slowest).

    Formed as one broadcast outer product and a reshape, so every entry is
    the single product a[i, j] * b[k, l] that ``np.kron`` computes, without
    its general-rank bookkeeping.  As in ``np.kron``, a vector paired with a
    matrix counts as a row.
    """
    a, b = np.asarray(a), np.asarray(b)
    if not (1 <= a.ndim <= 2 and 1 <= b.ndim <= 2):
        raise ValueError("kron expects vectors or matrices, got %s and %s" % (a.shape, b.shape))
    if a.ndim == b.ndim == 1:
        return np.multiply.outer(a, b).reshape(-1)
    a, b = np.atleast_2d(a, b)
    (m, n), (p, q) = a.shape, b.shape
    return np.multiply.outer(a, b).transpose(0, 2, 1, 3).reshape(m * p, n * q)


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
# hosvd_rank1 forms the Gram of a mode with more than one entry before it
# and at most this many after it by one GEMM over its rows: with so short
# a trailing axis, a batched product pays more per slice than the
# transposed copies cost.
_GRAM_COPY_MAX_TRAIL = 16


def eigh_top(gram: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Leading eigenpair of each Hermitian matrix of a (B, n, n) stack by
    ``np.linalg.eigh``: the first eigenbasis column holding the largest
    eigenvalue, and that eigenvalue.  Returns (B, n) vectors of unit norm
    in eigh's own phase, and (B,) eigenvalues."""
    w, basis = np.linalg.eigh(gram)
    pick = np.arange(len(gram))
    lead = np.argmax(w, axis=1)
    return basis[pick, :, lead], w[pick, lead]


def _fix_phase(u: np.ndarray) -> np.ndarray:
    """Each row of a stack of vectors with its largest-modulus entry
    rotated onto the positive real axis (the first such entry on ties)."""
    modulus = np.abs(u)
    pick = np.arange(len(u))
    k = np.argmax(modulus, axis=1)
    return u * (u[pick, k].conj() / modulus[pick, k])[:, None]


def _tail_power(eps: float, n: int) -> int:
    """Power p of a trace-one n x n PSD A with 1 - ||A||_F^2 = eps whose
    normalised A^p meets the certificate, or 0 when the tail may not start.

    With s = (1 - sqrt(1 - 2 eps)) / 2, written without cancellation:
    eps >= 2 mu_1 (1 - mu_1), and mu_1 >= ||A||_F^2 = 1 - eps > 1/2 when
    eps < 1/2 picks the root 1 - mu_1 <= s.  The other eigenvalues then
    sum to at most s, so 1 - ||A^p / tr A^p||_F^2 <= 2 (s / (1 - s))^p and p
    is the smallest power that brings this to _CERTIFICATE_TOL.  No tail
    when eps >= 1/2 (no bound) or when s > 1/(4n) (the column rule, see
    :func:`_squared_top`).  The column rule also bounds p: s / (1 - s) <=
    1 / (4n - 1), so p <= 17 at n = 2, 14 at n = 3 and 8 at n = 16.
    """
    if not eps < 0.5:
        return 0
    s = eps / (1.0 + math.sqrt(1.0 - 2.0 * eps))
    if s > 0.25 / n:
        return 0
    ratio = s / (1.0 - s)
    power = 1
    while 2.0 * ratio ** power > _CERTIFICATE_TOL:
        power += 1
    return power


def _squared_top(
    gram: np.ndarray, trace: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Leading eigenpair of each Gram of a stack by repeated squaring with
    a matrix-vector tail.

    A = G / tr(G) is squared in two alternating buffers, A <- A^2 /
    tr(A^2), until every member meets the certificate 1 - ||A||_F^2 <=
    _CERTIFICATE_TOL, or until the worst member's eps = 1 - ||A||_F^2
    fixes a tail power p (:func:`_tail_power`), or _MAX_SQUARINGS is
    reached.  The vector is A's largest-diagonal column c, multiplied by A
    another p - 1 times (p = 1 for a certified A): the column c of A^p,
    whose normalised form meets the certificate for every member.  That
    costs n^2 per product instead of n^3 per squaring.

    Column rule: the tail starts only once s <= 1/(4n).  Then 1 - mu_1 <=
    s, A's largest diagonal is at least mu_1 / n, and the leading
    eigenvector's entry at c has squared modulus at least (3n - 1) /
    (2n (2n - 1)), about 3/(4n), against the ~1/n a column of the
    certified matrix is picked with; the vector's error bound (~5e-15
    over that modulus) grows by at most sqrt(4/3) over a read-off after
    full squaring.

    Returns (vectors, eigenvalues, certified mask); entries of uncertified
    members are meaningless.  The vector's Rayleigh quotient on the Gram is
    the eigenvalue.
    """
    a = gram * (1.0 / trace)[:, None, None]
    spare = np.empty_like(a)
    power = 0                   # tail power once fixed, else 0: no products
    for step in range(_MAX_SQUARINGS + 1):
        flat = a.reshape(len(a), -1).view(np.float64)
        mass = np.einsum("bi,bi->b", flat, flat)        # ||A||_F^2 = tr(A^2)
        certified = 1.0 - mass <= _CERTIFICATE_TOL
        if step == _MAX_SQUARINGS or certified.all():
            break
        power = _tail_power(1.0 - mass.min(), a.shape[-1])
        if power:
            certified[:] = True
            break
        np.matmul(a, a, out=spare)
        spare *= (1.0 / mass)[:, None, None]
        a, spare = spare, a
    pick = np.arange(len(a))
    col = np.argmax(np.diagonal(a, axis1=1, axis2=2).real, axis=1)
    x = a[pick, :, col][:, :, None]
    y = np.empty_like(x)
    for _ in range(power - 1):
        np.matmul(a, x, out=y)
        x, y = y, x
    x = x[:, :, 0]
    x /= np.linalg.norm(x, axis=1)[:, None]
    eig = np.einsum("bi,bi->b", x.conj(), (gram @ x[:, :, None])[:, :, 0]).real
    return x, eig, certified


def psd_top(gram: np.ndarray, trace: float) -> tuple[np.ndarray, float]:
    """Leading eigenpair of one Hermitian PSD n x n Gram of trace ``trace``
    > 0: the single-matrix twin of :func:`_squared_top`.

    The same certificate, tail rule and squaring cap, on 2-D products: a
    stack of one pays more per squaring in batch overhead than a 16 x 16
    product costs.  A Gram still uncertified after _MAX_SQUARINGS
    squarings (an exact or near tie of its leading eigenvalue) falls back
    to :func:`eigh_top` and gets its bits.  Returns a unit vector, in an
    arbitrary phase, and its Rayleigh quotient on the Gram.
    """
    a = gram * (1.0 / trace)
    power = 0                   # tail power once fixed, else 0: no products
    for step in range(_MAX_SQUARINGS + 1):
        mass = np.vdot(a, a).real                       # ||A||_F^2 = tr(A^2)
        if 1.0 - mass <= _CERTIFICATE_TOL:
            break
        if step == _MAX_SQUARINGS:
            v, lam = eigh_top(gram[None])
            return v[0], float(lam[0])
        power = _tail_power(1.0 - mass, len(a))
        if power:
            break
        a = a @ a
        a *= 1.0 / mass
    x = a[:, np.argmax(a.diagonal().real)]
    for _ in range(power - 1):
        x = a @ x
    x = x / math.sqrt(np.vdot(x, x).real)
    return x, float(np.vdot(x, gram @ x).real)


def dominant_left_singular_vector(m: np.ndarray) -> tuple[np.ndarray, float | np.ndarray]:
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

    The last squarings give way to a matrix-vector tail.  For the worst
    member's eps = 1 - ||A||_F^2 < 1/2, s = (1 - sqrt(1 - 2 eps)) / 2
    bounds 1 - mu_1, and the normalised A^p has 1 - ||.||_F^2 <= 2 (s /
    (1 - s))^p.  Once s <= 1/(4n) (the column rule, which keeps the read
    column's overlap with the leading eigenvector near a certified
    read's), the smallest p for which that bound reaches 1e-14 is at most
    17 (8 for n = 16), and the column is multiplied by A another p - 1
    times instead of squaring on: the
    column of a matrix that meets the certificate, at n^2 per product
    instead of n^3 (:func:`_squared_top`).  Members still uncertified
    after 16 squarings (exact or near ties of the leading singular value)
    fall back to ``np.linalg.eigh`` and get its bits.

    Each returned vector has unit norm and its largest-modulus entry is
    made real and positive, which fixes the phase gauge deterministically.
    With a degenerate leading singular value the eigenbasis column chosen
    is the first one holding the largest eigenvalue, so repeated calls
    agree bit for bit.

    Its cost in complex MACs is :func:`gram_macs` per matrix; the
    eigensolver, the squarings and the tail products are not counted.

    Parameters
    ----------
    m : ndarray, shape (r, c) or (..., r, c)

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
    trace = np.einsum("bii->b", gram).real          # np.trace loops per member
    # the trace of a Gram is positive unless its matrix is zero (or underflows)
    if not trace.min() > 0.0:
        raise ValueError("dominant singular vector of a zero matrix is undefined")
    if batch == 1:
        top, sigma_sq = eigh_top(gram)
    else:
        top, sigma_sq, certified = _squared_top(gram, trace)
        if not certified.all():
            rest = ~certified
            top[rest], sigma_sq[rest] = eigh_top(gram[rest])
    if wide:
        u = top
        sigma = np.sqrt(sigma_sq)
    else:
        mv = (stack @ top[:, :, None])[:, :, 0]
        sigma = np.linalg.norm(mv, axis=1)
        u = mv / sigma[:, None]
    u = _fix_phase(u)
    if m.ndim == 2:
        return u[0], float(sigma[0])
    return u.reshape(m.shape[:-1]), sigma.reshape(m.shape[:-2])


def gram_macs(rows: int, cols: int) -> int:
    """Complex MACs :func:`dominant_left_singular_vector` multiplies for one
    rows x cols matrix: the Gram r*c*r when the matrix is wide (r <= c),
    else c*r*c plus the r*c back-projection.  A stack costs this per
    member."""
    if rows <= cols:
        return rows * cols * rows
    return cols * rows * cols + rows * cols


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
            nrm = math.sqrt(np.vdot(v, v).real)
            if abs(nrm - 1.0) > 1e-6:
                raise ValueError("factor vector %d is not unit norm (|v|=%g)" % (i + 1, nrm))

    def reconstruct(self) -> np.ndarray:
        return functools.reduce(np.multiply.outer, self.vectors) * self.core


def hosvd_rank1(x: ComplexTensor | np.ndarray) -> RankOneFactors:
    """Rank-one truncated higher-order SVD of ``x``, a ComplexTensor or an
    ndarray (a view such as a transposed array is read in place).

    Each mode's factor is the dominant left singular vector of that mode's
    unfolding (De Lathauwer, De Moor & Vandewalle 2000, *A multilinear
    singular value decomposition*); the amplitude is the tensor contracted
    with all factor vectors conjugated.

    No unfolding is formed.  The tensor is held C-ordered (one copy unless
    it already is) and conjugated once.  Mode n of extent d is the middle
    axis of an (a, d, b) reshape, so its Gram is sum_a X[a] X[a]^H, formed
    by one of two routes that depend on the shape only:

    * b <= 16 with a > 1: one GEMM of the mode's d rows of length a * b
      with the conjugate rows, since a batch of many small slices pays
      more per-slice overhead than copying the rows costs.  For b == 1
      the rows of the tensor and of its conjugate are views; otherwise
      each is a transposed C-order copy, two temporaries the size of the
      tensor (2 x 64 KiB at the reference dims, 2 x 1 MiB at the 16 x 16
      surface);
    * otherwise a batched product summed over a (a single product for the
      first mode).

    All Grams of one size go through one stacked ``eigh``, and each factor
    gets the lead choice and phase gauge of
    :func:`dominant_left_singular_vector`.  A mode longer than the rest of
    the tensor together (d^2 > size) is handed to that function on its
    unfolding, which works on the smaller Gram.  The amplitude is the
    conjugate of the conjugated tensor contracted with the factors by
    successive matrix-vector products.

    Its cost in complex MACs is :func:`hosvd_rank1_macs`, what the
    per-unfolding fit multiplies; the eigensolvers are not counted.

    Raises
    ------
    ValueError
        If ``x`` is zero (or its Grams underflow to zero).
    """
    data = np.ascontiguousarray(_as_array(x), dtype=np.complex128)
    data_c = data.conj()
    size = data.size
    vectors = [None] * data.ndim
    by_size = {}                    # Gram size -> [(mode index, Gram)]
    lead = 1                        # product of the extents before the mode
    for n, d in enumerate(data.shape):
        if d * d > size:
            vectors[n] = dominant_left_singular_vector(unfold(data, n + 1))[0]
        else:
            x3, c3 = data.reshape(lead, d, -1), data_c.reshape(lead, d, -1)
            if lead > 1 and x3.shape[2] <= _GRAM_COPY_MAX_TRAIL:
                # the (d, a*b) rows (views when b == 1), then one GEMM
                rows = x3.transpose(1, 0, 2).reshape(d, -1)
                rows_c = c3.transpose(1, 0, 2).reshape(d, -1)
                gram = np.matmul(rows, rows_c.T)
            else:
                gram = np.matmul(x3, c3.transpose(0, 2, 1)).sum(axis=0)
            by_size.setdefault(d, []).append((n, gram))
        lead *= d
    for members in by_size.values():
        grams = np.stack([gram for _, gram in members])
        # a Gram's trace is the tensor's squared norm
        if not np.einsum("bii->b", grams).real.min() > 0.0:
            raise ValueError("rank-one fit of a zero tensor is undefined")
        top = _fix_phase(eigh_top(grams)[0])
        for (n, _), v in zip(members, top):
            vectors[n] = v
    cur = data_c.reshape(-1)
    for v in vectors:
        cur = v @ cur.reshape(len(v), -1)
    return RankOneFactors(tuple(vectors), complex(cur[0]).conjugate())


def hosvd_rank1_macs(shape: Sequence[int]) -> int:
    """Complex MACs :func:`hosvd_rank1` multiplies for a tensor of the given
    mode extents: each mode's Gram (:func:`gram_macs` of its unfolding,
    d * size unless the mode is the tall side), plus the size left before
    each contraction of the amplitude."""
    size = math.prod(shape)
    macs, left = 0, size
    for d in shape:
        macs += gram_macs(d, size // d) + left
        left //= d
    return macs
