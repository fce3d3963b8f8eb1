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

# The squaring cap, certificate and scale bound of :func:`psd_top`, whose
# docstring states what each one buys.
_MAX_SQUARINGS = 16
_CERTIFICATE_TOL = 1e-14
_SCALE_EXP = 40
# The one slab budget of a trial's transients, in entries (256 KiB of
# complex128): a quarter of a 16 x 16 surface's cascade, and all of the
# reference dims' cascade, so at those dims every slab loop runs once.
# Its users: hosvd_rank1's Gram loop, dominant_left_singular_vector's
# loop over a stack and metrics.nmse's loop over column slabs.
_GRAM_SLAB = 1 << 14


def eigh_top(gram: np.ndarray) -> np.ndarray:
    """Leading eigenvector of each Hermitian matrix of a (B, n, n) stack by
    ``np.linalg.eigh``: the first eigenbasis column holding the largest
    eigenvalue.  Returns (B, n) vectors of unit norm in eigh's own phase."""
    w, basis = np.linalg.eigh(gram)
    return basis[np.arange(len(gram)), :, np.argmax(w, axis=1)]


def _fix_phase(u: np.ndarray) -> np.ndarray:
    """Each row of a stack of vectors with its largest-modulus entry
    rotated onto the positive real axis (the first such entry on ties)."""
    modulus = np.abs(u)
    pick = np.arange(len(u))
    k = np.argmax(modulus, axis=1)
    return u * (u[pick, k].conj() / modulus[pick, k])[:, None]


def _tail_power(eps: float, n: int) -> int:
    """The tail power p of :func:`psd_top` for a trace-one n x n PSD A with
    1 - ||A||_F^2 = eps: the smallest p with 2 (s / (1 - s))^p <=
    _CERTIFICATE_TOL, or 0 when eps >= 1/2 or the column rule (s <= 1/(4n))
    does not hold."""
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


def psd_top(gram: np.ndarray, trace: float | np.ndarray) -> np.ndarray:
    """Unit leading eigenvector, in an arbitrary phase, of a Hermitian PSD
    n x n Gram of trace ``trace`` > 0, or of each Gram of a (B, n, n)
    stack with (B,) traces.  The caller's Gram is never written.

    Power method by repeated squaring (Golub & Van Loan, *Matrix
    Computations*, 8.2).  A = G / tr(G) is squared, A <- A^2 / tr(A^2),
    until it meets the certificate 1 - ||A||_F^2 <= 1e-14.  For a
    trace-one PSD A with eigenvalues mu_i that quantity is
    sum_{i != j} mu_i mu_j >= 2 mu_1 (1 - mu_1), so at most ~5e-15 of
    A's eigenvalue mass lies off the leading eigenvector.  The vector is
    A's largest-diagonal column, normalised.

    Tail.  The last squarings give way to matrix-vector products.  For
    eps = 1 - ||A||_F^2 < 1/2, s = (1 - sqrt(1 - 2 eps)) / 2 bounds
    1 - mu_1 (mu_1 >= ||A||_F^2 > 1/2 picks that root of eps >= 2 mu_1
    (1 - mu_1)), the other eigenvalues sum to at most s, and the
    normalised A^p has 1 - ||.||_F^2 <= 2 (s / (1 - s))^p.  Once the
    column rule holds, the column is multiplied by A another p - 1 times,
    for the smallest p that brings this bound to 1e-14
    (:func:`_tail_power`): the column of a matrix that meets the
    certificate, at n^2 per product instead of n^3 per squaring.

    Column rule: the tail starts only once s <= 1/(4n).  Then A's largest
    diagonal is at least mu_1 / n, and the leading eigenvector's entry at
    that column has squared modulus at least (3n - 1) / (2n (2n - 1)),
    about 3/(4n), against the ~1/n a column of the certified matrix is
    picked with; the vector's error bound (~5e-15 over that modulus)
    grows by at most sqrt(4/3) over a read-off after full squaring.  The
    rule also bounds p: s / (1 - s) <= 1 / (4n - 1), so p <= 17 at n = 2,
    14 at n = 3 and 8 at n = 16.

    A Gram still uncertified after _MAX_SQUARINGS = 16 squarings (an
    exact or near tie of its leading eigenvalue) falls back to
    :func:`eigh_top` and gets its bits.  The route follows ``gram.ndim``:

    * One Gram is normalised and squared by 2-D products: a stack of one
      pays more per squaring in batch overhead than a 16 x 16 product
      costs.
    * A stack is squared as a whole until every member certifies or its
      worst member's eps fixes the tail power.  It holds A as scale * a,
      one scale per member: the first squaring reads G itself (scale
      1 / tr G), tr(A^2) = ||A||_F^2 gives the next scale, and ||A||_F^2
      is read as scale^2 ||a||_F^2.  No pass normalises the stack unless a
      scale has left [2^-40, 2^40] when the mass is read; that keeps a
      square's entries below n 2^80 and 16 tail products within 2^+-700
      of the column they start from.  Its uncertified members fall back
      in one stacked ``eigh``.
    """
    power = 0                   # tail power once fixed, else 0: no products
    if gram.ndim == 2:
        a = gram * (1.0 / trace)
        for step in range(_MAX_SQUARINGS + 1):
            mass = np.vdot(a, a).real                   # ||A||_F^2 = tr(A^2)
            if 1.0 - mass <= _CERTIFICATE_TOL:
                break
            if step == _MAX_SQUARINGS:
                return eigh_top(gram[None])[0]
            power = _tail_power(1.0 - mass, len(a))
            if power:
                break
            a = a @ a
            a *= 1.0 / mass
        x = a[:, np.argmax(a.diagonal().real)]
        for _ in range(power - 1):
            x = a @ x
        return x / math.sqrt(np.vdot(x, x).real)
    a, scale = gram, 1.0 / trace
    spare = None                # a free buffer for the next square, once one exists
    for step in range(_MAX_SQUARINGS + 1):
        if scale.min() < 2.0 ** -_SCALE_EXP or scale.max() > 2.0 ** _SCALE_EXP:
            factor = scale[:, None, None]
            a = a * factor if a is gram else np.multiply(a, factor, out=a)
            scale = np.ones_like(scale)
        flat = a.reshape(len(a), -1).view(np.float64)
        mass = np.einsum("bi,bi->b", flat, flat) * (scale * scale)   # ||A||_F^2 = tr(A^2)
        certified = 1.0 - mass <= _CERTIFICATE_TOL
        if step == _MAX_SQUARINGS or certified.all():
            break
        power = _tail_power(1.0 - mass.min(), a.shape[-1])
        if power:
            certified[:] = True
            break
        squared = np.matmul(a, a, out=spare)
        spare = None if a is gram else a
        a, scale = squared, scale * scale / mass
    pick = np.arange(len(a))
    col = np.argmax(np.diagonal(a, axis1=1, axis2=2).real, axis=1)
    x = a[pick, :, col][:, :, None]
    y = np.empty_like(x)
    for _ in range(power - 1):
        np.matmul(a, x, out=y)
        x, y = y, x
    x = x[:, :, 0]
    x /= np.linalg.norm(x, axis=1)[:, None]
    if not certified.all():
        x[~certified] = eigh_top(gram[~certified])
    return x


def dominant_left_singular_vector(m: np.ndarray) -> np.ndarray:
    """Unit dominant left singular vector, in an arbitrary phase, of a
    complex matrix or of each matrix of a (B, r, c) stack.

    Works on the smaller of the two Gram matrices instead of a full SVD:
    the Gram (or every Gram of the stack) is formed in one product and its
    leading eigenvector found by one :func:`psd_top` call, which states
    its certificate and its ``eigh`` fallback for ties.  A tall matrix's
    vector is that eigenvector projected through the matrix and
    normalised.  With a degenerate leading singular value the eigenbasis
    column chosen is the first one holding the largest eigenvalue, so
    repeated calls agree bit for bit.

    A stack is fitted in slabs of _GRAM_SLAB // (r*c) members (at least
    one), each with its own Gram, squarings and fallback, so its
    transients stay within about four slabs of _GRAM_SLAB entries: the
    slab's conjugate or its Gram, and the two squaring buffers.  A stack
    that fits one slab, as at the reference dims, is one call.

    Its cost in complex MACs is :func:`gram_macs` per matrix; the
    squarings, the tail products and any fallback are not counted.

    Parameters
    ----------
    m : ndarray, shape (r, c) or (B, r, c)

    Returns
    -------
    u : ndarray, shape (r,) or (B, r)

    Raises
    ------
    ValueError
        If ``m`` is not 2-D or 3-D, or if any matrix is zero, so small
        that its Gram underflows to zero, or has a non-finite entry.
    """
    m = np.asarray(m, dtype=np.complex128)
    if not 2 <= m.ndim <= 3:
        raise ValueError("expected a matrix or a stack of matrices, got shape %s" % (m.shape,))
    if m.ndim == 3:
        step = max(1, _GRAM_SLAB // (m.shape[1] * m.shape[2]))
        if step < len(m):
            u = np.empty(m.shape[:2], dtype=np.complex128)
            for i in range(0, len(m), step):
                u[i:i + step] = dominant_left_singular_vector(m[i:i + step])
            return u
    wide = m.shape[-2] <= m.shape[-1]
    gram = m @ m.conj().swapaxes(-1, -2) if wide else m.conj().swapaxes(-1, -2) @ m
    trace = np.einsum("...ii->...", gram).real      # np.trace loops per member
    # a Gram's trace is > 0 unless its matrix is zero, underflows or has a NaN or inf
    if not trace.min() > 0.0:
        raise ValueError("singular vector of a zero matrix or a non-finite one is undefined")
    u = psd_top(gram, trace)
    if not wide:
        u = (m @ u[..., None])[..., 0]
        u /= np.linalg.norm(u, axis=-1, keepdims=True)
    return u


def gram_macs(rows: int, cols: int) -> int:
    """Complex MACs :func:`dominant_left_singular_vector` multiplies for one
    rows x cols matrix: the Gram r*c*r when the matrix is wide (r <= c),
    else c*r*c plus the r*c back-projection.  A stack costs this per
    member."""
    if rows <= cols:
        return rows * cols * rows
    return cols * rows * cols + rows * cols


@dataclass(frozen=True, eq=False)
class RankOneFactors:
    """Rank-one multilinear decomposition core * v1 o v2 o ... o vN: one unit
    vector per mode plus a complex amplitude, written out as a cascade only by
    :func:`channel.rank_one_cascade`.  The fit of a stack of B tensors holds
    (B, d) vector stacks, each row of unit norm, and a (B,) core.  Two
    compare equal only if identical."""

    vectors: tuple
    core: complex | np.ndarray

    def __post_init__(self):
        if len(self.vectors) < 1:
            raise ValueError("need at least one factor vector")
        for i, v in enumerate(self.vectors):
            for row in (v,) if v.ndim == 1 else v:          # each vector of a stack
                nrm = math.sqrt(np.vdot(row, row).real)
                if abs(nrm - 1.0) > 1e-6:
                    raise ValueError("factor vector %d is not unit norm (|v|=%g)" % (i + 1, nrm))


def hosvd_rank1(x: ComplexTensor | np.ndarray, *, stacked: bool = False) -> RankOneFactors:
    """Rank-one truncated higher-order SVD of ``x``, a ComplexTensor or an
    ndarray (a view such as a transposed array is copied C-ordered first),
    or, when ``stacked``, of each tensor x[b] of the stack ``x``.

    Each mode's factor is the dominant left singular vector of that mode's
    unfolding (De Lathauwer, De Moor & Vandewalle 2000, *A multilinear
    singular value decomposition*); the amplitude is the tensor contracted
    with all factor vectors conjugated.

    No unfolding is formed.  The tensor is held C-ordered (one copy unless
    it already is).  Mode n of extent d is the middle axis of an (a, d, b)
    reshape, so its Gram is sum_a X[a] X[a]^H.  One loop forms it from
    slabs of at most _GRAM_SLAB entries (or one entry per row, if d
    exceeds that): a run of whole a indices while one index fits, else
    column slabs of one index.  The slab's d rows are read (a view when
    the slab is within one index or b == 1, else a copy of the slab) and
    one GEMM adds rows @ rows^H.  A stack is read the same way with every
    member's rows in the slab, one GEMM per member, so a stack of B
    tensors takes slabs B times narrower.  At the reference dims every
    mode is one slab, the whole tensor, or the whole stack of up to
    _GRAM_SLAB // size tensors.  So beyond a C-ordered input the fit
    holds at most two slabs at a time, a slab's copy and its conjugate,
    and then the amplitude's first contraction, 1/d of the input.

    All Grams of one size, of every member, go through one stacked
    ``eigh``.  A mode longer than the rest of the tensor together (d^2 >
    size) is handed to :func:`dominant_left_singular_vector` on its
    unfoldings, which works on the smaller Gram.  Each factor is then
    gauged by :func:`_fix_phase`, its largest-modulus entry made real and
    positive, so a global phase on ``x`` moves only the amplitude.  The
    amplitude is the tensor contracted with the conjugated factors by
    successive vector-matrix products.  Each member's factors and
    amplitude are its own fit's up to rounding: the stacked products may
    round differently from a single tensor's.

    Its cost in complex MACs is :func:`hosvd_rank1_macs`, what the
    per-unfolding fit multiplies, per member; the eigensolvers are not
    counted.

    Raises
    ------
    ValueError
        If ``x`` (any member of a stack) is zero (or its Grams underflow
        to zero) or non-finite.
    """
    undefined = "rank-one fit of a zero tensor or a non-finite one is undefined"
    data = np.ascontiguousarray(_as_array(x), dtype=np.complex128)
    batch = data.shape[:1] if stacked else ()         # the stack axis, if any
    shape = data.shape[len(batch):]
    size = math.prod(shape)
    count = math.prod(batch)                          # tensors fitted
    swap = tuple(range(len(batch))) + tuple(len(batch) + a for a in (1, 0, 2))
    vectors = [None] * len(shape)
    by_size = {}                    # Gram size -> [(mode index, Grams)]
    lead = 1                        # product of the extents before the mode
    for n, d in enumerate(shape):
        if d * d > size:
            unfoldings = [unfold(t, n + 1) for t in data.reshape((-1,) + shape)]
            try:
                u = dominant_left_singular_vector(np.stack(unfoldings))
            except ValueError as exc:
                raise ValueError(undefined) from exc
            vectors[n] = _fix_phase(u).reshape(batch + (d,))
        else:
            x4 = data.reshape(batch + (lead, d, -1))
            trail = x4.shape[-1]
            step = max(1, _GRAM_SLAB // (count * d * trail))    # a indices per slab
            width = max(1, _GRAM_SLAB // (count * d))           # columns per slab
            gram = 0
            for i in range(0, lead, step):
                for j in range(0, trail, width):
                    rows = x4[..., i:i + step, :, j:j + width].transpose(swap)
                    rows = rows.reshape(batch + (d, -1))
                    gram = gram + np.matmul(rows, rows.conj().swapaxes(-1, -2))
            by_size.setdefault(d, []).append((n, gram))
        lead *= d
    for d, members in by_size.items():
        grams = np.stack([gram for _, gram in members]).reshape(-1, d, d)
        # a Gram's trace is the tensor's squared norm
        if not np.einsum("bii->b", grams).real.min() > 0.0:
            raise ValueError(undefined)
        top = _fix_phase(eigh_top(grams)).reshape((len(members),) + batch + (d,))
        for (n, _), v in zip(members, top):
            vectors[n] = v
    cur = data.reshape(batch + (-1,))
    for v in vectors:
        cur = (v.conj()[..., None, :] @ cur.reshape(batch + (v.shape[-1], -1)))[..., 0, :]
    core = cur[..., 0]
    return RankOneFactors(tuple(vectors), core if stacked else complex(core))


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
