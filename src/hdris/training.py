"""The pilot and surface-phase training design.

The pilot stage transmits one symbol block from the base-station array
while the surface cycles through a set of phase profiles, one per block.
The joint training operator is the Kronecker product of the profile
matrix with the pilot block.  It is never formed: it has orthonormal rows
whenever both factors do, so the matched filter applies the two factors
separately.  The factors are the leading rows of unitary DFT matrices, so
both have orthonormal rows exactly, and every profile entry has the same
modulus, whenever a design's sizes allow it: n_pilots >= n_bs and
n_blocks >= n_ris.  A design checks that one rule when it is made, so no
design of other sizes exists and nothing re-checks the factors.  The
profile product of a design (:meth:`TrainingDesign.block_product`) lives
beside those DFT rows: from ``FFT_MIN_BLOCKS`` blocks on it is an FFT
that relies on their sign and normalisation.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, fields

import numpy as np

from .channel import SystemDims

__all__ = [
    "FFT_MIN_BLOCKS",
    "TrainingInfeasibleError",
    "TrainingDesign",
    "make_training",
]

# Fewest blocks at which DFT profiles are applied by FFT instead of a dense
# product.  On 256 rows with one BLAS thread the two tie at 36-64 blocks
# and the FFT is 3-9x faster from 256 blocks up.
FFT_MIN_BLOCKS = 64


class TrainingInfeasibleError(ValueError):
    """The requested pilot budget cannot produce a row-orthonormal design."""


def _dft_rows(rows: int, points: int) -> np.ndarray:
    """First ``rows`` rows of the unitary ``points``-point DFT matrix,
    exp(-2 pi i n k / points) / sqrt(points), read-only."""
    grid = np.outer(np.arange(rows), np.arange(points))
    block = np.exp(-2j * np.pi * grid / points) / np.sqrt(points)
    block.setflags(write=False)
    return block


@dataclass(frozen=True, eq=False)
class TrainingDesign:
    """The DFT training design, described by its four sizes.

    Its two Kronecker factors, the pilot block ``bs_pilots`` (n_bs x
    n_pilots) and the surface profiles ``ris_phases`` (n_ris x n_blocks),
    are the leading rows of the unitary n_pilots- and n_blocks-point DFT.
    Each is built on its first read, read-only and owned by the design, so
    a sweep that applies the profiles by FFT never forms the n_ris x
    n_blocks matrix.  Two designs compare equal only when they are the
    same object.

    Every size is at least 1, and the design exists only where both
    factors have orthonormal rows: n_pilots >= n_bs and n_blocks >= n_ris,
    which also gives the pilot budget n_pilots*n_blocks >= n_bs*n_ris.
    Construction, :func:`make_training` and ``dataclasses.replace`` all
    check this before any factor is built, raising ``ValueError`` for a
    size below 1 and :class:`TrainingInfeasibleError` for a short budget."""

    n_bs: int
    n_pilots: int
    n_ris: int
    n_blocks: int

    def __post_init__(self):
        for f in fields(self):
            if getattr(self, f.name) < 1:
                raise ValueError("%s must be >= 1" % f.name)
        if self.n_pilots < self.n_bs or self.n_blocks < self.n_ris:
            raise TrainingInfeasibleError(
                "Kronecker-structured training needs n_pilots >= n_bs and "
                "n_blocks >= n_ris (got n_pilots=%d, n_bs=%d, n_blocks=%d, "
                "n_ris=%d)" % (self.n_pilots, self.n_bs, self.n_blocks, self.n_ris)
            )

    @functools.cached_property
    def bs_pilots(self) -> np.ndarray:
        return _dft_rows(self.n_bs, self.n_pilots)

    @functools.cached_property
    def ris_phases(self) -> np.ndarray:
        return _dft_rows(self.n_ris, self.n_blocks)

    @property
    def block_fft(self) -> bool:
        """Whether :meth:`block_product` runs as an FFT: from
        ``FFT_MIN_BLOCKS`` blocks on."""
        return self.n_blocks >= FFT_MIN_BLOCKS

    def block_product(self, a: np.ndarray, adjoint: bool) -> np.ndarray:
        """``a @ ris_phases`` (or ``a @ ris_phases^H`` when ``adjoint``) for
        a 2-D ``a`` of n_ris (or n_blocks) columns.

        On the FFT route (``block_fft``) the product is a zero-padded FFT
        along the rows, and the adjoint a truncated inverse FFT (a view of
        the row-major spectrum); both read only the design's sizes.  Below
        it the product is dense, and its adjoint is formed transposed, so
        it comes out column-major."""
        if self.block_fft:
            if adjoint:
                return np.fft.ifft(a, axis=1, norm="ortho")[:, :self.n_ris]
            return np.fft.fft(a, n=self.n_blocks, axis=1, norm="ortho")
        if adjoint:
            return (self.ris_phases.conj() @ a.T).T
        return a @ self.ris_phases


def make_training(dims: SystemDims) -> TrainingDesign:
    """The deterministic DFT-based training design for ``dims``, a
    :class:`TrainingDesign` of its four sizes whose factors are built on
    first read.

    The pilot block is the first n_bs rows of the n_pilots-point unitary
    DFT and the profile matrix the first n_ris rows of the n_blocks-point
    unitary DFT, so each has orthonormal rows and so does their Kronecker
    product, exactly.  Every profile entry has the same modulus
    (constant-modulus surface states) and every entry of the joint
    operator has modulus 1/sqrt(n_pilots*n_blocks).

    Raises :class:`TrainingInfeasibleError` unless n_pilots >= n_bs and
    n_blocks >= n_ris (the design's own rule).
    """
    return TrainingDesign(dims.n_bs, dims.n_pilots, dims.n_ris, dims.n_blocks)
