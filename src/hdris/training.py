"""Deterministic pilot and surface-phase training design.

The pilot stage transmits one symbol block from the base-station array
while the surface cycles through a set of phase profiles, one per block.
The joint training operator is the Kronecker product of the profile
matrix with the pilot block.  It is never formed: it has orthonormal rows
whenever both factors do, so the matched filter applies the two factors
separately and validation checks each factor.  With DFT rows both
hold exactly and every profile entry has the same modulus.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .channel import SystemDims

__all__ = [
    "CONTRACT_TOL",
    "FFT_MIN_BLOCKS",
    "TrainingInfeasibleError",
    "TrainingDesign",
    "TrainingReport",
    "check_feasible",
    "make_training",
    "validate_training",
]

# Largest residual either design contract may show (3e-13 at 4096 DFT blocks).
CONTRACT_TOL = 1e-10

# Fewest blocks at which DFT profiles are applied by FFT instead of a dense
# product.  On 256 rows with one BLAS thread the two tie at 36-64 blocks
# and the FFT is 3-9x faster from 256 blocks up.
FFT_MIN_BLOCKS = 64


class TrainingInfeasibleError(ValueError):
    """The requested pilot budget cannot produce a row-orthonormal design."""


@dataclass(frozen=True, eq=False)
class TrainingDesign:
    """Pilot block (n_bs x n_pilots) and surface profiles (n_ris x
    n_blocks), the two Kronecker factors of the joint training operator.

    Both factors are stored as read-only complex copies, so a design
    cannot change after construction, and ``report`` (the
    :func:`validate_training` result) and ``block_fft`` (the route of the
    surface-block product) are computed once per instance.  Two designs
    compare equal only when they are the same object."""

    bs_pilots: np.ndarray
    ris_phases: np.ndarray

    def __post_init__(self):
        for name in ("bs_pilots", "ris_phases"):
            factor = np.array(getattr(self, name), dtype=np.complex128)
            factor.setflags(write=False)
            object.__setattr__(self, name, factor)

    @functools.cached_property
    def report(self) -> TrainingReport:
        """:func:`validate_training` of this design, computed on first use."""
        return validate_training(self)

    @functools.cached_property
    def block_fft(self) -> bool:
        """True when the surface-block products may run as FFTs: at least
        ``FFT_MIN_BLOCKS`` blocks and profiles bit for bit the leading rows
        of the unitary n_blocks-point DFT, so ``a @ ris_phases`` is a
        zero-padded FFT and ``p @ ris_phases^H`` a truncated inverse FFT.
        The block count is tested first, so smaller designs build no DFT."""
        n_ris, n_blocks = self.ris_phases.shape
        return n_blocks >= FFT_MIN_BLOCKS and np.array_equal(
            self.ris_phases, _dft_rows(n_ris, n_blocks)
        )


@functools.cache
def _dft_rows(rows: int, points: int) -> np.ndarray:
    """First ``rows`` rows of the unitary ``points``-point DFT matrix, built
    once per process and shared read-only (a design stores its own copy)."""
    grid = np.outer(np.arange(rows), np.arange(points))
    block = np.exp(-2j * np.pi * grid / points) / np.sqrt(points)
    block.setflags(write=False)
    return block


def check_feasible(dims: SystemDims) -> None:
    """Raise :class:`TrainingInfeasibleError` unless a Kronecker-structured
    design with orthonormal rows exists for ``dims``: it needs n_pilots >=
    n_bs and n_blocks >= n_ris, which also gives the pilot budget
    n_pilots*n_blocks >= n_bs*n_ris."""
    if dims.n_pilots < dims.n_bs or dims.n_blocks < dims.n_ris:
        raise TrainingInfeasibleError(
            "Kronecker-structured training needs n_pilots >= n_bs and "
            "n_blocks >= n_ris (got n_pilots=%d, n_bs=%d, n_blocks=%d, "
            "n_ris=%d)" % (dims.n_pilots, dims.n_bs, dims.n_blocks, dims.n_ris)
        )


def make_training(dims: SystemDims) -> TrainingDesign:
    """Build the deterministic DFT-based training design for ``dims``.

    The pilot block is the first n_bs rows of the n_pilots-point unitary
    DFT and the profile matrix the first n_ris rows of the n_blocks-point
    unitary DFT, so each has orthonormal rows and so does their Kronecker
    product, exactly.  Every profile entry has the same modulus
    (constant-modulus surface states) and every entry of the joint
    operator has modulus 1/sqrt(n_pilots*n_blocks).

    Raises :class:`TrainingInfeasibleError` unless :func:`check_feasible`
    passes.
    """
    check_feasible(dims)
    return TrainingDesign(
        bs_pilots=_dft_rows(dims.n_bs, dims.n_pilots),
        ris_phases=_dft_rows(dims.n_ris, dims.n_blocks),
    )


@dataclass(frozen=True)
class TrainingReport:
    """Residuals of the two training-design contracts."""

    row_orthonormality: float   # max over both factors of |F F^H - I|
    modulus_spread: float       # max - min modulus over profile entries

    def ok(self) -> bool:
        return (self.row_orthonormality <= CONTRACT_TOL
                and self.modulus_spread <= CONTRACT_TOL)


def validate_training(design: TrainingDesign) -> TrainingReport:
    """Measure how far a design is from its contracts (all zero when built
    by :func:`make_training`)."""
    row_orth = max(
        float(np.max(np.abs(f @ f.conj().T - np.eye(f.shape[0]))))
        for f in (design.bs_pilots, design.ris_phases)
    )
    mods = np.abs(design.ris_phases)
    return TrainingReport(
        row_orthonormality=row_orth,
        modulus_spread=float(np.max(mods) - np.min(mods)),
    )
