"""Pilot simulation, matched filtering and the three channel estimators.

The pilot stage yields an (n_ue x n_pilots x n_blocks) observation block.
Matched filtering against the two row-orthonormal training factors
compresses it into the (n_bs*n_ue x n_ris) cascade matrix, whose
noiseless value is the column-wise Kronecker product of the transposed
first hop with the second hop.  Because both hops are rank one per axis,
one reshape and transpose of the cascade's entries arranges them into a
sixth-order tensor that is exactly a rank-one outer product of the six
steering-related vectors.  ``ESTIMATORS`` maps each method name to the
estimator that consumes the cascade:

* ``hdr`` - rank-one truncated HOSVD of that sixth-order tensor (six
  small independent eigenproblems, no iteration);
* ``krf`` - per-column rank-one factorization of the cascade (the
  classical Khatri-Rao factorization baseline), which ignores the
  per-axis structure;
* ``ls``  - the matched-filter output taken as-is.

Every entry is called as ``fn(cascade_obs, dims, counter=None)``; adding
a method means adding one entry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import ChannelRealization, SystemDims
from .flopcount import FlopCounter
from .tensors import dominant_left_singular_vector, hosvd_rank1
from .training import CONTRACT_TOL, TrainingDesign

__all__ = [
    "ESTIMATORS",
    "PermutationPlan",
    "EstimateSet",
    "simulate_observation",
    "filter_macs",
    "matched_filter",
    "build_permutations",
    "hdr_estimate",
    "krf_estimate",
    "ls_estimate",
    "extract_spatial_frequency",
]


def simulate_observation(
    ch: ChannelRealization,
    design: TrainingDesign,
    noise_var: float,
    rng: np.random.Generator | None = None,
    seed: int | None = None,
) -> np.ndarray:
    """Simulate the (n_ue, n_pilots, n_blocks) received pilot block for
    one channel realization.

    Block k receives ris_ue @ diag(ris_phases[:, k]) @ bs_ris @ bs_pilots
    plus circular complex Gaussian noise of variance ``noise_var`` per
    entry.  All blocks come from one product: entry (q, t, n) of the
    (n_ue, n_pilots, n_ris) array ris_ue[q, n] * (bs_ris @ bs_pilots)[n, t],
    read as an (n_ue*n_pilots) x n_ris matrix, times ris_phases.
    """
    if not 0 <= noise_var < math.inf:
        raise ValueError("noise variance must be finite and >= 0, got %r" % (noise_var,))
    dims = ch.dims
    if rng is None:
        rng = np.random.default_rng(seed)

    first_hop_tx = ch.bs_ris @ design.bs_pilots       # n_ris x n_pilots
    # one expression, so the n_ue x n_pilots x n_ris product is freed
    # before the noise is drawn
    x = (
        (ch.ris_ue[:, None, :] * first_hop_tx.T).reshape(-1, dims.n_ris)
        @ design.ris_phases
    ).reshape(dims.n_ue, dims.n_pilots, dims.n_blocks)

    if noise_var > 0:
        scale = np.sqrt(noise_var / 2.0)
        noise = rng.standard_normal(x.shape) + 1j * rng.standard_normal(x.shape)
        x = x + scale * noise
    return x


def filter_macs(n_ue: int, n_bs: int, n_ris: int, n_pilots: int, n_blocks: int) -> int:
    """Complex MACs of :func:`matched_filter`'s two mode products."""
    return n_ue * n_bs * n_pilots * n_blocks + n_ue * n_bs * n_blocks * n_ris


def matched_filter(
    obs: np.ndarray,
    design: TrainingDesign,
    counter: FlopCounter | None = None,
    check: bool = True,
) -> np.ndarray:
    """Invert the training operator and rearrange into the cascade matrix.

    The joint operator kron(ris_phases, bs_pilots) is applied as two mode
    products of the (n_ue, n_pilots, n_blocks) observation: the pilot
    mode against bs_pilots^H and the block mode against ris_phases^H
    (:func:`filter_macs`).  The (n_ue, n_bs, n_ris)
    result is read column-major as the cascade matrix, so row
    (m*n_ue + q) of column n holds the product of first-hop entry (n, m)
    with second-hop entry (q, n) in the noiseless case.

    Parameters
    ----------
    check : bool
        Verify both training factors have orthonormal rows within
        ``training.CONTRACT_TOL`` first (the design contract the filter
        relies on).  The check reads ``design.report``, so it validates
        each design once however often it is filtered against.  The
        sweeps pass check=False: their DFT designs hold it by
        construction.
    """
    x = np.asarray(obs)
    n_ue, n_pilots, n_blocks = x.shape
    bs_pilots, ris_phases = design.bs_pilots, design.ris_phases
    (n_bs, t_cols), (n_ris, k_cols) = bs_pilots.shape, ris_phases.shape
    if (t_cols, k_cols) != (n_pilots, n_blocks):
        raise ValueError(
            "training operator has %d columns but observation has %d"
            % (t_cols * k_cols, n_pilots * n_blocks)
        )
    if check:
        residual = design.report.row_orthonormality
        if residual > CONTRACT_TOL:
            raise ValueError(
                "training operator rows are not orthonormal (residual %.3g)"
                % residual
            )
    if counter is not None:
        counter.add(filter_macs(n_ue, n_bs, n_ris, n_pilots, n_blocks))
    per_bs = np.matmul(bs_pilots.conj(), x)             # n_ue x n_bs x n_blocks
    per_ris = per_bs.reshape(n_ue * n_bs, n_blocks) @ ris_phases.conj().T
    return per_ris.reshape(n_ue, n_bs, n_ris).reshape(n_ue * n_bs, n_ris, order="F")


# ------------------------------------------------------------ permutations #


def _swap_middle(d1: int, d2: int, d3: int, d4: int) -> np.ndarray:
    """Index map exchanging the two middle digits of a four-digit mixed-radix
    index.  Input positions are read with digit structure (d1, d2, d3, d4),
    slowest first; output positions with (d1, d3, d2, d4).  The returned map
    p represents the 0/1 matrix P via (P x)[i] = x[p[i]]."""
    idx = np.arange(d1 * d2 * d3 * d4).reshape(d1, d2, d3, d4)
    return idx.transpose(0, 2, 1, 3).ravel()


@dataclass(frozen=True)
class PermutationPlan:
    """Re-indexing between the cascade matrix and the rank-one tensor layout.

    Read column-major, a cascade row splits into (ue_z, ue_y, bs_z, bs_y)
    digits and a column into (ris_z, ris_y) digits, fastest first.
    Moving every y digit behind every z digit gives the sixth-order
    layout ``tensor_dims`` = (n_ue_z, n_bs_z, n_ris_z, n_ue_y, n_bs_y,
    n_ris_y), which in the noiseless case is the outer product of the six
    link vectors.  Both directions are one reshape plus one transpose.
    """

    dims: SystemDims

    @property
    def tensor_dims(self) -> tuple:
        d = self.dims
        return (d.n_ue_z, d.n_bs_z, d.n_ris_z, d.n_ue_y, d.n_bs_y, d.n_ris_y)

    def to_tensor(self, cascade: np.ndarray) -> np.ndarray:
        """(n_ue*n_bs, n_ris) cascade -> ``tensor_dims`` array."""
        d = self.dims
        digits = (d.n_ue_z, d.n_ue_y, d.n_bs_z, d.n_bs_y, d.n_ris_z, d.n_ris_y)
        return cascade.reshape(digits, order="F").transpose(0, 2, 4, 1, 3, 5)

    def to_cascade(self, tensor: np.ndarray) -> np.ndarray:
        """Inverse of :meth:`to_tensor`."""
        d = self.dims
        return tensor.transpose(0, 3, 1, 4, 2, 5).reshape(
            d.n_ue * d.n_bs, d.n_ris, order="F"
        )


def build_permutations(dims: SystemDims) -> PermutationPlan:
    """The re-indexing plan for the given geometry."""
    return PermutationPlan(dims)


# -------------------------------------------------------------- estimators #


@dataclass(frozen=True, eq=False)
class EstimateSet:
    """Output of one estimator on one matched-filter matrix.

    ``cascade`` always holds the estimate of the cascade matrix.  The six
    per-axis link vectors and the amplitude are populated by the
    structured estimator only and are None for the baselines.  Vector
    gauge: each has unit norm with its largest-modulus entry real
    positive; the amplitude carries the remaining scale and phase.
    """

    method: str
    cascade: np.ndarray
    ue_y: np.ndarray | None = None
    ue_z: np.ndarray | None = None
    bs_y: np.ndarray | None = None
    bs_z: np.ndarray | None = None
    surface_y: np.ndarray | None = None
    surface_z: np.ndarray | None = None
    amplitude: complex | None = None


def hdr_estimate(
    cascade_obs: np.ndarray,
    dims: SystemDims,
    plan: PermutationPlan | None = None,
    counter: FlopCounter | None = None,
) -> EstimateSet:
    """Structured estimator: one rank-one HOSVD on the re-indexed tensor.

    The cascade is re-indexed by the plan into the sixth-order layout
    (n_ue_z, n_bs_z, n_ris_z, n_ue_y, n_bs_y, n_ris_y) and approximated
    by a single rank-one outer product.  Modes 1..6 give the user-z,
    base-station-z, surface-z, user-y, base-station-y and surface-y
    vectors respectively.  The returned cascade estimate is the rank-one
    reconstruction pushed back through the inverse re-indexing.
    """
    cascade_obs = np.asarray(cascade_obs, dtype=np.complex128)
    if plan is None:
        plan = build_permutations(dims)
    rows, n_ris = dims.n_ue * dims.n_bs, dims.n_ris
    if cascade_obs.shape != (rows, n_ris):
        raise ValueError(
            "expected cascade of shape (%d, %d), got %s"
            % (rows, n_ris, cascade_obs.shape)
        )
    factors = hosvd_rank1(plan.to_tensor(cascade_obs), counter=counter)
    ue_z, bs_z, surface_z, ue_y, bs_y, surface_y = factors.vectors
    cascade_hat = plan.to_cascade(factors.reconstruct())
    return EstimateSet(
        method="hdr",
        cascade=cascade_hat,
        ue_y=ue_y,
        ue_z=ue_z,
        bs_y=bs_y,
        bs_z=bs_z,
        surface_y=surface_y,
        surface_z=surface_z,
        amplitude=factors.core,
    )


def krf_estimate(
    cascade_obs: np.ndarray,
    dims: SystemDims,
    counter: FlopCounter | None = None,
) -> EstimateSet:
    """Baseline: independent rank-one factorization of each cascade column.

    Column n reshapes (column-major) to the n_ue x n_bs outer product of
    second-hop column n with first-hop row n in the noiseless case; its
    best rank-one approximation u u^H M_n is extracted and re-vectorized.
    The n_ris columns are fitted as one (n_ris, n_ue, n_bs) stack: one
    stacked Gram and eigendecomposition, then broadcast products.  No
    structure is shared across columns, so the per-axis link vectors are
    not identified.
    """
    cascade_obs = np.asarray(cascade_obs, dtype=np.complex128)
    n_ue, n_bs = dims.n_ue, dims.n_bs
    if cascade_obs.shape != (n_ue * n_bs, dims.n_ris):
        raise ValueError(
            "expected cascade of shape (%d, %d), got %s"
            % (n_ue * n_bs, dims.n_ris, cascade_obs.shape)
        )
    n_ris = dims.n_ris
    stack = cascade_obs.reshape(n_ue, n_bs, n_ris, order="F").transpose(2, 0, 1)
    u, _ = dominant_left_singular_vector(stack, counter)      # n_ris x n_ue
    right_h = (u.conj()[:, None, :] @ stack)[:, 0, :]         # n_ris x n_bs
    if counter is not None:     # u^H M_n and u (u^H M_n): two products per column
        counter.add(2 * n_ris * n_ue * n_bs)
    approx = u[:, :, None] * right_h[:, None, :]              # n_ris x n_ue x n_bs
    cascade_hat = approx.transpose(1, 2, 0).reshape(n_ue * n_bs, n_ris, order="F")
    return EstimateSet(method="krf", cascade=cascade_hat)


def ls_estimate(
    cascade_obs: np.ndarray,
    dims: SystemDims | None = None,
    counter: FlopCounter | None = None,
) -> EstimateSet:
    """Baseline: the matched-filter output itself (no denoising, no MACs)."""
    cascade_obs = np.asarray(cascade_obs, dtype=np.complex128)
    return EstimateSet(method="ls", cascade=cascade_obs.copy())


ESTIMATORS = {"hdr": hdr_estimate, "krf": krf_estimate, "ls": ls_estimate}


# ------------------------------------------------- frequency read-out #


def extract_spatial_frequency(v: np.ndarray, newton_steps: int = 3) -> float:
    """Recover the spatial frequency of a (noisy) uniform phase-ramp vector.

    Maximizes |v^H s(f)|^2 over f, where s(f)[l] = exp(-1j*l*f): a
    zero-padded FFT locates the coarse peak and a few Newton iterations on
    the periodogram refine it.  Returns the frequency wrapped to [-pi, pi].
    """
    v = np.asarray(v, dtype=np.complex128).reshape(-1)
    if v.size < 2:
        raise ValueError("need at least two entries to estimate a frequency")
    if not np.linalg.norm(v) > 0:
        raise ValueError("cannot estimate a frequency from a zero vector")
    c = v.conj()
    nfft = max(512, 8 * v.size)
    spectrum = np.fft.fft(c, nfft)
    peak = int(np.argmax(np.abs(spectrum)))
    freq = 2.0 * np.pi * peak / nfft
    if freq > np.pi:
        freq -= 2.0 * np.pi

    ell = np.arange(v.size)
    for _ in range(newton_steps):
        phases = np.exp(-1j * ell * freq)
        g = c @ phases
        g1 = c @ (-1j * ell * phases)
        g2 = c @ (-(ell ** 2) * phases)
        f1 = 2.0 * (np.conj(g) * g1).real
        f2 = 2.0 * (np.conj(g) * g2).real + 2.0 * abs(g1) ** 2
        if f2 >= 0:         # lost the local maximum; keep the grid estimate
            break
        freq -= f1 / f2
    freq = (freq + np.pi) % (2.0 * np.pi) - np.pi
    return float(freq)
