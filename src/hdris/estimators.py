"""Pilot simulation, matched filtering and the three channel estimators.

The pilot stage yields an (n_ue x n_pilots x n_blocks) observation block
(:func:`simulate_observation`, the pilot model) from the realization's
(n_bs*n_ue x n_ris) cascade, the only channel description it reads.
Matched filtering against the two training factors, which have
orthonormal rows in every design (a design checks its sizes when it is
made), compresses the block back into that cascade matrix, exactly when
there is no noise.  So the sweeps skip the block:
:func:`filtered_observation` draws the same noise and filters only it,
onto the true cascade.  Both pilot paths take
``(ch, design, noise_var, rng)``, read ``ch.dims`` and ``ch.cascade``
only, draw their noise from that generator only, and reject a design
whose (n_bs, n_pilots, n_ris, n_blocks) are not the channel's.  All
three apply the surface profiles through the design's ``block_product``,
which picks the FFT or the dense route.  For the line-of-sight model of
:mod:`hdris.channel`, whose hops are rank one per axis, its
``cascade_tensor`` re-indexes the cascade's entries into a sixth-order
tensor that is exactly a rank-one outer product of the six
steering-related vectors.  ``ESTIMATORS`` maps each
method name to an :class:`Estimator` record for the estimator that
consumes the cascade:

* ``hdr`` - rank-one truncated HOSVD of that sixth-order tensor (six
  small mode Grams, one stacked eigenproblem per Gram size, no
  iteration);
* ``krf`` - per-column rank-one factorization of the cascade (the
  classical Khatri-Rao factorization baseline), which ignores the
  per-axis structure;
* ``ls``  - the matched-filter output taken as-is.

Every record pairs the fit, ``fit(cascade_obs, dims)``, with ``macs(dims)``,
the closed form of what it multiplies; adding a method means adding one entry
and its branch in the paper's cost model, ``metrics.flops_analytic``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .channel import (TENSOR_MODES, ChannelRealization, SystemDims, cascade_tensor,
                      rank_one_cascade, split_rows, tensor_shape)
from .tensors import dominant_left_singular_vector, gram_macs, hosvd_rank1, hosvd_rank1_macs
from .training import TrainingDesign

__all__ = [
    "ESTIMATORS",
    "Estimator",
    "EstimateSet",
    "simulate_observation",
    "filtered_observation",
    "filter_macs",
    "matched_filter",
    "build_permutations",
    "hdr_estimate",
    "krf_estimate",
    "ls_estimate",
    "extract_spatial_frequency",
]


def _check_pilot_inputs(ch: ChannelRealization, design: TrainingDesign, noise_var: float) -> None:
    """Reject a noise variance outside [0, inf) and a design whose sizes
    (n_bs, n_pilots, n_ris, n_blocks) are not the channel's: the one size
    rule of both pilot paths, checked before numpy meets the shapes (the
    FFT route would zero-pad a surface mismatch instead of failing)."""
    if not 0 <= noise_var < math.inf:
        raise ValueError("noise variance must be finite and >= 0, got %r" % (noise_var,))
    d = ch.dims
    want = (d.n_bs, d.n_pilots, d.n_ris, d.n_blocks)
    got = (design.n_bs, design.n_pilots, design.n_ris, design.n_blocks)
    if got != want:
        raise ValueError("design has (n_bs, n_pilots, n_ris, n_blocks) = %s but the channel has %s"
                         % (got, want))


def _standard_noise(rng: np.random.Generator, shape: tuple):
    """The pilot noise draw: yields the real block, then the imaginary
    block, of standard normals of ``shape``, each drawn into one reused
    float64 buffer of that shape, so the caller must consume a block
    before asking for the next.  The values and the stream position are
    those of ``rng.standard_normal((2,) + shape)`` split along its first
    axis; the draw holds half a complex block at most."""
    block = np.empty(shape)
    for _ in range(2):
        rng.standard_normal(out=block)
        yield block


def simulate_observation(
    ch: ChannelRealization,
    design: TrainingDesign,
    noise_var: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Simulate the (n_ue, n_pilots, n_blocks) received pilot block for
    one channel realization: the pilot model of the package and the
    reference the sweeps' :func:`filtered_observation` is tested against.

    Block k receives sum_n ris_phases[n, k] * C_n @ bs_pilots plus
    circular complex Gaussian noise of variance ``noise_var`` per entry,
    where C_n is column n of ``ch.cascade`` read as its n_ue x n_bs
    matrix by :func:`channel.split_rows`.  Of the realization it reads
    only ``dims`` and ``cascade``, so any cascade put in with
    ``dataclasses.replace`` is simulated as given.  All blocks come from
    one product: entry (q, t, n) of the (n_ue, n_pilots, n_ris) array
    (C_n @ bs_pilots)[q, t], read as an (n_ue*n_pilots) x n_ris matrix,
    times ris_phases (:meth:`TrainingDesign.block_product`).  The noise
    is added in place, real parts first, from a real and then an
    imaginary block of standard normals drawn from ``rng`` into one
    reused buffer (:func:`_standard_noise`); no draw is made when
    ``noise_var`` is 0.  Beyond the returned block it holds the n_ue x
    n_pilots x n_ris product while forming it and half a block while
    drawing.  It takes the inputs of :func:`filtered_observation` and
    checks them by the same rule (:func:`_check_pilot_inputs`).
    """
    _check_pilot_inputs(ch, design, noise_var)
    dims = ch.dims

    per_column = split_rows(ch.cascade, dims)
    # one expression, so the n_ue x n_pilots x n_ris product is freed
    # before the noise is drawn
    x = design.block_product(
        (design.bs_pilots.T @ per_column).reshape(-1, dims.n_ris), adjoint=False,
    ).reshape(dims.n_ue, dims.n_pilots, dims.n_blocks)

    if noise_var > 0:
        scale = np.sqrt(noise_var / 2.0)
        for block, part in zip(_standard_noise(rng, x.shape), (x.real, x.imag)):
            block *= scale
            part += block
    return x


def filtered_observation(
    ch: ChannelRealization,
    design: TrainingDesign,
    noise_var: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """The matched filter's output for one pilot block, without forming
    the block: ``ch.cascade`` plus the matched-filtered noise.

    Both training factors of every design have orthonormal rows (a
    design checks its sizes when it is made), so the filter returns a
    noiseless block's cascade exactly, and by linearity this equals
    ``matched_filter(simulate_observation(ch, design, noise_var, rng),
    design)`` up to rounding.  The noise is drawn
    from ``rng`` as there (:func:`_standard_noise`), leaving the stream
    at the same position, no draw is made when ``noise_var`` is 0, and
    the inputs are checked by the same rule (:func:`_check_pilot_inputs`).
    It is written pilot-major, so the filter's pilot mode is one product,
    which also applies the noise scale, and the true cascade is added to
    the result in the column-major layout :func:`matched_filter` returns.
    Beyond the returned array it holds at most two complex blocks at a
    time: the noise and the pilot product, then the product and the
    filter's spectrum; the draw adds half a block to the noise.
    """
    _check_pilot_inputs(ch, design, noise_var)
    if noise_var == 0:
        return np.array(ch.cascade)
    dims = ch.dims
    noise = np.empty((dims.n_pilots, dims.n_ue, dims.n_blocks), dtype=np.complex128)
    draws = _standard_noise(rng, (dims.n_ue, dims.n_pilots, dims.n_blocks))
    noise.real = next(draws).transpose(1, 0, 2)
    noise.imag = next(draws).transpose(1, 0, 2)
    # each full-size block is dropped once the next is formed
    del draws
    per_bs = _pilot_product(np.sqrt(noise_var / 2.0) * design.bs_pilots.conj(), noise)
    del noise
    filtered = design.block_product(per_bs, adjoint=True)
    del per_bs
    # a column-major copy, then an in-place add: faster than one add
    # that writes column-major from the row-major spectrum
    out = np.asfortranarray(filtered)
    out += ch.cascade
    return out


def filter_macs(n_ue: int, n_bs: int, n_ris: int, n_pilots: int, n_blocks: int) -> int:
    """Complex MACs of :func:`matched_filter`'s two mode products, each
    charged as a dense product.  A design whose block product runs as an
    FFT (``TrainingDesign.block_fft``) spends fewer, so for it this is an
    upper bound."""
    return n_ue * n_bs * n_pilots * n_blocks + n_ue * n_bs * n_blocks * n_ris


def _pilot_product(pilots_h: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The filter's pilot mode on a pilot-major (n_pilots, n_ue, n_blocks)
    block: one product of the (n_bs x n_pilots) ``pilots_h`` (bs_pilots^H,
    or a multiple of it) with the block read as n_pilots x n_ue*n_blocks,
    returned as the (n_bs*n_ue, n_blocks) matrix whose rows are already
    the cascade's (m*n_ue + q)."""
    n_pilots, _, n_blocks = x.shape
    return (pilots_h @ x.reshape(n_pilots, -1)).reshape(-1, n_blocks)


def matched_filter(
    obs: np.ndarray,
    design: TrainingDesign,
    check: bool = True,
) -> np.ndarray:
    """Invert the training operator and rearrange into the cascade matrix.

    The joint operator, ris_phases Kronecker bs_pilots, is applied as two
    mode products of the (n_ue, n_pilots, n_blocks) observation: the pilot
    mode against bs_pilots^H and the block mode against ris_phases^H
    (:func:`filter_macs`).  The observation is read pilot-major, so the
    first product is one 2-D product whose rows are already the cascade's
    and the second yields the cascade matrix: row (m*n_ue + q) of column
    n holds the product of first-hop entry (n, m) with second-hop entry
    (q, n) in the noiseless case.  It is returned column-major, so each
    column (one surface element's n_ue x n_bs matrix) is contiguous.

    Parameters
    ----------
    check : bool
        Kept for existing callers; both values run the same code.  The
        filter relies on both training factors having orthonormal rows,
        and every :class:`TrainingDesign` has them: a design checks its
        sizes when it is made, and its factors are exact DFT rows.
    """
    x = np.asarray(obs)
    if x.ndim != 3:
        raise ValueError("expected an (n_ue, n_pilots, n_blocks) observation, got shape %s"
                         % (x.shape,))
    want, got = (design.n_pilots, design.n_blocks), x.shape[1:]
    if want != got:
        raise ValueError(
            "training operator has %d columns but observation has %d "
            "(n_pilots x n_blocks: design %d x %d, observation %d x %d)"
            % (math.prod(want), math.prod(got), *want, *got)
        )
    per_bs = _pilot_product(design.bs_pilots.conj(), x.transpose(1, 0, 2))
    filtered = design.block_product(per_bs, adjoint=True)
    del per_bs
    return np.asfortranarray(filtered)


# ------------------------------------------------------------ permutations #


def _swap_middle(d1: int, d2: int, d3: int, d4: int) -> np.ndarray:
    """Index map exchanging the two middle digits of a four-digit mixed-radix
    index.  Input positions are read with digit structure (d1, d2, d3, d4),
    slowest first; output positions with (d1, d3, d2, d4).  The returned map
    p represents the 0/1 matrix P via (P x)[i] = x[p[i]]."""
    idx = np.arange(d1 * d2 * d3 * d4).reshape(d1, d2, d3, d4)
    return idx.transpose(0, 2, 1, 3).ravel()


# the sixth-order shape of dims, the value hdr_estimate's plan must equal
build_permutations = tensor_shape


# -------------------------------------------------------------- estimators #


@dataclass(frozen=True, eq=False)
class EstimateSet:
    """Output of one estimator on one matched-filter matrix; the method's
    name is its ``ESTIMATORS`` key.

    ``cascade`` always holds the estimate of the cascade matrix.  The six
    per-axis link vectors and the amplitude are populated by the
    structured estimator only and are None for the baselines.  Vector
    gauge: each has unit norm with its largest-modulus entry real
    positive; the amplitude carries the remaining scale and phase.
    """

    cascade: np.ndarray
    ue_y: np.ndarray | None = None
    ue_z: np.ndarray | None = None
    bs_y: np.ndarray | None = None
    bs_z: np.ndarray | None = None
    surface_y: np.ndarray | None = None
    surface_z: np.ndarray | None = None
    amplitude: complex | None = None


def _checked_cascade(cascade_obs: np.ndarray, dims: SystemDims) -> np.ndarray:
    """``cascade_obs`` as complex128, checked to be (n_ue*n_bs, n_ris) for ``dims``."""
    cascade_obs = np.asarray(cascade_obs, dtype=np.complex128)
    shape = (dims.n_ue * dims.n_bs, dims.n_ris)
    if cascade_obs.shape != shape:
        raise ValueError("expected cascade of shape %s, got %s" % (shape, cascade_obs.shape))
    return cascade_obs


def hdr_estimate(
    cascade_obs: np.ndarray,
    dims: SystemDims,
    plan: tuple | None = None,
) -> EstimateSet:
    """Structured estimator: one rank-one HOSVD on the re-indexed tensor.

    The best rank-one outer product of :func:`channel.cascade_tensor`
    gives the per-axis link vector each ``channel.TENSOR_MODES`` name
    holds; the cascade estimate is their :func:`channel.rank_one_cascade`
    with the fit's amplitude.  A ``plan`` other than that tensor's shape
    (:func:`build_permutations`) raises ``ValueError``.
    """
    tensor = cascade_tensor(_checked_cascade(cascade_obs, dims), dims)
    if plan is not None and plan != tensor.shape:
        raise ValueError("plan has tensor dims %s but dims give %s" % (plan, tensor.shape))
    factors = hosvd_rank1(tensor)
    vectors = dict(zip(TENSOR_MODES, factors.vectors))
    return EstimateSet(
        cascade=rank_one_cascade(**vectors, amplitude=factors.core),
        **vectors,
        amplitude=factors.core,
    )


def krf_estimate(cascade_obs: np.ndarray, dims: SystemDims) -> EstimateSet:
    """Baseline: independent rank-one factorization of each cascade column.

    Column n, read by :func:`channel.split_rows` as its n_ue x n_bs
    matrix M_n, is the outer product of second-hop column n with
    first-hop row n in the noiseless case; its best rank-one
    approximation u u^H M_n is extracted and written back through the
    same view of a column-major output.  The n_ris columns are fitted as
    one (n_ris, n_ue, n_bs) stack: one stacked Gram, its leading
    eigenvectors by :func:`tensors.psd_top`, then broadcast products.  No
    structure is shared across columns, so the per-axis link vectors are
    not identified.
    """
    cascade_obs = _checked_cascade(cascade_obs, dims)
    stack = split_rows(cascade_obs, dims).transpose(2, 0, 1)
    u = dominant_left_singular_vector(stack)                  # n_ris x n_ue
    right_h = (u.conj()[:, None, :] @ stack)[:, 0, :]         # n_ris x n_bs
    cascade_hat = np.empty_like(cascade_obs, order="F")
    # entry (q, m, n) is right_h[n, m] * u[n, q]; with FMA a complex
    # product's rounding depends on operand order, so keep this one
    np.multiply(right_h.T, u.T[:, None, :], out=split_rows(cascade_hat, dims))
    return EstimateSet(cascade=cascade_hat)


def ls_estimate(cascade_obs: np.ndarray, dims: SystemDims | None = None) -> EstimateSet:
    """Baseline: a copy of the matched-filter output (no denoising, no MACs).
    Its shape is checked against ``dims`` when they are given."""
    if dims is not None:
        cascade_obs = _checked_cascade(cascade_obs, dims)
    return EstimateSet(cascade=np.array(cascade_obs, dtype=np.complex128))


def _hdr_macs(dims: SystemDims) -> int:
    return hosvd_rank1_macs(tensor_shape(dims))


def _krf_macs(dims: SystemDims) -> int:
    # per column: its Gram, then u^H M_n and u (u^H M_n)
    return dims.n_ris * (gram_macs(dims.n_ue, dims.n_bs) + 2 * dims.n_ue * dims.n_bs)


@dataclass(frozen=True)
class Estimator:
    """One ``ESTIMATORS`` entry: ``fit(cascade_obs, dims)`` returns the
    method's EstimateSet, and ``macs(dims)`` is the complex MACs that fit
    multiplies, a closed form of the shapes pinned to counted oracles in the
    tests (its Gram and vector products; eigensolvers are not counted)."""

    fit: Callable[[np.ndarray, SystemDims], EstimateSet]
    macs: Callable[[SystemDims], int]


ESTIMATORS = {
    "hdr": Estimator(fit=hdr_estimate, macs=_hdr_macs),
    "krf": Estimator(fit=krf_estimate, macs=_krf_macs),
    "ls": Estimator(fit=ls_estimate, macs=lambda dims: 0),
}


# ------------------------------------------------- frequency read-out #


def extract_spatial_frequency(v: np.ndarray, newton_steps: int = 3) -> float:
    """Recover the spatial frequency of a (noisy) uniform phase-ramp vector.

    Maximizes |v^H s(f)|^2 over f, where s(f)[l] = exp(-1j*l*f): a
    zero-padded FFT locates the coarse peak and a few Newton iterations on
    the periodogram refine it.  The vector is first divided by its largest
    modulus, so no square overflows or goes subnormal and any finite
    scale reads the same frequency.  Returns the frequency wrapped to
    [-pi, pi]; a zero or non-finite vector raises ``ValueError``.
    """
    v = np.asarray(v, dtype=np.complex128).reshape(-1)
    if v.size < 2:
        raise ValueError("need at least two entries to estimate a frequency")
    peak_modulus = np.abs(v).max()
    if not 0 < peak_modulus < math.inf:
        raise ValueError("cannot estimate a frequency from a zero or non-finite vector")
    c = (v / peak_modulus).conj()
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
