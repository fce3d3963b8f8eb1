"""Estimation-quality and complexity metrics.

Spectral efficiency is evaluated the way a system would use the estimates:
the surface phases are aligned against the estimated per-element cascade,
transmit/receive beamformers are matched to the estimated effective channel,
and the resulting rate is scored on the TRUE channel, so estimation errors
show up as beamforming loss rather than as a direct error norm.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

import numpy as np

from .channel import ChannelRealization, SystemDims
from .tensors import kron, psd_top

if TYPE_CHECKING:
    from .estimators import EstimateSet

__all__ = [
    "nmse",
    "spectral_efficiency",
    "ideal_spectral_efficiency",
    "flops_analytic",
    "summarize",
]


def _squared_norm(a: np.ndarray) -> float:
    """||a||_F^2 as one BLAS inner product."""
    return float(np.vdot(a, a).real)


def nmse(truth: np.ndarray, estimate: np.ndarray) -> float:
    """Normalized squared error ||truth - estimate||_F^2 / ||truth||_F^2."""
    truth = np.asarray(truth)
    estimate = np.asarray(estimate)
    if truth.shape != estimate.shape:
        raise ValueError("shape mismatch: %s vs %s" % (truth.shape, estimate.shape))
    denom = _squared_norm(truth)
    if not denom > 0:
        raise ValueError("reference has zero norm")
    return _squared_norm(truth - estimate) / denom


def _top_direction(m: np.ndarray, what: str) -> np.ndarray:
    """Unit leading eigenvector of m^H m (the dominant right singular
    direction of ``m``) by :func:`tensors.psd_top`, up to a phase."""
    gram = m.conj().T @ m
    trace = gram.trace().real
    if not trace > 0:
        raise ValueError("estimate is rank deficient; cannot %s" % what)
    return psd_top(gram, trace)[0]


def _effective_surface_vector(est: EstimateSet) -> np.ndarray:
    """Per-element cascaded surface response implied by an estimate, up to
    a phase common to all elements.

    The structured estimator identifies it directly as
    kron(surface_y, surface_z).  For the unstructured baselines the whole
    cascade matrix C is (noiselessly) a rank-one outer product whose right
    factor is the surface response, so the response is read as the
    conjugated top eigenvector of the n_ris x n_ris Gram C^H C: the
    dominant right singular vector of C, without its singular value.
    """
    if est.surface_y is not None and est.surface_z is not None:
        return kron(est.surface_y, est.surface_z)
    return _top_direction(est.cascade, "align surface phases").conj()


def _beams(
    est: EstimateSet, phases: np.ndarray, dims: SystemDims
) -> tuple[np.ndarray, np.ndarray]:
    """Unit receive and transmit beams (w, f) matched to the estimated
    effective channel H, the estimated cascade contracted with
    ``phases`` (n_ue x n_bs), each up to a phase.

    A structured estimate's H is exactly a multiple of u b^T with
    u = kron(ue_y, ue_z) and b = kron(bs_y, bs_z), both of unit norm, so
    w = u and f = conj(b) are read off its factors and H is never formed.
    Otherwise one beam is the top eigenvector of the smaller Gram (H H^H
    for w when n_ue <= n_bs, else H^H H for f) and the other is that beam
    projected through H and normalized.
    """
    if all(v is not None for v in (est.ue_y, est.ue_z, est.bs_y, est.bs_z)):
        return kron(est.ue_y, est.ue_z), kron(est.bs_y, est.bs_z).conj()
    h = (est.cascade @ phases).reshape(dims.n_ue, dims.n_bs, order="F")
    if dims.n_ue <= dims.n_bs:
        w = _top_direction(h.conj().T, "form beams")
        f = h.conj().T @ w
        return w, f / math.sqrt(np.vdot(f, f).real)
    f = _top_direction(h, "form beams")
    w = h @ f
    return w / math.sqrt(np.vdot(w, w).real), f


def spectral_efficiency(
    ch: ChannelRealization,
    est: EstimateSet,
    tx_power: float = 1.0,
    noise_var: float = 1.0,
) -> float:
    """Beamformed rate (bits/s/Hz) achieved on the true channel.

    Surface phases: the conjugate of the estimated per-element surface
    response (:func:`_effective_surface_vector`), normalized to unit
    modulus.  Beamformers: dominant left/right singular vectors w and f of
    the estimated effective channel H (the estimated cascade contracted
    with the chosen phases, n_ue x n_bs), each fixed only up to a phase,
    which the rate does not see; neither needs a singular value.

    * ``hdr`` reads all three off its factors and solves no eigenproblem
      (:func:`_beams`): the surface from surface_y/surface_z,
      w = kron(ue_y, ue_z) and f = conj(kron(bs_y, bs_z)).
    * ``krf``/``ls`` take the leading eigenvector of one Hermitian Gram
      per direction by certified squaring (:func:`tensors.psd_top`, which
      falls back to ``eigh`` only on a tie it cannot certify): the surface
      from the n_ris x n_ris Gram of the cascade, then one beam from the
      min(n_ue, n_bs) Gram of H, the other beam being that beam projected
      through H and normalized.  At a 16x16 surface the squarings of the
      256 x 256 Gram dominate.

    The rate is then log2(1 + tx_power * |w^H H_eff f|^2 / noise_var) with
    the effective channel built from the true cascade and the chosen
    phases.

    Raises
    ------
    ValueError
        If ``noise_var`` is not finite and > 0, or a ``krf``/``ls``
        estimate is rank deficient (a zero Gram has no top eigenvector).
    """
    if not 0 < noise_var < math.inf:
        raise ValueError("noise variance must be finite and > 0, got %r" % (noise_var,))
    dims = ch.dims
    surface = _effective_surface_vector(est)
    mods = np.abs(surface)
    phases = np.where(
        mods > 0, np.conj(surface) / np.where(mods > 0, mods, 1.0), 1.0
    )
    w, f = _beams(est, phases, dims)
    h_eff_true = (ch.cascade @ phases).reshape(dims.n_ue, dims.n_bs, order="F")
    gain = abs(w.conj() @ h_eff_true @ f) ** 2
    return float(np.log2(1.0 + tx_power * gain / noise_var))


def ideal_spectral_efficiency(
    dims: SystemDims, tx_power: float = 1.0, noise_var: float = 1.0
) -> float:
    """Closed form for perfect CSI: coherent surface combining contributes
    a factor n_ris and matched transmit/receive beamforming a factor
    sqrt(n_bs*n_ue) to the amplitude."""
    if not 0 < noise_var < math.inf:
        raise ValueError("noise variance must be finite and > 0, got %r" % (noise_var,))
    return float(
        np.log2(1.0 + tx_power * dims.n_ue * dims.n_bs * dims.n_ris ** 2 / noise_var)
    )


# -------------------------------------------------------------- complexity #


def flops_analytic(method: str, dims: SystemDims) -> int:
    """Leading-order complex-MAC model per estimate (unit constants).

    All methods share the filtering term n_ue^2 * n_bs * n_ris * n_pilots
    * n_blocks.  The structured estimator adds the six small
    eigenproblems, n_ue*n_bs*n_ris*(sum of the six extents); the
    per-column baseline adds n_ris^2*n_ue^2*n_bs^2; the raw filter adds
    nothing.
    """
    method = method.lower()
    shared = (
        dims.n_ue ** 2 * dims.n_bs * dims.n_ris * dims.n_pilots * dims.n_blocks
    )
    if method == "hdr":
        six = (
            dims.n_ue_z + dims.n_ue_y
            + dims.n_bs_z + dims.n_bs_y
            + dims.n_ris_z + dims.n_ris_y
        )
        return shared + dims.n_ue * dims.n_bs * dims.n_ris * six
    if method == "krf":
        return shared + dims.n_ris ** 2 * dims.n_ue ** 2 * dims.n_bs ** 2
    if method == "ls":
        return shared
    raise ValueError("unknown method %r (expected hdr, krf or ls)" % (method,))


def summarize(values) -> tuple[float, float]:
    """Deterministic (mean, median) of a sequence of floats.

    The mean uses compensated summation and the median a full sort, so the
    result does not depend on accumulation order (and hence not on how many
    workers produced the values).  The median is read off the sorted list
    with the bits of ``np.median`` (the mean of the two middle values for
    an even count, NaN if any value is NaN) without its ``numpy.ma``
    import.
    """
    vals = [float(v) for v in values]
    if not vals:
        raise ValueError("no values to summarize")
    mean = math.fsum(vals) / len(vals)
    if any(math.isnan(v) for v in vals):
        return mean, math.nan
    vals.sort()
    mid = len(vals) // 2
    median = vals[mid] if len(vals) % 2 else (vals[mid - 1] + vals[mid]) / 2
    return mean, median
