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
from .tensors import dominant_left_singular_vector, kron

if TYPE_CHECKING:
    from .estimators import EstimateSet

__all__ = [
    "nmse",
    "spectral_efficiency",
    "ideal_spectral_efficiency",
    "flops_analytic",
    "summarize",
]


def nmse(truth: np.ndarray, estimate: np.ndarray) -> float:
    """Normalized squared error ||truth - estimate||_F^2 / ||truth||_F^2."""
    truth = np.asarray(truth)
    estimate = np.asarray(estimate)
    if truth.shape != estimate.shape:
        raise ValueError("shape mismatch: %s vs %s" % (truth.shape, estimate.shape))
    denom = np.linalg.norm(truth) ** 2
    if not denom > 0:
        raise ValueError("reference has zero norm")
    return float(np.linalg.norm(truth - estimate) ** 2 / denom)


def _effective_surface_vector(est: EstimateSet) -> np.ndarray:
    """Per-element cascaded surface response implied by an estimate.

    The structured estimator identifies it directly as
    kron(surface_y, surface_z).  For the unstructured baselines the whole
    cascade matrix is (noiselessly) a rank-one outer product whose right
    factor is the conjugated surface response, so a dominant rank-one fit
    recovers it.
    """
    if est.surface_y is not None and est.surface_z is not None:
        return kron(est.surface_y, est.surface_z)
    u, _ = dominant_left_singular_vector(est.cascade)
    right = est.cascade.conj().T @ u
    nrm = np.linalg.norm(right)
    if not nrm > 0:
        raise ValueError("estimate is rank deficient; cannot align surface phases")
    return right.conj() / nrm


def spectral_efficiency(
    ch: ChannelRealization,
    est: EstimateSet,
    tx_power: float = 1.0,
    noise_var: float = 1.0,
) -> float:
    """Beamformed rate (bits/s/Hz) achieved on the true channel.

    Surface phases: the conjugate of the estimated per-element surface
    response, normalized to unit modulus.  Beamformers: dominant
    left/right singular vectors of the estimated effective channel H (the
    estimated cascade contracted with the chosen phases); the right one
    is read off the left one as f = H^H w / ||H^H w||, which fixes it up
    to a phase that the rate does not see.  The rate is then
    log2(1 + tx_power * |w^H H_eff f|^2 / noise_var) with the effective
    channel built from the true cascade and the chosen phases.
    """
    if not 0 < noise_var < math.inf:
        raise ValueError("noise variance must be finite and > 0, got %r" % (noise_var,))
    dims = ch.dims
    surface = _effective_surface_vector(est)
    mods = np.abs(surface)
    phases = np.where(
        mods > 0, np.conj(surface) / np.where(mods > 0, mods, 1.0), 1.0
    )

    h_eff_est = (est.cascade @ phases).reshape(dims.n_ue, dims.n_bs, order="F")
    w, _ = dominant_left_singular_vector(h_eff_est)
    f = h_eff_est.conj().T @ w
    f /= np.linalg.norm(f)
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
    workers produced the values).
    """
    vals = [float(v) for v in values]
    if not vals:
        raise ValueError("no values to summarize")
    mean = math.fsum(vals) / len(vals)
    median = float(np.median(np.asarray(vals)))
    return mean, median
