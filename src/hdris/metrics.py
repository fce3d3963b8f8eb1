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

from .channel import TENSOR_MODES, ChannelRealization, SystemDims, array_responses, split_rows
from .tensors import _GRAM_SLAB, dominant_left_singular_vector

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
    flat = a.ravel(order="K")       # a view of a row- or column-major array
    return float(np.vdot(flat, flat).real)


def nmse(truth: np.ndarray, estimate: np.ndarray) -> float:
    """Normalized squared error ||truth - estimate||_F^2 / ||truth||_F^2.

    The error is summed over slabs of the last axis (column slabs of a
    matrix) of at most _GRAM_SLAB entries, or one index of that axis if
    it holds more, so no full-size difference is formed: the transients
    stay within one slab's difference.  An array within one slab, as the
    reference dims' cascade, is one slab.  Neither input is written.
    """
    truth = np.asarray(truth)
    estimate = np.asarray(estimate)
    if truth.shape != estimate.shape:
        raise ValueError("shape mismatch: %s vs %s" % (truth.shape, estimate.shape))
    denom = _squared_norm(truth)
    if not denom > 0:
        raise ValueError("reference has zero norm")
    truth, estimate = np.atleast_1d(truth, estimate)
    cols = truth.shape[-1]
    width = max(1, _GRAM_SLAB // (truth.size // cols))      # columns per slab
    error = 0.0
    for j in range(0, cols, width):
        error += _squared_norm(truth[..., j:j + width] - estimate[..., j:j + width])
    return error / denom


def _unit_phases(surface: np.ndarray) -> np.ndarray:
    """Conjugate of ``surface`` normalized to unit modulus (1 where it is 0)."""
    mods = np.abs(surface)
    return np.where(mods > 0, np.conj(surface) / np.where(mods > 0, mods, 1.0), 1.0)


_UNALIGNED = "estimate is rank deficient or non-finite; cannot align surface phases"


def _check_rate_inputs(tx_power: float, noise_var: float) -> None:
    """Reject a transmit power or noise variance outside (0, inf)."""
    if not 0 < tx_power < math.inf:
        raise ValueError("transmit power must be finite and > 0, got %r" % (tx_power,))
    if not 0 < noise_var < math.inf:
        raise ValueError("noise variance must be finite and > 0, got %r" % (noise_var,))


def spectral_efficiency(
    ch: ChannelRealization,
    est: EstimateSet,
    tx_power: float = 1.0,
    noise_var: float = 1.0,
) -> float:
    """Beamformed rate (bits/s/Hz) achieved on the true channel.

    Surface phases: the conjugate of the estimated per-element surface
    response, normalized to unit modulus.  Beamformers: dominant
    left/right singular vectors w and f of the estimated effective
    channel H (the estimated cascade contracted with the chosen phases,
    read as n_ue x n_bs by :func:`channel.split_rows`), each fixed only
    up to a phase, which the rate does not see; neither needs a singular
    value.

    An estimate is structured when it carries its factors (an
    :class:`EstimateSet` carries all six or none; only ``hdr`` does).
    A structured estimate is an exact rank-one outer product, so no
    eigenproblem is solved: its :func:`channel.array_responses` (user,
    base station, surface) are w, conj(f) and the surface.  Any other
    estimate (``krf``/``ls``)
    takes the surface and w as the dominant left singular vectors of
    C^T and H, each from its smaller Gram, of side min(n_ris, n_ue*n_bs)
    and min(n_ue, n_bs) (:func:`tensors.dominant_left_singular_vector`),
    and f as H^H w normalized.

    The rate is then log2(1 + tx_power * |w^H H_eff f|^2 / noise_var) with
    the effective channel built, by the same split, from the true cascade
    and the chosen phases.

    Raises
    ------
    ValueError
        If ``tx_power`` or ``noise_var`` is not finite and > 0, a
        structured estimate's responses have a non-finite entry, or an
        unstructured estimate or its H is zero (and so has no dominant
        direction) or has a non-finite entry.
    """
    _check_rate_inputs(tx_power, noise_var)
    dims = ch.dims
    if est.surface_y is not None:
        w, bs, surface = array_responses(**{name: getattr(est, name) for name in TENSOR_MODES})
        if not np.isfinite(np.concatenate((w, bs, surface))).all():
            raise ValueError(_UNALIGNED)
        phases, f = _unit_phases(surface), bs.conj()
    else:
        try:
            surface = dominant_left_singular_vector(est.cascade.T)
        except ValueError as exc:
            raise ValueError(_UNALIGNED) from exc
        phases = _unit_phases(surface)
        h = split_rows(est.cascade @ phases, dims)
        w = dominant_left_singular_vector(h)
        f = h.conj().T @ w
        f = f / math.sqrt(np.vdot(f, f).real)
    h_eff_true = split_rows(ch.cascade @ phases, dims)
    gain = abs(w.conj() @ h_eff_true @ f) ** 2
    return float(np.log2(1.0 + tx_power * gain / noise_var))


def ideal_spectral_efficiency(
    dims: SystemDims, tx_power: float = 1.0, noise_var: float = 1.0
) -> float:
    """Closed form for perfect CSI: coherent surface combining contributes
    a factor n_ris and matched transmit/receive beamforming a factor
    sqrt(n_bs*n_ue) to the amplitude."""
    _check_rate_inputs(tx_power, noise_var)
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
