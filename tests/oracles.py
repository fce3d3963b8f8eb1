"""Reference routes the package no longer runs, kept for the tests.

Each helper is the plain, general form of something the package does in a
faster or narrower way: MAC-counted 2-D products (the counts that the
package's closed-form ``macs`` must equal), the n-mode product with
its diagonal core, column-major tensor relabelling, the per-matrix
``eigh`` dominant pair that stacks replaced by certified repeated
squaring, the per-trial perfect-CSI estimate that the se sweep
replaced by its closed form, the out-of-place noise sum that the
pilot simulation replaced by in-place additions, the per-unfolding
rank-one HOSVD that ``hosvd_rank1`` replaced by Grams of reshaped views,
the rank-one tensor of a fit's factors and the tensor-to-cascade
re-indexing that ``hdr_estimate`` replaced by writing its cascade
straight from the factors (``channel.rank_one_cascade``), and the
rate scoring by dominant pairs that ``spectral_efficiency`` replaced by
beams read off ``hdr``'s factors and one eigenproblem per beam.  The
dominant pairs keep the phase gauge that only ``hosvd_rank1`` still
fixes; :func:`phase_distance` compares the package's other directions
with them.  :func:`design_with_factors` stands in for the designs built
from explicit arrays that the package no longer makes, and :func:`hops`
for the two hop matrices that a realization no longer holds: the package
forms only their cascade.  :func:`run_point` and :func:`per_trial_sweep`
are the sweep one trial at a time, one fit per method and one score per
fit, that the sweeps replaced by fitting and scoring batches of trials.
The geometries and the complex normal draw that several test modules
share are defined here too.
"""

import dataclasses
import functools

import numpy as np

from hdris import simulate
from hdris.channel import SystemDims, build_channels, sample_params, steering_1d
from hdris.estimators import ESTIMATORS, filtered_observation, hdr_estimate
from hdris.tensors import ComplexTensor, RankOneFactors, fold, unfold
from hdris.training import make_training

# 2x2 arrays, 4x4 surface
SMALL_DIMS = SystemDims(
    n_bs_y=2, n_bs_z=2, n_ue_y=2, n_ue_z=2, n_ris_y=4, n_ris_z=4,
    n_pilots=16, n_blocks=16,
)

# 16-antenna arrays at both ends, 4x4 surface, minimal exact training
REF_DIMS = SystemDims(
    n_bs_y=4, n_bs_z=4, n_ue_y=4, n_ue_z=4, n_ris_y=4, n_ris_z=4,
    n_pilots=16, n_blocks=16,
)

# odd, unequal extents on every axis; n_ue < n_bs
ODD_DIMS = SystemDims(
    n_bs_y=3, n_bs_z=2, n_ue_y=2, n_ue_z=1, n_ris_y=5, n_ris_z=2,
    n_pilots=6, n_blocks=10,
)

# 16x16 surface: 256 elements, 256 blocks
WIDE_DIMS = SystemDims(4, 4, 4, 4, 16, 16, 16, 256)


def crandn(rng, *shape):
    """Complex normals of ``shape``: real then imaginary parts, each standard."""
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


class MacCounter:
    """Complex multiply-accumulates charged by the counted oracles: an
    (a x b) by (b x c) product costs a*b*c."""

    def __init__(self):
        self.macs = 0

    def add(self, n):
        self.macs += int(n)


def counted_matmul(a, b, counter=None):
    """Matrix product a @ b, charging a.shape[0]*a.shape[1]*b.shape[1] MACs
    to the :class:`MacCounter` ``counter``.

    Both operands must be 2-D.  When ``counter`` is None the product is
    computed without accounting.
    """
    if a.ndim != 2 or b.ndim != 2:
        raise ValueError("counted_matmul expects 2-D operands, got %s and %s" % (a.shape, b.shape))
    if a.shape[1] != b.shape[0]:
        raise ValueError("inner dimensions do not match: %s @ %s" % (a.shape, b.shape))
    if counter is not None:
        counter.add(a.shape[0] * a.shape[1] * b.shape[1])
    return a @ b


def n_mode_product(x, a, mode, counter=None):
    """Contract mode ``mode`` of ComplexTensor ``x`` with the columns of
    matrix ``a``."""
    dims = x.data.shape
    if not 1 <= mode <= len(dims):
        raise ValueError("mode %d out of range for order-%d tensor" % (mode, len(dims)))
    a = np.asarray(a)
    if a.ndim != 2:
        raise ValueError("n_mode_product factor must be a matrix, got %s" % (a.shape,))
    if a.shape[1] != dims[mode - 1]:
        raise ValueError(
            "factor columns (%d) must equal mode-%d extent (%d)"
            % (a.shape[1], mode, dims[mode - 1])
        )
    new_dims = list(dims)
    new_dims[mode - 1] = a.shape[0]
    return fold(counted_matmul(a, unfold(x, mode), counter), mode, new_dims)


def identity_tensor(order, n):
    """Order-``order`` diagonal tensor with ones where all indices coincide."""
    if order < 1 or n < 1:
        raise ValueError("order and extent must be >= 1")
    arr = np.zeros((n,) * order, dtype=np.complex128)
    arr[(np.arange(n),) * order] = 1.0
    return ComplexTensor(arr)


def tensorize(v, dims):
    """Reassemble a tensor of the given dims from a column-major flat vector."""
    return ComplexTensor(np.reshape(v, dims, order="F"))


def reshape(x, dims):
    """Relabel the flat column-major data of ``x`` with new mode extents."""
    dims = tuple(int(d) for d in dims)
    if int(np.prod(dims)) != x.data.size:
        raise ValueError("cannot reshape %s to %s" % (x.data.shape, (dims,)))
    return ComplexTensor(x.data.reshape(dims, order="F"))


def noisy_observation(clean, noise_var, rng):
    """``clean`` plus circular Gaussian noise of variance ``noise_var``,
    drawn as two full-size normal arrays (real parts first) and added as
    one complex array."""
    noise = rng.standard_normal(clean.shape) + 1j * rng.standard_normal(clean.shape)
    return clean + np.sqrt(noise_var / 2.0) * noise


def dominant_pair_oracle(m, counter=None):
    """One matrix at a time: the smaller Gram, eigh, the first eigenvector
    of the largest eigenvalue (stable sort), tall-case back-projection,
    largest-modulus entry made real positive."""
    rows, cols = m.shape
    if rows <= cols:
        w, basis = np.linalg.eigh(counted_matmul(m, m.conj().T, counter))
        lead = np.argsort(-w, kind="stable")[0]
        u, sigma = basis[:, lead], float(np.sqrt(max(w[lead], 0.0)))
    else:
        w, basis = np.linalg.eigh(counted_matmul(m.conj().T, m, counter))
        lead = np.argsort(-w, kind="stable")[0]
        mv = counted_matmul(m, basis[:, lead, None], counter)[:, 0]
        sigma = float(np.linalg.norm(mv))
        u = mv / sigma
    k = int(np.argmax(np.abs(u)))
    return u * (u[k].conjugate() / abs(u[k])), sigma


def phase_distance(v, w):
    """||v e^{i theta} - w|| for the phase theta that aligns v with w; for
    two stacks of vectors, the largest such distance over their rows."""
    overlap = np.sum(v.conj() * w, axis=-1, keepdims=True)
    return np.max(np.linalg.norm(v * (overlap / abs(overlap)) - w, axis=-1))


def dominant_pairs_oracle(m, counter=None):
    """``dominant_left_singular_vector`` on a matrix or a stack, one matrix
    at a time through :func:`dominant_pair_oracle`."""
    m = np.asarray(m, dtype=np.complex128)
    if m.ndim == 2:
        return dominant_pair_oracle(m, counter)
    u = np.empty(m.shape[:-1], dtype=np.complex128)
    sigma = np.empty(m.shape[:-2])
    for idx in np.ndindex(*m.shape[:-2]):
        u[idx], sigma[idx] = dominant_pair_oracle(m[idx], counter)
    return u, sigma


def design_with_factors(design, **factors):
    """A fresh design of ``design``'s sizes whose ``bs_pilots`` and/or
    ``ris_phases`` are read-only copies of the given arrays instead of the
    DFT rows, seeded into the cached properties; a factor not given is
    built on first read as usual.  The dense block product reads a seeded
    profile matrix; the FFT route (``block_fft``) never does."""
    shapes = {"bs_pilots": (design.n_bs, design.n_pilots),
              "ris_phases": (design.n_ris, design.n_blocks)}
    fresh = dataclasses.replace(design)
    for name, factor in factors.items():
        factor = np.array(factor, dtype=np.complex128)
        assert factor.shape == shapes[name], (name, factor.shape)
        factor.setflags(write=False)
        vars(fresh)[name] = factor
    return fresh


def hops(ch):
    """The two hop matrices of ``ch``'s line-of-sight geometry, rebuilt
    from ``ch.params`` and ``ch.dims``: bs_ris (n_ris x n_bs), base station
    -> surface, and ris_ue (n_ue x n_ris), surface -> user.  Per axis, the
    first hop is the outer product of the surface arrival response with
    the base-station response and the second the outer product of the
    user response with the surface departure response; each hop is the
    Kronecker product of its horizontal and vertical factors (z index
    fastest)."""
    d, p = ch.dims, ch.params

    def axes(n_y, n_z, freqs):
        return [steering_1d(n, f) for n, f in zip((n_y, n_z), freqs)]

    bs = axes(d.n_bs_y, d.n_bs_z, p.bs_freqs)
    arr = axes(d.n_ris_y, d.n_ris_z, p.ris_arr_freqs)
    dep = axes(d.n_ris_y, d.n_ris_z, p.ris_dep_freqs)
    ue = axes(d.n_ue_y, d.n_ue_z, p.ue_freqs)
    bs_ris = np.kron(np.outer(arr[0], bs[0]), np.outer(arr[1], bs[1]))
    ris_ue = np.kron(np.outer(ue[0], dep[0]), np.outer(ue[1], dep[1]))
    return bs_ris, ris_ue


def ideal_estimate(ch):
    """Perfect-CSI estimate: ``hdr`` fitted to the true cascade.  The se
    sweep scored this per trial before it switched to the closed-form
    rate."""
    return hdr_estimate(ch.cascade, ch.dims)


def hosvd_rank1_oracle(x, counter=None):
    """Rank-one truncated HOSVD one unfolding at a time: the dominant pair
    of each mode's unfolding through :func:`dominant_pair_oracle`, then the
    amplitude by contracting the modes in order with ``tensordot``,
    charging the size left before each contraction."""
    cur = np.asarray(x, dtype=np.complex128)
    vectors = tuple(
        dominant_pair_oracle(unfold(cur, mode), counter)[0]
        for mode in range(1, cur.ndim + 1)
    )
    for v in vectors:
        if counter is not None:
            counter.add(cur.size)
        cur = np.tensordot(v.conj(), cur, axes=(0, 0))
    return RankOneFactors(vectors, complex(cur))


def reconstruct(factors):
    """The rank-one tensor core * v1 o v2 o ... o vN of a ``RankOneFactors``,
    in the fitted tensor's own layout."""
    return functools.reduce(np.multiply.outer, factors.vectors) * factors.core


def to_cascade(dims, tensor):
    """Inverse of ``channel.cascade_tensor``: a ``channel.tensor_shape``
    array back to the (n_ue*n_bs, n_ris) cascade."""
    return tensor.transpose(0, 3, 1, 4, 2, 5).reshape(dims.n_ue * dims.n_bs, dims.n_ris, order="F")


def rate_oracle(ch, est, tx_power, noise_var):
    """Beamformed rate of ``est`` on ``ch``, every direction from its own
    dominant pair through :func:`dominant_pair_oracle`.

    The surface response is ``kron(surface_y, surface_z)`` for a structured
    estimate; otherwise the cascade's dominant left singular vector u (its
    n_ris Gram, eigh, back-projection) is projected back as C^H u and
    normalized.  The unit-modulus phases conjugate it.  Then w is the
    dominant left singular vector of the estimated effective channel H and
    f that of H^H, each from its own eigh, and the rate is
    log2(1 + tx_power |w^H H_true f|^2 / noise_var).
    """
    dims = ch.dims
    if est.surface_y is not None and est.surface_z is not None:
        surface = np.kron(est.surface_y, est.surface_z)
    else:
        # a zero cascade has no dominant pair (its back-projection is 0/0)
        if not np.abs(est.cascade).max() > 0:
            raise ValueError("estimate is rank deficient; cannot align surface phases")
        u, _ = dominant_pair_oracle(est.cascade)
        right = est.cascade.conj().T @ u
        surface = right.conj() / np.linalg.norm(right)
    mods = np.abs(surface)
    phases = np.where(mods > 0, np.conj(surface) / np.where(mods > 0, mods, 1.0), 1.0)
    h_est = (est.cascade @ phases).reshape(dims.n_ue, dims.n_bs, order="F")
    w, _ = dominant_pair_oracle(h_est)
    f, _ = dominant_pair_oracle(h_est.conj().T)
    h_true = (ch.cascade @ phases).reshape(dims.n_ue, dims.n_bs, order="F")
    gain = abs(w.conj() @ h_true @ f) ** 2
    return float(np.log2(1.0 + tx_power * gain / noise_var))


def run_point(cfg, design, pinned, methods, score, snr_idx, trial):
    """One trial of a sweep: its own channel (or ``pinned``) and filtered
    observation, drawn from the trial's stream, every method fitted to
    that one observation and scored by ``score(ch, est, noise_var)``, one
    value per method."""
    noise_var = simulate._noise_var(cfg.tx_power_watts, float(cfg.snr_grid_db[snr_idx]))
    rng = simulate._trial_rng(cfg.seed, snr_idx, trial)
    ch = pinned if pinned is not None else build_channels(cfg.dims, sample_params(rng))
    cascade_obs = filtered_observation(ch, design, noise_var, rng)
    return tuple(score(ch, ESTIMATORS[m].fit(cascade_obs, cfg.dims), noise_var) for m in methods)


def per_trial_sweep(cfg, methods, score):
    """``simulate._sweep`` one trial at a time through :func:`run_point`,
    in this process: {method: [[score per trial] per SNR point]}."""
    design = make_training(cfg.dims)
    pinned = (build_channels(cfg.dims, cfg.fixed_params)
              if cfg.fixed_params is not None else None)
    points = [[run_point(cfg, design, pinned, methods, score, s, t) for t in range(cfg.n_trials)]
              for s in range(len(cfg.snr_grid_db))]
    return {m: [[res[i] for res in point] for point in points] for i, m in enumerate(methods)}
