"""Tests for the observation model, matched filter, the re-indexing into
the sixth-order layout whose one home is ``hdris.channel``
(``cascade_tensor``, ``tensor_shape``, ``TENSOR_MODES``) and the three
cascade estimators.

The dense and looped forms the package no longer runs live here as
oracles: the multilinear and the per-block observation routes, the
matched filter against the explicit Kronecker training operator, the
index tables of the re-indexing and its inverse, the rank-one tensor of
a fit's factors and the per-column rank-one fit."""

import dataclasses
import functools
import inspect
import math
import re
import tracemalloc

import numpy as np
import pytest

import hdris.training as training
from hdris.channel import (
    TENSOR_MODES,
    SystemDims,
    build_channels,
    cascade_tensor,
    rank_one_cascade,
    sample_params,
    steering_1d,
    tensor_shape,
)
from hdris.estimators import (
    ESTIMATORS,
    _standard_noise,
    _swap_middle,
    build_permutations,
    extract_spatial_frequency,
    filter_macs,
    filtered_observation,
    hdr_estimate,
    krf_estimate,
    ls_estimate,
    matched_filter,
    simulate_observation,
)
from hdris.metrics import nmse, spectral_efficiency
from hdris.tensors import (
    _GRAM_SLAB,
    dominant_left_singular_vector,
    fold,
    hosvd_rank1,
    kron,
    unfold,
    vec,
)
from hdris.training import make_training
from oracles import (
    ODD_DIMS,
    REF_DIMS,
    SMALL_DIMS,
    WIDE_DIMS,
    MacCounter,
    counted_matmul,
    crandn,
    design_with_factors,
    dominant_pair_oracle,
    dominant_pairs_oracle,
    hops,
    identity_tensor,
    ideal_estimate,
    n_mode_product,
    hosvd_rank1_oracle,
    noisy_observation,
    phase_distance,
    rate_oracle,
    reconstruct,
    tensorize,
    to_cascade,
)

# 10x10 surface with 4x4 arrays: krf's 100 16x16 members fill one slab of
# _GRAM_SLAB // 256 = 64 and a partial one of 36
PARTIAL_SLAB_DIMS = SystemDims(4, 4, 4, 4, 10, 10, 16, 100)

# 16 surface elements on 72 DFT blocks, with more pilots than base-station
# antennas: the FFT block route with both factors oversampled
OVERSAMPLED_DIMS = SystemDims(2, 1, 2, 2, 4, 4, 4, 72)

# 8x8 surfaces on the FFT block route, small enough for the dense oracles:
# square at the threshold, and oversampled to a non-power-of-two length so
# both the zero-padding and the truncation run
FFT64_DIMS = SystemDims(2, 2, 2, 2, 8, 8, 4, 64)
FFT72_DIMS = SystemDims(2, 2, 2, 2, 8, 8, 4, 72)

# geometries for the re-indexing checks, including all-ones extents
PLAN_DIMS = (
    SMALL_DIMS,
    ODD_DIMS,
    REF_DIMS,
    WIDE_DIMS,
    SystemDims(2, 3, 3, 2, 2, 5, 7, 11),
    SystemDims(1, 3, 1, 2, 4, 1, 3, 4),
    SystemDims(1, 1, 1, 1, 1, 1, 1, 1),
)


@pytest.mark.parametrize(
    "build",
    [
        lambda: build_channels(SMALL_DIMS, sample_params(np.random.default_rng(0))),
        lambda: make_training(SMALL_DIMS),
        lambda: hosvd_rank1(np.ones((2, 3, 4), dtype=complex)),
    ],
    ids=["ChannelRealization", "TrainingDesign", "RankOneFactors"],
)
def test_array_records_compare_by_identity(build):
    # records holding ndarrays compare and hash by identity: field-wise
    # equality would ask an array for its truth value
    a, b = build(), build()
    assert a == a and a != b
    assert len({a, b, a}) == 2


def _realization(dims=SMALL_DIMS, seed=0):
    return build_channels(dims, sample_params(np.random.default_rng(seed)))


def _noiseless(ch, design):
    """The pilot model at noise variance 0, which draws nothing from its
    generator."""
    return simulate_observation(ch, design, 0.0, np.random.default_rng(0))


def _angle_dist(a, b):
    return abs(np.angle(np.exp(1j * (a - b))))


def _tensor_route_observation(ch, design):
    """Noiseless observation through multilinear products: identity core
    contracted with the two hops along the first two modes, then with the
    pilot block and the phase profiles along the pilot and block modes."""
    bs_ris, ris_ue = hops(ch)
    core = n_mode_product(identity_tensor(3, ch.dims.n_ris), ris_ue, 1)
    core = n_mode_product(core, bs_ris.T, 2)          # mode 3 keeps identity
    x = n_mode_product(core, design.bs_pilots.T, 2)
    return n_mode_product(x, design.ris_phases.T, 3).data


def _per_block_observation(ch, design, noise_var, rng):
    """Block k as its own product ris_ue @ diag(ris_phases[:, k]) @
    bs_ris @ bs_pilots, from the hops rebuilt by :func:`oracles.hops`,
    plus the package's noise draw."""
    d = ch.dims
    bs_ris, ris_ue = hops(ch)
    first_hop_tx = bs_ris @ design.bs_pilots
    x = np.empty((d.n_ue, d.n_pilots, d.n_blocks), dtype=np.complex128)
    for k in range(d.n_blocks):
        x[:, :, k] = ris_ue @ (design.ris_phases[:, k, None] * first_hop_tx)
    if noise_var > 0:
        noise = rng.standard_normal(x.shape) + 1j * rng.standard_normal(x.shape)
        x = x + np.sqrt(noise_var / 2.0) * noise
    return x


def _per_column_krf(cascade, dims, counter=None):
    """Rank-one fit of each cascade column, one column at a time, through
    counted products."""
    out = np.empty_like(cascade)
    for n in range(dims.n_ris):
        mat = cascade[:, n].reshape(dims.n_ue, dims.n_bs, order="F")
        u, _ = dominant_pair_oracle(mat, counter)
        right = counted_matmul(mat.conj().T, u[:, None], counter)[:, 0]
        approx = counted_matmul(u[:, None], right.conj()[None, :], counter)
        out[:, n] = approx.reshape(-1, order="F")
    return out


def _counted_matched_filter(obs, design, counter):
    """The filter's two mode products as counted 2-D products: the pilot
    mode one user at a time, then the block mode against ris_phases^H."""
    n_ue = obs.shape[0]
    per_bs = np.stack([counted_matmul(design.bs_pilots.conj(), obs[q], counter)
                       for q in range(n_ue)])
    n_bs = per_bs.shape[1]
    per_ris = counted_matmul(per_bs.reshape(n_ue * n_bs, -1), design.ris_phases.conj().T, counter)
    return per_ris.reshape(n_ue, n_bs, -1).reshape(n_ue * n_bs, -1, order="F")


def _dense_matched_filter(obs, design):
    """Matched filter against the explicit n_bs*n_ris x n_pilots*n_blocks
    training operator kron(ris_phases, bs_pilots)."""
    joint = kron(design.ris_phases, design.bs_pilots)
    y = unfold(obs, 1) @ joint.conj().T
    # y columns run over (bs index fastest, surface index slowest); regroup
    # as rows (ue fastest, bs slowest) by going through the 3-way layout.
    n_ue = obs.shape[0]
    n_bs, n_ris = design.bs_pilots.shape[0], design.ris_phases.shape[0]
    return unfold(fold(y, 1, (n_ue, n_bs, n_ris)), 3).T


def _gather_tables(dims):
    """Index tables (``y = x[table]``) of the re-indexing chain.

    Per column, move from row-digit order (bs_y, bs_z, ue_y, ue_z) to
    (bs_y, ue_y, bs_z, ue_z) -- the inverse of ``col_perm``, which
    satisfies ``khatri_rao(kron(A, B), kron(C, D)) == kron(khatri_rao(A, C),
    khatri_rao(B, D))[col_perm]`` -- then merge the two per-axis blocks
    across the whole vector with ``vec_perm``, which satisfies
    ``kron(vec(A), vec(B)) == vec(kron(A, B))[vec_perm]``.  ``total_perm``
    is the composed map applied to the vectorized cascade.
    """
    col_perm = _swap_middle(dims.n_bs_y, dims.n_ue_y, dims.n_bs_z, dims.n_ue_z)
    vec_perm = _swap_middle(
        dims.n_ris_y, dims.n_ris_z,
        dims.n_bs_y * dims.n_ue_y, dims.n_bs_z * dims.n_ue_z,
    )
    block = dims.n_ue * dims.n_bs
    col_block = (
        np.arange(dims.n_ris)[:, None] * block + np.argsort(col_perm)[None, :]
    ).ravel()
    return col_perm, vec_perm, col_block[vec_perm]


# ---------------------------------------------------------------------------
# observation simulation
# ---------------------------------------------------------------------------


def test_observation_shape_and_metadata():
    ch = _realization()
    design = make_training(SMALL_DIMS)
    obs = simulate_observation(ch, design, noise_var=0.1, rng=np.random.default_rng(7))
    assert isinstance(obs, np.ndarray)
    assert obs.shape == (4, 16, 16)
    assert obs.dtype == np.complex128


def test_observation_routes_agree():
    # block-by-block matrix products and the multiway-product route must
    # produce the same noiseless observation
    for dims in (SMALL_DIMS, ODD_DIMS):
        ch = _realization(dims, seed=1)
        design = make_training(dims)
        a = _noiseless(ch, design)
        b = _tensor_route_observation(ch, design)
        np.testing.assert_allclose(a, b, atol=1e-12)


def test_observation_matches_per_block_oracle():
    # one product over all blocks == one product per block, noise included
    for dims, seed in ((SMALL_DIMS, 40), (ODD_DIMS, 41), (WIDE_DIMS, 42),
                       (FFT64_DIMS, 43), (FFT72_DIMS, 44)):
        ch = _realization(dims, seed)
        design = make_training(dims)
        for noise_var in (0.0, 0.3):
            got = simulate_observation(ch, design, noise_var, rng=np.random.default_rng(seed))
            want = _per_block_observation(
                ch, design, noise_var, np.random.default_rng(seed)
            )
            assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


def test_in_place_noise_is_bit_identical():
    # the two draws added in place == the old out-of-place complex sum
    for dims, seed in ((SMALL_DIMS, 45), (REF_DIMS, 46), (WIDE_DIMS, 47)):
        ch = _realization(dims, seed)
        design = make_training(dims)
        clean = _noiseless(ch, design)
        for noise_var in (0.3, 10.0):
            got = simulate_observation(ch, design, noise_var, rng=np.random.default_rng(seed))
            want = noisy_observation(clean, noise_var, np.random.default_rng(seed))
            assert np.array_equal(got, want)


@pytest.mark.parametrize("dims", [REF_DIMS, WIDE_DIMS], ids=["ref", "wide"])
def test_pilot_noise_is_the_split_two_block_draw(dims):
    # the helper yields the real block, then the imaginary block, from one
    # reused buffer: bit for bit one (2, *shape) draw split on its first
    # axis, leaving the generator in the same state; both pilot paths draw
    # through it and leave the generator in that state too
    shape = (dims.n_ue, dims.n_pilots, dims.n_blocks)
    want = np.random.default_rng(90)
    split = want.standard_normal((2,) + shape)
    rng = np.random.default_rng(90)
    blocks = []
    for block in _standard_noise(rng, shape):
        assert not blocks or block is blocks[0][0]
        blocks.append((block, block.copy()))
    assert [b.shape for _, b in blocks] == [shape, shape]
    assert np.array_equal(blocks[0][1], split[0]) and np.array_equal(blocks[1][1], split[1])
    assert rng.bit_generator.state == want.bit_generator.state
    ch, design = _realization(dims, seed=92), make_training(dims)
    for path in (simulate_observation, filtered_observation):
        rng = np.random.default_rng(90)
        path(ch, design, 0.3, rng)
        assert rng.bit_generator.state == want.bit_generator.state, path.__name__


def test_observation_noise_statistics():
    ch = _realization(seed=2)
    design = make_training(SMALL_DIMS)
    sigma2 = 0.5
    clean = _noiseless(ch, design)
    acc = 0.0
    n_draws = 100
    rng = np.random.default_rng(3)
    for _ in range(n_draws):
        noisy = simulate_observation(ch, design, sigma2, rng=rng)
        acc += np.mean(np.abs(noisy - clean) ** 2)
    assert acc / n_draws == pytest.approx(sigma2, rel=0.03)


def test_observation_seed_reproducible():
    ch = _realization(seed=4)
    design = make_training(SMALL_DIMS)
    a = simulate_observation(ch, design, 0.2, rng=np.random.default_rng(11))
    b = simulate_observation(ch, design, 0.2, rng=np.random.default_rng(11))
    np.testing.assert_array_equal(a, b)


def test_observation_validation():
    ch = _realization()
    design = make_training(SMALL_DIMS)
    with pytest.raises(ValueError):
        simulate_observation(ch, design, -1.0, np.random.default_rng(0))
    # the pilot model takes the sweeps' pilot-path inputs: the generator is
    # required, so no call draws from an unseeded stream
    names = list(inspect.signature(filtered_observation).parameters)
    params = inspect.signature(simulate_observation).parameters
    assert list(params) == names == ["ch", "design", "noise_var", "rng"]
    assert all(p.default is inspect.Parameter.empty for p in params.values())
    with pytest.raises(TypeError):
        simulate_observation(ch, design, 0.1)


def _sizes(d):
    return (d.n_bs, d.n_pilots, d.n_ris, d.n_blocks)


@pytest.mark.parametrize("dims, other", [
    (FFT72_DIMS, dataclasses.replace(FFT72_DIMS, n_bs_z=1)),
    (FFT72_DIMS, dataclasses.replace(FFT72_DIMS, n_pilots=8)),
    (REF_DIMS, dataclasses.replace(REF_DIMS, n_bs_z=2)),
    (REF_DIMS, dataclasses.replace(REF_DIMS, n_pilots=32)),
    (FFT72_DIMS, dataclasses.replace(FFT72_DIMS, n_ris_z=9)),
    (FFT72_DIMS, dataclasses.replace(FFT72_DIMS, n_blocks=64)),
    (REF_DIMS, dataclasses.replace(REF_DIMS, n_ris_z=2)),
    (REF_DIMS, dataclasses.replace(REF_DIMS, n_blocks=32)),
], ids=["fft-n_bs", "fft-n_pilots", "dense-n_bs", "dense-n_pilots",
        "fft-n_ris", "fft-n_blocks", "dense-n_ris", "dense-n_blocks"])
def test_pilot_paths_reject_a_pilot_block_for_other_dims(dims, other):
    # a design that differs from the channel in one of its four sizes fails
    # with one line naming both quadruples on both pilot paths, before numpy
    # meets the shapes, and even where an FFT could zero-pad the difference
    ch, design = _realization(dims), make_training(other)
    assert sum(a != b for a, b in zip(_sizes(dims), _sizes(other))) == 1
    want = re.escape("design has (n_bs, n_pilots, n_ris, n_blocks) = %s but the channel has %s"
                     % (_sizes(other), _sizes(dims)))
    for path in (simulate_observation, filtered_observation):
        with pytest.raises(ValueError, match="^%s$" % want):
            path(ch, design, 0.1, np.random.default_rng(0))


@pytest.mark.parametrize("noise_var", [math.nan, math.inf, -math.inf, -1.0])
def test_observation_rejects_bad_noise_var(noise_var):
    # NaN used to run noiseless and inf to fill the block with inf
    ch = _realization()
    design = make_training(SMALL_DIMS)
    with pytest.raises(ValueError, match="finite and >= 0"):
        simulate_observation(ch, design, noise_var, rng=np.random.default_rng(0))


@pytest.mark.parametrize("noise_var", [0.0, 0.1, 10.0])
@pytest.mark.parametrize("dims", [REF_DIMS, WIDE_DIMS, OVERSAMPLED_DIMS],
                         ids=["ref", "wide", "oversampled"])
def test_filtered_observation_is_the_filtered_simulation(dims, noise_var):
    # the sweeps' pilot path, the true cascade plus the filtered noise,
    # against the pilot model followed by the filter: equal up to rounding,
    # from the same draws, leaving the generator at the same position
    ch = _realization(dims, seed=70)
    design = make_training(dims)
    assert design.block_fft == (dims.n_blocks >= 64)
    rng_model, rng_path = np.random.default_rng(71), np.random.default_rng(71)
    obs = simulate_observation(ch, design, noise_var, rng=rng_model)
    want = matched_filter(obs, design, check=False)
    got = filtered_observation(ch, design, noise_var, rng_path)
    assert got.shape == want.shape == (dims.n_bs * dims.n_ue, dims.n_ris)
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
    assert rng_path.standard_normal() == rng_model.standard_normal()


@pytest.mark.parametrize("dims", [REF_DIMS, WIDE_DIMS], ids=["ref", "wide"])
def test_a_cascade_outside_the_rank_one_model_runs_through_every_stage(dims):
    # a truth put in with dataclasses.replace, as a channel model outside
    # the line-of-sight geometry would give it: both pilot paths simulate
    # that cascade, not the geometry's, and every fit and score runs on it
    ch = _realization(dims, seed=72)
    design = make_training(dims)
    assert design.block_fft == (dims is WIDE_DIMS)
    rng = np.random.default_rng(73)
    truth = np.asfortranarray(crandn(rng, *ch.cascade.shape))
    ch = dataclasses.replace(ch, cascade=truth)
    for noise_var in (0.0, 0.1):
        obs = simulate_observation(ch, design, noise_var, np.random.default_rng(74))
        want = matched_filter(obs, design, check=False)
        got = filtered_observation(ch, design, noise_var, np.random.default_rng(74))
        assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)
    for name, method in ESTIMATORS.items():
        est = method.fit(got, dims)
        assert np.isfinite(nmse(truth, est.cascade)), name
        rate = spectral_efficiency(ch, est, 1.0, 0.1)
        assert np.isfinite(rate), name
        if name in ("krf", "ls"):
            assert abs(rate - rate_oracle(ch, est, 1.0, 0.1)) <= 1e-12 * rate, name


def test_filtered_observation_rejects_what_the_simulation_rejects():
    ch = _realization()
    design = make_training(SMALL_DIMS)
    for noise_var in (math.nan, math.inf, -1.0):
        with pytest.raises(ValueError, match="finite and >= 0"):
            filtered_observation(ch, design, noise_var, np.random.default_rng(0))


# ---------------------------------------------------------------------------
# matched filter
# ---------------------------------------------------------------------------


def test_matched_filter_inverts_training_noiselessly():
    for dims in (SMALL_DIMS, ODD_DIMS):
        ch = _realization(dims, seed=5)
        design = make_training(dims)
        obs = _noiseless(ch, design)
        out = matched_filter(obs, design)
        assert out.shape == (dims.n_ue * dims.n_bs, dims.n_ris)
        np.testing.assert_allclose(out, ch.cascade, atol=1e-10)


def test_matched_filter_matches_dense_oracle():
    # two mode products against the factors == one product against the
    # dense Kronecker operator, on noisy observations
    for dims, seed in ((SMALL_DIMS, 20), (ODD_DIMS, 21), (REF_DIMS, 22),
                       (FFT64_DIMS, 23), (FFT72_DIMS, 24)):
        ch = _realization(dims, seed)
        design = make_training(dims)
        obs = simulate_observation(ch, design, 0.5, rng=np.random.default_rng(seed))
        dense = _dense_matched_filter(obs, design)
        out = matched_filter(obs, design)
        assert np.linalg.norm(out - dense) <= 1e-12 * np.linalg.norm(dense)


def test_matched_filter_rejects_shape_mismatch():
    design = make_training(SMALL_DIMS)
    obs = _noiseless(_realization(ODD_DIMS), make_training(ODD_DIMS))
    with pytest.raises(ValueError, match="columns but observation has"):
        matched_filter(obs, design)
    # equal column counts from other (n_pilots, n_blocks) pairs: the message
    # names both pairs instead of reading "256 columns but ... has 256"
    square = make_training(REF_DIMS)
    want = (r"256 columns but observation has 256 "
            r"\(n_pilots x n_blocks: design 16 x 16, observation 8 x 32\)")
    with pytest.raises(ValueError, match=want):
        matched_filter(np.zeros((REF_DIMS.n_ue, 8, 32), dtype=complex), square)
    # an observation of another order fails with one line, not in unpacking
    block = _noiseless(_realization(), design)
    for bad in (block[0], block[None]):
        with pytest.raises(ValueError, match=r"expected an \(n_ue, n_pilots, n_blocks\) obs"):
            matched_filter(bad, design)


def test_matched_filter_charges_filter_macs():
    # filter_macs is what the filter's two mode products multiply, counted
    # on 2-D products that give the filter's output
    for d, seed in ((SMALL_DIMS, 50), (ODD_DIMS, 51), (REF_DIMS, 52)):
        design = make_training(d)
        obs = _noiseless(_realization(d, seed), design)
        counter = MacCounter()
        want = _counted_matched_filter(obs, design, counter)
        got = matched_filter(obs, design)
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)
        assert counter.macs == filter_macs(d.n_ue, d.n_bs, d.n_ris, d.n_pilots, d.n_blocks)


def test_matched_filter_preserves_noise_variance():
    # orthonormal training rows: pure input noise stays at variance sigma^2
    design = make_training(SMALL_DIMS)
    sigma2 = 0.7
    rng = np.random.default_rng(6)
    acc = 0.0
    n_draws = 100
    for _ in range(n_draws):
        noise = np.sqrt(sigma2 / 2) * crandn(rng, 4, 16, 16)
        out = matched_filter(noise, design)
        acc += np.mean(np.abs(out) ** 2)
    assert acc / n_draws == pytest.approx(sigma2, rel=0.05)


def test_matched_filter_check_changes_nothing():
    # every design has orthonormal factor rows by its sizes, so the check
    # flag is kept for callers only: both values give the same bits
    design = make_training(SMALL_DIMS)
    obs = simulate_observation(_realization(seed=9), design, 0.1, rng=np.random.default_rng(3))
    np.testing.assert_array_equal(matched_filter(obs, design, check=True),
                                  matched_filter(obs, design, check=False))


def test_block_product_route(monkeypatch):
    # DFT profiles at >= FFT_MIN_BLOCKS blocks go through one FFT per
    # simulation and one inverse FFT per filter; everything else is a GEMM
    calls = []

    def recording(name, fn):
        def wrapped(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(np.fft, "fft", recording("fft", np.fft.fft))
    monkeypatch.setattr(np.fft, "ifft", recording("ifft", np.fft.ifft))

    design = make_training(REF_DIMS)
    obs = simulate_observation(_realization(REF_DIMS, 60), design, 0.1,
                               rng=np.random.default_rng(60))
    matched_filter(obs, design)
    assert not design.block_fft and calls == []

    for dims, seed in ((FFT64_DIMS, 61), (WIDE_DIMS, 62)):
        design = make_training(dims)
        obs = simulate_observation(_realization(dims, seed), design, 0.1,
                                   rng=np.random.default_rng(seed))
        assert calls == ["fft"]
        matched_filter(obs, design, check=False)
        assert calls == ["fft", "ifft"]
        calls.clear()

    # with FFT_MIN_BLOCKS raised past the block count, the profiles take
    # the dense route, bit for bit the GEMM, whether they are the DFT rows
    # or one entry off them
    d = WIDE_DIMS
    monkeypatch.setattr(training, "FFT_MIN_BLOCKS", d.n_blocks + 1)
    design = make_training(d)
    moved = np.array(design.ris_phases)
    moved[3, 5] += 1e-3
    for dense in (design, design_with_factors(design, ris_phases=moved)):
        obs = simulate_observation(_realization(d, 63), dense, 0.1, rng=np.random.default_rng(63))
        out = matched_filter(obs, dense, check=False)
        assert not dense.block_fft and calls == []
        per_bs = np.matmul(dense.bs_pilots.conj(), obs).reshape(d.n_ue * d.n_bs, d.n_blocks)
        want = (per_bs @ dense.ris_phases.conj().T).reshape(d.n_ue, d.n_bs, d.n_ris)
        assert np.array_equal(out, want.reshape(d.n_ue * d.n_bs, d.n_ris, order="F"))


# ---------------------------------------------------------------------------
# index re-wiring between the matrix and six-mode layouts
# ---------------------------------------------------------------------------


def test_swap_middle_kron_reordering():
    # p = _swap_middle(la, lb, lc, ld) satisfies
    # kron(a, b, c, d)[p] == kron(a, c, b, d)
    rng = np.random.default_rng(8)
    a, b, c, d = (crandn(rng, n) for n in (2, 3, 4, 2))
    chain = functools.reduce(np.kron, (a, b, c, d))
    swapped = functools.reduce(np.kron, (a, c, b, d))
    p = _swap_middle(2, 3, 4, 2)
    np.testing.assert_allclose(chain[p], swapped, atol=1e-12)


def test_swap_middle_degenerate():
    np.testing.assert_array_equal(_swap_middle(1, 1, 1, 1), [0])
    # swapping two singleton middles is the identity
    np.testing.assert_array_equal(_swap_middle(3, 1, 1, 4), np.arange(12))


def test_permutations_are_bijections():
    for dims in PLAN_DIMS:
        n = dims.n_ue * dims.n_bs * dims.n_ris
        for p in _gather_tables(dims):
            assert np.array_equal(np.sort(p), np.arange(len(p)))
        index = np.arange(n).reshape(dims.n_ue * dims.n_bs, dims.n_ris)
        tensor = cascade_tensor(index, dims)
        assert tensor.shape == tensor_shape(dims) == build_permutations(dims)
        assert np.array_equal(np.sort(tensor, axis=None), np.arange(n))
        assert np.array_equal(to_cascade(dims, tensor), index)


def test_reshape_transpose_equals_gather():
    # the layout's reshape/transpose and its inverse reproduce the stored
    # index tables exactly, at every extent including ones
    rng = np.random.default_rng(23)
    for dims in PLAN_DIMS:
        shape = tensor_shape(dims)
        cascade = crandn(rng, dims.n_ue * dims.n_bs, dims.n_ris)
        total_perm = _gather_tables(dims)[2]
        gathered = tensorize(vec(cascade)[total_perm], shape).data
        assert np.array_equal(cascade_tensor(cascade, dims), gathered)
        tensor = crandn(rng, *shape)
        undone = vec(tensor)[np.argsort(total_perm)]
        assert np.array_equal(vec(to_cascade(dims, tensor)), undone)


def test_plan_tensor_dims_ordering():
    # ue_z, bs_z, ris_z, ue_y, bs_y, ris_y
    assert tensor_shape(ODD_DIMS) == build_permutations(ODD_DIMS) == (1, 2, 2, 2, 3, 5)


def test_rewired_cascade_is_separable():
    # after re-indexing, the vectorized cascade stacks into the outer
    # product of the six per-axis vectors
    for dims, seed in ((SMALL_DIMS, 9), (ODD_DIMS, 10)):
        ch = _realization(dims, seed)
        box = cascade_tensor(ch.cascade, dims)
        expected = functools.reduce(
            np.multiply.outer,
            (ch.ue_z, ch.bs_z, ch.surface_z, ch.ue_y, ch.bs_y, ch.surface_y),
        )
        assert TENSOR_MODES == ("ue_z", "bs_z", "surface_z", "ue_y", "bs_y", "surface_y")
        np.testing.assert_allclose(box, expected, atol=1e-10)


def test_all_singleton_dims_plan():
    dims = SystemDims(
        n_bs_y=1, n_bs_z=1, n_ue_y=1, n_ue_z=1, n_ris_y=1, n_ris_z=1,
        n_pilots=1, n_blocks=1,
    )
    one = np.full((1, 1), 2.0 - 1.0j)
    assert cascade_tensor(one, dims).shape == (1,) * 6
    np.testing.assert_array_equal(to_cascade(dims, cascade_tensor(one, dims)), one)


# ---------------------------------------------------------------------------
# estimator table
# ---------------------------------------------------------------------------


def test_estimator_table_shares_one_call():
    # every entry's fit is called as fit(cascade_obs, dims); only ls
    # spends no MACs
    ch = _realization(REF_DIMS, seed=53)
    assert list(ESTIMATORS) == ["hdr", "krf", "ls"]
    for name, entry in ESTIMATORS.items():
        est = entry.fit(ch.cascade, REF_DIMS)
        assert est.cascade.shape == ch.cascade.shape
        macs = entry.macs(REF_DIMS)
        assert type(macs) is int and macs >= 0
        assert (macs == 0) == (name == "ls")


def test_estimator_table_rejects_misshaped_cascade():
    # every fit checks the cascade against dims, ls included
    for entry in ESTIMATORS.values():
        with pytest.raises(ValueError, match=r"expected cascade of shape \(256, 16\)"):
            entry.fit(np.ones((3, 3)), REF_DIMS)
    # without dims, ls takes any shape
    assert ls_estimate(np.ones((3, 3))).cascade.shape == (3, 3)


# ---------------------------------------------------------------------------
# structured estimator
# ---------------------------------------------------------------------------


def test_hdr_noiseless_is_exact():
    for dims, seed in ((SMALL_DIMS, 11), (ODD_DIMS, 12)):
        ch = _realization(dims, seed)
        est = hdr_estimate(ch.cascade, dims)
        err = np.linalg.norm(est.cascade - ch.cascade) ** 2
        assert err / np.linalg.norm(ch.cascade) ** 2 < 1e-20


def test_hdr_noiseless_factor_alignment():
    ch = _realization(seed=13)
    est = hdr_estimate(ch.cascade, SMALL_DIMS)
    for name in TENSOR_MODES:
        truth = getattr(ch, name)
        fitted = getattr(est, name)
        truth = truth / np.linalg.norm(truth)
        assert abs(np.vdot(truth, fitted)) == pytest.approx(1.0, abs=1e-10)
    # unit-modulus entries: the cascade norm is sqrt(Q*M*N)
    assert abs(est.amplitude) == pytest.approx(16.0, rel=1e-10)


def test_hdr_rejects_wrong_shape():
    with pytest.raises(ValueError, match="expected cascade of shape"):
        hdr_estimate(np.ones((4, 4), dtype=complex), SMALL_DIMS)


def test_hdr_accepts_precomputed_plan():
    ch = _realization(seed=14)
    rng = np.random.default_rng(15)
    noisy = ch.cascade + 0.3 * crandn(rng, *ch.cascade.shape)
    plan = build_permutations(SMALL_DIMS)
    a = hdr_estimate(noisy, SMALL_DIMS)
    b = hdr_estimate(noisy, SMALL_DIMS, plan=plan)
    np.testing.assert_array_equal(a.cascade, b.cascade)


def test_hdr_rejects_a_plan_for_other_tensor_dims():
    # REF dims with the user array's axes reshaped to 2 x 8: the same
    # cascade shape, so the wrong plan would re-index without error and
    # fit a length-2 ue_y; it raises, naming both tensor dims, and so
    # does a plan that is not a shape at all
    ch = _realization(REF_DIMS, seed=18)
    wrong = build_permutations(dataclasses.replace(REF_DIMS, n_ue_y=2, n_ue_z=8))
    msg = "plan has tensor dims (8, 4, 4, 2, 4, 4) but dims give (4, 4, 4, 4, 4, 4)"
    with pytest.raises(ValueError, match=re.escape(msg)):
        hdr_estimate(ch.cascade, REF_DIMS, plan=wrong)
    with pytest.raises(ValueError, match="plan has tensor dims"):
        hdr_estimate(ch.cascade, REF_DIMS, plan=REF_DIMS)
    # a plan built from other training sizes has the same tensor dims
    other_training = build_permutations(dataclasses.replace(REF_DIMS, n_pilots=32))
    np.testing.assert_array_equal(
        hdr_estimate(ch.cascade, REF_DIMS, plan=other_training).cascade,
        hdr_estimate(ch.cascade, REF_DIMS).cascade,
    )


def test_hdr_writes_reconstruction_into_cascade_layout():
    # the cascade is channel.rank_one_cascade of hdr's own factors, and
    # equals the rank-one tensor pushed back through the inverse
    # re-indexing, at every plan geometry
    rng = np.random.default_rng(16)
    for dims in PLAN_DIMS:
        noisy = crandn(rng, dims.n_ue * dims.n_bs, dims.n_ris)
        est = hdr_estimate(noisy, dims, plan=build_permutations(dims))
        vectors = {k: getattr(est, k) for k in TENSOR_MODES}
        np.testing.assert_array_equal(
            est.cascade, rank_one_cascade(**vectors, amplitude=est.amplitude)
        )
        fit = hosvd_rank1_oracle(cascade_tensor(noisy, dims))
        want = to_cascade(dims, reconstruct(fit))
        assert est.cascade.shape == want.shape
        assert np.linalg.norm(est.cascade - want) <= 1e-12 * np.linalg.norm(want)


def test_hdr_never_loses_to_matched_filter_alone():
    # projecting onto the separable structure cannot hurt: per-trial error
    # of the structured fit stays at or below the raw matched-filter error
    design = make_training(SMALL_DIMS)
    plan = build_permutations(SMALL_DIMS)
    n_bad = 0
    for snr_db in (-10.0, 0.0, 10.0):
        sigma2 = 10 ** (-snr_db / 10)
        for trial in range(60):
            rng = np.random.default_rng((int(snr_db) + 50) * 1000 + trial)
            ch = build_channels(SMALL_DIMS, sample_params(rng))
            obs = simulate_observation(ch, design, sigma2, rng=rng)
            raw = matched_filter(obs, design, check=False)
            fit = hdr_estimate(raw, SMALL_DIMS, plan=plan)
            err_fit = np.linalg.norm(fit.cascade - ch.cascade)
            err_raw = np.linalg.norm(raw - ch.cascade)
            if err_fit > err_raw * (1 + 1e-9):
                n_bad += 1
    assert n_bad == 0


# ---------------------------------------------------------------------------
# baselines
# ---------------------------------------------------------------------------


def test_krf_noiseless_is_exact():
    ch = _realization(seed=16)
    est = krf_estimate(ch.cascade, SMALL_DIMS)
    np.testing.assert_allclose(est.cascade, ch.cascade, atol=1e-10)
    assert est.surface_y is None  # no per-axis factors from this baseline


def test_krf_matches_per_column_oracle():
    # the stacked fit of all columns == one rank-one fit per column, in
    # values, and krf's closed-form MACs == the per-column products counted;
    # WIDE_DIMS and PARTIAL_SLAB_DIMS fit their stacks in slabs, the last of
    # them partial at PARTIAL_SLAB_DIMS, and the last dims fold each column
    # to a tall 6 x 2 matrix
    assert PARTIAL_SLAB_DIMS.n_ris % (_GRAM_SLAB // PARTIAL_SLAB_DIMS.n_ue ** 2) == 36
    tall = SystemDims(1, 2, 3, 2, 2, 2, 2, 4)
    for dims, seed in ((SMALL_DIMS, 43), (ODD_DIMS, 44), (REF_DIMS, 45), (WIDE_DIMS, 46),
                       (PARTIAL_SLAB_DIMS, 48), (tall, 47)):
        ch = _realization(dims, seed)
        rng = np.random.default_rng(seed)
        noisy = ch.cascade + 0.5 * crandn(rng, *ch.cascade.shape)
        looped = MacCounter()
        got = krf_estimate(noisy, dims).cascade
        want = _per_column_krf(noisy, dims, counter=looped)
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)
        assert ESTIMATORS["krf"].macs(dims) == looped.macs


@pytest.mark.parametrize(
    "dims", [SMALL_DIMS, ODD_DIMS, REF_DIMS, WIDE_DIMS, PARTIAL_SLAB_DIMS],
    ids=["small", "odd", "ref", "wide", "partial-slab"],
)
def test_krf_stack_members_match_eigh_oracle_across_snr(dims):
    # every member of krf's stack, fitted by squaring and the matrix-vector
    # tail, against one eigh per matrix up to phase, from -20 to 40 dB
    design = make_training(dims)
    n_ue, n_bs, n_ris = dims.n_ue, dims.n_bs, dims.n_ris
    for snr_db in range(-20, 41, 10):
        rng = np.random.default_rng(snr_db + 100)
        ch = build_channels(dims, sample_params(rng))
        obs = simulate_observation(ch, design, 10 ** (-snr_db / 10), rng=rng)
        raw = matched_filter(obs, design, check=False)
        stack = raw.reshape(n_ue, n_bs, n_ris, order="F").transpose(2, 0, 1)
        u = dominant_left_singular_vector(stack)
        u_ref, _ = dominant_pairs_oracle(stack)
        assert phase_distance(u, u_ref) <= 1e-12


def test_krf_rank_two_column_keeps_top_component():
    # a column that folds to the 2x2 identity has two equal singular
    # values; the per-column rank-one fit keeps exactly half the energy
    dims = SystemDims(
        n_bs_y=2, n_bs_z=1, n_ue_y=2, n_ue_z=1, n_ris_y=1, n_ris_z=1,
        n_pilots=2, n_blocks=1,
    )
    col = np.array([1.0, 0.0, 0.0, 1.0], dtype=complex)[:, None]
    est = krf_estimate(col, dims)
    err = np.linalg.norm(est.cascade - col) ** 2 / np.linalg.norm(col) ** 2
    assert err == pytest.approx(0.5, abs=1e-12)


def test_krf_rejects_wrong_shape():
    with pytest.raises(ValueError, match="expected cascade of shape"):
        krf_estimate(np.ones((3, 3), dtype=complex), SMALL_DIMS)


def test_krf_denoises_relative_to_ls():
    design = make_training(SMALL_DIMS)
    sigma2 = 1.0  # 0 dB
    wins = 0
    n_trials = 50
    for trial in range(n_trials):
        rng = np.random.default_rng(trial + 400)
        ch = build_channels(SMALL_DIMS, sample_params(rng))
        obs = simulate_observation(ch, design, sigma2, rng=rng)
        raw = matched_filter(obs, design, check=False)
        err_krf = np.linalg.norm(krf_estimate(raw, SMALL_DIMS).cascade - ch.cascade)
        err_ls = np.linalg.norm(raw - ch.cascade)
        wins += err_krf < err_ls
    assert wins == n_trials


@pytest.mark.parametrize(
    "dims",
    [SystemDims(4, 4, 1, 1, 8, 8, 16, 64), SystemDims(1, 1, 4, 4, 8, 8, 1, 64)],
    ids=["single-antenna-ue", "single-antenna-bs"],
)
def test_krf_is_ls_with_one_antenna_at_either_end(dims):
    # each cascade column is then a vector, its own best rank-one fit, so
    # the per-column baseline returns the noisy observation unchanged
    rng = np.random.default_rng(61)
    ch = build_channels(dims, sample_params(rng))
    raw = filtered_observation(ch, make_training(dims), 1.0, rng)
    krf, ls = krf_estimate(raw, dims).cascade, ls_estimate(raw, dims).cascade
    assert np.linalg.norm(krf - ls) <= 1e-12 * np.linalg.norm(ls)


def test_ls_estimate_is_an_independent_copy():
    raw = np.ones((16, 16), dtype=complex)
    est = ls_estimate(raw, SMALL_DIMS)
    np.testing.assert_array_equal(est.cascade, raw)
    raw[0, 0] = 99.0
    assert est.cascade[0, 0] == 1.0 + 0j


def test_ideal_estimate_matches_truth():
    ch = _realization(seed=17)
    est = ideal_estimate(ch)
    np.testing.assert_allclose(est.cascade, ch.cascade, atol=1e-10)
    assert est.surface_y is not None


# ---------------------------------------------------------------------------
# spatial-frequency read-out
# ---------------------------------------------------------------------------


def test_extract_frequency_clean_ramp():
    for f in (0.7, -2.1, 0.0, 3.0):
        est = extract_spatial_frequency(steering_1d(8, f))
        assert _angle_dist(est, f) < 1e-6


def test_extract_frequency_short_vector():
    est = extract_spatial_frequency(steering_1d(2, 1.1))
    assert _angle_dist(est, 1.1) < 1e-6


def test_extract_frequency_noisy_rmse():
    # 20 dB per-entry SNR on length-8 ramps: RMSE well under 0.02 rad
    rng = np.random.default_rng(18)
    errs = []
    for _ in range(300):
        f = rng.uniform(-math.pi, math.pi)
        v = steering_1d(8, f)
        v = v + math.sqrt(0.01 / 2) * crandn(rng, 8)
        errs.append(_angle_dist(extract_spatial_frequency(v), f) ** 2)
    assert math.sqrt(np.mean(errs)) < 0.02


def test_extract_frequency_from_fitted_surface():
    # the fitted surface vector carries the sum of the arrival and
    # departure frequencies (wrapped)
    rng = np.random.default_rng(19)
    params = sample_params(rng)
    ch = build_channels(SMALL_DIMS, params)
    est = hdr_estimate(ch.cascade, SMALL_DIMS)
    f_sum = params.ris_arr_freqs[0] + params.ris_dep_freqs[0]
    assert _angle_dist(extract_spatial_frequency(est.surface_y), f_sum) < 1e-6


def test_extract_frequency_validation():
    with pytest.raises(ValueError):
        extract_spatial_frequency(np.ones(1, dtype=complex))
    with pytest.raises(ValueError):
        extract_spatial_frequency(np.zeros(8, dtype=complex))


def test_non_finite_input_is_named_not_called_zero():
    # one NaN entry fails every zero check (NaN > 0 is false), so each
    # message names non-finite input: hdr through its stacked Grams and
    # through a mode longer than the rest of its tensor (8 of 16 entries),
    # krf, the rate of an ls estimate, and the frequency read-out, which
    # also refuses an infinite entry
    ch = _realization(REF_DIMS, seed=20)
    bad = np.array(ch.cascade)
    bad[5, 3] = np.nan
    tall = SystemDims(1, 1, 1, 2, 1, 8, 1, 8)
    assert max(tensor_shape(tall)) ** 2 > tall.n_ue * tall.n_bs * tall.n_ris
    tall_bad = np.ones((tall.n_ue * tall.n_bs, tall.n_ris), dtype=complex)
    tall_bad[1, 6] = np.nan
    ramp = steering_1d(8, 0.4)
    calls = [
        lambda: hdr_estimate(bad, REF_DIMS),
        lambda: hdr_estimate(tall_bad, tall),
        lambda: krf_estimate(bad, REF_DIMS),
        lambda: spectral_efficiency(ch, ls_estimate(bad), 1.0, 1.0),
    ]
    for value in (np.nan, np.inf):
        v = ramp.copy()
        v[3] = value
        calls.append(lambda v=v: extract_spatial_frequency(v))
    for call in calls:
        with pytest.raises(ValueError, match="non-finite"):
            call()


def test_extract_frequency_gauge_invariant():
    # neither a phase nor any finite scale moves the reading: at 1e160
    # the norm of the unscaled ramp overflowed, and at 1e-160 its Newton
    # products went subnormal and read 0.2999993
    for f in (1.3, 0.3):
        v = steering_1d(8, f)
        a = extract_spatial_frequency(v)
        for gain in (np.exp(0.4j) * 2.5, 1e160, 1e-160):
            assert _angle_dist(a, extract_spatial_frequency(gain * v)) < 1e-12


# ---------------------------------------------------------------------------
# memory of the per-trial stages
# ---------------------------------------------------------------------------


def test_stage_peak_memory_bounded_by_observation_size():
    # tracemalloc sees numpy buffers; each stage's peak above what was live
    # when it started stays within 3x the observation at the 256-element
    # surface (measured: simulate, the sweeps' pilot path and the filter
    # 2.0x, hdr 1.5x, krf 1.4x; a (n_blocks, n_ris, n_pilots) broadcast in
    # the pilot simulation once read about 19x), and hdr's within 2.25x:
    # its tensor's C-ordered copy plus at most two slabs, with no
    # conjugated copy of the whole tensor kept across its modes (2.5x)
    dims = WIDE_DIMS
    design = make_training(dims)
    plan = build_permutations(dims)
    ch = _realization(dims, seed=47)
    rng = np.random.default_rng(48)
    peaks = {}

    def stage(name, fn):
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        out = fn()
        peaks[name] = tracemalloc.get_traced_memory()[1] - before
        return out

    tracemalloc.start()
    try:
        obs = stage("simulate", lambda: simulate_observation(ch, design, 0.1, rng=rng))
        cascade = stage("filter", lambda: matched_filter(obs, design, check=False))
        stage("pilot path", lambda: filtered_observation(ch, design, 0.1, rng))
        hdr = stage("hdr", lambda: hdr_estimate(cascade, dims, plan=plan))
        krf = stage("krf", lambda: krf_estimate(cascade, dims))
        stage("nmse", lambda: (nmse(ch.cascade, hdr.cascade), nmse(ch.cascade, krf.cascade)))
    finally:
        tracemalloc.stop()
    assert min(peaks.values()) > 0
    assert max(peaks.values()) <= 3 * obs.nbytes, peaks
    assert peaks["hdr"] <= 2.25 * obs.nbytes, peaks


# ---------------------------------------------------------------------------
# stacks of trials
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("dims", [REF_DIMS, SMALL_DIMS, ODD_DIMS], ids=["ref", "small", "odd"])
def test_stacked_trials_match_single_trials(dims):
    # a stack of three trials through the build, the pilot path, every fit
    # and both scores, against each trial alone: member b is trial b, in
    # the bits of its own build and pilot path, and up to rounding in its
    # fits and scores (krf's squarings, and the unstructured rate's, run
    # until the stack's last member certifies)
    seeds = (70, 71, 72)
    params = [sample_params(np.random.default_rng(s)) for s in seeds]
    ch = build_channels(dims, params)
    assert ch.params == tuple(params) and ch.cascade.shape == (3, dims.n_ue * dims.n_bs, dims.n_ris)
    design = make_training(dims)
    rngs = [np.random.default_rng(s) for s in seeds]
    for rng in rngs:
        sample_params(rng)                      # each stream past its geometry draw
    obs = filtered_observation(ch, design, 0.3, rngs)
    singles = []
    for b, seed in enumerate(seeds):
        rng = np.random.default_rng(seed)
        one = build_channels(dims, sample_params(rng))
        for name in TENSOR_MODES + ("cascade",):
            assert np.array_equal(getattr(ch, name)[b], getattr(one, name)), name
        assert np.array_equal(obs[b], filtered_observation(one, design, 0.3, rng))
        assert ch.cascade[b].flags.f_contiguous and obs[b].flags.f_contiguous
        singles.append((one, obs[b].copy()))
    for name, entry in ESTIMATORS.items():
        est = entry.fit(obs, dims)
        assert est.cascade.shape == obs.shape and est.cascade[0].flags.f_contiguous
        errors = nmse(ch.cascade, est.cascade)
        rates = spectral_efficiency(ch, est, 1.0, 0.3)
        assert errors.shape == rates.shape == (3,)
        for b, (one, one_obs) in enumerate(singles):
            alone = entry.fit(one_obs, dims)
            peak = np.abs(alone.cascade).max()
            assert np.abs(est.cascade[b] - alone.cascade).max() <= 1e-13 * peak, name
            want = nmse(one.cascade, alone.cascade)
            assert abs(errors[b] - want) <= 1e-12 * want, name
            want = spectral_efficiency(one, alone, 1.0, 0.3)
            assert abs(rates[b] - want) <= 1e-13 * want, name


def test_stacked_pilot_path_needs_one_generator_per_member():
    ch = build_channels(SMALL_DIMS, [sample_params(np.random.default_rng(s)) for s in (1, 2)])
    with pytest.raises(ValueError, match="needs as many generators"):
        filtered_observation(ch, make_training(SMALL_DIMS), 0.1, [np.random.default_rng(3)])


def test_stacked_hosvd_fits_each_member():
    # each member's factors and amplitude are its own fit's, up to
    # rounding, on both Gram routes ((5, 2)'s first mode is tall)
    rng = np.random.default_rng(80)
    for shape in ((4,) * 6, (3, 4, 5), (5, 2)):
        stack = crandn(rng, 3, *shape)
        fits = hosvd_rank1(stack, stacked=True)
        assert fits.core.shape == (3,)
        for b, member in enumerate(stack):
            alone = hosvd_rank1(member)
            for got, want in zip(fits.vectors, alone.vectors):
                assert got.shape == (3,) + want.shape
                assert np.abs(got[b] - want).max() <= 1e-14
            assert abs(fits.core[b] - alone.core) <= 1e-14 * abs(alone.core)
