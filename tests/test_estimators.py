"""Tests for the observation model, matched filter, re-indexing plan and
the three cascade estimators.

The dense and looped forms the package no longer runs live here as
oracles: the multilinear and the per-block observation routes, the
matched filter against the explicit Kronecker training operator, the
index tables of the re-indexing and the per-column rank-one fit."""

import dataclasses
import functools
import math
import tracemalloc

import numpy as np
import pytest

from hdris.channel import SystemDims, build_channels, sample_params, steering_1d
from hdris.flopcount import FlopCounter
from hdris.estimators import (
    ESTIMATORS,
    _swap_middle,
    build_permutations,
    extract_spatial_frequency,
    hdr_estimate,
    krf_estimate,
    ls_estimate,
    matched_filter,
    simulate_observation,
)
from hdris.metrics import nmse
from hdris.tensors import (
    dominant_left_singular_vector,
    fold,
    kron,
    unfold,
    vec,
)
from hdris.training import make_training, validate_training
from oracles import (
    counted_matmul,
    identity_tensor,
    ideal_estimate,
    n_mode_product,
    tensorize,
)

SMALL_DIMS = SystemDims(
    n_bs_y=2, n_bs_z=2, n_ue_y=2, n_ue_z=2, n_ris_y=4, n_ris_z=4,
    n_pilots=16, n_blocks=16,
)

ODD_DIMS = SystemDims(
    n_bs_y=3, n_bs_z=2, n_ue_y=2, n_ue_z=1, n_ris_y=5, n_ris_z=2,
    n_pilots=6, n_blocks=10,
)

REF_DIMS = SystemDims(
    n_bs_y=4, n_bs_z=4, n_ue_y=4, n_ue_z=4, n_ris_y=4, n_ris_z=4,
    n_pilots=16, n_blocks=16,
)

# 16x16 surface: 256 elements, 256 blocks
WIDE_DIMS = SystemDims(4, 4, 4, 4, 16, 16, 16, 256)

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


def crandn(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _realization(dims=SMALL_DIMS, seed=0):
    return build_channels(dims, sample_params(np.random.default_rng(seed)))


def _angle_dist(a, b):
    return abs(np.angle(np.exp(1j * (a - b))))


def _tensor_route_observation(ch, design):
    """Noiseless observation through multilinear products: identity core
    contracted with the two hops along the first two modes, then with the
    pilot block and the phase profiles along the pilot and block modes."""
    hops = n_mode_product(identity_tensor(3, ch.dims.n_ris), ch.ris_ue, 1)
    hops = n_mode_product(hops, ch.bs_ris.T, 2)       # mode 3 keeps identity
    x = n_mode_product(hops, design.bs_pilots.T, 2)
    return n_mode_product(x, design.ris_phases.T, 3).data


def _per_block_observation(ch, design, noise_var, rng):
    """Block k as its own product ris_ue @ diag(ris_phases[:, k]) @
    bs_ris @ bs_pilots, plus the package's noise draw."""
    d = ch.dims
    first_hop_tx = ch.bs_ris @ design.bs_pilots
    x = np.empty((d.n_ue, d.n_pilots, d.n_blocks), dtype=np.complex128)
    for k in range(d.n_blocks):
        x[:, :, k] = ch.ris_ue @ (design.ris_phases[:, k, None] * first_hop_tx)
    if noise_var > 0:
        noise = rng.standard_normal(x.shape) + 1j * rng.standard_normal(x.shape)
        x = x + np.sqrt(noise_var / 2.0) * noise
    return x


def _per_column_krf(cascade, dims, counter=None):
    """Rank-one fit of each cascade column, one column at a time."""
    out = np.empty_like(cascade)
    for n in range(dims.n_ris):
        mat = cascade[:, n].reshape(dims.n_ue, dims.n_bs, order="F")
        u, _ = dominant_left_singular_vector(mat, counter)
        right = counted_matmul(mat.conj().T, u[:, None], counter)[:, 0]
        approx = counted_matmul(u[:, None], right.conj()[None, :], counter)
        out[:, n] = approx.reshape(-1, order="F")
    return out


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
    obs = simulate_observation(ch, design, noise_var=0.1, seed=7)
    assert isinstance(obs, np.ndarray)
    assert obs.shape == (4, 16, 16)
    assert obs.dtype == np.complex128


def test_observation_routes_agree():
    # block-by-block matrix products and the multiway-product route must
    # produce the same noiseless observation
    for dims in (SMALL_DIMS, ODD_DIMS):
        ch = _realization(dims, seed=1)
        design = make_training(dims)
        a = simulate_observation(ch, design, 0.0)
        b = _tensor_route_observation(ch, design)
        np.testing.assert_allclose(a, b, atol=1e-12)


def test_observation_matches_per_block_oracle():
    # one product over all blocks == one product per block, noise included
    for dims, seed in ((SMALL_DIMS, 40), (ODD_DIMS, 41), (WIDE_DIMS, 42)):
        ch = _realization(dims, seed)
        design = make_training(dims)
        for noise_var in (0.0, 0.3):
            got = simulate_observation(ch, design, noise_var, seed=seed)
            want = _per_block_observation(
                ch, design, noise_var, np.random.default_rng(seed)
            )
            assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


def test_observation_noise_statistics():
    ch = _realization(seed=2)
    design = make_training(SMALL_DIMS)
    sigma2 = 0.5
    clean = simulate_observation(ch, design, 0.0)
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
    a = simulate_observation(ch, design, 0.2, seed=11)
    b = simulate_observation(ch, design, 0.2, seed=11)
    np.testing.assert_array_equal(a, b)


def test_observation_validation():
    ch = _realization()
    design = make_training(SMALL_DIMS)
    with pytest.raises(ValueError):
        simulate_observation(ch, design, -1.0)


@pytest.mark.parametrize("noise_var", [math.nan, math.inf, -math.inf, -1.0])
def test_observation_rejects_bad_noise_var(noise_var):
    # NaN used to run noiseless and inf to fill the block with inf
    ch = _realization()
    design = make_training(SMALL_DIMS)
    with pytest.raises(ValueError, match="finite and >= 0"):
        simulate_observation(ch, design, noise_var, seed=0)


# ---------------------------------------------------------------------------
# matched filter
# ---------------------------------------------------------------------------


def test_matched_filter_inverts_training_noiselessly():
    for dims in (SMALL_DIMS, ODD_DIMS):
        ch = _realization(dims, seed=5)
        design = make_training(dims)
        obs = simulate_observation(ch, design, 0.0)
        out = matched_filter(obs, design)
        assert out.shape == (dims.n_ue * dims.n_bs, dims.n_ris)
        np.testing.assert_allclose(out, ch.cascade, atol=1e-10)


def test_matched_filter_matches_dense_oracle():
    # two mode products against the factors == one product against the
    # dense Kronecker operator, on noisy observations
    for dims, seed in ((SMALL_DIMS, 20), (ODD_DIMS, 21), (REF_DIMS, 22)):
        ch = _realization(dims, seed)
        design = make_training(dims)
        obs = simulate_observation(ch, design, 0.5, seed=seed)
        dense = _dense_matched_filter(obs, design)
        out = matched_filter(obs, design)
        assert np.linalg.norm(out - dense) <= 1e-12 * np.linalg.norm(dense)


def test_matched_filter_rejects_shape_mismatch():
    design = make_training(SMALL_DIMS)
    obs = simulate_observation(_realization(ODD_DIMS), make_training(ODD_DIMS), 0.0)
    with pytest.raises(ValueError, match="columns but observation has"):
        matched_filter(obs, design)


def test_matched_filter_charges_filter_macs():
    # the two mode products: n_ue*n_bs*n_pilots*n_blocks + n_ue*n_bs*n_blocks*n_ris
    for d, seed in ((SMALL_DIMS, 50), (ODD_DIMS, 51), (REF_DIMS, 52)):
        design = make_training(d)
        obs = simulate_observation(_realization(d, seed), design, 0.0)
        counter = FlopCounter()
        matched_filter(obs, design, counter=counter)
        assert counter.macs == (
            d.n_ue * d.n_bs * d.n_pilots * d.n_blocks
            + d.n_ue * d.n_bs * d.n_blocks * d.n_ris
        )


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


def test_matched_filter_rejects_bad_training():
    ch = _realization(seed=7)
    design = make_training(SMALL_DIMS)
    obs = simulate_observation(ch, design, 0.0)
    corrupted = design.ris_phases.copy()
    corrupted[2, 3] += 0.05
    for bad in (
        dataclasses.replace(design, bs_pilots=design.bs_pilots * 1.5),
        dataclasses.replace(design, ris_phases=corrupted),
    ):
        with pytest.raises(ValueError, match="not orthonormal"):
            matched_filter(obs, bad, check=True)
        # with validation off the call goes through (garbage in, garbage out)
        out = matched_filter(obs, bad, check=False)
        assert out.shape == (16, 16)


def test_matched_filter_validates_each_design_once(monkeypatch):
    import hdris.training as training

    seen = []

    def recording_validate(design):
        seen.append(design)
        return validate_training(design)

    monkeypatch.setattr(training, "validate_training", recording_validate)
    design = make_training(SMALL_DIMS)
    obs = simulate_observation(_realization(seed=9), design, 0.1, seed=3)
    first = matched_filter(obs, design, check=True)
    for _ in range(11):
        np.testing.assert_array_equal(matched_filter(obs, design, check=True), first)
    assert [d is design for d in seen] == [True]
    # the factors are read-only copies, so the cached report cannot go stale
    pilots = np.array(design.bs_pilots)
    for factor in (design.bs_pilots, design.ris_phases):
        with pytest.raises(ValueError, match="read-only"):
            factor[0, 0] = 2.0
    replaced = dataclasses.replace(design, bs_pilots=pilots)
    assert not replaced.bs_pilots.flags.writeable and replaced.bs_pilots is not pilots
    matched_filter(obs, replaced, check=True)
    assert len(seen) == 2 and seen[1] is replaced


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
        plan = build_permutations(dims)
        index = np.arange(n).reshape(dims.n_ue * dims.n_bs, dims.n_ris)
        tensor = plan.to_tensor(index)
        assert tensor.shape == plan.tensor_dims
        assert np.array_equal(np.sort(tensor, axis=None), np.arange(n))
        assert np.array_equal(plan.to_cascade(tensor), index)


def test_reshape_transpose_equals_gather():
    # the plan's reshape/transpose and its inverse reproduce the stored
    # index tables exactly, at every extent including ones
    rng = np.random.default_rng(23)
    for dims in PLAN_DIMS:
        plan = build_permutations(dims)
        cascade = crandn(rng, dims.n_ue * dims.n_bs, dims.n_ris)
        total_perm = _gather_tables(dims)[2]
        gathered = tensorize(vec(cascade)[total_perm], plan.tensor_dims).data
        assert np.array_equal(plan.to_tensor(cascade), gathered)
        tensor = crandn(rng, *plan.tensor_dims)
        undone = vec(tensor)[np.argsort(total_perm)]
        assert np.array_equal(vec(plan.to_cascade(tensor)), undone)


def test_plan_tensor_dims_ordering():
    plan = build_permutations(ODD_DIMS)
    assert plan.tensor_dims == (1, 2, 2, 2, 3, 5)  # ue_z, bs_z, ris_z, ue_y, bs_y, ris_y


def test_rewired_cascade_is_separable():
    # after re-indexing, the vectorized cascade stacks into the outer
    # product of the six per-axis vectors
    for dims, seed in ((SMALL_DIMS, 9), (ODD_DIMS, 10)):
        ch = _realization(dims, seed)
        box = build_permutations(dims).to_tensor(ch.cascade)
        expected = functools.reduce(
            np.multiply.outer,
            (ch.ue_z, ch.bs_z, ch.surface_z, ch.ue_y, ch.bs_y, ch.surface_y),
        )
        np.testing.assert_allclose(box, expected, atol=1e-10)


def test_all_singleton_dims_plan():
    dims = SystemDims(
        n_bs_y=1, n_bs_z=1, n_ue_y=1, n_ue_z=1, n_ris_y=1, n_ris_z=1,
        n_pilots=1, n_blocks=1,
    )
    plan = build_permutations(dims)
    one = np.full((1, 1), 2.0 - 1.0j)
    assert plan.to_tensor(one).shape == (1,) * 6
    np.testing.assert_array_equal(plan.to_cascade(plan.to_tensor(one)), one)


# ---------------------------------------------------------------------------
# estimator table
# ---------------------------------------------------------------------------


def test_estimator_table_shares_one_call():
    # every entry is called as fn(cascade_obs, dims, counter=...) and tags
    # its estimate with its table name; only ls spends no MACs
    ch = _realization(REF_DIMS, seed=53)
    assert list(ESTIMATORS) == ["hdr", "krf", "ls"]
    for name, fn in ESTIMATORS.items():
        counter = FlopCounter()
        est = fn(ch.cascade, REF_DIMS, counter=counter)
        assert est.method == name
        assert est.cascade.shape == ch.cascade.shape
        assert (counter.macs == 0) == (name == "ls")


# ---------------------------------------------------------------------------
# structured estimator
# ---------------------------------------------------------------------------


def test_hdr_noiseless_is_exact():
    for dims, seed in ((SMALL_DIMS, 11), (ODD_DIMS, 12)):
        ch = _realization(dims, seed)
        est = hdr_estimate(ch.cascade, dims)
        err = np.linalg.norm(est.cascade - ch.cascade) ** 2
        assert err / np.linalg.norm(ch.cascade) ** 2 < 1e-20
        assert est.method == "hdr"


def test_hdr_noiseless_factor_alignment():
    ch = _realization(seed=13)
    est = hdr_estimate(ch.cascade, SMALL_DIMS)
    for name in ("ue_y", "ue_z", "bs_y", "bs_z", "surface_y", "surface_z"):
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
    assert est.method == "krf"
    assert est.surface_y is None  # no per-axis factors from this baseline


def test_krf_matches_per_column_oracle():
    # the stacked fit of all columns == one rank-one fit per column, in
    # values and in charged MACs
    for dims, seed in ((SMALL_DIMS, 43), (ODD_DIMS, 44), (REF_DIMS, 45), (WIDE_DIMS, 46)):
        ch = _realization(dims, seed)
        rng = np.random.default_rng(seed)
        noisy = ch.cascade + 0.5 * crandn(rng, *ch.cascade.shape)
        stacked, looped = FlopCounter(), FlopCounter()
        got = krf_estimate(noisy, dims, counter=stacked).cascade
        want = _per_column_krf(noisy, dims, counter=looped)
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)
        assert stacked.macs == looped.macs


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


def test_ls_estimate_is_an_independent_copy():
    raw = np.ones((16, 16), dtype=complex)
    est = ls_estimate(raw, SMALL_DIMS)
    assert est.method == "ls"
    np.testing.assert_array_equal(est.cascade, raw)
    raw[0, 0] = 99.0
    assert est.cascade[0, 0] == 1.0 + 0j


def test_ideal_estimate_tags_and_matches_truth():
    ch = _realization(seed=17)
    est = ideal_estimate(ch)
    assert est.method == "ideal"
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


def test_extract_frequency_gauge_invariant():
    v = steering_1d(8, 1.3)
    a = extract_spatial_frequency(v)
    b = extract_spatial_frequency(np.exp(0.4j) * 2.5 * v)
    assert _angle_dist(a, b) < 1e-9


# ---------------------------------------------------------------------------
# memory of the per-trial stages
# ---------------------------------------------------------------------------


def test_stage_peak_memory_bounded_by_observation_size():
    # tracemalloc sees numpy buffers; each stage's peak above what was live
    # when it started stays within 6x the observation at the 256-element
    # surface (a (n_blocks, n_ris, n_pilots) broadcast in the pilot
    # simulation reads about 19x)
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
        hdr = stage("hdr", lambda: hdr_estimate(cascade, dims, plan=plan))
        krf = stage("krf", lambda: krf_estimate(cascade, dims))
        stage("nmse", lambda: (nmse(ch.cascade, hdr.cascade), nmse(ch.cascade, krf.cascade)))
    finally:
        tracemalloc.stop()
    limit = 6 * obs.nbytes
    assert min(peaks.values()) > 0
    assert max(peaks.values()) <= limit, peaks
