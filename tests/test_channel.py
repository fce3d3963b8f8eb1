"""Tests for the geometric channel model: steering vectors and the cascade,
checked against the hop matrices rebuilt by ``oracles.hops``."""

import math

import numpy as np
import pytest

from hdris.channel import (
    AZIMUTH_RANGE_DEG,
    ELEVATION_RANGE_DEG,
    TENSOR_MODES,
    ChannelParams,
    SystemDims,
    array_responses,
    build_channels,
    rank_one_cascade,
    sample_params,
    spatial_frequencies,
    split_rows,
    steering_1d,
)
from hdris.tensors import hosvd_rank1, khatri_rao, kron, vec
from oracles import ODD_DIMS, REF_DIMS, SMALL_DIMS, WIDE_DIMS, hops


# ---------------------------------------------------------------------------
# spatial frequencies and steering vectors
# ---------------------------------------------------------------------------


def test_spatial_frequencies_boresight():
    # azimuth 0, elevation 90 deg: both axes see zero phase progression
    fy, fz = spatial_frequencies(0.0, math.pi / 2)
    assert fy == pytest.approx(0.0, abs=1e-15)
    assert fz == pytest.approx(0.0, abs=1e-15)


def test_spatial_frequencies_endfire():
    fy, fz = spatial_frequencies(math.pi / 2, math.pi / 2)
    assert fy == pytest.approx(math.pi, abs=1e-12)
    assert fz == pytest.approx(0.0, abs=1e-12)


def test_spatial_frequencies_reference_point():
    # frozen reference values for azimuth 30 deg, elevation 120 deg
    fy, fz = spatial_frequencies(math.radians(30.0), math.radians(120.0))
    assert fy == pytest.approx(1.3603495231756584, abs=1e-12)
    assert fz == pytest.approx(-1.5707963267948966, abs=1e-12)


def test_steering_1d_flat_phase():
    np.testing.assert_array_equal(steering_1d(4, 0.0), np.ones(4, dtype=complex))
    np.testing.assert_array_equal(steering_1d(1, 2.3), np.ones(1, dtype=complex))


def test_steering_1d_alternating():
    np.testing.assert_allclose(steering_1d(2, math.pi), [1.0, -1.0], atol=1e-12)


def test_steering_1d_phase_progression():
    f = 1.3603495231756584
    v = steering_1d(4, f)
    expected = np.exp(-1j * f * np.arange(4))
    np.testing.assert_allclose(v, expected, atol=1e-12)
    assert np.allclose(np.abs(v), 1.0)


def test_steering_1d_rejects_empty():
    with pytest.raises(ValueError):
        steering_1d(0, 1.0)


# ---------------------------------------------------------------------------
# dimension container
# ---------------------------------------------------------------------------


def test_system_dims_products():
    assert SMALL_DIMS.n_bs == 4
    assert SMALL_DIMS.n_ue == 4
    assert SMALL_DIMS.n_ris == 16


def test_system_dims_validation():
    with pytest.raises(ValueError):
        SystemDims(
            n_bs_y=0, n_bs_z=2, n_ue_y=2, n_ue_z=2, n_ris_y=4, n_ris_z=4,
            n_pilots=16, n_blocks=16,
        )


# ---------------------------------------------------------------------------
# channel construction
# ---------------------------------------------------------------------------


def _flat_params():
    zero = (0.0, math.pi / 2)  # boresight on both axes
    return ChannelParams(
        az_bs=zero[0], el_bs=zero[1],
        az_ris_arr=zero[0], el_ris_arr=zero[1],
        az_ris_dep=zero[0], el_ris_dep=zero[1],
        az_ue=zero[0], el_ue=zero[1],
    )


def test_build_channels_boresight_is_all_ones():
    ch = build_channels(SMALL_DIMS, _flat_params())
    bs_ris, ris_ue = hops(ch)
    np.testing.assert_allclose(bs_ris, np.ones((16, 4)), atol=1e-12)
    np.testing.assert_allclose(ris_ue, np.ones((4, 16)), atol=1e-12)
    np.testing.assert_allclose(ch.cascade, np.ones((16, 16)), atol=1e-12)


def test_cascade_is_khatri_rao_of_hops():
    rng = np.random.default_rng(1)
    params = sample_params(rng)
    ch = build_channels(SMALL_DIMS, params)
    bs_ris, ris_ue = hops(ch)
    np.testing.assert_allclose(
        ch.cascade, khatri_rao(bs_ris.T, ris_ue), atol=1e-12
    )
    assert ch.cascade.shape == (16, 16)


def test_cascade_row_ordering():
    # row index is bs_antenna * n_ue + ue_antenna (ue fastest)
    rng = np.random.default_rng(2)
    ch = build_channels(SMALL_DIMS, sample_params(rng))
    bs_ris, ris_ue = hops(ch)
    n_ue = SMALL_DIMS.n_ue
    for m in range(SMALL_DIMS.n_bs):
        for q in range(n_ue):
            np.testing.assert_allclose(
                ch.cascade[m * n_ue + q, :],
                bs_ris[:, m] * ris_ue[q, :],
                atol=1e-12,
            )


def _surface_axes(ch, freqs):
    """(y, z) steering vectors of the surface at ``freqs``, one of
    ``ch.params``' surface frequency pairs."""
    return tuple(
        steering_1d(n, f) for n, f in zip((ch.dims.n_ris_y, ch.dims.n_ris_z), freqs)
    )


def _hop_axes(ch):
    """Per-axis factors of both hops, rebuilt from the geometry:
    (bs_ris_y, bs_ris_z), (ris_ue_y, ris_ue_z)."""
    arr_y, arr_z = _surface_axes(ch, ch.params.ris_arr_freqs)
    dep_y, dep_z = _surface_axes(ch, ch.params.ris_dep_freqs)
    return (
        (np.outer(arr_y, ch.bs_y), np.outer(arr_z, ch.bs_z)),
        (np.outer(ch.ue_y, dep_y), np.outer(ch.ue_z, dep_z)),
    )


def test_hop_matrices_factor_by_axis():
    rng = np.random.default_rng(3)
    ch = build_channels(SMALL_DIMS, sample_params(rng))
    bs_ris, ris_ue = hops(ch)
    (bs_ris_y, bs_ris_z), (ris_ue_y, ris_ue_z) = _hop_axes(ch)
    np.testing.assert_allclose(bs_ris, kron(bs_ris_y, bs_ris_z), atol=1e-12)
    np.testing.assert_allclose(ris_ue, kron(ris_ue_y, ris_ue_z), atol=1e-12)


def test_surface_vector_combines_arrival_and_departure():
    rng = np.random.default_rng(4)
    params = sample_params(rng)
    ch = build_channels(SMALL_DIMS, params)
    arr = _surface_axes(ch, params.ris_arr_freqs)
    dep = _surface_axes(ch, params.ris_dep_freqs)
    np.testing.assert_allclose(ch.surface_y, arr[0] * dep[0], atol=1e-12)
    np.testing.assert_allclose(ch.surface_z, arr[1] * dep[1], atol=1e-12)
    # elementwise product of steering vectors = steering vector at summed freq
    fy_sum = params.ris_arr_freqs[0] + params.ris_dep_freqs[0]
    np.testing.assert_allclose(
        ch.surface_y, steering_1d(SMALL_DIMS.n_ris_y, fy_sum), atol=1e-12
    )


def test_single_axis_khatri_rao_vec_identity():
    # vec of the per-axis cascade equals the triple kron of its generators
    rng = np.random.default_rng(5)
    ch = build_channels(SMALL_DIMS, sample_params(rng))
    (bs_ris_y, _), (ris_ue_y, _) = _hop_axes(ch)
    single_axis = khatri_rao(bs_ris_y.T, ris_ue_y)
    np.testing.assert_allclose(
        vec(single_axis),
        kron(ch.surface_y, kron(ch.bs_y, ch.ue_y)),
        atol=1e-12,
    )


def test_cascade_is_rank_one_outer_product():
    # the cascade is rank_one_cascade of the realization's own vectors,
    # bit for bit, and its array responses are the y-slowest krons of
    # each pair; an amplitude scales it, and every vector must be named,
    # since the realization and an estimate order them apart
    rng = np.random.default_rng(6)
    ch = build_channels(SMALL_DIMS, sample_params(rng))
    bs_steer = kron(ch.bs_y, ch.bs_z)
    ue_steer = kron(ch.ue_y, ch.ue_z)
    surface = kron(ch.surface_y, ch.surface_z)
    np.testing.assert_allclose(
        ch.cascade, np.outer(kron(bs_steer, ue_steer), surface), atol=1e-12
    )
    vectors = {k: getattr(ch, k) for k in TENSOR_MODES}
    for got, want in zip(array_responses(**vectors), (ue_steer, bs_steer, surface)):
        np.testing.assert_array_equal(got, want)
    np.testing.assert_array_equal(rank_one_cascade(**vectors), ch.cascade)
    amplitude = 0.5 - 2.0j
    np.testing.assert_allclose(
        rank_one_cascade(**vectors, amplitude=amplitude), amplitude * ch.cascade,
        rtol=1e-15, atol=0,
    )
    with pytest.raises(TypeError):
        rank_one_cascade(*vectors.values())


@pytest.mark.parametrize("dims", [REF_DIMS, WIDE_DIMS], ids=["ref", "surface-16x16"])
def test_split_rows_is_the_user_bs_surface_view(dims):
    # the cascade split by rows is the (user, BS, surface) outer product
    # of its array responses in rank_one_cascade's operand order, bit for
    # bit, as a view of the cascade or of a row-major copy; a vector of
    # n_ue*n_bs entries splits into its n_ue x n_bs matrix; and a rank-one
    # fit of the noiseless split recovers the three responses
    ch = build_channels(dims, sample_params(np.random.default_rng(9)))
    responses = array_responses(**{k: getattr(ch, k) for k in TENSOR_MODES})
    ue, bs, surface = responses
    view = split_rows(ch.cascade, dims)
    np.testing.assert_array_equal(
        view, np.multiply.outer(surface, np.multiply.outer(bs, ue)).transpose(2, 1, 0),
    )
    assert np.shares_memory(view, ch.cascade)
    row_major = np.ascontiguousarray(ch.cascade)
    assert np.shares_memory(split_rows(row_major, dims), row_major)
    column = split_rows(ch.cascade[:, 3].copy(), dims)
    assert column.shape == (dims.n_ue, dims.n_bs)
    np.testing.assert_array_equal(column, view[:, :, 3])
    for got, truth in zip(hosvd_rank1(view).vectors, responses):
        overlap = abs(np.vdot(got, truth)) / (np.linalg.norm(got) * np.linalg.norm(truth))
        assert overlap >= 1 - 1e-12


def test_cascade_norm_is_total_element_count():
    # all entries are unit modulus, so the squared norm is Q*M*N exactly
    rng = np.random.default_rng(7)
    for seed in range(5):
        ch = build_channels(SMALL_DIMS, sample_params(np.random.default_rng(seed)))
        assert np.linalg.norm(ch.cascade) ** 2 == pytest.approx(
            SMALL_DIMS.n_ue * SMALL_DIMS.n_bs * SMALL_DIMS.n_ris, rel=1e-12
        )


def test_build_channels_nonsquare_extents():
    dims = ODD_DIMS
    ch = build_channels(dims, sample_params(np.random.default_rng(8)))
    assert ch.cascade.shape == (dims.n_ue * dims.n_bs, dims.n_ris)
    bs_ris, ris_ue = hops(ch)
    np.testing.assert_allclose(
        ch.cascade, khatri_rao(bs_ris.T, ris_ue), atol=1e-12
    )


# ---------------------------------------------------------------------------
# random parameter draws
# ---------------------------------------------------------------------------


def test_sample_params_ranges():
    rng = np.random.default_rng(9)
    az_lo, az_hi = np.radians(AZIMUTH_RANGE_DEG)
    el_lo, el_hi = np.radians(ELEVATION_RANGE_DEG)
    az_all, el_all = [], []
    for _ in range(2000):
        p = sample_params(rng)
        az = (p.az_bs, p.az_ris_arr, p.az_ris_dep, p.az_ue)
        el = (p.el_bs, p.el_ris_arr, p.el_ris_dep, p.el_ue)
        az_all.extend(az)
        el_all.extend(el)
    az_all, el_all = np.array(az_all), np.array(el_all)
    assert az_all.min() >= az_lo and az_all.max() <= az_hi
    assert el_all.min() >= el_lo and el_all.max() <= el_hi
    # uniform draws: sample means near mid-range
    assert abs(np.degrees(az_all.mean())) < 1.5
    assert abs(np.degrees(el_all.mean()) - 110.0) < 1.0


def test_sample_params_deterministic():
    p1 = sample_params(np.random.default_rng(123))
    p2 = sample_params(np.random.default_rng(123))
    assert p1 == p2


def test_channel_params_frequency_properties():
    p = _flat_params()
    assert p.bs_freqs == pytest.approx((0.0, 0.0), abs=1e-15)
    assert p.ue_freqs == pytest.approx((0.0, 0.0), abs=1e-15)
