"""Tests for error/rate metrics and the complexity accounting."""

import math

import numpy as np
import pytest

from hdris.channel import SystemDims, build_channels, sample_params
from hdris.estimators import (
    ESTIMATORS,
    hdr_estimate,
    krf_estimate,
    ls_estimate,
    matched_filter,
    simulate_observation,
)
from hdris.metrics import (
    _effective_surface_vector,
    flops_analytic,
    ideal_spectral_efficiency,
    nmse,
    spectral_efficiency,
    summarize,
)
from hdris.simulate import flops_measured
from hdris.tensors import dominant_left_singular_vector
from hdris.training import make_training
from oracles import ideal_estimate

SMALL_DIMS = SystemDims(
    n_bs_y=2, n_bs_z=2, n_ue_y=2, n_ue_z=2, n_ris_y=4, n_ris_z=4,
    n_pilots=16, n_blocks=16,
)

# 16-antenna arrays at both ends, 4x4 surface, minimal exact training
REF_DIMS = SystemDims(
    n_bs_y=4, n_bs_z=4, n_ue_y=4, n_ue_z=4, n_ris_y=4, n_ris_z=4,
    n_pilots=16, n_blocks=16,
)

# 16x16 surface: 256 elements, 256 blocks
WIDE_DIMS = SystemDims(4, 4, 4, 4, 16, 16, 16, 256)


def crandn(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _square_dims(n_ris_axis, n_pilots=16, n_blocks=None):
    if n_blocks is None:
        n_blocks = n_ris_axis * n_ris_axis
    return SystemDims(
        n_bs_y=4, n_bs_z=4, n_ue_y=4, n_ue_z=4,
        n_ris_y=n_ris_axis, n_ris_z=n_ris_axis,
        n_pilots=n_pilots, n_blocks=n_blocks,
    )


# ---------------------------------------------------------------------------
# normalized error
# ---------------------------------------------------------------------------


def test_nmse_perfect_and_zero_estimates():
    rng = np.random.default_rng(0)
    t = crandn(rng, 6, 5)
    assert nmse(t, t) == 0.0
    assert nmse(t, np.zeros_like(t)) == pytest.approx(1.0)


def test_nmse_matches_noise_power():
    rng = np.random.default_rng(1)
    t = crandn(rng, 16, 16)
    sigma2 = 0.25
    acc = 0.0
    n_draws = 300
    for _ in range(n_draws):
        n = math.sqrt(sigma2 / 2) * crandn(rng, 16, 16)
        acc += nmse(t, t + n)
    expected = sigma2 * t.size / np.linalg.norm(t) ** 2
    assert acc / n_draws == pytest.approx(expected, rel=0.1)


def test_nmse_scale_invariance():
    rng = np.random.default_rng(2)
    t, e = crandn(rng, 4, 4), crandn(rng, 4, 4)
    c = 3.7 * np.exp(0.9j)
    assert nmse(c * t, c * e) == pytest.approx(nmse(t, e), rel=1e-12)


def test_nmse_validation():
    with pytest.raises(ValueError):
        nmse(np.ones((2, 3)), np.ones((3, 2)))
    with pytest.raises(ValueError):
        nmse(np.zeros((2, 2)), np.ones((2, 2)))


# ---------------------------------------------------------------------------
# beamformed rate
# ---------------------------------------------------------------------------


def test_noiseless_estimates_reach_ideal_rate():
    # with an exact cascade every estimator picks the same phases and
    # beams, and the rate hits the closed-form perfect-CSI value
    ch = build_channels(SMALL_DIMS, sample_params(np.random.default_rng(3)))
    target = ideal_spectral_efficiency(SMALL_DIMS, 1.0, 1.0)
    assert target == pytest.approx(math.log2(1 + 4 * 4 * 16 ** 2), rel=1e-12)
    for est in (
        hdr_estimate(ch.cascade, SMALL_DIMS),
        krf_estimate(ch.cascade, SMALL_DIMS),
        ls_estimate(ch.cascade, SMALL_DIMS),
        ideal_estimate(ch),
    ):
        rate = spectral_efficiency(ch, est, tx_power=1.0, noise_var=1.0)
        assert rate == pytest.approx(target, abs=1e-9)


@pytest.mark.parametrize("dims", [REF_DIMS, WIDE_DIMS], ids=["ref", "surface-16x16"])
def test_closed_form_ideal_rate_matches_per_trial_path(dims):
    # the se sweep writes the closed form for every trial of its ideal
    # rows; the per-trial path it replaced (hdr fitted to the true cascade,
    # then scored like any estimate) lands on it to rounding
    worst = 0.0
    for geometry in range(50):
        ch = build_channels(dims, sample_params(np.random.default_rng(500 + geometry)))
        est = ideal_estimate(ch)
        for noise_var in (10.0, 1.0, 0.1):
            want = ideal_spectral_efficiency(dims, 1.0, noise_var)
            got = spectral_efficiency(ch, est, 1.0, noise_var)
            worst = max(worst, abs(got - want) / want)
    assert worst <= 1e-15


def test_ideal_rate_bounds_every_estimator():
    design = make_training(SMALL_DIMS)
    sigma2 = 1.0
    target = ideal_spectral_efficiency(SMALL_DIMS, 1.0, sigma2)
    for trial in range(30):
        rng = np.random.default_rng(trial + 100)
        ch = build_channels(SMALL_DIMS, sample_params(rng))
        obs = simulate_observation(ch, design, sigma2, rng=rng)
        raw = matched_filter(obs, design, check=False)
        for est in (
            hdr_estimate(raw, SMALL_DIMS),
            krf_estimate(raw, SMALL_DIMS),
            ls_estimate(raw, SMALL_DIMS),
        ):
            rate = spectral_efficiency(ch, est, tx_power=1.0, noise_var=sigma2)
            assert rate <= target + 1e-9


def test_rate_scales_with_power_and_noise():
    ch = build_channels(SMALL_DIMS, sample_params(np.random.default_rng(4)))
    est = hdr_estimate(ch.cascade, SMALL_DIMS)
    low = spectral_efficiency(ch, est, tx_power=0.1, noise_var=1.0)
    high = spectral_efficiency(ch, est, tx_power=10.0, noise_var=1.0)
    assert high > low
    same = spectral_efficiency(ch, est, tx_power=1.0, noise_var=10.0)
    np.testing.assert_allclose(same, low, rtol=1e-12)


def test_rate_validation():
    ch = build_channels(SMALL_DIMS, sample_params(np.random.default_rng(5)))
    est = ls_estimate(ch.cascade, SMALL_DIMS)
    with pytest.raises(ValueError):
        spectral_efficiency(ch, est, noise_var=0.0)
    with pytest.raises(ValueError):
        ideal_spectral_efficiency(SMALL_DIMS, noise_var=-1.0)


@pytest.mark.parametrize("noise_var", [math.nan, math.inf, -math.inf, 0.0, -1.0])
def test_rate_rejects_non_finite_or_non_positive_noise(noise_var):
    # NaN used to slip past a `noise_var <= 0` guard and return NaN
    ch = build_channels(SMALL_DIMS, sample_params(np.random.default_rng(6)))
    est = ls_estimate(ch.cascade, SMALL_DIMS)
    with pytest.raises(ValueError, match="finite and > 0"):
        spectral_efficiency(ch, est, noise_var=noise_var)
    with pytest.raises(ValueError, match="finite and > 0"):
        ideal_spectral_efficiency(SMALL_DIMS, noise_var=noise_var)


def _two_eigh_rate(ch, est, tx_power, noise_var):
    """The rate with each beamformer from its own dominant singular pair:
    w of H and f of H^H."""
    dims = ch.dims
    surface = _effective_surface_vector(est)
    mods = np.abs(surface)
    phases = np.where(mods > 0, np.conj(surface) / np.where(mods > 0, mods, 1.0), 1.0)
    h_eff_est = (est.cascade @ phases).reshape(dims.n_ue, dims.n_bs, order="F")
    w, _ = dominant_left_singular_vector(h_eff_est)
    f, _ = dominant_left_singular_vector(h_eff_est.conj().T)
    h_eff_true = (ch.cascade @ phases).reshape(dims.n_ue, dims.n_bs, order="F")
    gain = abs(w.conj() @ h_eff_true @ f) ** 2
    return float(np.log2(1.0 + tx_power * gain / noise_var))


def test_transmit_beam_from_receive_beam_matches_two_eigh_oracle():
    # f = H^H w / ||H^H w|| is the dominant right singular vector up to a
    # phase, and |w^H H f|^2 does not see that phase
    for dims in (SMALL_DIMS, REF_DIMS):
        design = make_training(dims)
        for trial in range(10):
            rng = np.random.default_rng(trial + 200)
            ch = build_channels(dims, sample_params(rng))
            sigma2 = 10.0 ** (-(trial - 3) / 2.0)
            obs = simulate_observation(ch, design, sigma2, rng=rng)
            raw = matched_filter(obs, design, check=False)
            for est in (
                hdr_estimate(raw, dims),
                krf_estimate(raw, dims),
                ls_estimate(raw, dims),
                ideal_estimate(ch),
            ):
                got = spectral_efficiency(ch, est, 1.0, sigma2)
                want = _two_eigh_rate(ch, est, 1.0, sigma2)
                assert abs(got - want) <= 1e-12 * want


# ---------------------------------------------------------------------------
# complexity accounting
# ---------------------------------------------------------------------------


def test_analytic_flops_at_reference_dims():
    # shared filtering term Q^2*M*N*T*K = 16777216 at the reference dims;
    # the structured fit adds Q*M*N*(sum of the six mode extents) and the
    # per-column baseline adds (Q*M*N)^2
    assert flops_analytic("ls", REF_DIMS) == 16777216
    assert flops_analytic("hdr", REF_DIMS) == 16875520
    assert flops_analytic("krf", REF_DIMS) == 33554432


def test_analytic_flops_large_surface_ratios():
    # the headline scaling comparison at a 50x50 surface
    dims = _square_dims(50, n_pilots=16, n_blocks=2500)
    hdr = flops_analytic("hdr", dims)
    krf = flops_analytic("krf", dims)
    ls = flops_analytic("ls", dims)
    assert 1.8 <= krf / hdr <= 2.2
    assert hdr / ls <= 1.1
    assert ls < hdr < krf


def test_analytic_flops_monotone_in_surface_size():
    prev = {m: 0 for m in ESTIMATORS}
    for axis in (2, 4, 8, 16):
        dims = _square_dims(axis)
        for m in ESTIMATORS:
            cur = flops_analytic(m, dims)
            assert cur > prev[m]
            prev[m] = cur


def test_flops_unknown_method():
    with pytest.raises(ValueError):
        flops_analytic("mmse", SMALL_DIMS)
    with pytest.raises(ValueError):
        flops_measured("mmse", SMALL_DIMS)


def _filter_macs(d):
    # the two factor mode products: Q*M*T*K + Q*M*K*N
    return d.n_ue * d.n_bs * d.n_pilots * d.n_blocks + d.n_ue * d.n_bs * d.n_blocks * d.n_ris


def test_measured_flops_at_reference_dims():
    # the common matched-filter term is exact; the estimator-specific
    # extras come on top
    assert flops_measured("ls", REF_DIMS) == _filter_macs(REF_DIMS) == 131072
    assert flops_measured("ls", SMALL_DIMS) == _filter_macs(SMALL_DIMS) == 8192
    assert flops_measured("hdr", REF_DIMS) == 234836
    assert flops_measured("krf", REF_DIMS) == 204800
    for m in ("hdr", "krf"):
        assert flops_measured(m, REF_DIMS) > flops_measured("ls", REF_DIMS)


def test_measured_flops_seed_invariant():
    # counts depend on dimensions, not on the channel draw
    assert flops_measured("hdr", REF_DIMS, seed=0) == flops_measured(
        "hdr", REF_DIMS, seed=99
    )


def test_measured_tracks_analytic_trend():
    # growing the surface widens the krf-vs-hdr gap analytically; the
    # executed extras above the matched filter are pinned exactly
    extras = {"hdr": [], "krf": []}
    gaps_ana = []
    for axis in (4, 8):
        dims = _square_dims(axis)
        for m in extras:
            extras[m].append(flops_measured(m, dims) - flops_measured("ls", dims))
        gaps_ana.append(flops_analytic("krf", dims) / flops_analytic("hdr", dims))
    assert extras == {"hdr": [103764, 545960], "krf": [73728, 294912]}
    assert gaps_ana[1] > gaps_ana[0]


# ---------------------------------------------------------------------------
# summaries
# ---------------------------------------------------------------------------


def test_summarize_mean_and_median():
    mean, median = summarize([1.0, 2.0, 4.0])
    assert mean == pytest.approx(7.0 / 3.0)
    assert median == 2.0


def test_summarize_order_invariant():
    rng = np.random.default_rng(6)
    vals = list(rng.uniform(0, 1, size=101))
    shuffled = list(vals)
    rng.shuffle(shuffled)
    assert summarize(vals) == summarize(shuffled)


def test_summarize_empty_raises():
    with pytest.raises(ValueError):
        summarize([])
