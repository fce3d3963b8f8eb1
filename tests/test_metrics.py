"""Tests for error/rate metrics and the complexity accounting."""

import dataclasses
import math

import numpy as np
import pytest

from hdris.channel import SystemDims, build_channels, sample_params
from hdris.estimators import (
    ESTIMATORS,
    EstimateSet,
    hdr_estimate,
    krf_estimate,
    ls_estimate,
    matched_filter,
    simulate_observation,
)
from hdris.metrics import (
    flops_analytic,
    ideal_spectral_efficiency,
    nmse,
    spectral_efficiency,
    summarize,
)
from hdris.simulate import flops_measured
from hdris.training import make_training
from oracles import ideal_estimate, rate_oracle

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

# ODD_DIMS with the two arrays swapped: n_ue > n_bs
TALL_DIMS = SystemDims(
    n_bs_y=2, n_bs_z=1, n_ue_y=3, n_ue_z=2, n_ris_y=5, n_ris_z=2,
    n_pilots=2, n_blocks=10,
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


def test_transmit_beam_from_receive_beam_matches_two_eigh_oracle():
    # hdr's beams read off its factors, and krf/ls's from one eigenproblem
    # per direction with the other beam projected through H, score what
    # every direction from its own dominant pair scores (the oracle takes
    # f from an eigh of H^H; the rate sees no phase of w or f).  -20 dB
    # is where the surface Gram's leading gap is smallest.
    worst = 0.0
    for dims in (SMALL_DIMS, ODD_DIMS, TALL_DIMS, REF_DIMS):
        design = make_training(dims)
        for snr_db in (-20.0, -10.0, 0.0, 10.0, 20.0, 30.0):
            sigma2 = 10.0 ** (-snr_db / 10.0)
            for trial in range(3):
                rng = np.random.default_rng(int(snr_db) * 10 + trial + 1000)
                ch = build_channels(dims, sample_params(rng))
                obs = simulate_observation(ch, design, sigma2, rng=rng)
                raw = matched_filter(obs, design, check=False)
                for est in (
                    *(entry.fit(raw, dims) for entry in ESTIMATORS.values()),
                    ideal_estimate(ch),
                ):
                    got = spectral_efficiency(ch, est, 1.0, sigma2)
                    want = rate_oracle(ch, est, 1.0, sigma2)
                    worst = max(worst, abs(got - want) / want)
    assert worst <= 1e-12


@pytest.mark.parametrize("method", ["krf", "ls"])
def test_rate_of_zero_estimate_raises(method):
    # a zero cascade (krf's own fit refuses one, so it is built directly)
    # has no surface direction to align
    ch = build_channels(REF_DIMS, sample_params(np.random.default_rng(7)))
    est = EstimateSet(method=method, cascade=np.zeros_like(ch.cascade))
    for score in (spectral_efficiency, rate_oracle):
        with pytest.raises(ValueError, match="cannot align surface phases"):
            score(ch, est, 1.0, 1.0)


def _noisy_estimates(dims, snr_db, seed):
    """The true channel and every estimator's fit of one noisy trial."""
    sigma2 = 10.0 ** (-snr_db / 10.0)
    rng = np.random.default_rng(seed)
    ch = build_channels(dims, sample_params(rng))
    design = make_training(dims)
    obs = simulate_observation(ch, design, sigma2, rng=rng)
    raw = matched_filter(obs, design, check=False)
    return ch, sigma2, {name: entry.fit(raw, dims) for name, entry in ESTIMATORS.items()}


def test_krf_ls_scoring_at_ref_runs_no_eigh(monkeypatch):
    # every REF Gram of krf/ls scoring certifies by squaring: scoring
    # still succeeds with eigh unavailable, and lands on the oracle
    def refuse(*args, **kwargs):
        raise AssertionError("eigh called")

    for snr_db in (0.0, 10.0, 20.0):
        ch, sigma2, fits = _noisy_estimates(REF_DIMS, snr_db, 2000 + int(snr_db))
        want = {m: rate_oracle(ch, fits[m], 1.0, sigma2) for m in ("krf", "ls")}
        with monkeypatch.context() as patch:
            patch.setattr(np.linalg, "eigh", refuse)
            got = {m: spectral_efficiency(ch, fits[m], 1.0, sigma2) for m in want}
        for m in want:
            assert abs(got[m] - want[m]) <= 1e-12 * want[m], m


def test_rate_at_16x16_surface_matches_oracle():
    # the 256 x 256 surface Gram of krf/ls scoring, squared rather than
    # decomposed, scores what the per-direction eigh oracle scores
    ch, sigma2, fits = _noisy_estimates(WIDE_DIMS, 0.0, 2100)
    for est in (*fits.values(), ideal_estimate(ch)):
        got = spectral_efficiency(ch, est, 1.0, sigma2)
        want = rate_oracle(ch, est, 1.0, sigma2)
        assert abs(got - want) <= 1e-12 * want, est.method


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


def test_measured_flops_build_no_channel_and_run_no_fit(monkeypatch):
    # the counts are closed forms of the shapes: with the channel draw,
    # every fit and both rank-one kernels made to raise, the pins hold
    import hdris.channel
    import hdris.estimators
    import hdris.simulate
    import hdris.tensors

    def refuse(*args, **kwargs):
        raise AssertionError("flops_measured must not run this")

    for module, names in (
        (hdris.channel, ("build_channels", "sample_params")),
        (hdris.simulate, ("build_channels", "sample_params")),
        (hdris.tensors, ("hosvd_rank1", "dominant_left_singular_vector")),
        (hdris.estimators, ("hosvd_rank1", "dominant_left_singular_vector")),
    ):
        for name in names:
            monkeypatch.setattr(module, name, refuse)
    for name, entry in list(ESTIMATORS.items()):
        monkeypatch.setitem(ESTIMATORS, name, dataclasses.replace(entry, fit=refuse))
    assert [flops_measured(m, REF_DIMS) for m in ("ls", "hdr", "krf")] == [
        131072, 234836, 204800,
    ]
    grid = [_square_dims(axis) for axis in (4, 8)]
    extras = {m: [flops_measured(m, d) - flops_measured("ls", d) for d in grid]
              for m in ("hdr", "krf")}
    assert extras == {"hdr": [103764, 545960], "krf": [73728, 294912]}


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


@pytest.mark.parametrize(
    "vals",
    [
        [3.0, 1.0, 2.0],
        [0.1, 0.7, 0.2, 0.3],
        [1e-3, 2.5e-3, 7e-4, 1.1e-3, 9e-4, 3e-3],
        [2.0, 1.0, 2.0, 1.0, 2.0],
        [5.0, 5.0, 5.0, 5.0],
        [0.1, 0.2, 0.1, 0.2],
        [1.0],
        [1.0, float("nan"), 2.0],
        [float("nan"), 0.5],
    ],
    ids=["odd", "even", "even-six", "tied-odd", "all-tied", "tied-even", "single",
         "nan-odd", "nan-even"],
)
def test_summarize_median_has_np_median_bits(vals):
    _, median = summarize(vals)
    want = np.median(np.asarray(vals))
    assert type(median) is float
    assert np.float64(median).tobytes() == np.float64(want).tobytes()


def test_summarize_median_matches_np_median_on_random_lists():
    rng = np.random.default_rng(7)
    for n in range(1, 40):
        vals = list(10 ** rng.uniform(-6, 2, size=n))
        assert summarize(vals)[1] == float(np.median(np.asarray(vals)))
