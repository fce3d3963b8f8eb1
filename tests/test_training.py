"""Tests for the pilot/phase training design and its size rule.

The design stores only its four sizes, checks them when it is made and
builds its two Kronecker factors on first read; the joint operator
kron(ris_phases, bs_pilots) is built here where a test needs it, and the
factors' contract (orthonormal rows, equal-modulus profiles) is proved
numerically here rather than at run time."""

import dataclasses

import numpy as np
import pytest

from hdris.channel import SystemDims
import hdris.training as training
from hdris.training import (
    FFT_MIN_BLOCKS,
    TrainingDesign,
    TrainingInfeasibleError,
    make_training,
)
from hdris.simulate import ExperimentConfig, run_nmse_sweep
from oracles import REF_DIMS, SMALL_DIMS


def _joint(design):
    return np.kron(design.ris_phases, design.bs_pilots)


def _dims(n_bs=4, n_ris=16, n_pilots=16, n_blocks=16):
    return SystemDims(
        n_bs_y=n_bs, n_bs_z=1, n_ue_y=2, n_ue_z=1,
        n_ris_y=n_ris, n_ris_z=1, n_pilots=n_pilots, n_blocks=n_blocks,
    )


def test_trivial_single_antenna_design():
    design = make_training(_dims(n_bs=1, n_ris=1, n_pilots=1, n_blocks=1))
    np.testing.assert_array_equal(_joint(design), [[1.0 + 0j]])
    assert design.bs_pilots.shape == (1, 1)
    assert design.ris_phases.shape == (1, 1)


def test_combined_training_rows_are_orthonormal():
    design = make_training(SMALL_DIMS)
    for factor in (design.bs_pilots, design.ris_phases):
        gram = factor @ factor.conj().T
        assert np.max(np.abs(gram - np.eye(factor.shape[0]))) < 1e-10
    joint = _joint(design)
    gram = joint @ joint.conj().T
    assert np.max(np.abs(gram - np.eye(SMALL_DIMS.n_bs * SMALL_DIMS.n_ris))) < 1e-10


def test_combined_entries_have_constant_modulus():
    design = make_training(SMALL_DIMS)
    t_total = SMALL_DIMS.n_pilots * SMALL_DIMS.n_blocks
    np.testing.assert_allclose(
        np.abs(_joint(design)), 1.0 / np.sqrt(t_total), atol=1e-12
    )


def test_design_stores_only_its_sizes():
    design = make_training(SMALL_DIMS)
    assert type(design) is TrainingDesign
    assert dataclasses.asdict(design) == {"n_bs": 4, "n_pilots": 16, "n_ris": 16, "n_blocks": 16}
    assert design.bs_pilots.shape == (4, 16)
    assert design.ris_phases.shape == (16, 16)
    # neither a size nor a factor can be set on a design
    for name in ("n_blocks", "bs_pilots", "ris_phases"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(design, name, None)


def test_training_feasibility_threshold():
    make_training(SMALL_DIMS)
    skinny = SystemDims(
        n_bs_y=2, n_bs_z=2, n_ue_y=2, n_ue_z=2, n_ris_y=4, n_ris_z=4,
        n_pilots=4, n_blocks=4,
    )
    # 16 pilot symbols against 64 unknowns per receive antenna
    with pytest.raises(TrainingInfeasibleError):
        make_training(skinny)
    # 64 pilot symbols cover the 64 unknowns, but a Kronecker design with
    # orthonormal rows also needs n_pilots >= n_bs and n_blocks >= n_ris
    for n_pilots, n_blocks in ((2, 32), (32, 2)):
        short = dataclasses.replace(SMALL_DIMS, n_pilots=n_pilots, n_blocks=n_blocks)
        with pytest.raises(TrainingInfeasibleError):
            make_training(short)


def test_budget_shortfall_raises():
    # 16 pilot symbols for 64 unknowns fails the one feasibility condition
    with pytest.raises(TrainingInfeasibleError, match="n_pilots >= n_bs"):
        make_training(_dims(n_bs=4, n_ris=16, n_pilots=4, n_blocks=4))


def test_kron_structure_shortfall_raises():
    # total budget is fine (8*8=64 >= 4*16) but the per-factor split is not
    with pytest.raises(TrainingInfeasibleError, match="n_pilots >= n_bs"):
        make_training(_dims(n_bs=4, n_ris=16, n_pilots=8, n_blocks=8))


# feasible sizes (n_bs, n_pilots, n_ris, n_blocks): square, with more
# pilots or blocks than needed, and on both block routes
FEASIBLE_SIZES = (
    (1, 1, 1, 1),
    (4, 4, 16, 16),
    (4, 4, 16, 20),
    (4, 16, 16, 20),
    (16, 16, 16, 72),
    (4, 16, 16, FFT_MIN_BLOCKS),
    (16, 16, 256, 256),
)


def test_oversampled_blocks_stay_orthonormal():
    # every feasible design meets the contract the matched filter relies
    # on: both factors have orthonormal rows, and every entry of a factor
    # has the same modulus (constant-modulus surface profiles)
    assert {n_blocks >= FFT_MIN_BLOCKS for *_, n_blocks in FEASIBLE_SIZES} == {False, True}
    for sizes in FEASIBLE_SIZES:
        design = TrainingDesign(*sizes)
        for factor, points in ((design.bs_pilots, design.n_pilots),
                               (design.ris_phases, design.n_blocks)):
            gram = factor @ factor.conj().T
            assert np.max(np.abs(gram - np.eye(factor.shape[0]))) <= 1e-12, sizes
            assert np.max(np.abs(np.abs(factor) - 1.0 / np.sqrt(points))) <= 1e-12, sizes
        if design.n_bs * design.n_ris <= 64:
            joint = _joint(design)
            gram = joint @ joint.conj().T
            assert np.max(np.abs(gram - np.eye(design.n_bs * design.n_ris))) <= 1e-12, sizes


@pytest.mark.parametrize("sizes, error, match", [
    # too few pilots for the array, and too few blocks for the surface
    ((16, 4, 4, 4), TrainingInfeasibleError, "n_pilots >= n_bs"),
    ((4, 4, 100, 64), TrainingInfeasibleError, "n_blocks >= n_ris"),
    ((4, 4, 16, 8), TrainingInfeasibleError, "n_blocks=8, n_ris=16"),
    # no size may be 0, even where the two inequalities hold
    ((0, 0, 0, 0), ValueError, "n_bs must be >= 1"),
    ((4, 4, 16, 0), ValueError, "n_blocks must be >= 1"),
    ((1, -1, 1, 1), ValueError, "n_pilots must be >= 1"),
])
def test_design_rejects_infeasible_sizes(monkeypatch, sizes, error, match):
    # the rule lives in the design: a design of infeasible sizes is never
    # made, so no factor of it is built
    built = _recording_dft_rows(monkeypatch)
    with pytest.raises(error, match=match):
        TrainingDesign(*sizes)
    assert built == []


def test_replaced_design_checks_its_sizes(monkeypatch):
    # dataclasses.replace makes a new design, so it goes through the same
    # rule as construction and make_training, with the same message
    built = _recording_dft_rows(monkeypatch)
    design = make_training(REF_DIMS)
    with pytest.raises(TrainingInfeasibleError) as replaced:
        dataclasses.replace(design, n_pilots=4)
    with pytest.raises(TrainingInfeasibleError) as made:
        make_training(dataclasses.replace(REF_DIMS, n_pilots=4))
    assert str(replaced.value) == str(made.value) == (
        "Kronecker-structured training needs n_pilots >= n_bs and n_blocks >= n_ris "
        "(got n_pilots=4, n_bs=16, n_blocks=16, n_ris=16)"
    )
    for bad in (dict(n_blocks=8), dict(n_ris=32), dict(n_bs=0)):
        with pytest.raises(ValueError):
            dataclasses.replace(design, **bad)
    assert built == []


def test_training_noise_variance_preserved():
    # the two factor mode products (pilot mode against bs_pilots^H, block
    # mode against ris_phases^H) keep the per-entry variance of white noise
    rng = np.random.default_rng(1)
    design = make_training(SMALL_DIMS)
    shape = (4, SMALL_DIMS.n_pilots, SMALL_DIMS.n_blocks)
    sigma2 = 0.3
    acc = 0.0
    n_draws = 200
    for _ in range(n_draws):
        noise = np.sqrt(sigma2 / 2) * (
            rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        )
        filtered = np.matmul(design.bs_pilots.conj(), noise) @ design.ris_phases.conj().T
        acc += np.mean(np.abs(filtered) ** 2)
    assert acc / n_draws == pytest.approx(sigma2, rel=0.05)


def test_block_fft_rule():
    # designs take the FFT route from FFT_MIN_BLOCKS blocks on
    assert FFT_MIN_BLOCKS == 64
    assert not make_training(_dims(n_blocks=FFT_MIN_BLOCKS - 1)).block_fft
    assert make_training(_dims(n_blocks=FFT_MIN_BLOCKS)).block_fft
    assert make_training(_dims(n_ris=16, n_blocks=72)).block_fft


def _recording_dft_rows(monkeypatch):
    """Record the (rows, points) of every DFT factor built from here on."""
    built = []
    dft_rows = training._dft_rows

    def recording(rows, points):
        built.append((rows, points))
        return dft_rows(rows, points)

    monkeypatch.setattr(training, "_dft_rows", recording)
    return built


def test_block_fft_is_computed_once_per_design(monkeypatch):
    # make_training and block_fft read only the four sizes: the route
    # follows from n_blocks, is stored nowhere, and deciding it builds no
    # factor
    built = _recording_dft_rows(monkeypatch)
    design = make_training(_dims(n_blocks=FFT_MIN_BLOCKS))
    small = make_training(_dims(n_blocks=16))
    assert "block_fft" not in vars(design) and "block_fft" not in vars(small)
    for _ in range(3):
        assert design.block_fft and not small.block_fft
    assert built == []
    assert (design.n_bs, design.n_pilots, design.n_ris, design.n_blocks) == (4, 16, 16, 64)
    # a design replaced with other sizes is the design of those sizes, and
    # builds its own factors on first read
    for n_blocks, fft in ((72, True), (16, False)):
        other = dataclasses.replace(design, n_blocks=n_blocks)
        assert type(other) is TrainingDesign and other.block_fft == fft
        assert dataclasses.astuple(other) == (4, 16, 16, n_blocks) and built == []
        phases = other.ris_phases
        assert built == [(16, n_blocks)] and other.ris_phases is phases
        assert other.bs_pilots.shape == (4, 16) and built == [(16, n_blocks), (4, 16)]
        built.clear()
    assert "ris_phases" not in vars(design)


def test_dft_block_is_built_once_per_process(monkeypatch):
    # each factor is built on its first read, then kept, read-only and
    # owned by its design; a sweep makes one design per process, so the
    # profile block is built once however many trials read it
    built = _recording_dft_rows(monkeypatch)
    design = make_training(_dims(n_blocks=FFT_MIN_BLOCKS))
    for _ in range(3):
        phases = design.ris_phases
    assert built == [(16, 64)] and design.ris_phases is phases
    assert design.bs_pilots.shape == (4, 16) and built == [(16, 64), (4, 16)]
    with pytest.raises(ValueError, match="read-only"):
        phases[0, 0] = 0.0
    grid = np.outer(np.arange(16), np.arange(64))
    np.testing.assert_array_equal(phases, np.exp(-2j * np.pi * grid / 64) / np.sqrt(64))
    # another design of the same sizes builds and owns its own
    other = make_training(_dims(n_blocks=FFT_MIN_BLOCKS))
    assert other.ris_phases is not phases and not np.shares_memory(other.ris_phases, phases)
    assert built[-1] == (16, 64) and len(built) == 3
    built.clear()
    run_nmse_sweep(ExperimentConfig(dims=SMALL_DIMS, snr_grid_db=(-5.0, 5.0), n_trials=3,
                                    methods=("hdr", "krf", "ls"), seed=0, threads=1))
    assert sorted(built) == [(4, 16), (16, 16)]


def test_training_is_deterministic():
    d1 = make_training(SMALL_DIMS)
    d2 = make_training(SMALL_DIMS)
    np.testing.assert_array_equal(d1.bs_pilots, d2.bs_pilots)
    np.testing.assert_array_equal(d1.ris_phases, d2.ris_phases)
