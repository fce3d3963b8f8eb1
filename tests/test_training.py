"""Tests for the pilot/phase training design and its validation report.

The design stores only the two Kronecker factors; the joint operator
kron(ris_phases, bs_pilots) is built here where a test needs it."""

import dataclasses

import numpy as np
import pytest

from hdris.channel import SystemDims
from hdris.training import (
    TrainingInfeasibleError,
    make_training,
    validate_training,
)

SMALL_DIMS = SystemDims(
    n_bs_y=2, n_bs_z=2, n_ue_y=2, n_ue_z=2, n_ris_y=4, n_ris_z=4,
    n_pilots=16, n_blocks=16,
)


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


def test_design_stores_only_the_two_factors():
    design = make_training(SMALL_DIMS)
    assert [f.name for f in dataclasses.fields(design)] == ["bs_pilots", "ris_phases"]
    assert design.bs_pilots.shape == (4, 16)
    assert design.ris_phases.shape == (16, 16)


def test_budget_shortfall_raises():
    # 16 pilot symbols for 64 unknowns fails the one feasibility condition
    with pytest.raises(TrainingInfeasibleError, match="n_pilots >= n_bs"):
        make_training(_dims(n_bs=4, n_ris=16, n_pilots=4, n_blocks=4))


def test_kron_structure_shortfall_raises():
    # total budget is fine (8*8=64 >= 4*16) but the per-factor split is not
    with pytest.raises(TrainingInfeasibleError, match="n_pilots >= n_bs"):
        make_training(_dims(n_bs=4, n_ris=16, n_pilots=8, n_blocks=8))


def test_oversampled_blocks_stay_orthonormal():
    # more training blocks than surface elements: still exactly orthonormal
    design = make_training(_dims(n_bs=4, n_ris=16, n_pilots=4, n_blocks=20))
    assert validate_training(design).row_orthonormality < 1e-10
    gram = _joint(design) @ _joint(design).conj().T
    assert np.max(np.abs(gram - np.eye(64))) < 1e-10


def test_validate_training_accepts_good_design():
    report = validate_training(make_training(SMALL_DIMS))
    assert report.row_orthonormality < 1e-10
    assert report.modulus_spread < 1e-10
    assert report.ok()


def test_validate_training_flags_corruption():
    # one corrupted entry in either factor breaks its row orthonormality
    design = make_training(SMALL_DIMS)
    for field in ("bs_pilots", "ris_phases"):
        factor = getattr(design, field).copy()
        factor[0, 0] += 0.05
        report = validate_training(dataclasses.replace(design, **{field: factor}))
        assert report.row_orthonormality > 1e-3
        assert not report.ok()
    # a uniformly scaled pilot block keeps constant-modulus profiles
    report = validate_training(
        dataclasses.replace(design, bs_pilots=design.bs_pilots * 1.5)
    )
    assert report.row_orthonormality == pytest.approx(1.25, rel=1e-12)
    assert report.modulus_spread < 1e-10


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


def test_training_is_deterministic():
    d1 = make_training(SMALL_DIMS)
    d2 = make_training(SMALL_DIMS)
    np.testing.assert_array_equal(d1.bs_pilots, d2.bs_pilots)
    np.testing.assert_array_equal(d1.ris_phases, d2.ris_phases)
