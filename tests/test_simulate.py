"""Tests for experiment configs, Monte-Carlo sweeps, CSV output and the CLI."""

import ctypes
import dataclasses
import hashlib
import io
import json
import math
import os
import platform
import signal
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import hdris
from hdris.channel import ChannelParams, SystemDims, build_channels, cascade_tensor, sample_params
from hdris.cli import main
from hdris.metrics import flops_analytic, ideal_spectral_efficiency, nmse
from hdris.simulate import (
    _EXECUTION_KEYS,
    _MALLOPT_SETTINGS,
    ConfigError,
    ExperimentConfig,
    _complexity_dims,
    _fork_map,
    _keep_freed_heap,
    config_hash,
    default_config,
    flops_measured,
    load_config,
    run_complexity_sweep,
    run_nmse_sweep,
    run_se_sweep,
    write_csv,
)
import hdris.training as training
from hdris.estimators import filtered_observation, krf_estimate, matched_filter
from hdris.tensors import _GRAM_SLAB, dominant_left_singular_vector, hosvd_rank1
from hdris.training import TrainingInfeasibleError, make_training
from oracles import SMALL_DIMS, dominant_pairs_oracle

PERFBENCH_WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads"

HEADER = "method,snr_db,metric,stat,value,n_trials,config_hash"

_ANGLES = {
    "az_bs": 30, "el_bs": 120, "az_ris_arr": -10, "el_ris_arr": 95,
    "az_ris_dep": 45, "el_ris_dep": 100, "az_ue": 0, "el_ue": 110,
}


def _small_cfg(**overrides):
    base = dict(
        dims=SMALL_DIMS,
        snr_grid_db=(-5.0, 5.0),
        n_trials=6,
        methods=("hdr", "krf", "ls"),
        seed=0,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


# ---------------------------------------------------------------------------
# config object
# ---------------------------------------------------------------------------


def test_default_config_dims():
    cfg = default_config()
    assert cfg.dims.n_bs == 16 and cfg.dims.n_ue == 16 and cfg.dims.n_ris == 16
    make_training(cfg.dims)
    assert cfg.n_trials == 500
    assert cfg.methods == ("hdr", "krf", "ls")


@pytest.mark.parametrize(
    "overrides",
    [
        dict(n_trials=0),
        dict(snr_grid_db=()),
        dict(threads=0),
        dict(tx_power_watts=0.0),
        dict(methods=("hdr", "mmse")),
        dict(ris_grid=(16, 10)),
    ],
)
def test_config_validation_errors(overrides):
    with pytest.raises(ConfigError):
        _small_cfg(**overrides)


def test_config_rejects_infeasible_dims():
    thin = SystemDims(
        n_bs_y=2, n_bs_z=2, n_ue_y=2, n_ue_z=2, n_ris_y=4, n_ris_z=4,
        n_pilots=4, n_blocks=4,
    )
    with pytest.raises(TrainingInfeasibleError) as training_exc:
        make_training(thin)
    with pytest.raises(ConfigError) as config_exc:
        _small_cfg(dims=thin)
    # the config check wraps the one training rule's message
    assert str(config_exc.value) == "infeasible dims: " + str(training_exc.value)


def test_config_hash_ignores_scheduling_fields():
    a = _small_cfg()
    b = dataclasses.replace(a, threads=8, output_path="/tmp/somewhere.csv")
    assert config_hash(a) == config_hash(b)
    c = dataclasses.replace(a, seed=1)
    assert config_hash(a) != config_hash(c)
    assert len(config_hash(a)) == 12


def test_config_hash_ignores_python_type_of_tx_power():
    as_int, as_float = _small_cfg(tx_power_watts=1), _small_cfg(tx_power_watts=1.0)
    assert config_hash(as_int) == config_hash(as_float)


def test_to_dict_carries_angles_only_when_pinned():
    from hdris.channel import sample_params

    cfg = _small_cfg()
    assert "angles_deg" not in cfg.to_dict()
    pinned = dataclasses.replace(cfg, fixed_params=sample_params(np.random.default_rng(0)))
    d = pinned.to_dict()
    assert set(d["angles_deg"]) == {
        "az_bs", "el_bs", "az_ris_arr", "el_ris_arr",
        "az_ris_dep", "el_ris_dep", "az_ue", "el_ue",
    }
    assert config_hash(pinned) != config_hash(cfg)


# ---------------------------------------------------------------------------
# JSON config files
# ---------------------------------------------------------------------------


def _dims_json():
    return {
        "n_bs_y": 2, "n_bs_z": 2, "n_ue_y": 2, "n_ue_z": 2,
        "n_ris_y": 4, "n_ris_z": 4, "n_pilots": 16, "n_blocks": 16,
    }


def test_load_config_round_trip(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({
        "dims": _dims_json(),
        "snr_grid_db": [-5, 5],
        "n_trials": 6,
        "methods": ["HDR", "krf", "ls"],
        "seed": 3,
        "threads": 2,
    }))
    cfg = load_config(str(path))
    assert cfg.dims == SMALL_DIMS
    assert cfg.snr_grid_db == (-5.0, 5.0)
    assert cfg.methods == ("hdr", "krf", "ls")  # case-insensitive
    assert cfg.seed == 3 and cfg.threads == 2


@pytest.mark.parametrize("source", ["default", "pinned-se-mt"])
def test_to_dict_reloads_to_the_same_config(tmp_path, source):
    # every key to_dict writes must be one load_config accepts
    if source == "default":
        cfg = default_config()
    else:
        cfg = load_config(str(PERFBENCH_WORKLOADS / ("%s.json" % source)))
    cfg = dataclasses.replace(cfg, threads=2, output_path="out.csv")
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({
        **cfg.to_dict(), **{k: getattr(cfg, k) for k in _EXECUTION_KEYS},
    }))
    reloaded = load_config(str(path))
    assert reloaded == cfg
    assert config_hash(reloaded) == config_hash(cfg)


def test_load_config_angles(tmp_path):
    path = tmp_path / "cfg.json"
    angles = {
        "az_bs": 30.0, "el_bs": 120.0, "az_ris_arr": -10.0, "el_ris_arr": 95.0,
        "az_ris_dep": 45.0, "el_ris_dep": 100.0, "az_ue": 0.0, "el_ue": 110.0,
    }
    path.write_text(json.dumps({"dims": _dims_json(), "angles_deg": angles}))
    cfg = load_config(str(path))
    assert cfg.fixed_params is not None
    assert cfg.fixed_params.az_bs == pytest.approx(math.radians(30.0))
    assert cfg.fixed_params.el_ue == pytest.approx(math.radians(110.0))


@pytest.mark.parametrize(
    "payload",
    [
        {"dims": _dims_json(), "not_a_key": 1},
        {"dims": {"n_bs_y": 2}},
        {"dims": dict(_dims_json(), bogus=3)},
        {"dims": _dims_json(), "angles_deg": {"az_bs": 0.0}},
        {"dims": _dims_json(), "n_trials": 0},
        {"dims": _dims_json(), "methods": ["svd"]},
    ],
)
def test_load_config_rejects_bad_payload(tmp_path, payload):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(ConfigError):
        load_config(str(path))


def test_load_config_rejects_bad_json(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError, match="invalid JSON"):
        load_config(str(path))
    path.write_text("[1, 2, 3]")
    with pytest.raises(ConfigError, match="JSON object"):
        load_config(str(path))
    # not UTF-8: a UTF-16 byte-order mark before the object
    path.write_bytes(b'\xff\xfe{"n_trials": 2}')
    with pytest.raises(ConfigError, match="invalid JSON"):
        load_config(str(path))
    assert main(["validate", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


def _with_repeat(obj, key, value):
    """``obj`` as JSON text with ``key`` written once more, as ``value``,
    after its other keys."""
    return json.dumps(obj)[:-1] + ", %s: %s}" % (json.dumps(key), json.dumps(value))


@pytest.mark.parametrize("text, key", [
    ('{"n_trials": 3, "n_trials": 2, "snr_grid_db": [0]}', "n_trials"),
    ('{"dims": %s}' % _with_repeat(_dims_json(), "n_ris_y", 2), "n_ris_y"),
    ('{"dims": %s, "angles_deg": %s}'
     % (json.dumps(_dims_json()), _with_repeat(_ANGLES, "az_bs", 0)), "az_bs"),
], ids=["top", "dims", "angles_deg"])
def test_load_config_rejects_a_repeated_key(tmp_path, capsys, text, key):
    # json.load alone keeps a repeated key's last value: the top-level case
    # used to run 2 trials and exit 0
    path = tmp_path / "cfg.json"
    path.write_text(text)
    with pytest.raises(ConfigError, match="repeated key '%s'" % key):
        load_config(str(path))
    assert main(["nmse", "--config", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: invalid JSON in %s: repeated key '%s'\n" % (path, key)


def test_load_config_without_dims_takes_the_reference_dims(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"n_trials": 2}))
    cfg = load_config(str(path))
    assert cfg.dims == default_config().dims
    assert cfg.n_trials == 2


def test_cli_zero_extent_exits_2_with_the_dims_line(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"dims": dict(_dims_json(), n_ris_y=0)}))
    assert main(["validate", "--config", str(path)]) == 2
    assert capsys.readouterr().err == "error: bad dims: n_ris_y must be >= 1\n"


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------


def test_nmse_sweep_row_layout():
    cfg = _small_cfg()
    rows = run_nmse_sweep(cfg)
    # 3 methods x 2 snr points x 2 stats
    assert len(rows) == 12
    assert {r["method"] for r in rows} == {"hdr", "krf", "ls"}
    assert all(r["metric"] == "nmse" for r in rows)
    assert all(r["n_trials"] == 6 for r in rows)
    assert all(r["config_hash"] == config_hash(cfg) for r in rows)
    assert {r["stat"] for r in rows} == {"mean", "median"}


def test_nmse_sweep_near_exact_at_extreme_snr():
    cfg = _small_cfg(snr_grid_db=(120.0,), n_trials=4)
    for row in run_nmse_sweep(cfg):
        assert row["value"] < 1e-10


def test_nmse_sweep_excludes_ideal():
    cfg = _small_cfg(methods=("hdr", "ideal"))
    rows = run_nmse_sweep(cfg)
    assert {r["method"] for r in rows} == {"hdr"}
    with pytest.raises(ConfigError):
        run_nmse_sweep(_small_cfg(methods=("ideal",)))


def test_tx_power_scales_the_noise_the_estimators_see():
    # noise_var = P 10^(-snr/10) against unit-power pilots, so at P = 10 and
    # 10 dB ls's error is the 0 dB one: per trial, noise_var times a mean of
    # 2 n_ue n_bs n_ris = 512 squared normals (the true cascade's squared
    # norm is n_ue n_bs n_ris), of relative standard deviation 1/16
    cfg = _small_cfg(snr_grid_db=(10.0,), n_trials=40, methods=("ls",), tx_power_watts=10.0)
    mean = next(r["value"] for r in run_nmse_sweep(cfg) if r["stat"] == "mean")
    want = 10.0 * 10.0 ** (-10.0 / 10.0)
    assert abs(mean - want) <= 4.0 * want / (16.0 * math.sqrt(cfg.n_trials))


def test_nmse_sweep_method_separation():
    # the structured fit beats per-column fits beats raw filtering at 5 dB
    cfg = _small_cfg(snr_grid_db=(5.0,), n_trials=30)
    rows = run_nmse_sweep(cfg)
    med = {r["method"]: r["value"] for r in rows if r["stat"] == "median"}
    assert med["hdr"] < med["krf"] < med["ls"]


def test_se_sweep_appends_benchmark():
    cfg = _small_cfg(snr_grid_db=(0.0,), n_trials=4)
    rows = run_se_sweep(cfg)
    methods = {r["method"] for r in rows}
    assert methods == {"hdr", "krf", "ls", "ideal"}
    assert all(r["metric"] == "se_bits_per_hz" for r in rows)
    ideal_rows = [r for r in rows if r["method"] == "ideal"]
    expected = ideal_spectral_efficiency(cfg.dims, cfg.tx_power_watts, 1.0)
    for r in ideal_rows:
        assert r["value"] == pytest.approx(expected, rel=1e-12)


def test_se_sweep_ideal_only_runs_no_trial(monkeypatch):
    # ideal rows come from the closed form, one value per SNR point
    import hdris.simulate as simulate

    def no_trial(*args, **kwargs):
        raise AssertionError("an ideal-only se sweep ran a trial")

    # the config checks its dims by making a design, so it is built first
    cfg = _small_cfg(methods=("ideal",), n_trials=5)
    for name in ("_run_point", "make_training", "filtered_observation"):
        monkeypatch.setattr(simulate, name, no_trial)
    rows = run_se_sweep(cfg)
    assert [(r["method"], r["snr_db"], r["stat"]) for r in rows] == [
        ("ideal", snr, stat) for snr in (-5.0, 5.0) for stat in ("mean", "median")
    ]
    for r in rows:
        noise_var = cfg.tx_power_watts / 10.0 ** (r["snr_db"] / 10.0)
        want = ideal_spectral_efficiency(cfg.dims, cfg.tx_power_watts, noise_var)
        assert r["value"] == pytest.approx(want, rel=1e-15)
        assert r["n_trials"] == 5


def test_se_sweep_keeps_configured_method_order():
    rows = run_se_sweep(_small_cfg(snr_grid_db=(0.0,), n_trials=2,
                                   methods=("ls", "ideal", "hdr")))
    assert [r["method"] for r in rows] == ["ls", "ls", "ideal", "ideal", "hdr", "hdr"]


def test_se_sweep_ideal_value_seed_invariant():
    a = run_se_sweep(_small_cfg(snr_grid_db=(0.0,), n_trials=3, seed=0, methods=("hdr",)))
    b = run_se_sweep(_small_cfg(snr_grid_db=(0.0,), n_trials=3, seed=7, methods=("hdr",)))
    va = [r["value"] for r in a if r["method"] == "ideal"]
    vb = [r["value"] for r in b if r["method"] == "ideal"]
    np.testing.assert_allclose(va, vb, rtol=1e-12)


@pytest.mark.parametrize(
    "sweep, dims",
    [
        pytest.param(run_nmse_sweep, SystemDims(4, 4, 4, 4, 16, 16, 16, 256), id="nmse-wide"),
        pytest.param(run_se_sweep, SystemDims(2, 2, 2, 2, 8, 8, 4, 72), id="se-8x8-72"),
    ],
)
def test_sweep_rows_agree_across_block_routes(sweep, dims, monkeypatch):
    # the FFT block route moves no row by more than rounding.  A rounding
    # change d in the cascade estimate moves an NMSE v by about
    # 2*sqrt(v)*|d|, so the bound scales with sqrt(v): at 20 dB `hdr`
    # (v ~ 6e-6) differs by ~1e-12 relative, ~4e-15*sqrt(v) absolute.
    cfg = _small_cfg(dims=dims, snr_grid_db=(-10.0, 0.0, 20.0), n_trials=3)
    assert make_training(dims).block_fft
    fft_rows = sweep(cfg)
    monkeypatch.setattr(training, "FFT_MIN_BLOCKS", dims.n_blocks + 1)
    assert not make_training(dims).block_fft
    dense_rows = sweep(cfg)
    assert [dict(r, value=0) for r in fft_rows] == [dict(r, value=0) for r in dense_rows]
    for got, want in zip(fft_rows, dense_rows):
        assert abs(got["value"] - want["value"]) <= 1e-13 * math.sqrt(want["value"]), got


def test_fft_route_sweep_never_builds_the_profile_matrix(monkeypatch, tmp_path):
    # the FFT route reads the design's sizes only: a 16x16-surface sweep on
    # 256 blocks builds its 16x16 pilot block and no 256x256 profile
    # matrix, and so does a filter with check=True; hdris validate builds
    # neither
    built = []
    dft_rows = training._dft_rows

    def recording(rows, points):
        built.append((rows, points))
        return dft_rows(rows, points)

    monkeypatch.setattr(training, "_dft_rows", recording)
    dims = SystemDims(4, 4, 4, 4, 16, 16, 16, 256)
    for sweep in (run_nmse_sweep, run_se_sweep):
        sweep(_small_cfg(dims=dims, snr_grid_db=(0.0,), n_trials=2))
        assert built == [(16, 16)]
        built.clear()
    config = tmp_path / "wide.json"
    config.write_text(json.dumps({"dims": dataclasses.asdict(dims), "snr_grid_db": [0.0],
                                  "n_trials": 2}))
    assert main(["validate", "--config", str(config)]) == 0
    assert built == []
    matched_filter(np.zeros((16, 16, 256), dtype=complex), make_training(dims), check=True)
    assert built == [(16, 16)]


def _csv_text(rows):
    buf = io.StringIO()
    write_csv(rows, buf)
    return buf.getvalue()


@pytest.mark.parametrize(
    "sweep, pinned, thread_counts",
    [
        pytest.param(run_nmse_sweep, False, (1, 4), id="nmse-1-4"),
        pytest.param(run_se_sweep, False, (1, 4), id="se-1-4"),
        pytest.param(run_se_sweep, True, (1, 2, 3), id="se-pinned-1-2-3"),
    ],
)
def test_sweep_deterministic_across_thread_counts(sweep, pinned, thread_counts):
    fixed = (
        ChannelParams(**{k: math.radians(v) for k, v in _ANGLES.items()})
        if pinned else None
    )
    texts = {
        t: _csv_text(sweep(_small_cfg(threads=t, fixed_params=fixed)))
        for t in thread_counts
    }
    assert len(set(texts.values())) == 1, texts


class _RecordingForkMap:
    """Stands in for simulate._fork_map: records the chunks it gets and
    runs them in this process, so the test starts no process."""

    def __init__(self):
        self.calls = []

    def __call__(self, run, chunks):
        chunks = list(chunks)
        self.calls.append(chunks)
        return [run(c) for c in chunks]


def _interleaved(n_snr, n_trials, workers):
    """Worker w's share of the (snr point, trial) grid: every workers-th
    job in job order, from job w on."""
    jobs = [(s, t) for s in range(n_snr) for t in range(n_trials)]
    return [[jobs[i] for i in range(w, len(jobs), workers)] for w in range(workers)]


@pytest.mark.parametrize("threads", [1, 2, 64, 10**6])
@pytest.mark.parametrize("cpus", [1, 3, 256])
@pytest.mark.parametrize("n_snr, n_trials", [(2, 6), (1, 1)])
def test_sweep_workers_capped_by_cpus_and_jobs(
    monkeypatch, threads, cpus, n_snr, n_trials
):
    import hdris.simulate as simulate

    fork_map = _RecordingForkMap()
    monkeypatch.setattr(simulate, "_fork_map", fork_map)
    monkeypatch.setattr("os.sched_getaffinity", lambda pid: set(range(cpus)))
    cfg = _small_cfg(threads=threads, snr_grid_db=(-5.0, 5.0)[:n_snr],
                     n_trials=n_trials)
    rows = run_nmse_sweep(cfg)
    workers = min(threads, cpus, n_snr * n_trials)
    if workers == 1:
        assert fork_map.calls == []
    else:
        # one interleaved share of the grid per worker
        assert fork_map.calls == [_interleaved(n_snr, n_trials, workers)]
    assert rows == run_nmse_sweep(dataclasses.replace(cfg, threads=1))


@pytest.mark.parametrize("cpus, workers", [(3, 3), (None, 1)])
def test_sweep_workers_without_sched_getaffinity(monkeypatch, cpus, workers):
    # a platform without os.sched_getaffinity (macOS) caps the count at
    # os.cpu_count(), or at one worker when that is unknown
    import hdris.simulate as simulate

    fork_map = _RecordingForkMap()
    monkeypatch.setattr(simulate, "_fork_map", fork_map)
    monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    cfg = _small_cfg(threads=8)
    rows = run_nmse_sweep(cfg)
    if workers == 1:
        assert fork_map.calls == []
    else:
        assert fork_map.calls == [_interleaved(len(cfg.snr_grid_db), cfg.n_trials, workers)]
    assert rows == run_nmse_sweep(dataclasses.replace(cfg, threads=1))


def _wrap_fits(monkeypatch, wrap):
    """Replace every ESTIMATORS entry's fit by ``wrap(method, fit)``."""
    import hdris.simulate as simulate

    for method, entry in list(simulate.ESTIMATORS.items()):
        monkeypatch.setitem(simulate.ESTIMATORS, method,
                            dataclasses.replace(entry, fit=wrap(method, entry.fit)))


def test_each_estimate_released_before_next_fit(monkeypatch):
    # a trial holds one estimate at a time: at a 16x16 surface each one
    # keeps a 1 MiB cascade alive
    import gc
    import weakref

    refs = []

    def tracked(method, fit):
        def fit_when_released(cascade_obs, dims):
            gc.collect()
            assert all(ref() is None for ref in refs), "an earlier estimate is still alive"
            est = fit(cascade_obs, dims)
            refs.append(weakref.ref(est))
            return est
        return fit_when_released

    _wrap_fits(monkeypatch, tracked)
    cfg = _small_cfg(snr_grid_db=(0.0,), n_trials=2, threads=1)
    run_nmse_sweep(cfg)
    run_se_sweep(cfg)
    assert len(refs) == 2 * cfg.n_trials * len(cfg.methods)


def test_sweeps_share_channels_and_observations(monkeypatch):
    # common random numbers: at every (SNR, trial) the nmse and the se
    # sweep of one random-geometry config score the same channel, and
    # every method of a trial is fitted to that trial's one observation
    import hdris.simulate as simulate

    def digest(a):
        return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()

    events = []
    observe = simulate.filtered_observation

    def recording_observation(ch, design, noise_var, rng):
        obs = observe(ch, design, noise_var, rng)
        events.append(("obs", digest(ch.cascade), digest(obs)))
        return obs

    nmse, rate = simulate.nmse, simulate.spectral_efficiency

    def recording_nmse(truth, estimate):
        events.append(("score", digest(truth)))
        return nmse(truth, estimate)

    def recording_rate(ch, est, *args):
        events.append(("score", digest(ch.cascade)))
        return rate(ch, est, *args)

    monkeypatch.setattr(simulate, "filtered_observation", recording_observation)
    monkeypatch.setattr(simulate, "nmse", recording_nmse)
    monkeypatch.setattr(simulate, "spectral_efficiency", recording_rate)

    def recorded(method, fit):
        def recording_fit(cascade_obs, dims):
            events.append(("fit", method, digest(cascade_obs)))
            return fit(cascade_obs, dims)
        return recording_fit

    _wrap_fits(monkeypatch, recorded)
    cfg = _small_cfg(n_trials=3, threads=1)
    assert cfg.fixed_params is None

    per_sweep = []
    for sweep in (run_nmse_sweep, run_se_sweep):
        events.clear()
        sweep(cfg)
        trials = []
        for i in range(0, len(events), 1 + 2 * len(cfg.methods)):
            kind, channel, obs = events[i]
            assert kind == "obs"
            fits_and_scores = events[i + 1:i + 1 + 2 * len(cfg.methods)]
            assert fits_and_scores == [
                event for m in cfg.methods for event in (("fit", m, obs), ("score", channel))
            ]
            trials.append((channel, obs))
        assert len(trials) == len(cfg.snr_grid_db) * cfg.n_trials
        assert len(set(trials)) == len(trials)
        per_sweep.append(trials)
    assert per_sweep[0] == per_sweep[1]


def test_sweep_repeatable_same_seed():
    cfg = _small_cfg()
    assert run_nmse_sweep(cfg) == run_nmse_sweep(_small_cfg())


def test_sweep_pinned_geometry():
    from hdris.channel import sample_params

    pinned = sample_params(np.random.default_rng(5))
    cfg = _small_cfg(snr_grid_db=(200.0,), n_trials=2, fixed_params=pinned,
                     methods=("hdr",))
    rows = run_nmse_sweep(cfg)
    # noiseless limit with one fixed geometry: mean equals median
    vals = {r["stat"]: r["value"] for r in rows}
    assert vals["mean"] == pytest.approx(vals["median"], rel=1e-9)


def test_pinned_channel_built_once_per_sweep(monkeypatch):
    # a pinned geometry's channel is built once, beside the training
    # design, and reaches every trial through the forked workers; its rows
    # are those of a sweep that rebuilds the same channel in every trial
    import hdris.simulate as simulate

    pinned = ChannelParams(**{k: math.radians(v) for k, v in _ANGLES.items()})
    build, built = simulate.build_channels, []

    def counting(dims, params):
        built.append(params)
        return build(dims, params)

    monkeypatch.setattr(simulate, "build_channels", counting)
    fork_map = _RecordingForkMap()
    monkeypatch.setattr(simulate, "_fork_map", fork_map)
    monkeypatch.setattr("os.sched_getaffinity", lambda pid: {0, 1})
    cfg = _small_cfg(threads=2, fixed_params=pinned)
    once = run_se_sweep(cfg)
    assert built == [pinned]
    assert fork_map.calls == [_interleaved(len(cfg.snr_grid_db), cfg.n_trials, 2)]

    # unpinned, with the draw replaced by the pinned geometry (it then
    # consumes no stream, as a pinned trial does not): one build per trial
    built.clear()
    monkeypatch.setattr(simulate, "sample_params", lambda rng: pinned)
    rebuilt = run_se_sweep(dataclasses.replace(cfg, fixed_params=None))
    assert built == [pinned] * (len(cfg.snr_grid_db) * cfg.n_trials)
    assert [{**r, "config_hash": None} for r in once] == [
        {**r, "config_hash": None} for r in rebuilt
    ]


# ---------------------------------------------------------------------------
# forked workers
# ---------------------------------------------------------------------------


def _assert_no_child_left():
    # waitpid(-1) raises only when this process has no child at all,
    # running or unreaped
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _refuse(bad, then=None):
    """A chunk runner returning its chunk doubled, except for chunk ``bad``,
    on which it calls ``then`` (default: raise ValueError)."""
    def run(chunk):
        if chunk == bad:
            if then is None:
                raise ValueError("chunk %r refused" % (chunk,))
            then()
        return [2 * x for x in chunk]
    return run


def test_fork_map_returns_results_in_chunk_order():
    assert _fork_map(_refuse(None), [[1, 2], [3], [4, 5]]) == [[2, 4], [6], [8, 10]]
    _assert_no_child_left()


def test_fork_map_reraises_a_child_exception():
    with pytest.raises(ValueError, match=r"^chunk \[2\] refused$"):
        _fork_map(_refuse([2]), [[1], [2], [3]])
    _assert_no_child_left()


@pytest.mark.parametrize(
    "then, message",
    [
        (lambda: os.kill(os.getpid(), signal.SIGKILL), "killed by signal %d" % signal.SIGKILL),
        (lambda: os._exit(3), "exited with code 3"),
    ],
    ids=["sigkill", "exit-3"],
)
def test_fork_map_raises_when_a_child_dies(then, message):
    with pytest.raises(RuntimeError, match=message):
        _fork_map(_refuse([2], then), [[1], [2], [3]])
    _assert_no_child_left()


def test_fork_map_returns_a_payload_larger_than_the_pipe_buffer():
    # 512 KiB per child, read to EOF before the child is reaped
    big = bytes(range(256)) * 2048
    assert _fork_map(lambda chunk: big, [[0], [1]]) == [big, big]
    _assert_no_child_left()


def test_fork_map_kills_the_other_children_when_one_fails():
    # the second child would sleep for 30 s; the first one's exception
    # reaches the caller at once, and the sleeper is killed and reaped
    def run(chunk):
        if chunk == [1]:
            time.sleep(30)
        raise ValueError("chunk %r refused" % (chunk,))

    start = time.perf_counter()
    with pytest.raises(ValueError, match=r"^chunk \[0\] refused$"):
        _fork_map(run, [[0], [1]])
    assert time.perf_counter() - start < 5.0
    _assert_no_child_left()


def test_fork_map_kills_every_child_on_keyboard_interrupt():
    # the first child interrupts the parent, which is waiting on its pipe,
    # and then sleeps; both children are killed before the interrupt leaves
    def run(chunk):
        if chunk == [0]:
            os.kill(os.getppid(), signal.SIGINT)
        time.sleep(30)

    previous = signal.signal(signal.SIGINT, signal.default_int_handler)
    start = time.perf_counter()
    try:
        with pytest.raises(KeyboardInterrupt):
            _fork_map(run, [[0], [1]])
    finally:
        signal.signal(signal.SIGINT, previous)
    assert time.perf_counter() - start < 5.0
    _assert_no_child_left()


def test_forked_sweep_imports_no_process_pool():
    # a 2-worker sweep forks directly: neither concurrent.futures nor
    # multiprocessing is ever imported
    script = (
        "import os, sys\n"
        "os.sched_getaffinity = lambda pid: {0, 1}\n"
        "from hdris.simulate import ExperimentConfig, run_se_sweep\n"
        "from hdris.channel import SystemDims\n"
        "dims = SystemDims(2, 2, 2, 2, 4, 4, 16, 16)\n"
        "run_se_sweep(ExperimentConfig(dims=dims, snr_grid_db=(0.0,), n_trials=2,"
        " threads=2))\n"
        "print(sorted(m for m in ('concurrent.futures', 'multiprocessing')"
        " if m in sys.modules))\n"
    )
    out = subprocess.run([sys.executable, "-c", script], env=_cli_env(), check=True,
                         capture_output=True, text=True, timeout=60).stdout
    assert out == "[]\n"


def test_perfbench_workloads_load_and_validate(capsys):
    # the benchmark's configs are only read: a parser change that rejects
    # one fails here, not first in the benchmark
    paths = sorted(PERFBENCH_WORKLOADS.glob("*.json"))
    assert {p.stem for p in paths} >= {"pinned-se-mt", "ref-nmse", "wide-ris-nmse"}
    for path in paths:
        load_config(str(path))
        assert main(["validate", "--config", str(path)]) == 0, path.name
        assert capsys.readouterr().out.endswith("training design ok\n")


@pytest.mark.parametrize("workload, sweep", [
    ("pinned-se-mt", run_se_sweep),
    ("ref-nmse", run_nmse_sweep),
    ("wide-ris-nmse", run_nmse_sweep),
], ids=["pinned-se-mt", "ref-nmse", "wide-ris-nmse"])
def test_workload_matches_perfbench_reference(workload, sweep):
    # the benchmark's own reference rows, recorded from CLI runs at seed 0,
    # reproduced by one in-process sweep (the files are only read), so a
    # change that moves a benchmark row fails here too
    cfg = dataclasses.replace(
        load_config(str(PERFBENCH_WORKLOADS / (workload + ".json"))), seed=0, threads=1
    )
    reference = json.loads(
        (PERFBENCH_WORKLOADS.parent / "reference.json").read_text(encoding="utf-8")
    )[workload]["0"]
    rows = sweep(cfg)
    got = {"%s,%r,%s" % (r["method"], r["snr_db"], r["stat"]): r["value"] for r in rows}
    assert got.keys() == reference.keys()
    for key, want in reference.items():
        assert abs(got[key] - want) <= 1e-12 * abs(want), key


_REF_DIMS = SystemDims(
    n_bs_y=4, n_bs_z=4, n_ue_y=4, n_ue_z=4, n_ris_y=4, n_ris_z=4,
    n_pilots=16, n_blocks=16,
)
_WIDE_DIMS = dataclasses.replace(_REF_DIMS, n_ris_y=16, n_ris_z=16, n_blocks=256)


@pytest.mark.parametrize(
    "sweep, dims",
    [
        pytest.param(run_nmse_sweep, _REF_DIMS, id="nmse-ref"),
        pytest.param(run_nmse_sweep, _WIDE_DIMS, id="nmse-16x16"),
        pytest.param(run_se_sweep, _REF_DIMS, id="se-ref"),
    ],
)
def test_sweep_matches_per_matrix_eigh_oracle(monkeypatch, sweep, dims):
    # the stacked fast path against one eigh per matrix, end to end (rate
    # scoring takes no dominant pair; tests/test_metrics.py pins it to
    # oracles.rate_oracle)
    import hdris.estimators
    import hdris.tensors

    cfg = _small_cfg(dims=dims, snr_grid_db=(-10.0, 0.0, 20.0), n_trials=2)
    fast = sweep(cfg)
    stacks = []

    def oracle(m):
        stacks.append(np.ndim(m) > 2)
        return dominant_pairs_oracle(m)[0]

    for module in (hdris.estimators, hdris.tensors):
        monkeypatch.setattr(module, "dominant_left_singular_vector", oracle)
    slow = sweep(cfg)
    assert any(stacks)
    assert len(fast) == len(slow)
    for got, want in zip(fast, slow):
        assert {k: v for k, v in got.items() if k != "value"} == {
            k: v for k, v in want.items() if k != "value"
        }
        assert got["value"] == pytest.approx(want["value"], rel=1e-12, abs=0.0)


def test_krf_squarings_per_call_at_reference_dims(monkeypatch):
    # full squarings of krf's stacked Grams per call at seed 0: the
    # matrix-vector tail takes over once the bound allows (3/4/5/9 per call
    # at 20/10/0/-10 dB before it)
    import hdris.estimators

    snrs = (20.0, 10.0, 0.0, -10.0)
    n_trials = 3
    calls = []
    matmul, krf = np.matmul, hdris.estimators.ESTIMATORS["krf"]

    def recording(a, b, *args, **kwargs):
        if a is b:
            calls[-1]["square"] += 1
        elif np.ndim(a) == 3 and np.shape(b)[-1:] == (1,):
            calls[-1]["tail"] += 1
        return matmul(a, b, *args, **kwargs)

    def counted_krf(*args, **kwargs):
        calls.append({"square": 0, "tail": 0})
        with monkeypatch.context() as patch:
            patch.setattr(np, "matmul", recording)
            return krf.fit(*args, **kwargs)

    monkeypatch.setitem(hdris.estimators.ESTIMATORS, "krf",
                        dataclasses.replace(krf, fit=counted_krf))
    run_nmse_sweep(_small_cfg(dims=_REF_DIMS, snr_grid_db=snrs, n_trials=n_trials,
                              methods=("krf",)))
    squarings = [[c["square"] for c in calls[i:i + n_trials]]
                 for i in range(0, len(calls), n_trials)]
    assert squarings == [[0] * n_trials, [1] * n_trials, [2] * n_trials, [6] * n_trials]
    assert all(1 <= c["tail"] < 16 for c in calls)


def test_sweep_never_imports_numpy_ma():
    # the median of a summary row comes from a sorted list, not np.median,
    # whose NaN check imports numpy.ma (14-25 ms and ~1 MiB per process)
    code = (
        "import sys, dataclasses\n"
        "from hdris.simulate import default_config, run_nmse_sweep\n"
        "cfg = dataclasses.replace(default_config(), n_trials=2, snr_grid_db=(0.0, 10.0))\n"
        "assert len(run_nmse_sweep(cfg)) == 12\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], env=_cli_env(), check=True,
                          capture_output=True, text=True, timeout=120)
    assert proc.stdout.strip() == "False"


def test_cli_main_freezes_import_heap_and_skips_hashlib():
    # the command line owns its process: main moves the import-time heap out
    # of the collector's reach, so the exit's last collection skips it, and
    # validate hashes no config, so it never loads hashlib
    code = (
        "import gc, sys\n"
        "from hdris.cli import main\n"
        "assert main(['validate']) == 0\n"
        "print(gc.get_freeze_count() > 0, 'hashlib' in sys.modules)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], env=_cli_env(), check=True,
                          capture_output=True, text=True, timeout=60)
    assert proc.stdout.splitlines()[-1] == "True False"


def test_library_sweep_leaves_heap_unfrozen():
    # a library caller owns its process: importing hdris and sweeping
    # freezes none of its heap
    code = (
        "import dataclasses, gc\n"
        "import hdris\n"
        "from hdris.simulate import default_config\n"
        "cfg = dataclasses.replace(default_config(), n_trials=1, snr_grid_db=(0.0,))\n"
        "assert len(hdris.run_nmse_sweep(cfg)) == 6\n"
        "print(gc.get_freeze_count())\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], env=_cli_env(), check=True,
                          capture_output=True, text=True, timeout=120)
    assert proc.stdout.strip() == "0"


# ---------------------------------------------------------------------------
# working set of a trial
# ---------------------------------------------------------------------------


def test_trial_working_set_is_three_cascades_and_a_few_slabs():
    # every stage bounds its transients by the one slab budget,
    # _GRAM_SLAB entries (256 KiB, a quarter of the cascade here), so a
    # 16x16-surface trial holds the truth, the filtered observation and
    # one estimate (or hdr's C-ordered copy) plus a few slabs.  Measured
    # sweep peak: 3.52 cascades; 5.28 while krf fitted its 256 Grams in
    # one stack, hdr conjugated its whole first mode and nmse formed the
    # full difference.  Each of those stages has its own bound beside the
    # pilot path's (measured: pilot path 1.0 cascade beyond its output,
    # krf's stack 2.5 slabs, hdr's fit 2.04 and nmse 1.0)
    dims = _WIDE_DIMS
    cfg = ExperimentConfig(dims=dims, snr_grid_db=(0.0,), n_trials=2, seed=0)
    run_nmse_sweep(cfg)                         # warm-up: lazy imports and caches
    design = make_training(dims)
    ch = build_channels(dims, sample_params(np.random.default_rng(60)))
    rng = np.random.default_rng(61)
    slab = _GRAM_SLAB * 16                      # bytes of one complex128 slab
    small = 16 << 10                            # d x d Grams, vectors, numpy bookkeeping
    peaks = {}

    def stage(name, fn):
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        out = fn()
        peaks[name] = tracemalloc.get_traced_memory()[1] - before
        return out

    tracemalloc.start()
    try:
        stage("sweep", lambda: run_nmse_sweep(cfg))
        obs = stage("pilot path", lambda: filtered_observation(ch, design, 1.0, rng))
        tensor = np.ascontiguousarray(cascade_tensor(obs, dims))
        stage("hosvd_rank1", lambda: hosvd_rank1(tensor))
        stack = obs.reshape(dims.n_ue, dims.n_bs, dims.n_ris, order="F").transpose(2, 0, 1)
        stage("stack", lambda: dominant_left_singular_vector(stack))
        est = krf_estimate(obs, dims).cascade
        stage("nmse", lambda: nmse(ch.cascade, est))
    finally:
        tracemalloc.stop()
    cascade = ch.cascade.nbytes
    assert cascade == 4 * slab and len(stack) > _GRAM_SLAB // 256
    assert peaks["sweep"] <= 3.75 * cascade, peaks
    assert peaks["pilot path"] - obs.nbytes <= 1.5 * obs.nbytes, peaks
    assert peaks["hosvd_rank1"] <= 2 * slab + small, peaks
    assert peaks["stack"] <= 4 * slab, peaks
    assert peaks["nmse"] <= 2 * slab, peaks


# ---------------------------------------------------------------------------
# freed-heap setting
# ---------------------------------------------------------------------------

_ON_GLIBC = sys.platform.startswith("linux") and platform.libc_ver()[0] == "glibc"


class _RecordingLibc:
    """Stands in for the C library handle: records each mallopt call."""

    def __init__(self, calls):
        def mallopt(param, value):
            calls.append((param, value))
            return 1

        self.mallopt = mallopt


@pytest.fixture
def fresh_heap_helper():
    """The helper's once-per-process result dropped before and after."""
    _keep_freed_heap.cache_clear()
    yield _keep_freed_heap
    _keep_freed_heap.cache_clear()


def test_keep_freed_heap_is_idempotent(monkeypatch, fresh_heap_helper):
    setting = fresh_heap_helper.__wrapped__
    if _ON_GLIBC:
        assert setting() is True
        assert setting() is True
    calls = []
    monkeypatch.setattr(ctypes, "CDLL", lambda name: _RecordingLibc(calls))
    assert setting() is True
    assert setting() is True
    assert calls == 2 * list(_MALLOPT_SETTINGS)


def test_keep_freed_heap_runs_once_per_process(monkeypatch, fresh_heap_helper):
    calls = []
    monkeypatch.setattr(ctypes, "CDLL", lambda name: _RecordingLibc(calls))
    cfg = _small_cfg(n_trials=1)
    run_nmse_sweep(cfg)
    run_se_sweep(cfg)
    assert fresh_heap_helper() is True
    assert calls == list(_MALLOPT_SETTINGS)


def test_keep_freed_heap_is_a_no_op_without_mallopt(monkeypatch, fresh_heap_helper):
    cfg = _small_cfg(n_trials=1)
    rows = run_nmse_sweep(cfg)
    monkeypatch.setattr(ctypes, "CDLL", lambda name: object())
    assert fresh_heap_helper.__wrapped__() is False

    def no_library(name):
        raise OSError("no C library handle")

    monkeypatch.setattr(ctypes, "CDLL", no_library)
    fresh_heap_helper.cache_clear()
    # the sweeps run on without it
    assert run_nmse_sweep(cfg) == rows
    assert fresh_heap_helper() is False


def _cli_env():
    env = dict(os.environ)
    src = str(Path(hdris.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return env


def test_kept_heap_leaves_csv_bytes_and_hash_unchanged(tmp_path):
    # with the setting on, threads 1 and 2 write the same bytes; a fresh
    # process whose helper is switched off writes them too
    cfg = _small_cfg(snr_grid_db=(-10.0, 10.0), n_trials=3)
    texts = {t: _csv_text(run_nmse_sweep(dataclasses.replace(cfg, threads=t)))
             for t in (1, 2)}
    assert texts[1] == texts[2]
    assert {ln.rsplit(",", 1)[1] for ln in texts[1].splitlines()[1:]} == {config_hash(cfg)}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg.to_dict()))
    off = (
        "import hdris.simulate as s\n"
        "s._keep_freed_heap = lambda: False\n"
        "from hdris.cli import main\n"
        "raise SystemExit(main(['nmse', '--config', %r, '--out', %r]))\n"
    )
    for name, argv in (
        ("on", ["-m", "hdris.cli", "nmse", "--config", str(cfg_path),
                "--out", str(tmp_path / "on.csv")]),
        ("off", ["-c", off % (str(cfg_path), str(tmp_path / "off.csv"))]),
    ):
        subprocess.run([sys.executable, *argv], env=_cli_env(), check=True,
                       stdout=subprocess.DEVNULL, timeout=120)
        assert (tmp_path / (name + ".csv")).read_text(encoding="utf-8") == texts[1]


@pytest.mark.skipif(not _ON_GLIBC, reason="minor-fault counts of glibc's heap on Linux")
def test_cli_sweep_faults_do_not_grow_with_trials(tmp_path):
    # a 16x16-surface trial frees about 1 MiB temporaries; with the freed
    # heap kept, ten more trials add (almost) no minor page faults, where
    # returning it to the OS costs about 2,270 faults per trial
    cfg_path = tmp_path / "wide.json"
    cfg_path.write_text(json.dumps({
        "dims": {k: getattr(_WIDE_DIMS, k) for k in _dims_json()},
        "snr_grid_db": [10.0],
        "methods": ["hdr", "krf", "ls"],
        "threads": 1,
    }))

    def minor_faults(trials):
        proc = subprocess.Popen(
            [sys.executable, "-m", "hdris.cli", "nmse", "--config", str(cfg_path),
             "--trials", str(trials), "--out", str(tmp_path / "out.csv")],
            env=_cli_env(), stdout=subprocess.DEVNULL,
        )
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        assert proc.returncode == 0
        return usage.ru_minflt

    per_extra_trial = (minor_faults(12) - minor_faults(2)) / 10
    assert per_extra_trial <= 50, per_extra_trial


# ---------------------------------------------------------------------------
# complexity sweep
# ---------------------------------------------------------------------------


def test_complexity_dims_rules():
    cfg = _small_cfg(ris_grid=(16,))
    dims400 = _complexity_dims(cfg, 400)
    assert (dims400.n_ris_y, dims400.n_ris_z) == (20, 20)
    assert dims400.n_pilots == cfg.dims.n_pilots
    # one block per surface element: n_pilots >= n_bs already covers the
    # unknown count n_bs * n_ris
    assert dims400.n_blocks == 400
    make_training(dims400)


def test_complexity_sweep_rows():
    cfg = _small_cfg(ris_grid=(16, 400))
    rows = run_complexity_sweep(cfg)
    analytic = [r for r in rows if r["metric"] == "flops_analytic"]
    measured = [r for r in rows if r["metric"] == "flops_measured"]
    assert len(analytic) == 6  # 3 methods x 2 grid points
    # measured rows at every grid point
    assert len(measured) == 6
    for r in analytic:
        dims_n = _complexity_dims(cfg, r["n_ris"])
        assert r["value"] == flops_analytic(r["method"], dims_n)
    for r in measured:
        dims_n = _complexity_dims(cfg, r["n_ris"])
        assert r["value"] == flops_measured(r["method"], dims_n, seed=cfg.seed)
    assert all("snr_db" not in r for r in rows)


def test_complexity_sweep_keeps_configured_methods():
    # the configured estimators in config order; ideal has no MAC count
    cfg = _small_cfg(methods=("ls", "ideal", "hdr"), ris_grid=(16, 100))
    rows = run_complexity_sweep(cfg)
    assert [r["method"] for r in rows] == ["ls", "hdr"] * 4
    assert [r["metric"] for r in rows[:4]] == ["flops_analytic"] * 2 + ["flops_measured"] * 2


def test_cli_complexity_default_csv_is_pinned(tmp_path):
    # the default grid's MAC counts depend on shapes only; the kernels of
    # the fits may change how they multiply, not what they are charged
    out = tmp_path / "complexity.csv"
    assert main(["complexity", "--out", str(out)]) == 0
    assert hashlib.md5(out.read_bytes()).hexdigest() == "fc27f8ef40fa8625dd000bc095e69891"


def test_flops_analytic_covers_every_estimator():
    # metrics.flops_analytic keeps its own per-method branches (the paper's
    # cost model): every method a config accepts must have one, at the
    # reference dims and at every surface of the default complexity grid
    cfg = default_config()
    for dims in (cfg.dims, *(_complexity_dims(cfg, n) for n in cfg.ris_grid)):
        for method in hdris.ESTIMATORS:
            assert flops_analytic(method, dims) > 0


def test_complexity_sweep_rejects_non_square_grid():
    with pytest.raises(ConfigError, match="perfect square"):
        run_complexity_sweep(_small_cfg(ris_grid=(12,)))


# ---------------------------------------------------------------------------
# CSV writer
# ---------------------------------------------------------------------------


def test_write_csv_layout(tmp_path):
    cfg = _small_cfg(snr_grid_db=(0.0,), n_trials=2, methods=("ls",))
    rows = run_nmse_sweep(cfg)
    buf = io.StringIO()
    write_csv(rows, buf)
    text = buf.getvalue()
    lines = text.split("\n")
    assert lines[0] == HEADER
    assert len(lines) == len(rows) + 2  # header + rows + trailing newline
    assert "\r" not in text

    path = tmp_path / "out.csv"
    write_csv(rows, str(path))
    assert path.read_bytes() == text.encode("utf-8")


def test_write_csv_rejects_empty():
    with pytest.raises(ValueError):
        write_csv([], io.StringIO())


# ---------------------------------------------------------------------------
# command-line interface
# ---------------------------------------------------------------------------


def _write_small_config(tmp_path, **extra):
    payload = {
        "dims": _dims_json(),
        "snr_grid_db": [0.0],
        "n_trials": 2,
        "methods": ["hdr", "ls"],
    }
    payload.update(extra)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(payload))
    return str(path)


def test_cli_nmse_to_stdout(tmp_path, capsys):
    rc = main(["nmse", "--config", _write_small_config(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == HEADER
    assert "hdr" in out and "ls" in out


def test_cli_se_to_file(tmp_path):
    out = tmp_path / "se.csv"
    rc = main(["se", "--config", _write_small_config(tmp_path), "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == HEADER
    assert any(",ideal," in ln or ln.startswith("ideal,") for ln in lines[1:])


def test_cli_overrides_change_output(tmp_path, capsys):
    cfg = _write_small_config(tmp_path)
    main(["nmse", "--config", cfg, "--seed", "0", "--trials", "3"])
    first = capsys.readouterr().out
    main(["nmse", "--config", cfg, "--seed", "1", "--trials", "3"])
    second = capsys.readouterr().out
    assert first != second
    assert first.splitlines()[0] == second.splitlines()[0] == HEADER


def test_cli_complexity(tmp_path, capsys):
    cfgpath = _write_small_config(tmp_path, ris_grid=[16])
    rc = main(["complexity", "--config", cfgpath])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0].startswith("method,n_ris,")
    assert "flops_analytic" in out and "flops_measured" in out


def test_cli_validate(tmp_path, capsys, monkeypatch):
    # validate reports the dims, the pilot budget and the block route, read
    # off the design's sizes: it builds no training factor
    built = []
    monkeypatch.setattr(training, "_dft_rows", lambda *shape: built.append(shape))
    rc = main(["validate", "--config", _write_small_config(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert len(out.splitlines()) == 4 and out.endswith("training design ok\n")
    assert "feasible" in out
    assert "surface block product: dense (16 blocks < 64)\n" in out
    fft_dims = dict(_dims_json(), n_ris_y=8, n_ris_z=8, n_pilots=4, n_blocks=72)
    rc = main(["validate", "--config", _write_small_config(tmp_path, dims=fft_dims)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "surface block product: FFT (DFT profiles, 72 blocks >= 64)\n" in out
    assert "training design ok" in out
    assert built == []


def test_cli_config_error_exit_code(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"dims": dict(_dims_json(), n_pilots=2, n_blocks=2)}))
    assert main(["nmse", "--config", str(bad)]) == 2


def test_cli_threads_override_keeps_csv_bytes(tmp_path):
    cfg = _write_small_config(tmp_path, n_trials=3)
    for t in ("1", "2"):
        assert main(["nmse", "--config", cfg, "--threads", t,
                     "--out", str(tmp_path / ("t%s.csv" % t))]) == 0
    assert (tmp_path / "t1.csv").read_bytes() == (tmp_path / "t2.csv").read_bytes()


def test_cli_validate_rejects_non_square_grid(tmp_path, capsys):
    # the grid rule lives in the config, so validate refuses the grid that
    # the complexity sweep could not build
    rc = main(["validate", "--config", _write_small_config(tmp_path, ris_grid=[16, 50])])
    assert rc == 2
    assert capsys.readouterr().err == (
        "error: ris_grid entries must be perfect squares (square surface), got 50\n"
    )


def test_cli_unknown_key_exit_code(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"dims": _dims_json(), "oops": 1}))
    assert main(["validate", "--config", str(bad)]) == 2


@pytest.mark.parametrize(
    "extra, flags",
    [
        # non-finite SNR or power would make the noise variance NaN or 0
        ({"snr_grid_db": [float("nan")]}, []),
        ({"snr_grid_db": [float("inf")]}, []),
        ({"snr_grid_db": [float("-inf")]}, []),
        ({"snr_grid_db": [5000.0]}, []),
        ({"snr_grid_db": ["10"]}, []),
        ({"tx_power_watts": float("nan")}, []),
        ({"tx_power_watts": float("inf")}, []),
        ({"seed": -1}, []),
        ({}, ["--seed", "-1"]),
        ({"angles_deg": 5}, []),
        ({"dims": 5}, []),
        ({"dims": dict(_dims_json(), n_bs_y="2")}, []),
        ({"angles_deg": dict(_ANGLES, az_bs="north")}, []),
        ({"angles_deg": dict(_ANGLES, az_bs=float("nan"))}, []),
        ({"n_trials": 2.7}, []),
        ({"n_trials": True}, []),
        ({"methods": "hdr"}, []),
        ({"ris_grid": [0]}, []),
        # enough pilot symbols (64 = n_bs*n_ris) but n_pilots < n_bs
        ({"dims": dict(_dims_json(), n_pilots=2, n_blocks=32)}, []),
        # a repeated grid entry would write duplicate rows
        ({"snr_grid_db": [0, 0]}, []),
        ({"methods": ["ls", "LS"]}, []),
        ({"ris_grid": [16, 16]}, []),
        # a noise energy noise_var*n_ue*n_bs*n_ris past the float64 range
        ({"snr_grid_db": [-3070.0]}, []),
        # a grid entry the complexity sweep cannot build as a square surface
        ({"ris_grid": [12]}, []),
        # integers beyond float range where a float is expected, and dims
        # whose noise energy is beyond it (the config fails before any sweep)
        ({"snr_grid_db": [10 ** 400]}, []),
        ({"tx_power_watts": 10 ** 400}, []),
        ({"angles_deg": dict(_ANGLES, az_bs=10 ** 400)}, []),
        ({"dims": dict(_dims_json(), n_ris_y=10 ** 200, n_ris_z=10 ** 200)}, []),
        # a worker count below 1 from the command line
        ({}, ["--threads", "0"]),
        # an ideal rate argument 10^(snr/10)*n_ue*n_bs*n_ris^2 past the
        # float64 range
        ({"snr_grid_db": [3075.0]}, []),
    ],
)
def test_cli_bad_config_exits_2_with_one_line(tmp_path, capsys, extra, flags):
    rc = main(["nmse", "--config", _write_small_config(tmp_path, **extra), *flags])
    err = capsys.readouterr().err
    assert rc == 2
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


def test_config_bounds_the_snr_from_above_by_the_ideal_rate():
    # at the default dims, 10^(snr/10)*n_ue*n_bs*n_ris^2 stays 2^20 below
    # the float64 maximum up to about 2974 dB; above, the ideal rate and
    # every estimate's overflowed to inf
    cfg = default_config()
    dataclasses.replace(cfg, snr_grid_db=(2974.0,))
    assert math.isfinite(ideal_spectral_efficiency(cfg.dims, 1.0, 10.0 ** -297.4))
    for snr_db in (2975.0, 3075.0):
        with pytest.raises(ConfigError, match=r"10\^\(snr/10\)\*n_ue\*n_bs\*n_ris\^2"):
            dataclasses.replace(cfg, snr_grid_db=(0.0, snr_db))


@pytest.mark.parametrize("route", ["config", "flag"])
def test_cli_empty_output_path_exits_2(tmp_path, capsys, route):
    # an empty path used to count as no path: the CSV went to stdout, exit 0
    if route == "config":
        argv = ["nmse", "--config", _write_small_config(tmp_path, output_path="")]
    else:
        argv = ["nmse", "--config", _write_small_config(tmp_path), "--out", ""]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == "error: output_path must not be empty\n"


def test_cli_config_integer_past_digit_limit_exits_2(tmp_path, capsys):
    # an integer literal longer than Python's int-conversion digit limit
    # fails in json.load itself, as a ValueError that is not a decode error
    path = tmp_path / "cfg.json"
    path.write_text('{"snr_grid_db": [1%s]}' % ("0" * 5000))
    rc = main(["validate", "--config", str(path)])
    err = capsys.readouterr().err
    assert rc == 2
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


@pytest.mark.parametrize(
    "extra",
    [{"ris_grid": []}, {"ris_grid": [12]}, {"methods": ["ideal"]}],
    ids=["empty", "non-square", "ideal-only"],
)
def test_cli_complexity_bad_grid_exits_2_with_one_line(tmp_path, capsys, extra):
    # an empty grid or no estimator validates as a config but leaves the
    # complexity sweep nothing to tabulate
    rc = main(["complexity", "--config", _write_small_config(tmp_path, **extra)])
    err = capsys.readouterr().err
    assert rc == 2
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


def test_readme_library_use_block_runs():
    # the README's Library use example, run as written: hdr's NMSE is
    # printed below krf's
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library use", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    proc = subprocess.run([sys.executable, "-c", block], env=_cli_env(),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    rows = [line.split() for line in proc.stdout.splitlines()]
    errors = {row[0]: float(row[1]) for row in rows if row and row[0] in hdris.ESTIMATORS}
    assert errors["hdr"] < errors["krf"]


def test_cli_io_error_exit_code(tmp_path, monkeypatch, capsys):
    # an output that cannot be written fails before the sweep runs, with
    # one line, exit code 1 and no file left behind
    import hdris.cli

    def refuse(cfg):
        raise AssertionError("the sweep ran before the output was checked")

    cfg = _write_small_config(tmp_path)
    monkeypatch.setattr(hdris.cli, "run_nmse_sweep", refuse)
    before = sorted(tmp_path.iterdir())
    # a missing directory, a regular file in the directory's place, and
    # an existing directory named as the output file
    for target in (tmp_path / "nodir" / "x.csv", Path(cfg) / "x.csv", tmp_path):
        rc = main(["nmse", "--config", cfg, "--out", str(target)])
        assert rc == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("i/o error: ")
    assert sorted(tmp_path.iterdir()) == before
