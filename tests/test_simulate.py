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
from pathlib import Path

import numpy as np
import pytest

import hdris
from hdris.channel import ChannelParams, SystemDims
from hdris.cli import main
from hdris.metrics import flops_analytic, ideal_spectral_efficiency
from hdris.simulate import (
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
from hdris.training import TrainingDesign, TrainingInfeasibleError, check_feasible, make_training
from oracles import dominant_pairs_oracle

SMALL_DIMS = SystemDims(
    n_bs_y=2, n_bs_z=2, n_ue_y=2, n_ue_z=2, n_ris_y=4, n_ris_z=4,
    n_pilots=16, n_blocks=16,
)

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
    check_feasible(cfg.dims)
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
        check_feasible(thin)
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
        **cfg.to_dict(), "threads": cfg.threads, "output_path": cfg.output_path,
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

    for name in ("_run_point", "make_training", "simulate_observation"):
        monkeypatch.setattr(simulate, name, no_trial)
    cfg = _small_cfg(methods=("ideal",), n_trials=5)
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
    monkeypatch.setattr(TrainingDesign, "block_fft", False)
    assert not make_training(dims).block_fft
    dense_rows = sweep(cfg)
    assert [dict(r, value=0) for r in fft_rows] == [dict(r, value=0) for r in dense_rows]
    for got, want in zip(fft_rows, dense_rows):
        assert abs(got["value"] - want["value"]) <= 1e-13 * math.sqrt(want["value"]), got


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


def test_pinned_se_workload_matches_perfbench_reference():
    # the benchmark's own reference rows, recorded from CLI runs at seed 0,
    # reproduced by one in-process sweep (the files are only read)
    cfg = dataclasses.replace(
        load_config(str(PERFBENCH_WORKLOADS / "pinned-se-mt.json")), seed=0, threads=1
    )
    reference = json.loads(
        (PERFBENCH_WORKLOADS.parent / "reference.json").read_text(encoding="utf-8")
    )["pinned-se-mt"]["0"]
    rows = run_se_sweep(cfg)
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
        return dominant_pairs_oracle(m)

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
    check_feasible(dims400)
    with pytest.raises(ConfigError, match="perfect square"):
        _complexity_dims(cfg, 10)


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


def test_cli_complexity_default_csv_is_pinned(tmp_path):
    # the default grid's MAC counts depend on shapes only; the kernels of
    # the fits may change how they multiply, not what they are charged
    out = tmp_path / "complexity.csv"
    assert main(["complexity", "--out", str(out)]) == 0
    assert hashlib.md5(out.read_bytes()).hexdigest() == "fc27f8ef40fa8625dd000bc095e69891"


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


def test_cli_validate(tmp_path, capsys):
    rc = main(["validate", "--config", _write_small_config(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "training design ok" in out
    assert "feasible" in out
    assert "surface block product: dense (16 blocks < 64)\n" in out
    fft_dims = dict(_dims_json(), n_ris_y=8, n_ris_z=8, n_pilots=4, n_blocks=72)
    rc = main(["validate", "--config", _write_small_config(tmp_path, dims=fft_dims)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "surface block product: FFT (DFT profiles, 72 blocks >= 64)\n" in out
    assert "training design ok" in out


def test_cli_config_error_exit_code(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"dims": dict(_dims_json(), n_pilots=2, n_blocks=2)}))
    assert main(["nmse", "--config", str(bad)]) == 2


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
    ],
)
def test_cli_bad_config_exits_2_with_one_line(tmp_path, capsys, extra, flags):
    rc = main(["nmse", "--config", _write_small_config(tmp_path, **extra), *flags])
    err = capsys.readouterr().err
    assert rc == 2
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


@pytest.mark.parametrize("grid", [[], [12]], ids=["empty", "non-square"])
def test_cli_complexity_bad_grid_exits_2_with_one_line(tmp_path, capsys, grid):
    # an empty grid validates as a config but leaves the complexity sweep
    # nothing to tabulate
    rc = main(["complexity", "--config", _write_small_config(tmp_path, ris_grid=grid)])
    err = capsys.readouterr().err
    assert rc == 2
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


def test_cli_io_error_exit_code(tmp_path):
    cfg = _write_small_config(tmp_path)
    rc = main(["nmse", "--config", cfg, "--out", str(tmp_path / "nodir" / "x.csv")])
    assert rc == 1
