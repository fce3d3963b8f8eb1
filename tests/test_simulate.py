"""Tests for experiment configs, Monte-Carlo sweeps, CSV output and the CLI."""

import dataclasses
import io
import json
import math
from pathlib import Path

import numpy as np
import pytest

from hdris.channel import ChannelParams, SystemDims
from hdris.cli import main
from hdris.metrics import flops_analytic, ideal_spectral_efficiency
from hdris.simulate import (
    ConfigError,
    ExperimentConfig,
    _complexity_dims,
    config_hash,
    default_config,
    flops_measured,
    load_config,
    run_complexity_sweep,
    run_nmse_sweep,
    run_se_sweep,
    write_csv,
)
from hdris.training import TrainingInfeasibleError, check_feasible
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


class _RecordingPool:
    """Stands in for ProcessPoolExecutor: records its arguments and the chunk
    sizes, and runs the chunks in this process, so the test starts no
    process."""

    built = []

    def __init__(self, max_workers, mp_context):
        self.built.append([max_workers, mp_context.get_start_method()])

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, chunks):
        chunks = list(chunks)
        self.built[-1].append([len(c) for c in chunks])
        return map(fn, chunks)


@pytest.mark.parametrize("threads", [1, 2, 64, 10**6])
@pytest.mark.parametrize("cpus", [1, 3, 256])
@pytest.mark.parametrize("n_snr, n_trials", [(2, 6), (1, 1)])
def test_sweep_workers_capped_by_cpus_and_jobs(
    monkeypatch, threads, cpus, n_snr, n_trials
):
    import concurrent.futures

    monkeypatch.setattr(_RecordingPool, "built", [])
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _RecordingPool)
    monkeypatch.setattr("os.sched_getaffinity", lambda pid: set(range(cpus)))
    cfg = _small_cfg(threads=threads, snr_grid_db=(-5.0, 5.0)[:n_snr],
                     n_trials=n_trials)
    rows = run_nmse_sweep(cfg)
    jobs = n_snr * n_trials
    workers = min(threads, cpus, jobs)
    if workers == 1:
        assert _RecordingPool.built == []
    else:
        # one contiguous chunk per worker, sizes differing by at most one
        sizes = [jobs * (w + 1) // workers - jobs * w // workers
                 for w in range(workers)]
        assert _RecordingPool.built == [[workers, "fork", sizes]]
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
    # the stacked fast path against one eigh per matrix, end to end
    import hdris.estimators
    import hdris.metrics
    import hdris.tensors

    cfg = _small_cfg(dims=dims, snr_grid_db=(-10.0, 0.0, 20.0), n_trials=2)
    fast = sweep(cfg)
    stacks = []

    def oracle(m, counter=None):
        stacks.append(np.ndim(m) > 2)
        return dominant_pairs_oracle(m, counter)

    for module in (hdris.estimators, hdris.metrics, hdris.tensors):
        monkeypatch.setattr(module, "dominant_left_singular_vector", oracle)
    slow = sweep(cfg)
    assert any(stacks)
    assert len(fast) == len(slow)
    for got, want in zip(fast, slow):
        assert {k: v for k, v in got.items() if k != "value"} == {
            k: v for k, v in want.items() if k != "value"
        }
        assert got["value"] == pytest.approx(want["value"], rel=1e-12, abs=0.0)


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


def test_cli_io_error_exit_code(tmp_path):
    cfg = _write_small_config(tmp_path)
    rc = main(["nmse", "--config", cfg, "--out", str(tmp_path / "nodir" / "x.csv")])
    assert rc == 1
