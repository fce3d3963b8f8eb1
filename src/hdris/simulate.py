"""Monte Carlo sweep drivers and experiment configuration.

Reproducibility contract: every (snr point, trial) pair derives its own RNG
stream from the root seed by counter-based spawning, and trials are fitted
in batches that follow from the config alone, so results are identical no
matter how batches are scheduled across workers; aggregation uses
compensated sums and full sorts.  Re-running a config (any thread count)
produces byte-identical CSV output.

Config files are JSON with keys mirroring ExperimentConfig; angles, when
pinned, are given in degrees and converted at the parse boundary.  The
parser takes exact JSON types: integers for counts and seeds, finite
numbers for SNRs, powers and angles, objects for ``dims``/``angles_deg``.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import json
import math
import os
import pickle
import signal
import sys

import numpy as np

from .channel import ChannelParams, SystemDims, build_channels, sample_params
from .estimators import ESTIMATORS, filter_macs, filtered_observation
from .metrics import (
    flops_analytic,
    ideal_spectral_efficiency,
    nmse,
    spectral_efficiency,
    summarize,
)
from .tensors import _GRAM_SLAB
from .training import TrainingInfeasibleError, make_training

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "default_config",
    "load_config",
    "config_hash",
    "run_nmse_sweep",
    "run_se_sweep",
    "run_complexity_sweep",
    "flops_measured",
    "write_csv",
]

_ANGLE_KEYS = tuple(f.name for f in dataclasses.fields(ChannelParams))
_DIM_KEYS = tuple(f.name for f in dataclasses.fields(SystemDims))
# the config's flat keys and their JSON kinds, read by both load_config and
# ExperimentConfig.to_dict; the rest are "dims" and "angles_deg"
_SCALAR_KEYS = {"n_trials": int, "seed": int, "threads": int,
                "output_path": str, "tx_power_watts": float}
_ARRAY_KEYS = {"snr_grid_db": float, "methods": str, "ris_grid": int}
# keys that affect execution only: not written by to_dict, so not hashed
_EXECUTION_KEYS = ("threads", "output_path")


class ConfigError(ValueError):
    """The experiment configuration is malformed or infeasible."""


@dataclasses.dataclass(frozen=True)
class ExperimentConfig:
    """Everything a sweep needs, minus scheduling details.

    The keys of ``_EXECUTION_KEYS`` (``threads``, ``output_path``) affect
    execution only and are excluded from the config hash.
    ``fixed_params``, when set, pins the link geometry for every trial
    instead of drawing it per trial.
    """

    dims: SystemDims
    snr_grid_db: tuple = (-10.0, -5.0, 0.0, 5.0, 10.0, 15.0, 20.0)
    n_trials: int = 500
    methods: tuple = ("hdr", "krf", "ls")
    seed: int = 0
    output_path: str | None = None
    threads: int = 1
    tx_power_watts: float = 1.0
    ris_grid: tuple = (16, 100, 400, 2500)
    fixed_params: ChannelParams | None = None

    def __post_init__(self):
        if self.n_trials < 1:
            raise ConfigError("n_trials must be >= 1")
        if len(self.snr_grid_db) == 0:
            raise ConfigError("snr_grid_db must not be empty")
        if self.threads < 1:
            raise ConfigError("threads must be >= 1")
        if self.tx_power_watts <= 0:
            raise ConfigError("tx_power_watts must be > 0")
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")
        if any(n < 1 for n in self.ris_grid):
            raise ConfigError("ris_grid entries must be >= 1")
        for n in self.ris_grid:
            if math.isqrt(n) ** 2 != n:
                raise ConfigError(
                    "ris_grid entries must be perfect squares (square surface), got %d" % n
                )
        for key in ("snr_grid_db", "methods", "ris_grid"):
            values = list(getattr(self, key))
            if len(set(values)) != len(values):
                raise ConfigError("%s must not repeat an entry, got %s" % (key, values))
        if self.output_path == "":
            raise ConfigError("output_path must not be empty")
        # the noise energy noise_var*n_ue*n_bs*n_ris, the filtered observation's
        # expected squared norm, and the ideal rate's argument gain/(sigma^2/P)
        # = 10^(snr/10)*n_ue*n_bs*n_ris^2, which bounds every estimate's, stay
        # 2^20 (60 dB) below the float64 maximum: room for a draw above the
        # energy and for the scored channel's squared norm; dims past the
        # float range count as infinite, and an SNR past it gives NaN: both fail
        d = self.dims
        entries, gain = (float(n) if n <= sys.float_info.max else math.inf
                         for n in (d.n_ue * d.n_bs * d.n_ris, d.n_ue * d.n_bs * d.n_ris ** 2))
        limit = sys.float_info.max * 2.0 ** -20
        for snr_db in self.snr_grid_db:
            noise_var = _noise_var(self.tx_power_watts, snr_db)
            if not (0.0 < noise_var * entries <= limit
                    and gain / _noise_var(1.0, snr_db) <= limit):
                raise ConfigError(
                    "snr %r dB at tx_power_watts %r gives noise variance %r (must be > 0, "
                    "with noise_var*n_ue*n_bs*n_ris and 10^(snr/10)*n_ue*n_bs*n_ris^2 "
                    "at most 2^-20 of the float64 maximum)"
                    % (snr_db, self.tx_power_watts, noise_var)
                )
        allowed = [*ESTIMATORS, "ideal"]
        bad = [m for m in self.methods if m not in allowed]
        if bad:
            raise ConfigError("unknown methods %s (allowed: %s)" % (bad, allowed))
        try:
            make_training(self.dims)     # checks the sizes, builds no factor
        except TrainingInfeasibleError as exc:
            raise ConfigError("infeasible dims: %s" % exc) from exc

    def to_dict(self) -> dict:
        d = {"dims": {k: getattr(self.dims, k) for k in _DIM_KEYS}}
        for key, kind in _SCALAR_KEYS.items():
            if key not in _EXECUTION_KEYS:
                d[key] = kind(getattr(self, key))
        for key, kind in _ARRAY_KEYS.items():
            d[key] = [kind(v) for v in getattr(self, key)]
        if self.fixed_params is not None:
            d["angles_deg"] = {
                k: float(np.rad2deg(getattr(self.fixed_params, k)))
                for k in _ANGLE_KEYS
            }
        return d


def _noise_var(tx_power_watts: float, snr_db: float) -> float:
    """Per-entry noise variance at one SNR point (NaN when out of range)."""
    try:
        return tx_power_watts / 10.0 ** (snr_db / 10.0)
    except (OverflowError, ZeroDivisionError):
        return math.nan


def default_config() -> ExperimentConfig:
    """4x4 arrays at both ends and on the surface, 16 pilots x 16 blocks."""
    return ExperimentConfig(
        dims=SystemDims(
            n_bs_y=4, n_bs_z=4, n_ue_y=4, n_ue_z=4,
            n_ris_y=4, n_ris_z=4, n_pilots=16, n_blocks=16,
        )
    )


def _unique_keys(pairs: list) -> dict:
    """One JSON object as a dict; a repeated key is an error, where plain
    ``json.load`` would keep its last value."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ValueError("repeated key %r" % key)
        obj[key] = value
    return obj


def load_config(path: str) -> ExperimentConfig:
    """Parse a JSON config file.  Unknown and repeated keys are rejected."""
    with open(path, "r", encoding="utf-8") as f:
        try:
            raw = json.load(f, object_pairs_hook=_unique_keys)
        # a decode error, bad UTF-8, an integer past int's digit limit or
        # a repeated key
        except ValueError as exc:
            raise ConfigError("invalid JSON in %s: %s" % (path, exc)) from exc
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")

    unknown = set(raw) - {*_SCALAR_KEYS, *_ARRAY_KEYS, "dims", "angles_deg"}
    if unknown:
        raise ConfigError("unknown config keys: %s" % sorted(unknown))

    kwargs = {}
    if "dims" in raw:
        dims_raw = _exact_object("dims", raw["dims"], _DIM_KEYS)
        extents = {k: _typed("dims." + k, dims_raw[k], int) for k in _DIM_KEYS}
        try:
            kwargs["dims"] = SystemDims(**extents)
        except ValueError as exc:
            raise ConfigError("bad dims: %s" % exc) from exc
    else:
        kwargs["dims"] = default_config().dims

    if "angles_deg" in raw:
        ang = _exact_object("angles_deg", raw["angles_deg"], _ANGLE_KEYS)
        kwargs["fixed_params"] = ChannelParams(
            **{k: float(np.deg2rad(_typed("angles_deg." + k, ang[k], float)))
               for k in _ANGLE_KEYS}
        )

    for key, kind in _SCALAR_KEYS.items():
        if key in raw:
            kwargs[key] = _typed(key, raw[key], kind)
    for key, kind in _ARRAY_KEYS.items():
        if key in raw:
            kwargs[key] = tuple(_typed(key, v, kind) for v in _typed(key, raw[key], list))
    if "methods" in kwargs:
        kwargs["methods"] = tuple(m.lower() for m in kwargs["methods"])
    return ExperimentConfig(**kwargs)


_KIND_NAMES = {int: "an integer", float: "a finite number", str: "a string",
               list: "a JSON array", dict: "a JSON object"}


def _typed(key: str, value, kind: type):
    """``value`` if it is exactly a JSON ``kind``: booleans are not numbers,
    an integer is accepted (and converted) where a float is expected, and a
    float must be finite."""
    accepted = (int, float) if kind is float else kind
    # compared exactly with the largest float, NaN, the infinities and
    # integers past float range all fail the bound
    if (isinstance(value, bool) or not isinstance(value, accepted)
            or (kind is float and not abs(value) <= sys.float_info.max)):
        raise ConfigError("%s must be %s, got %r" % (key, _KIND_NAMES[kind], value))
    return kind(value)


def _exact_object(key: str, value, keys) -> dict:
    value = _typed(key, value, dict)
    missing = [k for k in keys if k not in value]
    extra = [k for k in value if k not in keys]
    if missing or extra:
        raise ConfigError(
            "%s must have exactly keys %s (missing %s, extra %s)"
            % (key, list(keys), missing, extra)
        )
    return value


def config_hash(cfg: ExperimentConfig) -> str:
    """12 hex chars identifying the scientific content of a config."""
    import hashlib

    blob = json.dumps(cfg.to_dict(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:12]


# ------------------------------------------------------------------ sweeps #


def _trial_rng(seed: int, snr_idx: int, trial: int) -> np.random.Generator:
    """Independent stream per (snr point, trial), stable under scheduling."""
    return np.random.default_rng(
        np.random.SeedSequence(seed, spawn_key=(snr_idx, trial))
    )


def _run_batch(cfg, design, pinned, methods, score, snr_idx, trials):
    """Every requested estimator fitted to the stacked matched-filter
    outputs (:func:`filtered_observation`, the filtered pilot blocks
    without the blocks) of a run of ``trials`` of one SNR point, and
    scored by ``score(ch, est, noise_var)``: one tuple of per-method
    values per trial.  Each trial draws its geometry and noise from its
    own stream; the truths are one stacked build, or the ``pinned``
    channel broadcast when the sweep built it once.  Each method's
    estimate stack is released before the next fit."""
    noise_var = _noise_var(cfg.tx_power_watts, float(cfg.snr_grid_db[snr_idx]))
    rngs = [_trial_rng(cfg.seed, snr_idx, trial) for trial in trials]
    if pinned is None:
        ch = build_channels(cfg.dims, [sample_params(rng) for rng in rngs])
    else:
        ch = dataclasses.replace(pinned, **{
            name: np.broadcast_to(a, (len(rngs),) + a.shape)
            for name, a in vars(pinned).items() if isinstance(a, np.ndarray)
        })
    cascade_obs = filtered_observation(ch, design, noise_var, rngs)
    scores = [score(ch, ESTIMATORS[m].fit(cascade_obs, cfg.dims), noise_var).tolist()
              for m in methods]
    return list(zip(*scores))


def _run_chunk(cfg, design, pinned, methods, score, batches):
    """_run_batch over a run of (snr_idx, trials) batches, in order."""
    return [_run_batch(cfg, design, pinned, methods, score, s, trials) for s, trials in batches]


def _batches(cfg: ExperimentConfig) -> list:
    """The sweep's (snr_idx, trials) batches: runs of up to
    _GRAM_SLAB // (n_ue*n_bs*n_ris) consecutive trials of one SNR point
    (at least one), so a batch's cascade stack fits one slab when it
    holds more than one trial: four at the reference dims, one at a
    16 x 16 surface.  They depend on the config alone, not on the
    thread count."""
    d = cfg.dims
    size = max(1, _GRAM_SLAB // (d.n_ue * d.n_bs * d.n_ris))
    return [(s, range(t, min(t + size, cfg.n_trials)))
            for s in range(len(cfg.snr_grid_db)) for t in range(0, cfg.n_trials, size)]


# glibc mallopt(3) parameters from <malloc.h>, with the values the sweeps
# set.  Blocks below 32 MiB (the largest mmap threshold glibc accepts on
# 64-bit) come from the heap instead of their own mappings, and the heap is
# trimmed only once 64 MiB lies free at its top (twice the mmap threshold,
# as glibc's own adaptive rule pairs them).  A trial's temporaries, about
# 1 MiB each at a 16x16 surface, then reuse the previous trial's pages
# instead of being unmapped and faulted in again.
_MALLOPT_SETTINGS = (
    (-3, 32 << 20),     # M_MMAP_THRESHOLD
    (-1, 64 << 20),     # M_TRIM_THRESHOLD
)


@functools.cache
def _keep_freed_heap() -> bool:
    """Make this process's allocator keep freed heap for reuse.

    Sets ``_MALLOPT_SETTINGS`` through glibc's ``mallopt``.  This is a
    setting of the calling process (inherited by forked workers), not of
    the machine, and it is never undone.  Where the C library has no
    ``mallopt`` it does nothing.  It runs once per process: later calls
    return the first call's result without touching the allocator again.
    Returns True when the C library accepted every setting.
    """
    import ctypes

    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):    # no such symbol, or no C library handle
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    # a list, not a generator, so a refused setting does not skip the next
    return all([mallopt(param, value) == 1 for param, value in _MALLOPT_SETTINGS])


def _child_exit(run, chunk, fd: int):
    """Body of a forked sweep worker: pickle ``run(chunk)``, or the
    exception it raised, into pipe ``fd`` and leave by ``os._exit`` (no
    atexit handler runs and no inherited stdio buffer is flushed).  Exits
    non-zero only if the outcome cannot be pickled or written."""
    code = 1
    try:
        try:
            outcome = (True, run(chunk))
        except BaseException as exc:
            outcome = (False, exc)
        view = memoryview(pickle.dumps(outcome, pickle.HIGHEST_PROTOCOL))
        while view:
            view = view[os.write(fd, view):]
        code = 0
    finally:
        os._exit(code)


@contextlib.contextmanager
def _sigint_held():
    """Hold SIGINT off this thread for the block, so a KeyboardInterrupt
    lands after it, and yield the signal mask to restore."""
    held = signal.pthread_sigmask(signal.SIG_BLOCK, (signal.SIGINT,))
    try:
        yield held
    finally:
        signal.pthread_sigmask(signal.SIG_SETMASK, held)


def _fork_map(run, chunks) -> list:
    """``[run(chunk) for chunk in chunks]``, each call in its own forked
    child, while this process waits.

    The parent reads every child's pipe to EOF before reaping it, since a
    result may exceed the pipe buffer.  A child's exception is re-raised
    here; a child that exits non-zero or is killed by a signal raises
    RuntimeError.  On any exception here (KeyboardInterrupt too) every
    child not yet reaped is killed and reaped first, so none outlives the
    call: forking a child and recording it, and reaping it and forgetting
    it, each run with SIGINT held.
    """
    children = {}                   # pid -> read end of its pipe, until reaped
    try:
        for chunk in chunks:
            with _sigint_held() as held:
                r, w = os.pipe()
                try:
                    pid = os.fork()
                except BaseException:
                    os.close(r)
                    os.close(w)
                    raise
                if pid == 0:
                    signal.pthread_sigmask(signal.SIG_SETMASK, held)
                    os.close(r)
                    _child_exit(run, chunk, w)
                children[pid] = r
                os.close(w)
        results = []
        for pid, r in list(children.items()):
            with open(r, "rb", closefd=False) as pipe:
                payload = pipe.read()
            with _sigint_held():
                status = os.waitpid(pid, 0)[1]
                os.close(children.pop(pid))
            code = os.waitstatus_to_exitcode(status)
            if code:
                raise RuntimeError(
                    "sweep worker %d %s" % (pid, "exited with code %d" % code if code > 0
                                            else "was killed by signal %d" % -code)
                )
            ok, value = pickle.loads(payload)
            if not ok:
                raise value
            results.append(value)
        return results
    finally:
        for pid, r in children.items():
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            os.close(r)


def _sweep(cfg: ExperimentConfig, methods, score):
    """Score every method in every trial of the grid, a batch of trials at
    a time (:func:`_batches`, :func:`_run_batch`), and return
    {method: [[score per trial] per SNR point]}.

    With more than one worker, worker w takes every workers-th batch from
    batch w on, so each gets a share of every SNR point (low SNR costs
    `krf` more squarings).  The workers are forked directly
    (:func:`_fork_map`), this process waits for them, and the results are
    put back in batch order.  ``cfg.threads`` is capped at the usable CPUs
    (``os.cpu_count()`` where the platform has no
    ``os.sched_getaffinity``) and at the number of batches, so no count
    starts more processes than can run at once; one worker runs in this
    process.  The batches do not depend on the count, so neither do the
    results.  The freed heap is kept across trials
    (:func:`_keep_freed_heap`, once per process, before any worker is
    forked).  A pinned geometry's channel is deterministic, so it is
    built once here, beside the training design, and shared by every
    trial.
    """
    _keep_freed_heap()
    design = make_training(cfg.dims)
    pinned = (
        build_channels(cfg.dims, cfg.fixed_params) if cfg.fixed_params is not None else None
    )
    batches = _batches(cfg)
    run = functools.partial(_run_chunk, cfg, design, pinned, methods, score)
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    workers = min(cfg.threads, cpus, len(batches))
    if workers == 1:
        per_batch = run(batches)
    else:
        per_batch = [None] * len(batches)
        chunks = [batches[w::workers] for w in range(workers)]
        for w, chunk_results in enumerate(_fork_map(run, chunks)):
            per_batch[w::workers] = chunk_results
    results = [result for batch in per_batch for result in batch]

    # batches run SNR-major, so SNR point s holds results[s * n : (s + 1) * n]
    n = cfg.n_trials
    points = [results[s * n:(s + 1) * n] for s in range(len(cfg.snr_grid_db))]
    return {m: [[res[i] for res in point] for point in points] for i, m in enumerate(methods)}


def _metric_rows(cfg, collected, metric_name):
    digest = config_hash(cfg)
    rows = []
    for method, points in collected.items():
        for snr_db, values in zip(cfg.snr_grid_db, points):
            mean, median = summarize(values)
            for stat, value in (("mean", mean), ("median", median)):
                rows.append({
                    "method": method,
                    "snr_db": float(snr_db),
                    "metric": metric_name,
                    "stat": stat,
                    "value": value,
                    "n_trials": cfg.n_trials,
                    "config_hash": digest,
                })
    return rows


def _estimator_methods(cfg: ExperimentConfig, sweep: str) -> tuple:
    """The configured methods but ``ideal``, in config order."""
    methods = tuple(m for m in cfg.methods if m != "ideal")
    if not methods:
        raise ConfigError("%s sweep needs at least one estimator method" % sweep)
    return methods


def run_nmse_sweep(cfg: ExperimentConfig):
    """Estimation error vs SNR for the configured methods.

    Side effect: on glibc the calling process keeps up to 64 MiB of freed
    heap and serves blocks below 32 MiB from it for the rest of its life
    (``mallopt`` mmap/trim thresholds, set on the first sweep and never
    undone); elsewhere nothing changes.
    """
    methods = _estimator_methods(cfg, "nmse")

    def score(ch, est, noise_var):
        return nmse(ch.cascade, est.cascade)

    return _metric_rows(cfg, _sweep(cfg, methods, score), "nmse")


def run_se_sweep(cfg: ExperimentConfig):
    """Beamformed spectral efficiency vs SNR, always including the perfect-CSI
    benchmark row.

    ``ideal`` runs no trial: every trial of an SNR point scores the
    closed-form perfect-CSI rate, so its rows summarize ``n_trials``
    copies of :func:`ideal_spectral_efficiency`.

    Side effect: as :func:`run_nmse_sweep`, the first sweep with an
    estimator makes the process keep freed heap on glibc.
    """
    methods = tuple(cfg.methods) + (("ideal",) if "ideal" not in cfg.methods else ())
    estimators = tuple(m for m in methods if m != "ideal")
    power = cfg.tx_power_watts

    def score(ch, est, noise_var):
        return spectral_efficiency(ch, est, power, noise_var)

    collected = _sweep(cfg, estimators, score) if estimators else {}
    collected["ideal"] = [
        [ideal_spectral_efficiency(cfg.dims, power, _noise_var(power, float(snr)))] * cfg.n_trials
        for snr in cfg.snr_grid_db
    ]
    return _metric_rows(cfg, {m: collected[m] for m in methods}, "se_bits_per_hz")


def _complexity_dims(cfg: ExperimentConfig, n_ris: int) -> SystemDims:
    """The square surface of ``n_ris`` elements (a perfect square, as the
    config guarantees), with one block per element."""
    root = math.isqrt(n_ris)
    # cfg's design was feasible (n_pilots >= n_bs), so n_ris blocks cover the
    # n_bs * n_ris unknowns
    return dataclasses.replace(cfg.dims, n_ris_y=root, n_ris_z=root, n_blocks=n_ris)


def flops_measured(method: str, dims: SystemDims, seed: int = 0) -> int:
    """Complex MACs one estimate spends at ``dims`` in the executed-kernel
    model: the matched filter's two mode products (:func:`filter_macs`)
    plus the table entry's closed form ``macs``.

    These are closed forms of the products the kernels run, pinned to
    counted oracles in the tests, not hardware counts.  They depend on
    shapes only, so no channel is drawn and no fit runs; ``seed`` is
    accepted for callers that pass one and is unused.
    """
    method = method.lower()
    if method not in ESTIMATORS:
        raise ValueError("unknown method %r (expected one of %s)" % (method, list(ESTIMATORS)))
    shared = filter_macs(dims.n_ue, dims.n_bs, dims.n_ris, dims.n_pilots, dims.n_blocks)
    return shared + ESTIMATORS[method].macs(dims)


def run_complexity_sweep(cfg: ExperimentConfig):
    """Analytic and executed-kernel MAC counts per configured estimator
    (``ideal`` has none) over the surface-size grid."""
    methods = _estimator_methods(cfg, "complexity")
    if not cfg.ris_grid:
        raise ConfigError("complexity sweep needs at least one ris_grid entry")
    digest = config_hash(cfg)
    rows = []
    for n_ris in cfg.ris_grid:
        dims_n = _complexity_dims(cfg, n_ris)
        for metric, count in (
            ("flops_analytic", flops_analytic),
            ("flops_measured", flops_measured),
        ):
            for method in methods:
                rows.append({
                    "method": method,
                    "n_ris": n_ris,
                    "metric": metric,
                    "stat": "exact",
                    "value": count(method, dims_n),
                    "n_trials": 1,
                    "config_hash": digest,
                })
    return rows


def write_csv(rows, dest) -> None:
    """Write rows (list of dicts sharing one key set) as UTF-8, LF-terminated
    CSV to a path or file-like object."""
    import csv

    if not rows:
        raise ValueError("no rows to write")
    fieldnames = list(rows[0].keys())

    def _emit(f):
        writer = csv.DictWriter(f, fieldnames=fieldnames, lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)

    if hasattr(dest, "write"):
        _emit(dest)
    else:
        with open(dest, "w", newline="", encoding="utf-8") as f:
            _emit(f)
