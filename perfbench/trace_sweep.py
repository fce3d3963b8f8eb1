"""Traced in-process sweep: per-layer spans for one workload.

Run from the repository root with ``PYTHONPATH=src``; ``run.py --trace 1``
does that.  The script wraps the public stage functions listed in SPANNED
in every ``hdris`` module that binds them, calls the public sweep function
(`run_nmse_sweep` or `run_se_sweep`), and alternates untraced and traced
sweeps until ``--seconds`` is spent, so the tracing overhead is measured in
the same process.  Only stage functions are spanned: wrapping fine helpers
such as ``counted_matmul`` (tens of thousands of calls per sweep) would
distort the timings it is meant to explain.

Spans are kept in memory as [name, start, end, parent, thread] and written
to ``--spans`` at the end.  Aggregates go to ``--out`` as JSON.  A function
missing from the package (removed by a later change) is reported with zero
calls, not as an error.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import io
import itertools
import json
import sys
import threading
import time

import numpy as np

import hdris
from hdris import simulate

SPANNED = {
    "channel": ("sample_params", "build_channels"),
    "training": ("make_training", "validate_training"),
    "estimators": ("simulate_observation", "matched_filter", "build_permutations",
                   "hdr_estimate", "krf_estimate", "ls_estimate", "ideal_estimate"),
    "tensors": ("hosvd_rank1", "dominant_left_singular_vector"),
    "metrics": ("nmse", "spectral_efficiency", "summarize"),
}


class Tracer:
    """Replaces stage functions by span-recording wrappers until ``restore``."""

    def __init__(self):
        self.spans = []
        self.absent = []
        self._local = threading.local()
        self._patched = []

    def _wrap(self, name, fn):
        spans, local = self.spans, self._local
        clock, ident = time.perf_counter, threading.get_ident

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            span = [name, clock(), 0.0, stack[-1] if stack else None, ident()]
            stack.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
                spans.append(span)

        return traced

    def install(self):
        modules = [m for n, m in sys.modules.items()
                   if n.startswith("hdris.") and m is not None]
        for mod_name, funcs in SPANNED.items():
            home = sys.modules.get("hdris." + mod_name)
            for fname in funcs:
                orig = getattr(home, fname, None)
                if orig is None:
                    self.absent.append("%s.%s" % (mod_name, fname))
                    continue
                wrapper = self._wrap("%s.%s" % (mod_name, fname), orig)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is orig:
                            setattr(mod, attr, wrapper)
                            self._patched.append((mod, attr, orig))

    def restore(self):
        for mod, attr, orig in reversed(self._patched):
            setattr(mod, attr, orig)
        self._patched.clear()


def run_sweep(cfg, kind):
    """Wall seconds and CSV text of one public sweep call."""
    sweep = simulate.run_nmse_sweep if kind == "nmse" else simulate.run_se_sweep
    start = time.perf_counter()
    rows = sweep(cfg)
    wall = time.perf_counter() - start
    buf = io.StringIO()
    simulate.write_csv(rows, buf)
    return wall, buf.getvalue()


def aggregate(sweeps, workers, caller):
    """Per-function and run-level metrics from the traced sweeps.

    ``sweeps`` is a list of (spans, wall).  self_share is self time divided
    by workers x sweep wall, summed over sweeps; simulate.self_share is the
    rest of that budget, i.e. time inside no span.
    """
    budget = sum(workers * wall for _, wall in sweeps)
    durations, self_time, top_level = {}, {}, {}
    for spans, _ in sweeps:
        child_time = {}
        for span in spans:
            if span[3] is not None:
                key = id(span[3])
                child_time[key] = child_time.get(key, 0.0) + span[2] - span[1]
        for span in spans:
            name, dur = span[0], span[2] - span[1]
            durations.setdefault(name, []).append(dur)
            self_time[name] = self_time.get(name, 0.0) + dur - child_time.get(id(span), 0.0)
            if span[3] is None:
                top_level[span[4]] = top_level.get(span[4], 0.0) + dur
    metrics = {}
    for mod_name, funcs in SPANNED.items():
        for fname in funcs:
            name = "%s.%s" % (mod_name, fname)
            durs = np.asarray(durations.get(name, [0.0])) * 1e6
            metrics[name + ".calls"] = (len(durations.get(name, [])) / len(sweeps), "count")
            metrics[name + ".us_p50"] = (float(np.percentile(durs, 50)), "us")
            metrics[name + ".us_p90"] = (float(np.percentile(durs, 90)), "us")
            metrics[name + ".self_share"] = (self_time.get(name, 0.0) / budget, "share")
    covered = sum(top_level.values())
    worker_threads = [t for t in top_level if t != caller] or [caller]
    metrics["simulate.self_share"] = (1.0 - covered / budget, "share")
    metrics["simulate.worker_util"] = (
        sum(top_level.get(t, 0.0) for t in worker_threads) / budget, "share")
    return metrics


def design_bytes(dims):
    design = hdris.make_training(dims)
    arrays = [getattr(design, f.name) for f in dataclasses.fields(design)]
    return sum(a.nbytes for a in arrays if isinstance(a, np.ndarray))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--config", required=True)
    parser.add_argument("--kind", choices=("nmse", "se"), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--threads", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--spans", required=True)
    args = parser.parse_args(argv)

    cfg = dataclasses.replace(simulate.load_config(args.config),
                              seed=args.seed, threads=args.threads)
    trials = len(cfg.snr_grid_db) * cfg.n_trials
    untraced, traced, csvs = [], [], []
    deadline = time.perf_counter() + args.seconds
    # At least two rounds, the order swapped in every other one, so the
    # overhead estimate does not charge first-sweep costs to either side.
    for rounds in itertools.count(1):
        round_start = time.perf_counter()
        for traced_now in (False, True) if rounds % 2 else (True, False):
            if traced_now:
                tracer = Tracer()
                tracer.install()
                try:
                    wall, text = run_sweep(cfg, args.kind)
                finally:
                    tracer.restore()
                traced.append((tracer.spans, wall))
            else:
                wall, text = run_sweep(cfg, args.kind)
                untraced.append(wall)
            csvs.append(text)
        now = time.perf_counter()
        if rounds >= 2 and now + (now - round_start) > deadline:
            break

    metrics = aggregate(traced, args.threads, threading.get_ident())
    traced_tps = trials / float(np.median([w for _, w in traced]))
    untraced_tps = trials / float(np.median(untraced))
    metrics["trace.trials_per_s_traced"] = (traced_tps, "trials/s")
    metrics["trace.trials_per_s_untraced"] = (untraced_tps, "trials/s")
    metrics["trace.overhead_frac"] = (untraced_tps / traced_tps - 1.0, "share")

    filter_macs = hdris.flops_measured("ls", cfg.dims, seed=cfg.seed)
    metrics["flopcount.macs.filter"] = (filter_macs, "MAC")
    for method in ("hdr", "krf"):
        metrics["flopcount.macs." + method] = (
            hdris.flops_measured(method, cfg.dims, seed=cfg.seed) - filter_macs, "MAC")
    metrics["training.design_bytes"] = (design_bytes(cfg.dims), "bytes")

    spans = tracer.spans
    index = {id(s): i for i, s in enumerate(spans)}
    with open(args.spans, "w", encoding="utf-8") as f:
        json.dump({"fields": ["name", "start", "end", "parent", "thread"],
                   "spans": [[s[0], s[1], s[2], index.get(id(s[3])), s[4]]
                             for s in spans]}, f)
    with open(args.out, "w", encoding="utf-8") as f:
        json.dump({
            "csvs": csvs,
            "absent": tracer.absent,
            "untraced_walls": untraced,
            "traced_walls": [w for _, w in traced],
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }, f)
    return 0


if __name__ == "__main__":
    sys.exit(main())
