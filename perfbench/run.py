#!/usr/bin/env python3
"""Outside-in benchmark for the hdris sweeps.

Usage, from the repository root::

    python3 perfbench/run.py --workload ref-nmse --seed 0 --seconds 40 --trace 0
    python3 perfbench/run.py --seconds 40          # every workload, summary table

With ``--trace 0`` each measurement is a fresh ``python -m hdris.cli``
process (``PYTHONPATH=src``, BLAS thread variables left as they are).  One
round is ``hdris validate`` (timed as ``setup_s``) followed by the workload's
sweep (timed as ``trials_per_s``, peak RSS read from ``os.wait4``).  Rounds
repeat, closed loop, until ``--seconds`` is spent and at least MIN_ROUNDS
ran; each metric is the median over rounds.  Every sweep CSV is scored by
``check.check_csv``.

With ``--trace 1`` the per-layer metrics come from ``trace_sweep.py``, one
process that traces the public stage functions around the public sweep call.

The last stdout line is one JSON object with keys correct, attempted,
failed and metrics; attempted/failed count CSV rows (expected/bad).  The
line before it carries the run manifest.  Full samples and the manifest are
also written to ``perfbench/out/``.  Exit code 0 when every row is good,
1 when a row is bad, 2 when the program cannot be started at all.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import check

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
OUT = BENCH / "out"

# name -> (sweep subcommand, run the sweep with one thread per CPU)
WORKLOADS = {
    "ref-nmse": ("nmse", False),
    "pinned-se-mt": ("se", True),
    "wide-ris-nmse": ("nmse", False),
}
MIN_ROUNDS = 2
CHILD_TIMEOUT_S = 150.0
# End-to-end metrics; good_row_frac is 1 - bad_row_frac, reported that way
# round so that a clean run never reads 0.
UNITS = {"trials_per_s": "trials/s", "setup_s": "s", "peak_rss_mb": "MiB",
         "good_row_frac": "share"}
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class StartError(RuntimeError):
    """The program under test cannot be started."""


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in ("src", env.get("PYTHONPATH")) if p)
    return env


def run_child(argv, tmp: Path):
    """Run argv from the repository root; return (exit code, wall s, peak RSS
    MiB, stdout, stderr).  Killed after CHILD_TIMEOUT_S."""
    out_path, err_path = tmp / "stdout", tmp / "stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=out, stderr=err)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return (proc.returncode, wall, usage.ru_maxrss / 1024.0,
            out_path.read_text(encoding="utf-8", errors="replace"),
            err_path.read_text(encoding="utf-8", errors="replace"))


def cli(*args) -> list:
    return [sys.executable, "-m", "hdris.cli", *args]


def load_workload(name: str) -> dict:
    with open(BENCH / "workloads" / (name + ".json"), encoding="utf-8") as f:
        return json.load(f)


def load_reference(name: str, seed: int):
    path = BENCH / "reference.json"
    if not path.exists():
        return None
    with open(path, encoding="utf-8") as f:
        return json.load(f).get(name, {}).get(str(seed))


def sweep_threads(name: str, cfg: dict) -> int:
    return nproc() if WORKLOADS[name][1] else int(cfg.get("threads", 1))


def run_sweep(name: str, seed: int, tmp: Path):
    """One sweep of a workload in a fresh process: (exit code, wall s, peak
    RSS MiB, CSV text)."""
    cfg = load_workload(name)
    csv_path = tmp / "sweep.csv"
    if csv_path.exists():
        csv_path.unlink()
    rc, wall, rss, _, err = run_child(
        cli(WORKLOADS[name][0], "--config", str(BENCH / "workloads" / (name + ".json")),
            "--seed", str(seed), "--threads", str(sweep_threads(name, cfg)),
            "--out", str(csv_path)), tmp)
    if rc != 0:
        sys.stderr.write("sweep exited %d: %s\n" % (rc, err.strip()[-500:]))
    text = csv_path.read_text(encoding="utf-8") if csv_path.exists() else ""
    return rc, wall, rss, text


def preflight(tmp: Path) -> None:
    rc, _, _, _, err = run_child([sys.executable, "-c", "import hdris.cli"], tmp)
    if rc != 0:
        raise StartError("cannot import hdris.cli from src/: %s" % err.strip()[-500:])


def summary(values) -> dict:
    """Median, quartiles and count of one metric's samples."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def score(name: str, seed: int, outputs) -> dict:
    """Check every sweep output, a list of (exit code, CSV text), against the
    workload's invariants, the stored reference for the seed, and the first
    output (same config and seed must give the same values)."""
    cfg = load_workload(name)
    reference = load_reference(name, seed)
    attempted = failed = 0
    reasons, hashes, first_values = [], set(), None
    for rc, text in outputs:
        result = check.check_csv(text, rc, cfg, WORKLOADS[name][0], cfg["n_trials"],
                                 reference=reference, previous=first_values)
        first_values = first_values or result.values
        attempted += result.expected
        failed += result.bad
        reasons += result.reasons
        hashes |= result.config_hashes
    return {"attempted": attempted, "failed": failed, "reasons": reasons[:50],
            "config_hashes": sorted(hashes), "reference_checked": reference is not None}


def measure(name: str, seed: int, seconds: float, tmp: Path) -> dict:
    """End-to-end rounds for one workload, tracing off."""
    cfg = load_workload(name)
    trials = len(cfg["snr_grid_db"]) * cfg["n_trials"]
    samples = {"trials_per_s": [], "setup_s": [], "peak_rss_mb": []}
    outputs = []
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        rc, wall, _, _, err = run_child(
            cli("validate", "--config", str(BENCH / "workloads" / (name + ".json"))), tmp)
        if rc != 0:
            sys.stderr.write("validate exited %d: %s\n" % (rc, err.strip()[-500:]))
        samples["setup_s"].append(wall)
        rc_sweep, wall, rss, text = run_sweep(name, seed, tmp)
        samples["trials_per_s"].append(trials / wall)
        samples["peak_rss_mb"].append(rss)
        outputs.append((rc_sweep or rc, text))
        now = time.perf_counter()
        if len(outputs) >= MIN_ROUNDS and now + (now - round_start) > start + seconds:
            break
    res = score(name, seed, outputs)
    bad_frac = res["failed"] / res["attempted"]
    res["samples"] = samples
    res["stats"] = {k: summary(v) for k, v in samples.items()}
    res["stats"]["bad_row_frac"] = {"median": bad_frac, "n": len(outputs)}
    values = {k: res["stats"][k]["median"] for k in samples}
    values["good_row_frac"] = 1.0 - bad_frac
    res["metrics"] = {k: {"value": v, "unit": UNITS[k]} for k, v in values.items()}
    return res


def measure_traced(name: str, seed: int, seconds: float, tmp: Path) -> dict:
    """Per-layer metrics for one workload from the traced in-process run."""
    spans_path = OUT / ("spans-%s-seed%d.json" % (name, seed))
    rc, _, _, _, err = run_child(
        [sys.executable, str(BENCH / "trace_sweep.py"),
         "--config", str(BENCH / "workloads" / (name + ".json")),
         "--kind", WORKLOADS[name][0], "--seed", str(seed),
         "--threads", str(sweep_threads(name, load_workload(name))),
         "--seconds", str(seconds), "--out", str(tmp / "trace.json"),
         "--spans", str(spans_path)], tmp)
    if rc != 0:
        raise StartError("traced run exited %d: %s" % (rc, err.strip()[-1000:]))
    with open(tmp / "trace.json", encoding="utf-8") as f:
        traced = json.load(f)
    res = score(name, seed, [(0, text) for text in traced["csvs"]])
    res.update(absent=traced["absent"], untraced_walls=traced["untraced_walls"],
               traced_walls=traced["traced_walls"], metrics=traced["metrics"],
               spans_file=str(spans_path.relative_to(ROOT)))
    return res


def git_commit():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def manifest(name: str, seed: int, hashes) -> dict:
    import numpy as np

    config = np.show_config(mode="dicts")
    return {
        "workload": name,
        "seed": seed,
        "sweep_threads": sweep_threads(name, load_workload(name)),
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": config.get("Build Dependencies", {}).get("blas"),
        "blas_thread_env": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "git_commit": git_commit(),
        "config_hashes": hashes,
        "platform": platform.platform(),
    }


def run_one(name: str, seed: int, seconds: float, trace: bool) -> dict:
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        tmp = Path(tmp)
        preflight(tmp)
        res = (measure_traced if trace else measure)(name, seed, seconds, tmp)
    res["manifest"] = manifest(name, seed, res["config_hashes"])
    with open(OUT / ("%s-seed%d-trace%d.json" % (name, seed, int(trace))), "w",
              encoding="utf-8") as f:
        json.dump(res, f, indent=1)
    return res


def result_line(res: dict) -> str:
    return json.dumps({"correct": res["failed"] == 0, "attempted": res["attempted"],
                       "failed": res["failed"], "metrics": res["metrics"]})


def print_table(results: dict) -> None:
    print("%-14s %-14s %12s %12s %12s %4s" % ("workload", "metric", "median", "q1", "q3", "n"))
    for name, res in results.items():
        for metric, st in res["stats"].items():
            unit = UNITS.get(metric, "share")
            print("%-14s %-14s %12.5g %12.5g %12.5g %4d  %s" % (
                name, metric, st["median"], st.get("q1", st["median"]),
                st.get("q3", st["median"]), st["n"], unit))
        for reason in res["reasons"][:10]:
            print("  bad: %s" % reason)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Benchmark the hdris sweeps.")
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="one workload (default: all, with a summary table)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        if args.workload:
            res = run_one(args.workload, args.seed, args.seconds, bool(args.trace))
            for reason in res["reasons"][:10]:
                print("bad: %s" % reason)
            print(json.dumps({"manifest": res["manifest"]}))
            print(result_line(res))
            return 0 if res["failed"] == 0 else 1
        results = {name: run_one(name, args.seed, args.seconds, bool(args.trace))
                   for name in WORKLOADS}
    except StartError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    if args.trace:
        for name, res in results.items():
            for metric, m in res["metrics"].items():
                print("%-14s %-48s %14.6g %s" % (name, metric, m["value"], m["unit"]))
    else:
        print_table(results)
    bad = sum(res["failed"] for res in results.values())
    rows = sum(res["attempted"] for res in results.values())
    print("bad_row_frac %.4g over %d rows" % (bad / rows, rows))
    return 0 if bad == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
