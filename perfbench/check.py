"""Correctness check for the CSV of one `hdris nmse` / `hdris se` sweep.

A sweep should emit one row per (method, SNR point, stat) with stat in
{mean, median}.  A row counts as bad when it is missing, duplicated,
malformed or non-finite, or when it breaks one of these checks:

* seed-independent invariants
  - `ls` NMSE mean equals the configured noise variance
    tx_power / 10^(snr/10) within a Monte-Carlo tolerance (the filtered
    noise is white with that variance per cascade entry);
  - NMSE means are ordered hdr < krf < ls at every SNR;
  - every method's SE mean is at or below the `ideal` SE mean;
* stored reference values, when the reference file holds the seed:
  every value within REFERENCE_REL_TOL of the recorded one;
* determinism: when a previous CSV of the same (config, seed) is given,
  every value equals it exactly.

A non-zero exit of the sweep process fails every row.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field

HEADER = ["method", "snr_db", "metric", "stat", "value", "n_trials", "config_hash"]
STATS = ("mean", "median")
METRIC_OF_KIND = {"nmse": "nmse", "se": "se_bits_per_hz"}

# Values are means/medians over >= 20 trials of float64 quantities.
# Reordered or batched arithmetic moves them by ~1e-14 relative; a changed
# estimator or RNG stream moves them by orders of magnitude more.
REFERENCE_REL_TOL = 1e-9
# Standard deviations of the ls-calibration Monte-Carlo error allowed.
LS_SIGMAS = 6.0


@dataclass
class CheckResult:
    expected: int
    bad: int
    reasons: list = field(default_factory=list)
    config_hashes: set = field(default_factory=set)
    values: dict = field(default_factory=dict)

    @property
    def bad_row_frac(self) -> float:
        return self.bad / self.expected


def sweep_methods(cfg: dict, kind: str) -> list:
    """Methods whose rows the sweep emits, mirroring `hdris.simulate`."""
    methods = [str(m).lower() for m in cfg.get("methods", ["hdr", "krf", "ls"])]
    if kind == "nmse":
        return [m for m in methods if m != "ideal"]
    return methods + ([] if "ideal" in methods else ["ideal"])


def row_key(method: str, snr_db: float, stat: str) -> str:
    return "%s,%r,%s" % (method, float(snr_db), stat)


def expected_keys(cfg: dict, kind: str) -> list:
    return [
        row_key(m, s, stat)
        for m in sweep_methods(cfg, kind)
        for s in cfg["snr_grid_db"]
        for stat in STATS
    ]


def _cascade_entries(cfg: dict) -> int:
    d = cfg["dims"]
    return (d["n_bs_y"] * d["n_bs_z"] * d["n_ue_y"] * d["n_ue_z"]
            * d["n_ris_y"] * d["n_ris_z"])


def check_csv(csv_text: str, exit_code: int, cfg: dict, kind: str,
              n_trials: int, reference: dict | None = None,
              previous: dict | None = None) -> CheckResult:
    """Score one sweep's CSV.  ``reference`` and ``previous`` map row keys
    (see :func:`row_key`) to values."""
    keys = expected_keys(cfg, kind)
    result = CheckResult(expected=len(keys), bad=0)
    if exit_code != 0:
        result.bad = len(keys)
        result.reasons.append("sweep exited with code %d" % exit_code)
        return result

    bad = set()
    values = {}
    metric = METRIC_OF_KIND[kind]
    reader = csv.reader(io.StringIO(csv_text))
    header = next(reader, None)
    if header != HEADER:
        result.bad = len(keys)
        result.reasons.append("unexpected CSV header %r" % (header,))
        return result
    extra = 0
    for line in reader:
        if len(line) != len(HEADER):
            extra += 1
            result.reasons.append("malformed row %r" % (line,))
            continue
        row = dict(zip(HEADER, line))
        try:
            key = row_key(row["method"], float(row["snr_db"]), row["stat"])
            value = float(row["value"])
            trials = int(row["n_trials"])
        except ValueError:
            extra += 1
            result.reasons.append("unparsable row %r" % (line,))
            continue
        if key not in keys:
            extra += 1
            result.reasons.append("unexpected row %s" % key)
            continue
        if key in values:
            bad.add(key)
            result.reasons.append("duplicate row %s" % key)
            continue
        values[key] = value
        result.config_hashes.add(row["config_hash"])
        if row["metric"] != metric or trials != n_trials or not math.isfinite(value):
            bad.add(key)
            result.reasons.append("bad row %r" % (line,))
    for key in keys:
        if key not in values:
            bad.add(key)
            result.reasons.append("missing row %s" % key)
    if len(result.config_hashes) > 1:
        bad.update(values)
        result.reasons.append("mixed config_hash %s" % sorted(result.config_hashes))

    def get(method, snr, stat="mean"):
        return values.get(row_key(method, snr, stat))

    methods = sweep_methods(cfg, kind)
    for snr in cfg["snr_grid_db"]:
        if kind == "nmse":
            ls = get("ls", snr)
            if ls is not None:
                noise_var = cfg.get("tx_power_watts", 1.0) / 10.0 ** (snr / 10.0)
                tol = LS_SIGMAS / math.sqrt(_cascade_entries(cfg) * n_trials)
                if not abs(ls / noise_var - 1.0) <= tol:
                    bad.add(row_key("ls", snr, "mean"))
                    result.reasons.append(
                        "ls NMSE mean %.6g at %g dB is not noise variance %.6g "
                        "(rel tol %.3g)" % (ls, snr, noise_var, tol))
            chain = [m for m in ("hdr", "krf", "ls") if m in methods]
            for lo, hi in zip(chain, chain[1:]):
                a, b = get(lo, snr), get(hi, snr)
                if a is not None and b is not None and not a < b:
                    bad.update((row_key(lo, snr, "mean"), row_key(hi, snr, "mean")))
                    result.reasons.append(
                        "NMSE mean %s=%.6g not below %s=%.6g at %g dB"
                        % (lo, a, hi, b, snr))
        else:
            ideal = get("ideal", snr)
            for m in methods:
                v = get(m, snr)
                if ideal is not None and v is not None and not v <= ideal * (1 + 1e-12):
                    bad.add(row_key(m, snr, "mean"))
                    result.reasons.append(
                        "SE mean %s=%.6g above ideal=%.6g at %g dB" % (m, v, ideal, snr))

    for source, tol, label in ((reference, REFERENCE_REL_TOL, "reference"),
                               (previous, 0.0, "previous run")):
        if not source:
            continue
        for key, value in values.items():
            want = source.get(key)
            if want is None or not abs(value - want) <= tol * abs(want):
                bad.add(key)
                result.reasons.append("%s: %r differs from %s %r" % (key, value, label, want))

    result.values = values
    result.bad = min(len(keys), len(bad) + extra)
    return result
