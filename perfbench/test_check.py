"""Smoke test of the benchmark's correctness check on a tiny config.

Run from the repository root: ``python3 -m pytest perfbench``.
"""

import json

import pytest

import check
import run

TINY = {
    "dims": {"n_bs_y": 2, "n_bs_z": 2, "n_ue_y": 2, "n_ue_z": 2,
             "n_ris_y": 2, "n_ris_z": 2, "n_pilots": 4, "n_blocks": 4},
    "snr_grid_db": [0, 10],
    "n_trials": 40,
    "methods": ["hdr", "krf", "ls"],
}


def sweep(tmp_path, kind, cfg=TINY):
    cfg_path = tmp_path / "tiny.json"
    cfg_path.write_text(json.dumps(cfg))
    csv_path = tmp_path / "tiny.csv"
    rc, _, _, _, _ = run.run_child(
        run.cli(kind, "--config", str(cfg_path), "--out", str(csv_path)), tmp_path)
    text = csv_path.read_text() if csv_path.exists() else ""
    return rc, text


def score(text, kind, rc=0, **kwargs):
    return check.check_csv(text, rc, TINY, kind, TINY["n_trials"], **kwargs)


def replace_value(text, key, new):
    lines = text.splitlines(keepends=True)
    for i, line in enumerate(lines):
        f = line.split(",")
        if f[0] != "method" and check.row_key(f[0], float(f[1]), f[3]) == key:
            f[4] = new
            lines[i] = ",".join(f)
            return "".join(lines)
    raise KeyError(key)


@pytest.fixture(scope="module")
def nmse_csv(tmp_path_factory):
    rc, text = sweep(tmp_path_factory.mktemp("nmse"), "nmse")
    assert rc == 0
    return text


def test_clean_nmse_run_has_no_bad_rows(nmse_csv):
    result = score(nmse_csv, "nmse")
    assert result.expected == 3 * 2 * 2
    assert result.bad == 0, result.reasons
    assert result.bad_row_frac == 0.0
    assert len(result.config_hashes) == 1


def test_clean_se_run_has_no_bad_rows(tmp_path):
    rc, text = sweep(tmp_path, "se")
    assert rc == 0
    result = score(text, "se")
    assert result.expected == 4 * 2 * 2
    assert result.bad == 0, result.reasons


@pytest.mark.parametrize("key,new", [
    ("hdr,0.0,mean", "nan"),                      # non-finite
    ("ls,10.0,mean", "0.2"),                      # off the noise variance
    ("hdr,10.0,mean", "1.0"),                     # breaks hdr < krf < ls
    ("krf,0.0,median", "not-a-number"),           # unparsable
])
def test_corrupted_value_is_bad(nmse_csv, key, new):
    assert score(replace_value(nmse_csv, key, new), "nmse").bad >= 1


def test_value_off_reference_is_bad(nmse_csv):
    values = score(nmse_csv, "nmse").values
    key = "krf,0.0,median"
    nudged = replace_value(nmse_csv, key, repr(values[key] * (1 + 1e-6)))
    assert score(nudged, "nmse", reference=values).bad == 1
    assert score(nudged, "nmse", previous=values).bad == 1
    assert score(nmse_csv, "nmse", reference=values, previous=values).bad == 0


def test_dropped_row_is_bad(nmse_csv):
    lines = nmse_csv.splitlines(keepends=True)
    result = score("".join(lines[:3] + lines[4:]), "nmse")
    assert result.bad == 1
    assert any("missing" in r for r in result.reasons)


def test_se_above_ideal_is_bad(tmp_path):
    _, text = sweep(tmp_path, "se")
    assert score(replace_value(text, "krf,10.0,mean", "1e6"), "se").bad >= 1


def test_nonzero_exit_fails_every_row(tmp_path, nmse_csv):
    infeasible = dict(TINY, dims=dict(TINY["dims"], n_blocks=2))
    rc, text = sweep(tmp_path, "nmse", infeasible)
    assert rc == 2
    assert score(text, "nmse", rc=rc).bad_row_frac == 1.0
    assert score(nmse_csv, "nmse", rc=1).bad_row_frac == 1.0
