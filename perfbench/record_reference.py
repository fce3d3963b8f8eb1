#!/usr/bin/env python3
"""Record the reference values `check.py` compares sweep CSVs against.

Usage, from the repository root::

    python3 perfbench/record_reference.py --seeds 0-15

Runs each workload's sweep once per seed in a fresh process, requires it
to pass the seed-independent checks, and writes every row value to
``perfbench/reference.json``.  Re-record only when a change is meant to
alter the numbers (a new RNG stream or estimator), and say so.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from pathlib import Path

import check
import run


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="0-15", help="inclusive range lo-hi")
    parser.add_argument("--workload", action="append", choices=sorted(run.WORKLOADS))
    args = parser.parse_args(argv)
    lo, hi = (int(s) for s in args.seeds.split("-"))
    path = run.BENCH / "reference.json"
    reference = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}
    run.OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.OUT) as tmp:
        tmp = Path(tmp)
        run.preflight(tmp)
        for name in args.workload or run.WORKLOADS:
            cfg = run.load_workload(name)
            for seed in range(lo, hi + 1):
                rc, _, _, text = run.run_sweep(name, seed, tmp)
                result = check.check_csv(text, rc, cfg, run.WORKLOADS[name][0],
                                         cfg["n_trials"])
                if result.bad:
                    print("%s seed %d fails its checks: %s"
                          % (name, seed, result.reasons), file=sys.stderr)
                    return 1
                reference.setdefault(name, {})[str(seed)] = result.values
                print("%s seed %d: %d rows" % (name, seed, len(result.values)))
    path.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n",
                    encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
