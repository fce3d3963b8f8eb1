"""Command-line entry point.

Subcommands::

    hdris nmse        estimation error vs SNR          -> CSV
    hdris se          spectral efficiency vs SNR       -> CSV
    hdris complexity  MAC counts vs surface size       -> CSV
    hdris validate    config + training design checks  -> text report

Common flags (--config/--seed/--trials/--out/--threads) override the config
file.  Exit codes: 0 success, 1 I/O failure, 2 malformed or infeasible
configuration.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

from .simulate import (
    ConfigError,
    default_config,
    load_config,
    run_complexity_sweep,
    run_nmse_sweep,
    run_se_sweep,
    write_csv,
)
from .training import TrainingInfeasibleError, make_training, validate_training


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hdris",
        description="Monte Carlo benchmarks for rank-one tensor channel "
                    "estimation on a RIS-assisted MIMO link.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("nmse", "sweep estimation error over the SNR grid"),
        ("se", "sweep beamformed spectral efficiency over the SNR grid"),
        ("complexity", "tabulate analytic and measured MAC counts over surface sizes"),
        ("validate", "check the configuration and its training design"),
    ):
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("--config", metavar="PATH", help="JSON config file")
        sp.add_argument("--seed", type=int, help="override root seed")
        sp.add_argument("--trials", type=int, help="override trial count")
        sp.add_argument("--out", metavar="PATH", help="override output CSV path")
        sp.add_argument("--threads", type=int, help="override worker count")
    return parser


def _load(args) -> "ExperimentConfig":
    cfg = load_config(args.config) if args.config else default_config()
    overrides = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.trials is not None:
        overrides["n_trials"] = args.trials
    if args.out is not None:
        overrides["output_path"] = args.out
    if args.threads is not None:
        overrides["threads"] = args.threads
    if overrides:
        cfg = dataclasses.replace(cfg, **overrides)
    return cfg


def _validate_command(cfg) -> int:
    dims = cfg.dims
    print("dims: bs=%d (%dx%d)  ue=%d (%dx%d)  ris=%d (%dx%d)  "
          "pilots=%d blocks=%d"
          % (dims.n_bs, dims.n_bs_y, dims.n_bs_z,
             dims.n_ue, dims.n_ue_y, dims.n_ue_z,
             dims.n_ris, dims.n_ris_y, dims.n_ris_z,
             dims.n_pilots, dims.n_blocks))
    print("pilot budget: %d vs %d unknowns -> %s"
          % (dims.n_pilots * dims.n_blocks, dims.n_bs * dims.n_ris,
             "feasible" if dims.training_feasible() else "infeasible"))
    design = make_training(dims)
    report = validate_training(design)
    print("factor row orthonormality residual: %.3g" % report.row_orthonormality)
    print("surface profile modulus spread: %.3g" % report.modulus_spread)
    if not report.ok():
        print("training design FAILED validation", file=sys.stderr)
        return 2
    print("training design ok")
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _load(args)
        if args.command == "validate":
            return _validate_command(cfg)
        runner = {
            "nmse": run_nmse_sweep,
            "se": run_se_sweep,
            "complexity": run_complexity_sweep,
        }[args.command]
        rows = runner(cfg)
        if cfg.output_path:
            write_csv(rows, cfg.output_path)
            print("wrote %d rows to %s" % (len(rows), cfg.output_path), file=sys.stderr)
        else:
            write_csv(rows, sys.stdout)
        return 0
    except (ConfigError, TrainingInfeasibleError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except OSError as exc:
        print("i/o error: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
