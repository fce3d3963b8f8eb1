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
import errno
import gc
import os
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
from .training import FFT_MIN_BLOCKS, make_training


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
    print("pilot budget: %d vs %d unknowns -> feasible"
          % (dims.n_pilots * dims.n_blocks, dims.n_bs * dims.n_ris))
    if make_training(dims).block_fft:
        route = "FFT (DFT profiles, %d blocks >= %d)" % (dims.n_blocks, FFT_MIN_BLOCKS)
    else:
        route = "dense (%d blocks < %d)" % (dims.n_blocks, FFT_MIN_BLOCKS)
    print("surface block product: %s" % route)
    print("training design ok")
    return 0


def _check_output_dir(path: str) -> None:
    """Raise OSError unless ``path`` is not a directory and its directory
    exists and may be written, so a sweep never runs for an output it
    cannot keep."""
    if os.path.isdir(path):
        raise OSError(errno.EISDIR, os.strerror(errno.EISDIR), path)
    directory = os.path.dirname(os.path.abspath(path))
    if not os.path.isdir(directory):
        code = errno.ENOTDIR if os.path.exists(directory) else errno.ENOENT
        raise OSError(code, os.strerror(code), directory)
    if not os.access(directory, os.W_OK | os.X_OK):
        raise OSError(errno.EACCES, os.strerror(errno.EACCES), directory)


def main(argv=None) -> int:
    # The command line owns its process: move everything the imports built
    # into the permanent generation, so neither a full collection during a
    # sweep nor the interpreter's last one at exit walks numpy's import heap
    # (most of the exit time).  Only the command line does this; a library
    # import must not freeze its caller's heap.
    gc.freeze()
    args = _build_parser().parse_args(argv)
    try:
        cfg = _load(args)
        if args.command == "validate":
            return _validate_command(cfg)
        if cfg.output_path:
            _check_output_dir(cfg.output_path)
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
    except ConfigError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except OSError as exc:
        print("i/o error: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
