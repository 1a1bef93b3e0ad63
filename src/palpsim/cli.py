"""Command-line entry points.

Subcommands:
    run        one condition from a config file and/or flags
    matrix     the full strategy x mode condition sweep
    export-gt  write the ground-truth tumor cloud that ``run`` scores against, as PLY
    eval       F-score an external reconstruction PLY against a ground-truth PLY
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from .errors import PalpSimError
from .evaluation import fscore
from .experiment import (
    _DEFAULT_KEYS,
    ExperimentConfig,
    _ground_truth,
    config_from_flat,
    load_config_file,
    matrix_configs,
    run_experiment,
    run_matrix,
)
from .phantom import CRESCENT, ELLIPSOID, HEMISPHERE
from .ply import export_ply, read_ply
from .policy import BO, CONTOUR_FOLLOWING, DISCRETE, RS


def _add_config(p: argparse.ArgumentParser) -> None:
    """The flags every config-reading command takes."""
    p.add_argument("--config", help="flat key=value config file")
    p.add_argument("--seed", type=int, help="base random seed")
    p.add_argument("--shape", choices=[HEMISPHERE, ELLIPSOID, CRESCENT])


def _add_common(p: argparse.ArgumentParser) -> None:
    """The flags of the commands that run trials and write an output directory."""
    _add_config(p)
    p.add_argument("--out", default="out", help="output directory")
    p.add_argument("--trials", type=int, help="trials per condition")
    p.add_argument("--strategy", choices=[BO, RS], help="cell-selection strategy")
    p.add_argument("--mode", choices=[CONTOUR_FOLLOWING, DISCRETE], help="palpation mode")
    p.add_argument("--budget", type=int, help="palpations per trial")


def _flags_to_flat(args) -> dict:
    """The config keys set by flags: those that pick ``default_config``'s defaults.
    A command may lack some of these flags."""
    return {key: getattr(args, key) for key in _DEFAULT_KEYS
            if getattr(args, key, None) is not None}


def _flat_config(args) -> dict:
    flat = load_config_file(args.config) if args.config else {}
    flat.update(_flags_to_flat(args))
    return flat


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="palpsim",
                                     description="Tactile tumor localization simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one experiment condition")
    _add_common(p_run)

    p_matrix = sub.add_parser("matrix", help="run the full condition matrix")
    _add_common(p_matrix)

    p_gt = sub.add_parser("export-gt", help="export the ground-truth tumor cloud")
    _add_config(p_gt)
    p_gt.add_argument("--samples", type=int,
                      help="points to sample (default: the config's gt_samples)")
    p_gt.add_argument("--file", default="gt.ply", help="output PLY path")

    p_eval = sub.add_parser("eval", help="score a reconstruction PLY against a GT PLY")
    p_eval.add_argument("recon", help="reconstructed cloud (ascii PLY)")
    p_eval.add_argument("gt", help="ground-truth cloud (ascii PLY)")
    p_eval.add_argument("--r", type=float, default=ExperimentConfig.r_eval,
                        help="distance threshold (m)")

    args = parser.parse_args(argv)
    try:
        return _dispatch(args)
    except PalpSimError as exc:
        print(f"palpsim: error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # reads raise ConfigInvalid or MalformedPly, so this is a write
        path = "" if exc.filename is None else f"{exc.filename}: "
        print(f"palpsim: error: {path}cannot write: {exc.strerror}", file=sys.stderr)
        return 2


def _dispatch(args) -> int:
    if args.command == "run":
        cfg = config_from_flat(_flat_config(args))
        return 0 if run_experiment(cfg, args.out).scored else 1

    if args.command == "matrix":
        rep = run_matrix(matrix_configs(_flat_config(args)), args.out)
        return 0 if any(c.scored for c in rep.conditions) else 1

    if args.command == "export-gt":
        cfg = config_from_flat(_flat_config(args))
        if args.samples is not None:
            cfg = replace(cfg, gt_samples=args.samples)
        cloud = _ground_truth(cfg)
        export_ply(cloud, args.file)
        print(f"wrote {len(cloud)} points to {args.file}")
        return 0

    # eval
    rep = fscore(read_ply(args.recon), read_ply(args.gt), args.r)
    print(f"precision={rep.precision:.4f} recall={rep.recall:.4f} "
          f"fscore={rep.fscore:.4f} (r={args.r * 1e3:.1f} mm, "
          f"n_recon={rep.n_recon}, n_gt={rep.n_gt})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
