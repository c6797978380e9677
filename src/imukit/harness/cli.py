"""Command-line front end.

Exit codes: 0 success, 2 configuration error, 3 missing input artifact,
4 numeric failure (divergence or non-finite values).
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from imukit.autodiff import NonFiniteError
from imukit.diffusion.training import TrainingDiverged
from imukit.harness.config import ConfigError, ExperimentConfig, METHODS, config_hash
from imukit.harness.pipeline import (
    MissingArtifactError, cmd_ablate, cmd_edit_file, cmd_evaluate, cmd_gen_data,
    cmd_immunize, cmd_report, cmd_train, run_paths,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_MISSING = 3
EXIT_NUMERIC = 4


def _add_common(p):
    p.add_argument("--config", help="experiment config JSON (defaults when omitted)")
    p.add_argument("--seed", type=int, help="override the config seed")
    p.add_argument("--out", help="override the output root directory")
    p.add_argument("--jobs", type=int, help="parallel worker processes")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="imukit",
        description="train a toy text-conditioned diffusion editor, immunize "
                    "images against it, and measure the defense")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, help_text in [
        ("gen-data", "render the procedural dataset"),
        ("train", "train the denoiser on the generated dataset"),
        ("immunize", "craft perturbations for every test image and method"),
        ("evaluate", "edit clean and immunized images, compute metric tables"),
        ("ablate", "component ablation and histogram-bin sweep"),
        ("report", "merge tables into a human-readable summary"),
    ]:
        p = sub.add_parser(name, help=help_text)
        _add_common(p)
        if name in ("immunize", "evaluate"):
            p.add_argument("--methods",
                           help=f"comma-separated subset of {','.join(METHODS)}")

    p = sub.add_parser("edit", help="apply a caption-guided edit to one PPM image")
    _add_common(p)
    p.add_argument("--image", required=True, help="input PPM image")
    p.add_argument("--caption", required=True,
                   help="edit caption, e.g. 'blue circle on white background'")
    p.add_argument("--output", required=True, help="output PPM path")
    p.add_argument("--t-edit", type=int, help="diffusion depth (default 0.6*T)")
    p.add_argument("--edit-seed", type=int, default=0)
    return parser


def load_config(args):
    cfg = ExperimentConfig.load(args.config) if args.config else ExperimentConfig()
    overrides = {"seed": args.seed, "out_dir": args.out, "jobs": args.jobs}
    return replace(cfg, **{k: v for k, v in overrides.items() if v is not None})


def _parse_methods(args):
    raw = getattr(args, "methods", None)
    if not raw:
        return None
    methods = tuple(m.strip() for m in raw.split(",") if m.strip())
    for m in methods:
        if m not in METHODS:
            raise ConfigError(f"unknown method {m!r}; choose from {METHODS}")
    return methods


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args)
        if args.command == "gen-data":
            cmd_gen_data(cfg)
        elif args.command == "train":
            cmd_train(cfg)
        elif args.command == "immunize":
            cmd_immunize(cfg, methods=_parse_methods(args))
        elif args.command == "evaluate":
            cmd_evaluate(cfg, methods=_parse_methods(args))
        elif args.command == "ablate":
            cmd_ablate(cfg)
        elif args.command == "report":
            cmd_report(cfg)
        elif args.command == "edit":
            cmd_edit_file(cfg, args.image, args.caption, args.output,
                          t_edit=args.t_edit, edit_seed=args.edit_seed)
        else:  # pragma: no cover - argparse enforces the choices
            parser.error(f"unknown command {args.command}")
        print(f"[imukit] run directory: {run_paths(cfg).root} "
              f"(config hash {config_hash(cfg)})")
    except ConfigError as e:
        print(f"imukit: config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except ValueError as e:
        print(f"imukit: config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except MissingArtifactError as e:
        print(f"imukit: {e}", file=sys.stderr)
        return EXIT_MISSING
    except (TrainingDiverged, NonFiniteError, FloatingPointError) as e:
        print(f"imukit: numeric failure: {e}", file=sys.stderr)
        return EXIT_NUMERIC
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
