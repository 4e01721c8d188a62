"""Console entry point: ``skyglow <command> --config <file> [options]``."""

from __future__ import annotations

import argparse
import sys

from ..errors import SkyglowError
from .commands import COMMANDS, dispatch


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="skyglow",
        description="Night-sky brightness modelling pipeline: ingest citizen "
                    "observations, engineer features, cross-validate tree "
                    "ensembles, and predict limiting-magnitude classes.")
    parser.add_argument("command", choices=COMMANDS,
                        help="pipeline stage to run")
    parser.add_argument("--config", required=True,
                        help="path to the INI run configuration")
    parser.add_argument("--out", default=None,
                        help="output directory (overrides [output] dir)")
    parser.add_argument("--seed", type=int, default=None,
                        help="base random seed (overrides [cv] seed)")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return dispatch(args.command, args.config, args.out, args.seed)
    except SkyglowError as exc:
        print(f"skyglow: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
