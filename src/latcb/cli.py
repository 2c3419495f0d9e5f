"""Command-line entry point: one subcommand per experiment kind."""

from __future__ import annotations

import argparse
from functools import cache

from .harness import EXPERIMENTS, run


@cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="latcb",
        description="Atomistic-to-continuum (Cauchy-Born) numerical laboratory.",
    )
    sub = parser.add_subparsers(dest="experiment", required=True, metavar="experiment")
    for name in EXPERIMENTS:
        p = sub.add_parser(name, help=EXPERIMENTS[name].__doc__)
        p.add_argument("--config", required=True, help="path to the JSON experiment config")
        p.add_argument("--out", default=".", help="output directory (default: current)")
        p.add_argument("--workers", type=int, default=1,
                       help="processes for dynamic-converge's two jobs (both continuum waves, and "
                            "every lattice run); more than 2 adds nothing; static-converge and "
                            "the other experiments run in one process")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return run(
        args.config,
        out_dir=args.out,
        workers=args.workers,
        seed=args.seed,
        expect_experiment=args.experiment,
    )


if __name__ == "__main__":
    raise SystemExit(main())
