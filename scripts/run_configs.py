#!/usr/bin/env python3
"""Run latcb configs through the CLI into one output tree, for the re-pin protocol.

Usage: python3 scripts/run_configs.py OUT [--workers N] [CONFIG ...]

Each config (by default every ``configs/*.json``, in name order) runs as
``python3 -m latcb.cli <experiment> --config CONFIG --out OUT --workers N``
against this checkout's ``src``.  Beside the run's artifacts in ``OUT`` the
script writes ``<name>.stdout``, ``<name>.stderr`` and ``<name>.exit`` (the
exit status and a newline), ``<name>`` being the config file's stem.  Two
trees made this way, say at a parent commit and at a change, are what
``scripts/repin_diff.py`` compares.  The script's own exit status is 0 once
every config has run, whatever the runs' statuses, and 2 when a config
cannot be read.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_config(config: Path, experiment: str, out: Path, workers: int) -> int:
    """Run one config into ``out`` and record its stdout, stderr and exit status there."""
    path = os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "latcb.cli", str(experiment), "--config", str(config),
         "--out", str(out), "--workers", str(workers)],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
    )
    for suffix, text in (("stdout", proc.stdout), ("stderr", proc.stderr),
                         ("exit", f"{proc.returncode}\n")):
        (out / f"{config.stem}.{suffix}").write_text(text)
    return proc.returncode


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.strip().splitlines()[0])
    parser.add_argument("out", type=Path, help="output directory")
    parser.add_argument("--workers", type=int, default=1, help="passed to every run")
    parser.add_argument("configs", nargs="*", type=Path,
                        help="config files (default: configs/*.json)")
    args = parser.parse_intermixed_args(argv)
    configs = args.configs or sorted((ROOT / "configs").glob("*.json"))
    args.out.mkdir(parents=True, exist_ok=True)
    for config in configs:
        try:
            experiment = json.loads(config.read_text())["experiment"]
        except (OSError, ValueError, KeyError, TypeError) as exc:
            print(f"cannot read config {config}: {exc!r}", file=sys.stderr)
            return 2
        status = run_config(config.resolve(), experiment, args.out, args.workers)
        print(f"{config.stem}: exit {status}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
