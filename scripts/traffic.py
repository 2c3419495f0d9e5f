#!/usr/bin/env python3
"""List the functions and methods of latcb that no run reached.

Usage: python3 scripts/traffic.py [CONFIG ...]

The script traces this checkout's ``src/latcb`` while it runs each given
config through ``latcb.cli.main`` at ``--workers 1``.  With no config it
runs every ``configs/*.json`` and then one round of every operation of the
benchmark's workloads (``bench/workloads.py``, which it reads and never
edits), their output checks included.  It prints, in source order, one
name per line: ``module.function``, ``module.Class.method`` or, for a
nested function, its outer function's name and its own.  A name is listed
when none of its statements ran, that is when its body was never entered;
a docstring is not a statement.  Tracing (``sys.settrace``) starts before
``import latcb``, so code that runs at import time counts.

The runs' stdout and stderr are swallowed, and their artifacts go to a
temporary directory.  Only this process is traced: pool workers are not,
and ``--workers 1`` keeps every run in it.  The script exits 0 once the
list is printed, 1 when a benchmark operation or its check raised (the
list then misses what the operation would have run) and 2 when a config
cannot be read.
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "latcb"
BENCH_SEED = 11


def definitions() -> dict:
    """``{(file, first line, name): qualified name}`` of every function and
    method of latcb, the first line being the first decorator's, as in the
    function's code object."""
    out = {}

    def visit(node, path: str, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = f"{prefix}.{child.name}"
                if not isinstance(child, ast.ClassDef):
                    first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    out[(path, first, child.name)] = name
                visit(child, path, name)
            else:
                visit(child, path, prefix)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text()), str(path), path.stem)
    return out


def run_configs(latcb, configs: list, out: Path) -> None:
    for config in configs:
        try:
            experiment = json.loads(config.read_text())["experiment"]
        except (OSError, ValueError, KeyError, TypeError) as exc:
            print(f"cannot read config {config}: {exc!r}", file=sys.stderr)
            raise SystemExit(2)
        with quiet():
            latcb.cli.main([experiment, "--config", str(config), "--out", str(out),
                            "--workers", "1"])


def run_bench(latcb, work: Path) -> int:
    """One round of every benchmark operation and its check; the number that raised."""
    sys.path.insert(0, str(ROOT / "bench"))
    import workloads

    failed = 0
    for name, build in workloads.WORKLOADS.items():
        inputs, out = work / name / "inputs", work / name / "out"
        inputs.mkdir(parents=True)
        out.mkdir()
        for op in build(latcb, BENCH_SEED, inputs, out):
            try:
                with quiet():
                    op.check(op.call())
            except Exception as exc:
                print(f"{name}/{op.name} raised {exc!r}", file=sys.stderr)
                failed += 1
    return failed


@contextlib.contextmanager
def quiet():
    """Swallow what a run writes to stdout and stderr."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        yield


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.strip().splitlines()[0])
    parser.add_argument("configs", nargs="*", type=Path,
                        help="config files (default: configs/*.json and the benchmark's operations)")
    args = parser.parse_args(argv)

    entered = set()

    def trace(frame, event, arg):
        code = frame.f_code
        entered.add((code.co_filename, code.co_firstlineno, code.co_name))
        # no per-line tracing: entering a body is what counts

    sys.path.insert(0, str(PACKAGE.parent))
    sys.settrace(trace)
    try:
        import latcb
        import latcb.cli

        with tempfile.TemporaryDirectory() as tmp:
            run_configs(latcb, [c.resolve() for c in args.configs]
                        or sorted((ROOT / "configs").glob("*.json")), Path(tmp))
            failed = 0 if args.configs else run_bench(latcb, Path(tmp) / "bench")
    finally:
        sys.settrace(None)
    ran = {(os.path.realpath(f), line, name) for f, line, name in entered}
    defs = definitions()
    unused = [defs[key] for key in defs if key not in ran]
    for name in unused:
        print(name)
    print(f"{len(unused)} of {len(defs)} functions never ran (pool workers are not traced)",
          file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
