#!/usr/bin/env python3
"""List what differs between two latcb output trees, for the re-pin protocol.

Usage: python3 scripts/repin_diff.py PARENT_OUT CHANGE_OUT

Both trees are walked recursively and compared file by file.  Files found on
one side only, and files whose bytes differ, are listed.  For a differing
file the numbers are separated from the text around them:

- a ``.csv`` written by latcb (``#`` comment lines, then data rows) is
  compared per column, rows matched by position;
- a ``.json`` report is compared per key path (``checks[0].observed``);
- any other file (stdout, stderr, exit codes) is compared per line, number
  by number.

Each numeric column, key or line that moved is printed as one table row with
the old and new value of its largest relative shift ``|new - old| / |old|``
and the number of values that moved.  The exit status is 0 when every
difference is numeric and 1 when any is not: a file on one side only, a
changed row count, key set or piece of text, or a number turned into text.
"""

from __future__ import annotations

import json
import math
import re
import sys
from pathlib import Path

_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|[-+]?(?:nan|inf)")


class NonNumeric(Exception):
    """A difference that is not a shift of a number."""


def _as_number(cell):
    """The float value of a CSV cell or JSON leaf, or None when it is not a number."""
    if isinstance(cell, bool):
        return None
    if isinstance(cell, (int, float)):
        return float(cell)
    if isinstance(cell, str):
        try:
            return float(cell)
        except ValueError:
            return None
    return None


def _shift(old: float, new: float) -> float:
    """Relative shift |new - old| / |old|; 0 for equal values (NaN equals NaN)."""
    if old == new or (math.isnan(old) and math.isnan(new)):
        return 0.0
    if old == 0.0 or not (math.isfinite(old) and math.isfinite(new)):
        return math.inf
    return abs(new - old) / abs(old)


class _Column:
    """The largest shift of one column, key or line, and how many values moved."""

    def __init__(self):
        self.moved, self.worst = 0, None

    def add(self, old_cell, new_cell, where: str) -> None:
        if old_cell == new_cell:
            return
        old, new = _as_number(old_cell), _as_number(new_cell)
        if old is None or new is None:
            raise NonNumeric(f"{where}: {old_cell!r} -> {new_cell!r}")
        rel = _shift(old, new)
        if rel == 0.0:
            return
        self.moved += 1
        if self.worst is None or rel > self.worst[2]:
            self.worst = (old_cell, new_cell, rel)


def _csv_columns(old_text: str, new_text: str) -> dict:
    def split(text):
        comments = [ln for ln in text.splitlines() if ln.startswith("#")]
        rows = [ln.split(",") for ln in text.splitlines() if ln and not ln.startswith("#")]
        return comments, rows

    (old_comments, old_rows), (new_comments, new_rows) = split(old_text), split(new_text)
    if old_comments != new_comments:
        raise NonNumeric("the comment lines differ")
    if len(old_rows) != len(new_rows):
        raise NonNumeric(f"{len(old_rows)} rows -> {len(new_rows)} rows")
    header = next((ln for ln in old_comments if ln.startswith("# columns: ")), None)
    names = header[len("# columns: "):].split(",") if header else []
    columns = {}
    for i, (old, new) in enumerate(zip(old_rows, new_rows)):
        if len(old) != len(new):
            raise NonNumeric(f"row {i}: {len(old)} cells -> {len(new)} cells")
        for j, (a, b) in enumerate(zip(old, new)):
            name = names[j] if j < len(names) else f"column {j}"
            # a quantity/value table names its rows by the first cell
            if j > 0 and _as_number(old[0]) is None and old[0] == new[0]:
                name = f"{name} [{old[0]}]"
            columns.setdefault(name, _Column()).add(a, b, f"row {i}, {name}")
    return columns


def _json_leaves(value, path: str = ""):
    if isinstance(value, dict):
        for key in sorted(value):
            yield from _json_leaves(value[key], f"{path}.{key}" if path else key)
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from _json_leaves(item, f"{path}[{i}]")
    else:
        yield path, value


def _json_keys(old_text: str, new_text: str) -> dict:
    old, new = dict(_json_leaves(json.loads(old_text))), dict(_json_leaves(json.loads(new_text)))
    if old.keys() != new.keys():
        raise NonNumeric(f"key paths differ: {sorted(old.keys() ^ new.keys())}")
    columns = {}
    for key in old:
        columns.setdefault(key, _Column()).add(old[key], new[key], key)
    return columns


def _text_lines(old_text: str, new_text: str) -> dict:
    old_lines, new_lines = old_text.splitlines(), new_text.splitlines()
    if len(old_lines) != len(new_lines):
        raise NonNumeric(f"{len(old_lines)} lines -> {len(new_lines)} lines")
    columns = {}
    for i, (old, new) in enumerate(zip(old_lines, new_lines)):
        if old == new:
            continue
        if _NUMBER.sub("#", old) != _NUMBER.sub("#", new):
            raise NonNumeric(f"line {i + 1}: {old!r} -> {new!r}")
        column = columns.setdefault(f"line {i + 1}", _Column())
        for a, b in zip(_NUMBER.findall(old), _NUMBER.findall(new)):
            column.add(a, b, f"line {i + 1}")
    return columns


def compare(parent: Path, change: Path) -> tuple[list, list]:
    """``(rows, problems)``: one table row per moved column, key or line, and
    one message per non-numeric difference."""
    files = sorted({p.relative_to(root) for root in (parent, change)
                    for p in root.rglob("*") if p.is_file()})
    rows, problems = [], []
    for rel in files:
        a, b = parent / rel, change / rel
        if not (a.is_file() and b.is_file()):
            problems.append(f"{rel}: only in {parent if a.is_file() else change}")
            continue
        old, new = a.read_bytes(), b.read_bytes()
        if old == new:
            continue
        reader = {".csv": _csv_columns, ".json": _json_keys}.get(rel.suffix, _text_lines)
        try:
            columns = reader(old.decode(), new.decode())
        except (NonNumeric, UnicodeDecodeError, json.JSONDecodeError) as exc:
            problems.append(f"{rel}: {exc}")
            continue
        for name, column in columns.items():
            if column.worst is not None:
                old_cell, new_cell, rel_shift = column.worst
                rows.append((str(rel), name, column.moved, old_cell, new_cell, rel_shift))
    return rows, problems


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    parent, change = Path(argv[0]), Path(argv[1])
    for root in (parent, change):
        if not root.is_dir():
            print(f"not a directory: {root}", file=sys.stderr)
            return 2
    rows, problems = compare(parent, change)
    if rows:
        print("| file | column or key | values moved | old | new | relative |")
        print("| --- | --- | --- | --- | --- | --- |")
        for file, name, moved, old, new, rel in rows:
            print(f"| {file} | {name} | {moved} | {old} | {new} | {rel:.3g} |")
    else:
        print("no numeric shifts")
    for problem in problems:
        print(f"NON-NUMERIC {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
