"""Reference CSV writer, one row at a time: the oracle of ``harness.csv_text``.

The library formats a table's cells in one pass and formats each distinct
bit pattern of its Python floats once.  This module keeps the per-row form
it replaced: every cell of every row through the one cell rule, joined with
commas, a line per row.  The tests compare the two files byte for byte.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np


def format_value(v) -> str:
    """A CSV cell: a float by its shortest round-trip repr, anything else by str."""
    if type(v) is float:
        return repr(v)
    return repr(float(v)) if isinstance(v, (float, np.floating)) else str(v)


def write_csv(path: Path, comments, columns, rows):
    lines = [f"# {c}" for c in comments]
    lines.append("# columns: " + ",".join(columns))
    for row in rows:
        lines.append(",".join(map(format_value, row)))
    Path(path).write_text("\n".join(lines) + "\n")
