"""``scripts/repin_diff.py``: what it reports for identical, shifted and changed trees."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "repin_diff.py"

CSV = "# latcb 0.1\n# columns: eps,error\n0.125,1.5e-08\n0.0625,3.75e-09\n"
REPORT = {"name": "sweep", "passed": True, "rate": {"slope": 2.0}}


def _tree(root: Path, csv: str = CSV, report: dict = REPORT) -> Path:
    """One experiment's artifacts plus its exit code, as a re-pin run leaves them."""
    (root / "sweep").mkdir(parents=True)
    (root / "sweep" / "sweep.csv").write_text(csv)
    (root / "sweep" / "sweep.report.json").write_text(json.dumps(report, indent=2))
    (root / "sweep" / "exit").write_text("0\n")
    return root


def _diff(parent: Path, change: Path) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(SCRIPT), str(parent), str(change)],
                          capture_output=True, text=True)


def test_identical_trees_have_no_shifts(tmp_path):
    proc = _diff(_tree(tmp_path / "a"), _tree(tmp_path / "b"))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "no numeric shifts\n"


def test_a_shifted_cell_is_one_table_row(tmp_path):
    shifted = CSV.replace("3.75e-09", "3.75000003e-09")
    proc = _diff(_tree(tmp_path / "a"), _tree(tmp_path / "b", csv=shifted))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[2:] == [
        "| sweep/sweep.csv | error | 1 | 3.75e-09 | 3.75000003e-09 | 8e-09 |"]


@pytest.mark.parametrize("change", ["extra_file", "flipped_passed"])
def test_non_numeric_differences_exit_one(tmp_path, change):
    parent = _tree(tmp_path / "a")
    if change == "extra_file":
        child = _tree(tmp_path / "b")
        (child / "sweep" / "stray.txt").write_text("left over\n")
        problem = "NON-NUMERIC sweep/stray.txt: only in"
    else:
        child = _tree(tmp_path / "b", report={**REPORT, "passed": False})
        problem = "NON-NUMERIC sweep/sweep.report.json: passed: True -> False"
    proc = _diff(parent, child)
    assert proc.returncode == 1
    assert problem in proc.stdout
