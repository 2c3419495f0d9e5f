"""``scripts/traffic.py``: the functions and methods of latcb that a run never entered."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "traffic.py"


def test_a_stability_run_lists_the_stepper_but_not_the_zone_minimum():
    proc = subprocess.run([sys.executable, str(SCRIPT),
                           str(ROOT / "configs" / "stability_chain_stable.json")],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    unused = proc.stdout.splitlines()
    assert "stability._zone_min" not in unused
    assert "dynamics._verlet" in unused
    # import-time code counts: the subclass check runs only when the classes are defined
    assert "potentials.Potential.__init_subclass__" not in unused
    # the run's own output ("PASS ...") is swallowed: every line is one dotted name
    assert unused and all(" " not in name and "." in name for name in unused)
    assert "pool workers are not traced" in proc.stderr
