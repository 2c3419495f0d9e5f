"""``scripts/run_configs.py``: the output tree it writes, as ``scripts/repin_diff.py`` reads it."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "run_configs.py"
CHEAP = [ROOT / "configs" / "stability_chain_stable.json",
         ROOT / "configs" / "static_converge_lj.json"]


def _run_configs(out: Path, *args) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(SCRIPT), str(out), *map(str, args)],
                          capture_output=True, text=True)


def test_two_runs_give_trees_without_shifts(tmp_path):
    # serial and parallel runs of the same configs: repin_diff finds no difference
    for workers in (1, 2):
        proc = _run_configs(tmp_path / f"w{workers}", "--workers", workers, *CHEAP)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "stability_chain_stable: exit 0\nstatic_converge_lj: exit 0\n"
    for config in CHEAP:
        for suffix in ("csv", "report.json", "stdout", "stderr", "exit"):
            assert (tmp_path / "w1" / f"{config.stem}.{suffix}").is_file()
        assert (tmp_path / "w1" / f"{config.stem}.exit").read_text() == "0\n"
        assert (tmp_path / "w1" / f"{config.stem}.stdout").read_text().startswith("PASS ")
    diff = subprocess.run([sys.executable, str(ROOT / "scripts" / "repin_diff.py"),
                           str(tmp_path / "w1"), str(tmp_path / "w2")],
                          capture_output=True, text=True)
    assert diff.returncode == 0, diff.stdout
    assert diff.stdout == "no numeric shifts\n"


def test_a_failing_run_is_recorded(tmp_path):
    # a config error exits 2 in the run, not in the script
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"experiment": "stability", "potential": {"variant": "nope"}}))
    proc = _run_configs(tmp_path / "out", bad)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "bad: exit 2\n"
    assert (tmp_path / "out" / "bad.exit").read_text() == "2\n"
    assert (tmp_path / "out" / "bad.stderr").read_text().startswith("config error: ")
    assert (tmp_path / "out" / "bad.stdout").read_text() == ""
