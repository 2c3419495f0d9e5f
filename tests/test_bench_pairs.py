"""``scripts/bench_pairs.py``: the pair order, the summary arithmetic, the
per-operation medians, the comparison of the output trees and the refusal of
checkouts in different directories, on canned results and a stub benchmark
(no real bench run)."""

from __future__ import annotations

import importlib.util
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "bench_pairs.py"

_spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

PARENT_RUN_S = [0.20 + 0.01 * i for i in range(10)]  # median 0.245, quartiles 0.2175, 0.2725


def _result(run_s: float, setup_s: float = 0.25, rss: float = 47.0) -> dict:
    metrics = {"setup_s": setup_s, "run_s": run_s, "peak_rss_mb": rss}
    return {"correct": True, "attempted": 4, "failed": 0,
            "metrics": {k: {"value": v, "unit": "s"} for k, v in metrics.items()},
            "operations": {"sweep": run_s - 0.05, "reject": 0.05}}


def _summary(change_run_s: list, better: str = "lower") -> dict:
    parent = [_result(v) for v in PARENT_RUN_S]
    change = [_result(v) for v in change_run_s]
    return bench_pairs.summarize(parent, change, {"run_s": better})["run_s"]


def test_nine_wins_and_a_gap_beyond_the_parent_spread_is_a_gain():
    change = [v - 0.1 for v in PARENT_RUN_S[:9]] + [0.30]  # the last pair is lost
    s = _summary(change)
    assert s["wins"] == 9 and s["pairs"] == 10
    assert s["parent"] == pytest.approx((0.245, 0.2175, 0.2725))
    assert s["change"][0] == pytest.approx(0.145)
    assert s["gap"] == pytest.approx(0.1) and s["parent_iqr"] == pytest.approx(0.055)
    assert s["gain"]


@pytest.mark.parametrize("change, wins", [
    # eight wins: too few, however large the gap
    ([v - 0.1 for v in PARENT_RUN_S[:8]] + [0.30, 0.31], 8),
    # every pair won, but by less than the parent's interquartile distance
    ([v - 0.05 for v in PARENT_RUN_S], 10),
    # ties count for neither side
    (PARENT_RUN_S, 0),
])
def test_too_few_wins_or_a_small_gap_is_no_gain(change, wins):
    s = _summary(change)
    assert s["wins"] == wins and not s["gain"]


@pytest.mark.parametrize("fault", ["incorrect", "failed"])
def test_an_incorrect_run_or_more_failed_operations_is_no_gain(fault):
    # a clear speed-up in every pair, but one change run is wrong or fails an operation
    parent = [_result(v) for v in PARENT_RUN_S]
    change = [_result(v - 0.1) for v in PARENT_RUN_S]
    if fault == "incorrect":
        change[3]["correct"] = False
    else:
        change[3]["failed"] = 1
    s = bench_pairs.summarize(parent, change, {"run_s": "lower"})["run_s"]
    assert s["wins"] == 10 and s["gap"] > s["parent_iqr"] and not s["gain"]
    # as many failed operations as the parent keeps the verdict
    if fault == "failed":
        parent[5]["failed"] = 1
        assert bench_pairs.summarize(parent, change, {"run_s": "lower"})["run_s"]["gain"]


def test_fewer_than_ten_pairs_are_no_gain():
    parent = [_result(v) for v in PARENT_RUN_S[:9]]
    change = [_result(v - 0.1) for v in PARENT_RUN_S[:9]]
    s = bench_pairs.summarize(parent, change, {"run_s": "lower"})["run_s"]
    assert s["wins"] == 9 and s["gap"] > s["parent_iqr"] and not s["gain"]


def test_higher_is_better_metrics_win_upwards():
    s = _summary([v + 0.1 for v in PARENT_RUN_S], better="higher")
    assert s["wins"] == 10 and s["gap"] == pytest.approx(0.1) and s["gain"]
    assert not _summary([v - 0.1 for v in PARENT_RUN_S], better="higher")["gain"]


def test_pairs_alternate_and_the_summary_is_printed(tmp_path, capsys):
    parent, change = tmp_path / "parent", tmp_path / "change"
    parent.mkdir()
    change.mkdir()
    shutil.copy(ROOT / "BENCHMARK.json", change / "BENCHMARK.json")
    calls = []

    def canned(checkout, workload, seed):
        calls.append((checkout.name, workload, seed))
        i = seed - 7
        return _result(PARENT_RUN_S[i] - (0.1 if checkout == change else 0.0))

    argv = [str(parent), str(change), "--workload", "statics", "--seed", "7"]
    assert bench_pairs.main(argv, run=canned) == 0
    assert [c[0] for c in calls] == ["parent", "change", "change", "parent"] * 5
    assert {c[1:] for c in calls[:2]} == {("statics", 7)}
    assert [c[2] for c in calls] == [seed for seed in range(7, 17) for _ in range(2)]
    out = capsys.readouterr().out.splitlines()
    assert out[:2] == ["parent: 10/10 runs correct, 0/40 operations failed",
                       "change: 10/10 runs correct, 0/40 operations failed"]
    assert out[2].startswith("setup_s: ") and out[2].endswith("wins 0/10; gap 0 vs parent IQR 0: "
                                                               "no gain")
    assert out[3].startswith("run_s: parent 0.245 [0.2175, 0.2725] -> change 0.145 [")
    assert "(-40.8%); wins 10/10; gap 0.1 vs parent IQR 0.055: gain" in out[3]
    assert out[4].startswith("peak_rss_mb: ")
    # each side's median of every operation's per-run median
    assert out[5:7] == ["operation sweep: parent 0.195 s -> change 0.095 s (-51.3%)",
                        "operation reject: parent 0.05 s -> change 0.05 s (+0.0%)"]
    # the canned runs write no output tree on either side
    assert out[7:] == ["outputs: identical in 10/10 pairs"]


def test_each_pair_compares_the_output_trees(tmp_path, capsys):
    """After each pair the two checkouts' output trees are compared byte for
    byte: a file whose bytes differ, or that one side lacks, is printed with
    its pair, and the pairs with identical trees are counted."""
    parent, change = tmp_path / "parent", tmp_path / "change"
    for side in (parent, change):
        side.mkdir()
    shutil.copy(ROOT / "BENCHMARK.json", change / "BENCHMARK.json")

    def writing(checkout, workload, seed):
        # each run rewrites its tree, as the benchmark does
        out = checkout / ".bench_runs" / workload / "out"
        shutil.rmtree(out, ignore_errors=True)
        (out / "sub").mkdir(parents=True)
        (out / "a.csv").write_text(f"{seed}\n" + ("1.0\n" if checkout == change and seed == 9
                                                   else "1.00\n"))
        (out / "sub" / "b.json").write_text(f"{seed}")
        if checkout == change and seed == 12:
            (out / "sub" / "extra.txt").write_text("x")
        if checkout == parent and seed == 14:
            (out / "a.csv").unlink()
        return _result(0.2)

    argv = [str(parent), str(change), "--workload", "spectra", "--seed", "7"]
    assert bench_pairs.main(argv, run=writing) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[-4:] == ["output differs in pair 2: a.csv",
                        "output differs in pair 5: sub/extra.txt",
                        "output differs in pair 7: a.csv",
                        "outputs: identical in 7/10 pairs"]
    assert bench_pairs.differing_outputs(parent, change, "spectra") == []
    assert bench_pairs.differing_outputs(parent, change, "statics") == []


RUN_BENCH_STUB = """
import json, pathlib, sys
workload, seed = sys.argv[2], int(sys.argv[4])
rundir = pathlib.Path(".bench_runs") / workload
rundir.mkdir(parents=True, exist_ok=True)
rounds = [[0.10 + seed, 0.02], [0.30 + seed, 0.01], [0.20 + seed, 0.03]]
(rundir / "timings.json").write_text(json.dumps({"operations": ["sweep", "reject"],
                                                 "scaled_rounds": rounds}))
print("a progress line")
print(json.dumps({"correct": True, "attempted": 6, "failed": 0, "metrics": {}}))
"""


def test_each_run_reads_its_operation_medians_right_after_it(tmp_path):
    # the stub benchmark writes its timings.json in the checkout it runs in,
    # with per-round times that depend on the seed
    (tmp_path / "bench").mkdir()
    (tmp_path / "bench" / "run_bench.py").write_text(RUN_BENCH_STUB)
    for seed in (0, 2):
        result = bench_pairs.run_bench(tmp_path, "shadowing", seed)
        assert result["attempted"] == 6
        assert result["operations"] == {"sweep": pytest.approx(0.20 + seed), "reject": 0.02}


def test_checkouts_in_different_directories_are_refused(tmp_path):
    # setup_s depends on the directory: the script runs nothing and exits 2
    (tmp_path / "a" / "parent").mkdir(parents=True)
    (tmp_path / "b" / "change").mkdir(parents=True)
    proc = subprocess.run([sys.executable, str(SCRIPT), str(tmp_path / "a" / "parent"),
                           str(tmp_path / "b" / "change"), "--workload", "statics"],
                          capture_output=True, text=True)
    assert proc.returncode == 2 and proc.stdout == ""
    assert "lie in different directories" in proc.stderr


def test_checkouts_with_and_without_cached_byte_code_are_refused(tmp_path, capsys):
    # with PYTHONDONTWRITEBYTECODE set, the side without the cache compiles
    # latcb in every set-up probe: +31 ms (20%) of statics setup_s measured
    for side in ("parent", "change"):
        (tmp_path / side).mkdir()
    (tmp_path / "change" / "src" / "latcb" / "__pycache__").mkdir(parents=True)

    def no_run(*args):
        raise AssertionError("a benchmark ran")

    argv = [str(tmp_path / "parent"), str(tmp_path / "change"), "--workload", "statics"]
    assert bench_pairs.main(argv, run=no_run) == 2
    assert f"only {tmp_path / 'change'} has src/latcb/__pycache__" in capsys.readouterr().err


def test_a_run_without_a_result_exits_one(tmp_path, capsys):
    for side in ("parent", "change"):
        (tmp_path / side).mkdir()
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "change" / "BENCHMARK.json")
    # both checkouts lack bench/run_bench.py, so the first run prints nothing
    assert bench_pairs.main([str(tmp_path / "parent"), str(tmp_path / "change"),
                             "--workload", "statics", "--pairs", "2"]) == 1
    assert "printed no result" in capsys.readouterr().err
