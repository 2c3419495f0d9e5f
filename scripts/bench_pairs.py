#!/usr/bin/env python3
"""Compare two checkouts on one benchmark workload in alternating pairs.

Usage: python3 scripts/bench_pairs.py PARENT CHANGE --workload W [--pairs 10]
       [--seed S]

Pair ``i`` runs ``bench/run_bench.py --workload W --seed S+i`` of each
checkout, at that benchmark's own run length, one after the other, the
parent first in even pairs and the change first in odd ones.  For every end-to-end metric of the change's
``BENCHMARK.json`` the script prints each side's median and quartiles
(``statistics.quantiles(values, n=4)``), the change's wins (a tie counts
for neither side) and the verdict: a gain needs at least ten pairs, wins
in at least nine tenths of them, a median better by more than the
parent's interquartile distance, every change run correct and no more
failed operations than the parent.  It also prints each side's correctness
and failed-operation share, and each side's median time of every operation:
right after each run the script reads that run's per-operation medians over
its rounds from ``.bench_runs/W/timings.json`` in the checkout, so a gain can
be tied to the operation that carries it.

``setup_s`` depends on the directory a checkout lies in, and on whether
latcb's byte code is cached in ``src/latcb/__pycache__`` (with
``PYTHONDONTWRITEBYTECODE`` set, a checkout without the cache compiles
latcb in every set-up probe).  So the script exits 2 before running
anything when the checkouts do not share one parent directory or only one
of them has that cache.  It exits 1 when a run prints no result and 0 once
the summary is printed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

WIN_SHARE, MIN_PAIRS = 0.9, 10


def run_bench(checkout: Path, workload: str, seed: int) -> dict:
    """The result object a checkout's benchmark prints as its last line."""
    proc = subprocess.run(
        [sys.executable, str(checkout / "bench" / "run_bench.py"), "--workload", workload,
         "--seed", str(seed), "--trace", "0"],
        capture_output=True, text=True, cwd=checkout,
    )
    lines = proc.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        raise RuntimeError(f"{checkout} seed {seed} printed no result "
                           f"(exit {proc.returncode}):\n{proc.stderr}") from None
    result["operations"] = operation_medians(checkout / ".bench_runs" / workload / "timings.json")
    return result


def operation_medians(timings: Path) -> dict:
    """Each operation's median time over the rounds of a run's ``timings.json``."""
    t = json.loads(timings.read_text())
    return {name: statistics.median(times)
            for name, times in zip(t["operations"], zip(*t["scaled_rounds"]))}


def _quartiles(values: list) -> tuple[float, float, float]:
    """Median, first and third quartile."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3


def summarize(parent: list[dict], change: list[dict], metrics: dict[str, str]) -> dict:
    """Per metric (name -> "lower" or "higher" is better): each side's median
    and quartiles, the change's wins over the pairs, and whether it is a gain.
    No metric is a gain when a change run is not correct or the change fails
    more operations than the parent."""
    sound = (all(r["correct"] for r in change)
             and sum(r["failed"] for r in change) <= sum(r["failed"] for r in parent))
    out = {}
    for name, better in metrics.items():
        a = [r["metrics"][name]["value"] for r in parent]
        b = [r["metrics"][name]["value"] for r in change]
        sign = 1.0 if better == "lower" else -1.0
        wins = sum(sign * (x - y) > 0 for x, y in zip(a, b))
        pa, pb = _quartiles(a), _quartiles(b)
        gap, iqr = sign * (pa[0] - pb[0]), pa[2] - pa[1]
        out[name] = {"parent": pa, "change": pb, "wins": wins, "pairs": len(a), "gap": gap,
                     "parent_iqr": iqr,
                     "gain": sound and len(a) >= MIN_PAIRS and wins >= WIN_SHARE * len(a)
                     and gap > iqr}
    return out


def report(summary: dict, parent: list[dict], change: list[dict]) -> str:
    lines = []
    for side, runs in (("parent", parent), ("change", change)):
        failed = sum(r["failed"] for r in runs)
        attempted = sum(r["attempted"] for r in runs)
        correct = sum(bool(r["correct"]) for r in runs)
        lines.append(f"{side}: {correct}/{len(runs)} runs correct, "
                     f"{failed}/{attempted} operations failed")
    for name, s in summary.items():
        (ma, qa1, qa3), (mb, qb1, qb3) = s["parent"], s["change"]
        rel = (mb - ma) / ma if ma else 0.0
        lines.append(
            f"{name}: parent {ma:.6g} [{qa1:.6g}, {qa3:.6g}] -> change {mb:.6g} "
            f"[{qb1:.6g}, {qb3:.6g}] ({rel:+.1%}); wins {s['wins']}/{s['pairs']}; "
            f"gap {s['gap']:.4g} vs parent IQR {s['parent_iqr']:.4g}: "
            + ("gain" if s["gain"] else "no gain"))
    for op in (op for op in parent[0]["operations"] if op in change[0]["operations"]):
        ma, mb = (statistics.median(r["operations"][op] for r in runs) for runs in (parent, change))
        rel = (mb - ma) / ma if ma else 0.0
        lines.append(f"operation {op}: parent {ma:.6g} s -> change {mb:.6g} s ({rel:+.1%})")
    return "\n".join(lines)


def main(argv: list[str], run=run_bench) -> int:
    parser = argparse.ArgumentParser(description=__doc__.strip().splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=0, help="seed of the first pair")
    args = parser.parse_args(argv)
    parent, change = args.parent.resolve(), args.change.resolve()
    if parent.parent != change.parent:
        print(f"{parent} and {change} lie in different directories; setup_s depends on "
              "the directory, so copy both checkouts under one", file=sys.stderr)
        return 2
    cached = [(c / "src" / "latcb" / "__pycache__").is_dir() for c in (parent, change)]
    if cached[0] != cached[1]:
        print(f"only {(parent, change)[cached[1]]} has src/latcb/__pycache__; setup_s would "
              "compare a cached import with a compiled one", file=sys.stderr)
        return 2
    if args.pairs < 2:
        print("--pairs must be at least 2 for quartiles", file=sys.stderr)
        return 2
    spec = json.loads((change / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m["better"] for m in spec["end_to_end"]}
    checkouts, runs = (parent, change), ([], [])
    try:
        for i in range(args.pairs):
            for side in ((0, 1) if i % 2 == 0 else (1, 0)):
                runs[side].append(run(checkouts[side], args.workload, args.seed + i))
    except RuntimeError as exc:
        print(exc, file=sys.stderr)
        return 1
    print(report(summarize(*runs, metrics), *runs))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
