"""Run-to-run spread of the benchmark's metrics over several seeds.

    python3 bench/spread.py --workloads shadowing statics --seeds 1-10 --seconds 20 [--trace 1]

Runs ``run_bench.py`` once per (workload, seed), one after another, and
prints per workload and metric the median, the first and third quartiles
(``statistics.quantiles(values, n=4)``) and the interquartile distance as
a share of the median, plus the share of failed operations.  This is how
the reference figures in bench/README.md were made.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seed_range(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    summary = {}
    for workload in args.workloads:
        values: dict = {}
        shares = set()
        for seed in args.seeds:
            proc = subprocess.run(
                [sys.executable, str(HERE / "run_bench.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds),
                 "--trace", str(args.trace)],
                capture_output=True, text=True,
            )
            if proc.returncode != 0:
                sys.exit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
            res = json.loads(proc.stdout.splitlines()[-1])
            if not res["correct"]:
                sys.exit(f"{workload} seed {seed} is not correct:\n{proc.stderr}")
            shares.add((res["failed"], res["attempted"]))
            for name, m in res["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(workload, seed, json.dumps(res), file=sys.stderr, flush=True)
        ratios = {f / a for f, a in shares}
        print(f"{workload}: failed share {sorted(ratios)} over {len(args.seeds)} runs")
        rows = {}
        for name, vals in values.items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else 0.0
            rows[name] = {"median": med, "q1": q1, "q3": q3, "iqr_share": spread}
            print(f"  {name:<55} median {med:<12.6g} q1 {q1:<12.6g} q3 {q3:<12.6g} "
                  f"iqr/median {spread:.4f}")
        summary[workload] = rows
    print(json.dumps(summary))


if __name__ == "__main__":
    main()
