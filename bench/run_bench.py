"""Benchmark latcb's experiment sweeps end to end and, traced, layer by layer.

    python3 bench/run_bench.py --workload NAME --seed N --seconds S --trace 0|1

Runs whole rounds of the workload's operations until ``--seconds`` have
passed and prints, as its last line, one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  Untraced runs report
``setup_s`` (median over fresh processes), ``run_s`` (one round, as the
sum of per-operation medians) and ``peak_rss_mb``; traced runs report
per-layer self time and work counts per round.  ``--workload all`` runs
every workload in turn and prints a table.  See bench/README.md.
"""

import os

# one thread for BLAS/OpenMP, set before numpy is first imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
NAMES = tuple(workloads.WORKLOADS)
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 60

# The shared host runs the same code up to a third slower for seconds to
# minutes at a time.  After every set-up probe and every operation the run
# therefore times a fixed numpy calibration chunk, repeated for at least
# CALIBRATION_SHARE of the measured time, and scales the measured time by
# REFERENCE_CHUNK_S / (mean chunk time just before and just after it):
# setup_s and run_s are seconds at the machine speed at which one chunk
# takes REFERENCE_CHUNK_S.
CALIBRATION_SHARE = 0.05
REFERENCE_CHUNK_S = 0.02


def import_latcb():
    """latcb from this checkout's sources, never from an installed copy."""
    if not (SRC / "latcb" / "__init__.py").is_file():
        sys.exit(f"latcb sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import latcb
    import latcb.cli

    if Path(latcb.__file__).resolve().parent != SRC / "latcb":
        sys.exit(f"imported latcb from {latcb.__file__}, not from {SRC}")
    return latcb


def prepare(latcb, workload: str, seed: int, workdir: Path) -> list:
    inputs, out = workdir / "inputs", workdir / "out"
    inputs.mkdir(parents=True)
    out.mkdir()
    return workloads.WORKLOADS[workload](latcb, seed, inputs, out)


def setup_seconds(workload: str, seed: int, rundir: Path) -> float:
    """From a fresh process start until latcb is imported and inputs are ready."""
    probe_dir = rundir / "probe"
    shutil.rmtree(probe_dir, ignore_errors=True)
    t0 = time.monotonic_ns()
    proc = subprocess.run(
        [sys.executable, __file__, "--workload", workload, "--seed", str(seed),
         "--setup-probe", str(probe_dir)],
        capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
    )
    if proc.returncode != 0:
        sys.exit(f"set-up probe failed:\n{proc.stderr}")
    return (int(proc.stdout.split()[-1]) - t0) / 1e9


class Calibration:
    """Fixed numpy work in latcb's styles: stencil loops over small arrays,
    trigonometric sums over point batches, batched small eigenproblems."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self.stencils = 0.01 * rng.standard_normal((256, 6, 1))
        self.phase = np.outer(rng.random(2048), np.arange(64.0))
        self.blocks = rng.standard_normal((8192, 2, 2))
        self.chunks: list[float] = []
        self.measured: list[float] = []
        self.last = None

    def _chunk(self) -> float:
        t0 = time.perf_counter()
        for _ in range(100):
            g = np.roll(self.stencils, 1, axis=0) - self.stencils
            r = np.sqrt(np.sum(g * g, axis=-1)) + 1.0
            np.sum(r**-13 - 2.0 * r**-7)
        np.real(np.exp(2j * np.pi * self.phase)).sum(axis=1)
        np.linalg.eigvalsh(self.blocks @ self.blocks.transpose(0, 2, 1))
        return time.perf_counter() - t0

    def scaled(self, measured: float) -> float:
        """``measured`` seconds at the reference speed, judged from the chunks
        timed just before (after the previous measurement) and just after."""
        chunks = [self._chunk()]
        while sum(chunks) < CALIBRATION_SHARE * measured:
            chunks.append(self._chunk())
        after = statistics.fmean(chunks)
        before = self.last if self.last is not None else after
        self.last = after
        self.chunks += chunks
        self.measured.append(measured)
        return measured * REFERENCE_CHUNK_S / (0.5 * (before + after))


def run_round(ops, tracer, first_run_id: int, problems: Counter,
              calibration: Calibration) -> tuple[list, int]:
    """One pass over the operations: scaled latcb time per operation, failed count."""
    busy, failed = [], 0
    sink = io.StringIO()
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.run_id = first_run_id + i
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            t0 = time.perf_counter()
            try:
                result = op.call()
            except Exception as exc:  # a crash is a failed operation, not a benchmark error
                result = exc
            measured = time.perf_counter() - t0
        busy.append(calibration.scaled(measured))
        try:
            if isinstance(result, Exception):
                raise workloads.Failed(f"{op.name}: {type(result).__name__}: {result}")
            op.check(result)
        except workloads.Failed as exc:
            failed += 1
            problems[f"FAILED {exc}"] += 1
        except Exception as exc:  # Wrong, or an artifact the check cannot read
            problems[f"WRONG {op.name}: {exc}"] += 1
    return busy, failed


def pin_to_one_cpu() -> None:
    """Keep this process and its children on one CPU: a migration between
    the host's unevenly shared CPUs changes the speed mid-operation."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def run_workload(args) -> dict:
    latcb = import_latcb()
    rundir = ROOT / ".bench_runs" / args.workload
    shutil.rmtree(rundir, ignore_errors=True)
    rundir.mkdir(parents=True)
    pin_to_one_cpu()
    calibration = Calibration()
    setup_times = []
    if not args.trace:
        for _ in range(SETUP_PROBES):
            probe = setup_seconds(args.workload, args.seed, rundir)
            setup_times.append(calibration.scaled(probe))
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
    ops = prepare(latcb, args.workload, args.seed, rundir)

    problems: Counter = Counter()
    times, failed, rounds = [], 0, 0
    start = time.perf_counter()
    while True:
        busy, n_failed = run_round(ops, tracer, rounds * len(ops), problems, calibration)
        times.append(busy)
        failed += n_failed
        rounds += 1
        elapsed = time.perf_counter() - start
        # whole rounds only; start another only if it should end in time
        if elapsed + elapsed / rounds > args.seconds:
            break
    for message, count in sorted(problems.items()):
        print(f"{count}x {message}", file=sys.stderr)

    # a round's time as the sum of per-operation medians, robust to a stall
    # that hits a different operation in each round and to the first
    # round's lazy imports and heap growth
    run_s = sum(statistics.median(op_times) for op_times in zip(*times))
    (rundir / "timings.json").write_text(json.dumps({
        "operations": [op.name for op in ops], "scaled_rounds": times,
        "scaled_setup_probes": setup_times, "calibration_chunks": calibration.chunks,
        "measured": calibration.measured,
    }))
    if args.trace:
        tracer.write(rundir / "spans.jsonl")
        speed = REFERENCE_CHUNK_S / statistics.fmean(calibration.chunks)
        metrics = tracer.layer_metrics(rounds, speed)
        metrics.update(tracing.source_loc(SRC / "latcb"))
        metrics["traced.run_s"] = {"value": run_s, "unit": "s"}
        metrics["calibration.speed"] = {"value": speed, "unit": "x"}
    else:
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "run_s": {"value": run_s, "unit": "s"},
            "peak_rss_mb": {"value": peak, "unit": "MB"},
        }
    wrong = any(m.startswith("WRONG") for m in problems)
    return {
        "correct": not wrong,
        "attempted": rounds * len(ops),
        "failed": failed,
        "metrics": metrics,
    }


def run_all(args) -> None:
    """Every workload in its own process, one table row per metric."""
    results = {}
    for name in NAMES:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True,
        )
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            sys.exit(f"workload {name} exited with {proc.returncode}")
        res = json.loads(proc.stdout.splitlines()[-1])
        results[name] = res
        print(f"{name}: correct={res['correct']} attempted={res['attempted']} "
              f"failed={res['failed']}")
        for metric, m in res["metrics"].items():
            print(f"  {metric:<55} {m['value']:>14.6g} {m['unit']}")
    print(json.dumps(results))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", metavar="DIR", help=argparse.SUPPRESS)
    args = parser.parse_args()

    if args.setup_probe:
        prepare(import_latcb(), args.workload, args.seed, Path(args.setup_probe))
        print(time.monotonic_ns())
        return
    if args.workload == "all":
        run_all(args)
        return
    print(json.dumps(run_workload(args)))


if __name__ == "__main__":
    main()
