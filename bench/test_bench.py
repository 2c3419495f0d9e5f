"""Checks of the benchmark's own arithmetic: span self time and the oracles.

    python3 -m pytest -q bench/test_bench.py
"""

import itertools
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))

import oracles  # noqa: E402
import tracing  # noqa: E402


def test_self_time_subtracts_direct_children(monkeypatch):
    clock = itertools.count(0, 10)  # every clock read advances 10 ns
    monkeypatch.setattr(tracing.time, "perf_counter_ns", lambda: next(clock))
    tracer = tracing.Tracer()
    leaf = tracer.wrap("leaf", lambda: None)
    mid = tracer.wrap("mid", lambda: leaf())
    top = tracer.wrap("top", lambda: (mid(), leaf()))
    top()
    spans = {s[0]: s for s in tracer.spans if s[0] != "leaf"}
    # top: reads at 0 and 70; mid: 10 and 40 with leaf 20-30 inside; leaf: 50-60
    assert spans["top"][1:3] == [0, 70] and spans["top"][5] == 30 + 10
    assert spans["mid"][5] == 10
    names = [s[0] for s in tracer.spans]
    assert names == ["top", "mid", "leaf", "leaf"]
    assert [s[3] for s in tracer.spans] == [-1, 0, 1, 0]


def test_loglog_slope_of_a_power_law():
    eps = 1.0 / 2.0 ** np.arange(3, 8)
    assert abs(oracles.loglog_slope(eps, 3.0 * eps**2) - 2.0) < 1e-12


def test_harmonic_solve_against_dense_hessian():
    a1, a2, N = 2.0, -0.25, 16
    H = np.stack([oracles.harmonic_chain_gradient(e, a1, a2) for e in np.eye(N)], axis=1)
    f = np.random.default_rng(0).standard_normal(N)
    f -= f.mean()
    u = oracles.harmonic_chain_solve(f, a1, a2)
    assert abs(u.mean()) < 1e-14
    assert np.max(np.abs(H @ u - f)) < 1e-12


def test_ball_directions_match_the_stencil_sizes():
    assert len(oracles.ball_directions(1, 3.0)) == 6
    assert len(oracles.ball_directions(2, 2.0)) == 12
    assert len(oracles.ball_directions(2, 1.5)) == 8
