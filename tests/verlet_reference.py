"""Reference velocity-Verlet stepper that forms new arrays on every step.

This is ``latcb.dynamics._verlet`` as it was before the state was updated
in place and before runs were stepped in lockstep: each step builds
``v_half``, ``x`` and ``v`` as fresh arrays, each snapshot stores the
arrays themselves, and one call steps one run.  ``reference_batch`` has the
lockstep stepper's signature and steps each of its runs alone with it; the
tests swap it in for the library's stepper and compare trajectories bit
for bit.
"""

from __future__ import annotations

import math

import numpy as np

from latcb.dynamics import Trajectory
from latcb.static import SolverError


def reference_verlet(x, v, accel, snap_times, dt_target: float) -> Trajectory:
    """``_verlet`` with a new array for every intermediate state."""
    snap_times = np.asarray(snap_times, dtype=float)
    if (
        snap_times.ndim != 1
        or snap_times.size == 0
        or not snap_times[0] >= 0.0
        or np.any(np.diff(snap_times) <= 0)
    ):
        raise ValueError("snapshot times must be >= 0 and strictly increasing")
    t = 0.0
    a = accel(x, t)
    times, xs, vs = [], [], []
    for t_snap in snap_times:
        span = t_snap - t
        if span > 1e-14:
            n_steps = max(1, int(math.ceil(span / dt_target - 1e-12)))
            dt = span / n_steps
            for _ in range(n_steps):
                v_half = v + 0.5 * dt * a
                x = x + dt * v_half
                t += dt
                a = accel(x, t)
                v = v_half + 0.5 * dt * a
            t = t_snap  # guard accumulated roundoff
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(v))):
            raise SolverError(f"non-finite state at the snapshot t={t:.6g}")
        times.append(t)
        xs.append(x)
        vs.append(v)
    return Trajectory(np.array(times), np.stack(xs), np.stack(vs))


def reference_batch(runs, grad) -> list:
    """``_verlet(runs, grad)`` stepping each run alone with ``reference_verlet``, at
    the acceleration ``-grad``."""
    return [reference_verlet(x, v, lambda y, t, i=i: -grad(y, (i,), [t]), snap, dt_target)
            for i, (x, v, snap, dt_target) in enumerate(runs)]
