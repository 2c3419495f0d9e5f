"""Lattice dynamics versus the Cauchy-Born wave equation.

The atomistic side integrates Newtonian dynamics (unit masses) with
velocity Verlet at a CFL fraction of the maximal phonon frequency; the
continuum side solves the nonlinear Cauchy-Born wave equation
``U_tt = d/dX S(U_X)`` pseudo-spectrally with the same integrator.  Under
the parabolic-type scaling (micro time = macro time / eps) smooth
solutions shadow each other to second order in the spacing until a fixed
macroscopic horizon, which the error sweep measures.  The instability
demonstration integrates the harmonic chain with a negative stability
constant and exhibits the exponential growth of a zone-boundary velocity
perturbation that the (stable) continuum model cannot see.
"""

from __future__ import annotations

import itertools
import math
import os
from dataclasses import dataclass

import numpy as np

from .fields import TrigField, _require_resolved
from .lattice import DisplacementField, LatticeSpec, stacked_plan, supercell_period
from .potentials import (
    AdmissibilityError,
    HarmonicChain,
    Potential,
    gradient_array,
    total_energy,
)
from .stability import max_frequency
from .static import SolverError, interp_gradient_gap, interp_value_gap
from .static import _hat_transfer, _require_stable, _spectral_ddx
from .stress import CBModel

__all__ = [
    "InitialData",
    "Trajectory",
    "make_initial_data",
    "integrate_atomistic",
    "solve_cb_wave",
    "dynamic_error_sweep",
    "instability_demo",
]


# ---------------------------------------------------------------------------
# data containers
# ---------------------------------------------------------------------------

@dataclass
class InitialData:
    """Macroscopic displacement/velocity pair (band-limited fields)."""

    U0: TrigField
    U1: TrigField

    def __post_init__(self):
        if self.U0.d != self.U1.d or self.U0.n_components != self.U1.n_components:
            raise ValueError("displacement and velocity fields must match in shape")


@dataclass
class Trajectory:
    """Snapshot record of either integrator: lattice values or continuum grids.

    ``u`` and ``v`` stack the state and velocity at each snapshot, shape
    ``(n_snap,) + state shape``.  Quantities of the motion, such as its
    energy, are computed from the snapshots by the code that reports them.
    """

    times: np.ndarray
    u: np.ndarray
    v: np.ndarray


def make_initial_data(
    data: InitialData, eps: float
) -> tuple[DisplacementField, DisplacementField]:
    """Quasi-interpolated lattice initial data for a macroscopic pair.

    Displacements are the site samples of ``zeta * (eps^-1 U0(eps .))``,
    velocities of ``zeta * (U1(eps .))`` (velocities carry no eps scaling
    under the two-scale time parametrization).  Both convolutions are exact:
    each mode ``m`` is multiplied by ``prod_a sinc(m_a eps)^2`` and the
    smoothed field is evaluated at ``eps xi``.
    """
    return _hat_transfer(data.U0, eps, 1.0 / eps), _hat_transfer(data.U1, eps, 1.0)


# ---------------------------------------------------------------------------
# time stepping (shared by the lattice and the continuum)
# ---------------------------------------------------------------------------

def _schedule(snap_times, dt_target: float) -> dict:
    """``{lockstep step: (times, h)}`` of one run from step 0: the snapshot times it
    records there (one within 1e-14 of the current time records that time) and the
    size ``h <= dt_target`` of the equal steps it takes next (None after the last)."""
    snap_times = np.asarray(snap_times, dtype=float)
    times = snap_times.tolist()
    if (
        snap_times.ndim != 1
        or not times
        or not 0.0 <= times[0] <= times[-1] < math.inf
        or not all(b - a > 0 for a, b in zip(times, times[1:]))  # NaN fails too
    ):
        raise ValueError("snapshot times must be finite, >= 0 and strictly increasing")
    if not 0.0 < dt_target < math.inf:
        raise ValueError(f"the time step {dt_target:.6g} is not a finite positive number")
    step, t, table = 0, 0.0, {0: ([], None)}
    for t_snap in times:
        span = t_snap - t
        if span > 1e-14:
            n_steps = max(1, int(math.ceil(span / dt_target - 1e-12)))
            table[step] = (table[step][0], span / n_steps)
            step, t = step + n_steps, t_snap  # snapshots land exactly, whatever the roundoff
            table[step] = ([], None)
        table[step][0].append(t)
    return table


def _verlet(runs, grad) -> list:
    """Velocity Verlet from t = 0 of several runs in lockstep, one ``grad`` per step.

    Each run is ``(x, v, snap_times, dt_target)`` and records a snapshot
    (time, state, velocity) at each of its snapshot times.  Snapshot times
    must be finite, nonnegative and strictly increasing, the step target a
    finite positive number and ``v`` of the shape of ``x``, else ValueError
    before any step.
    Each snapshot interval is split into equal steps no longer than
    ``dt_target`` so snapshots land exactly (``_schedule``), and a snapshot
    at the current time records without stepping.

    The states are stacked along the first axis, the runs with more steps
    first (ties in the order given), so the runs still stepping fill a
    prefix of the stack.  Every step calls ``grad(x, live, t)`` once on
    that prefix for the negative acceleration (the energy gradient):
    ``live`` holds the indices of its runs in stacking order (a new tuple
    only when a run ends) and ``t`` their current times.  The runs step
    from event to event of their schedules; at each event a run records
    its snapshots and, entering an interval, sets its rows of the per-row
    arrays of ``0.5 dt`` and ``dt``.  Each step's half kicks
    ``v -= (0.5 dt) g`` and drift ``x += dt v`` multiply by those arrays
    into a ``kick`` and a ``drift`` buffer.  A step's closing half kick and
    the next step's opening one are the same product, so it is formed once;
    only after an event (new step rows, or a shorter prefix) is it formed
    again.  Elementwise that is the scalar product, and ``v - h g`` is
    ``v + h (-g)``, so each run has the bits of stepping it alone with the
    acceleration ``-g``.  A snapshot copies the run's rows.

    Failures: the earliest lockstep step at which a run fails raises, and
    within a step the gradient comes before the snapshots.  When ``grad``
    raises ``SolverError`` on several live runs, it is called on each one's
    rows alone, in the order given, and the first error propagates as it
    is, in that run's words, time and cause (if none, ``AssertionError``).
    A non-finite snapshot raises ``SolverError`` with its run's time.
    Returns one ``Trajectory`` per run, in the order given.
    """
    for i, (x0, v0, _, _) in enumerate(runs):
        if np.shape(v0) != np.shape(x0):
            raise ValueError(f"run {i}: the velocity's shape {np.shape(v0)} "
                             f"differs from the state's {np.shape(x0)}")
    tables = [_schedule(snap, dt_target) for _, _, snap, dt_target in runs]
    totals = [max(table) for table in tables]
    order = sorted(range(len(runs)), key=totals.__getitem__, reverse=True)
    where = sorted(range(len(runs)), key=order.__getitem__)  # each run's stacking position
    live, step, k_views = tuple(order), 0, None
    bounds = list(itertools.accumulate((len(runs[i][0]) for i in order), initial=0))

    def accel(x, live, t):
        try:
            return grad(x, live, t)
        except SolverError as exc:
            if len(live) == 1:
                raise
            batch_error = exc
        # a batch fails as its first run, in the order given, that fails alone
        for p in sorted(range(len(live)), key=live.__getitem__):
            grad(x[bounds[p]:bounds[p + 1]], live[p:p + 1], t[p:p + 1])
        raise AssertionError("the batch fails but none of its runs does alone") from batch_error

    x = np.concatenate([runs[i][0] for i in order])
    t = np.zeros(len(runs))  # each run's time, in stacking order
    g = accel(x, live, t)
    v = np.concatenate([runs[i][1] for i in order])
    dt, half, kick, drift = (np.empty_like(x) for _ in range(4))
    t_step = np.zeros_like(t)
    snaps = [([], [], []) for _ in runs]
    for stop in sorted(set().union(*tables)):
        if step < stop:
            k = sum(total >= stop for total in totals)
            if k != k_views:  # a run has ended: step the shorter prefix
                k_views, live, n = k, tuple(order[:k]), bounds[k]
                xk, vk, dtk, halfk, kickk, driftk, g = (
                    arr[:n] for arr in (x, v, dt, half, kick, drift, g))
                tk, t_stepk = t[:k], t_step[:k]
            np.multiply(halfk, g, out=kickk)  # the events have set new step rows
            while step < stop:
                vk -= kickk
                xk += np.multiply(dtk, vk, out=driftk)
                tk += t_stepk
                step += 1
                g = accel(xk, live, tk)
                vk -= np.multiply(halfk, g, out=kickk)
        for i, table in enumerate(tables):
            if stop not in table:
                continue
            p, (times, h) = where[i], table[stop]
            r0, r1 = bounds[p], bounds[p + 1]
            xp, vp = x[r0:r1], v[r0:r1]
            for t_rec in times:
                t[p] = t_rec
                if not (np.isfinite(xp).all() and np.isfinite(vp).all()):
                    raise SolverError(f"non-finite state at the snapshot t={t_rec:.6g}")
                snaps[i][0].append(t_rec)
                snaps[i][1].append(xp.copy())
                snaps[i][2].append(vp.copy())
            if h is not None:
                dt[r0:r1], half[r0:r1], t_step[p] = h, 0.5 * h, h
    return [Trajectory(np.array(times), np.stack(xs), np.stack(vs)) for times, xs, vs in snaps]


# ---------------------------------------------------------------------------
# atomistic integrator
# ---------------------------------------------------------------------------

def integrate_atomistic(
    P: Potential,
    u0: DisplacementField,
    v0: DisplacementField,
    snap_times,
    cfl: float = 0.2,
) -> Trajectory:
    """Velocity-Verlet integration with snapshots at prescribed times.

    The step size is ``cfl / max phonon frequency``; each snapshot interval
    is subdivided evenly so snapshots land exactly.  Admissibility of the
    stencil field is checked on every step and a violation aborts with the
    simulation time in the message.  Snapshots hold the site values and
    velocities, shape ``(n_snap,) + u0.values.shape``; the total energy
    (``total_energy`` plus the kinetic ``|v|^2 / 2``) of each snapshot
    drifts by O(dt^2) under this symplectic integrator.
    """
    return _integrate_runs(P, [(u0, v0, snap_times, cfl)])[0]


def _integrate_runs(P: Potential, runs) -> list:
    """``integrate_atomistic`` of several runs ``(u0, v0, snap_times, cfl)`` of one
    potential, in lockstep (see ``_verlet``), each with its own bits.

    Every step evaluates the forces once, on the live runs' cells laid end
    to end (``stacked_plan``, built once per set of live runs).  An
    inadmissible state raises ``SolverError`` with the time and the norm; in
    a batch, ``_verlet`` names the first run, in the order given, whose own
    state is inadmissible, with its own time and norm.
    """
    w, d = max_frequency(P), P.d
    cells = [u0.values.shape[:-1] for u0, *_ in runs]
    plans = {}

    def grad(x, live, t):
        plan = plans.get(live)
        if plan is None:
            plan = plans[live] = stacked_plan([cells[i] for i in live], P.S)
        try:
            return gradient_array(P, x, plan)
        except AdmissibilityError as exc:
            raise SolverError(f"dynamics left the admissible region at t={t[0]:.6g}: {exc}")

    trajs = _verlet([(u0.values.reshape(-1, d), v0.values.reshape(-1, d), snap, cfl / w)
                     for u0, v0, snap, cfl in runs], grad)
    return [Trajectory(tr.times, tr.u.reshape(tr.u.shape[:1] + u0.values.shape),
                       tr.v.reshape(tr.v.shape[:1] + u0.values.shape))
            for tr, (u0, *_) in zip(trajs, runs)]


# ---------------------------------------------------------------------------
# continuum wave solver (1D pseudo-spectral)
# ---------------------------------------------------------------------------

def solve_cb_wave(
    M: CBModel,
    data: InitialData,
    snap_times,
    n_grid: int = 128,
    cfl: float = 0.2,
) -> Trajectory:
    """Nonlinear Cauchy-Born wave equation on the unit torus (1D).

    Pseudo-spectral in space (derivatives via FFT on ``n_grid`` points),
    velocity Verlet in time.  The step is ``cfl * dx / c_max``, with the
    largest wave speed ``c_max = sqrt(max C(U_X))`` of the initial data,
    fixed for the whole run.  Every step takes the stress and the
    moduli from one bond pass (``CBModel._tangent``) and checks the
    gradient: it must stay in the admissible region, and the smallest
    modulus must stay positive (loss of hyperbolicity); either failure
    aborts with ``SolverError`` and the time.  Snapshots hold displacement
    and velocity on the grid ``X_i = i / n_grid``, shape
    ``(n_snap, n_grid)``.  This is the batch of one of ``_cb_waves``.
    """
    return _cb_waves(M, data, snap_times, n_grid, (cfl,))[0]


def _cb_waves(M: CBModel, data: InitialData, snap_times, n_grid: int, cfls) -> list:
    """``solve_cb_wave`` of the same data at each CFL fraction of ``cfls``, in
    lockstep (see ``_verlet``), each wave with the bits of its own call.

    The wave speed is computed once, from the shared initial data.  The live
    waves are the rows of one array, so every step takes one spectral
    derivative pair and one ``CBModel._tangent`` call on all of them.  A
    failing check raises ``SolverError`` with the time; in a batch,
    ``_verlet`` names the first wave, in the order given, that fails alone,
    in its own words and with its own error as the cause.  A mode of the
    initial data that aliases on the grid is a ValueError (``_require_resolved``).
    """
    if M.P.d != 1 or data.U0.d != 1 or data.U0.n_components != 1:
        raise NotImplementedError("the wave solver is one-dimensional")
    for U in (data.U0, data.U1):
        _require_resolved(U, n_grid)
    U = data.U0.sample(n_grid)[:, 0]
    V = data.U1.sample(n_grid)[:, 0]

    def tangent(Uv, t):
        """Stress and moduli at the gradients U_X of the rows of ``Uv``, once
        they pass both checks (named at the time ``t[0]``)."""
        try:
            s, mods = M._tangent(_spectral_ddx(Uv).reshape(-1, 1, 1))
        except AdmissibilityError as exc:
            raise SolverError(
                f"continuum gradient left the admissible region at T={t[0]:.6g}"
            ) from exc
        if not float(np.min(mods)) > 0.0:
            raise SolverError(
                f"Cauchy-Born wave lost hyperbolicity (modulus <= 0) at T={t[0]:.6g}"
            )
        return s.reshape(Uv.shape), mods

    def grad(x, live, t):
        # Regularity is monitored every step, not just at snapshots: once the
        # gradient leaves the admissible region the quasilinear problem is no
        # longer meaningful and everything downstream would be silent noise.
        a = _spectral_ddx(tangent(x.reshape(len(live), n_grid), t)[0])
        return np.negative(a, out=a).reshape(-1)

    c_max = float(np.sqrt(np.max(tangent(U[None], [0.0])[1])))
    return _verlet([(U, V, snap_times, cfl / (n_grid * c_max)) for cfl in cfls], grad)


# ---------------------------------------------------------------------------
# convergence sweep
# ---------------------------------------------------------------------------

def _map_members(jobs: list, workers: int) -> list:
    """``fn(*args)`` of each sweep job ``(fn, args)`` (``fn`` module-level, to pickle),
    in a process pool when ``workers > 1``, capped at the CPU count and the job
    count.  Results are read in job order, so the first failing job raises first."""
    n_proc = min(workers, os.cpu_count() or 1, len(jobs))
    if n_proc > 1:
        from concurrent.futures import ProcessPoolExecutor  # loads multiprocessing

        with ProcessPoolExecutor(max_workers=n_proc) as pool:
            futures = [pool.submit(fn, *args) for fn, args in jobs]
            return [f.result() for f in futures]
    return [fn(*args) for fn, args in jobs]


def _lattice_runs(P: Potential, data: InitialData, cb_times, runs) -> list:
    """The lattice run of each ``(eps, cfl)`` to the micro times ``cb_times / eps``,
    all in one lockstep batch, from each distinct spacing's initial data built once."""
    starts = {eps: make_initial_data(data, eps) for eps in {eps for eps, _ in runs}}
    return _integrate_runs(P, [(*starts[eps], cb_times / eps, cfl) for eps, cfl in runs])


def _dynamic_member(P: Potential, cb_U, cb_V, traj: Trajectory, eps, q) -> dict:
    """The lattice run ``traj`` at ``eps`` against the continuum snapshots'
    interpolants ``cb_U``, ``cb_V``: the largest snapshot's gradient plus velocity
    gap, and the energy drift ``max_j |E_j - E_0|`` over the lattice snapshots."""
    lattice = LatticeSpec(d=1, A=np.eye(1), N=supercell_period(eps))
    errors, energies = [], []
    for Uj, Vj, uj, vj in zip(cb_U, cb_V, traj.u, traj.v):
        e_grad = interp_gradient_gap(Uj, DisplacementField(lattice, uj), eps, q=q)
        e_vel = interp_value_gap(Vj, DisplacementField(lattice, vj), eps, q=q)
        errors.append(e_grad + e_vel)
        energies.append(total_energy(P, uj) + 0.5 * float(np.sum(vj * vj)))
    energies = np.array(energies)
    return {
        "eps": float(eps),
        "error": float(np.max(errors)),
        "energy_drift": float(np.max(np.abs(energies - energies[0]))),
    }


def dynamic_error_sweep(
    P: Potential,
    data: InitialData,
    T: float,
    eps_list,
    n_snap: int = 17,
    n_grid: int = 128,
    cfl: float = 0.2,
    q: int = 6,
    workers: int = 1,
) -> dict:
    """Shadowing error between lattice dynamics and the Cauchy-Born wave.

    The continuum problem is solved once up to macroscopic time ``T`` with
    snapshots at ``n_snap`` aligned times; each spacing integrates the
    lattice to the corresponding microscopic horizon ``T / eps`` and the
    error is the maximum over snapshots of the scaled gradient gap plus
    velocity gap.  The finest spacing is re-run at half the time step
    (``half_dt``) against a wave also solved at half the step, to confirm
    integration error is subdominant.  The sweep is two pool jobs, each one
    lockstep batch on the shared stepper (``_verlet``): first both waves
    (``_cb_waves``), then every lattice run; the gaps and energy drifts are
    computed after both.  A failing wave raises before any lattice failure.
    Within each batch the run that fails at the earliest lockstep step
    raises in its own words (``_verlet``'s rule); at one step, the sweep's
    wave before the control's, and among the lattice runs the first in
    ``eps_list`` order, the control last.  An unstable reference lattice
    raises SolverError before any solve.
    """
    _require_stable(P)
    cb_times = np.linspace(0.0, T, n_snap)
    finest = min(eps_list)
    # Both integrators are re-run at half step: the continuum solve is shared
    # across the sweep, so its dt error is a common bias that an
    # atomistic-only control would miss entirely.
    runs = [(eps, cfl) for eps in eps_list] + [(finest, 0.5 * cfl)]
    waves, trajs = _map_members([
        (_cb_waves, (CBModel(P), data, cb_times, n_grid, (cfl, 0.5 * cfl))),
        (_lattice_runs, (P, data, cb_times, runs)),
    ], workers)
    refs = [[[TrigField.from_grid_1d(g[:, None]) for g in grids] for grids in (cb.u, cb.v)]
            for cb in waves]
    *members, control = (_dynamic_member(P, *ref, traj, eps, q) for ref, traj, (eps, _) in
                         zip([refs[0]] * len(eps_list) + [refs[1]], trajs, runs))
    base = members[list(eps_list).index(finest)]["error"]
    return {
        "eps": [float(e) for e in eps_list],
        "errors": [m["error"] for m in members],
        "T": float(T),
        "details": members,
        "half_dt": {
            "eps": float(finest),
            "error": control["error"],
            "rel_change": abs(control["error"] - base) / base if base > 0 else 0.0,
        },
    }


# ---------------------------------------------------------------------------
# instability demonstration
# ---------------------------------------------------------------------------

def _l2(vals: np.ndarray) -> float:
    return float(np.sqrt(np.sum(vals * vals)))


def _probe_field(lattice: LatticeSpec, kind: str) -> np.ndarray:
    N = lattice.N
    xi = np.arange(N)
    if kind == "alternating":
        vals = (-1.0) ** xi / math.sqrt(N)
    elif kind == "smooth":
        prof = np.sin(2.0 * np.pi * xi / N)
        vals = prof / _l2(prof.reshape(-1, 1))
    else:
        raise ValueError(f"unknown probe kind: {kind!r}")
    return vals.reshape(N, 1)


def instability_demo(
    eps: float,
    a_unstable: tuple = (-1.0, 0.5),
    a_stable: tuple = (2.0, -0.25),
    cfl: float = 0.2,
    window_start: float = 1.0,
) -> dict:
    """Zone-boundary instability of the chain versus its blind continuum.

    Integrates the harmonic chain with stability constant -1 from zero
    displacement and an alternating velocity kick of ell^2 size eps^2; the
    velocity norm must dominate ``eps^2 e^t / 2`` on the macroscopic window
    ``[window_start, 3 |log eps|]``.  Companion runs: the stable chain
    (same probe stays bounded by 2 eps^2), a smooth long-wave probe on the
    unstable chain (no growth: the instability is short-wavelength), and
    the Cauchy-Born modulus ``cb_modulus`` of the unstable chain at F = 0,
    a1 + 4 a2, which is positive: its continuum is stable and blind to the
    lattice-scale instability.

    Each chain is built once.  The runs share their snapshot times and CFL
    fraction and go through ``_integrate_runs`` as two lockstep batches,
    each run with the bits of its own call: first the unstable chain's
    alternating and smooth probes, then the stable chain's probe.  So a
    failure of the unstable chain raises first, from whichever of its two
    runs fails at the earlier lockstep step (at one step, the alternating
    run; ``_verlet``'s rule), and the stable chain is not run.
    """
    N = supercell_period(eps)
    if N % 2:
        raise ValueError("1/eps must be an even integer")
    T_end = 3.0 * abs(math.log(eps))
    lattice = LatticeSpec(d=1, A=np.eye(1), N=N)
    zero = DisplacementField.zeros(lattice)
    n_snap = max(64, int(math.ceil(T_end / 0.1)))
    snap = np.linspace(0.0, T_end, n_snap + 1)
    unstable, stable = (HarmonicChain.build(a1=a[0], a2=a[1]) for a in (a_unstable, a_stable))

    def runs(P, *probe_kinds):
        """Snapshot times and velocity norms of each probe's run on the chain ``P``."""
        kicks = [DisplacementField(lattice, eps**2 * _probe_field(lattice, kind))
                 for kind in probe_kinds]
        trajs = _integrate_runs(P, [(zero, v0, snap, cfl) for v0 in kicks])
        # each snapshot's ell^2 norm, a contiguous row summed on its own: ``_l2``'s bits
        return [(traj.times, np.sqrt(np.add.reduce((traj.v * traj.v).reshape(len(traj.v), -1),
                                                   axis=1)))
                for traj in trajs]

    (t_u, n_u), (_, n_w) = runs(unstable, "alternating", "smooth")
    [(_, n_s)] = runs(stable, "alternating")
    in_window = t_u >= window_start
    bound = 0.5 * eps**2 * np.exp(t_u[in_window])
    growth_ratios = n_u[in_window] / bound

    cb_modulus = float(CBModel(unstable).moduli(np.zeros((1, 1)))[0, 0, 0, 0])
    return {
        "eps": float(eps),
        "window": [float(window_start), float(T_end)],
        "times": t_u.tolist(),
        "velocity_norms": n_u.tolist(),
        "min_growth_ratio": float(np.min(growth_ratios)),
        "stable_max_norm": float(np.max(n_s)),
        "stable_bound": float(2.0 * eps**2),
        "smooth_max_norm": float(np.max(n_w)),
        "cb_modulus": cb_modulus,
    }
