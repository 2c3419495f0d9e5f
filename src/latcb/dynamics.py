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

import math
from dataclasses import dataclass

import numpy as np

from .fields import TrigField
from .lattice import DisplacementField, LatticeSpec, supercell_period
from .potentials import (
    AdmissibilityError,
    HarmonicChain,
    Potential,
    gradient_array,
    total_energy,
)
from .stability import max_frequency
from .static import SolverError, interp_gradient_gap, interp_value_gap
from .static import _hat_transfer, _map_members, _require_stable, _spectral_ddx
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

def _verlet(x, v, accel, snap_times, dt_target: float) -> Trajectory:
    """Velocity Verlet from t = 0, recording a snapshot at every snapshot time.

    ``accel(x, t)`` returns the acceleration; each snapshot records the
    time, state and velocity.  Snapshot times must be nonnegative
    and strictly increasing; each snapshot interval is split into equal
    steps no longer than ``dt_target`` so snapshots land exactly, and a
    snapshot at the current time records without stepping.  A non-finite
    snapshot raises ``SolverError`` with its time.  The state is a copy of
    ``x`` and ``v`` updated in place, and each snapshot copies it.  The
    half kick ``(0.5 dt) a`` and the drift ``dt v`` of every step are
    formed in one reused buffer; ``0.5 * dt * a`` evaluates the same
    product, so the bits are those of the plain expressions.
    """
    snap_times = np.asarray(snap_times, dtype=float)
    if (
        snap_times.ndim != 1
        or snap_times.size == 0
        or not snap_times[0] >= 0.0
        or np.any(np.diff(snap_times) <= 0)
    ):
        raise ValueError("snapshot times must be >= 0 and strictly increasing")
    t, x, v = 0.0, x.copy(), v.copy()
    kick = np.empty_like(v)
    a = accel(x, t)
    times, xs, vs = [], [], []
    for t_snap in snap_times:
        span = t_snap - t
        if span > 1e-14:
            n_steps = max(1, int(math.ceil(span / dt_target - 1e-12)))
            dt = span / n_steps
            half = 0.5 * dt
            for _ in range(n_steps):
                v += np.multiply(half, a, out=kick)
                x += np.multiply(dt, v, out=kick)
                t += dt
                a = accel(x, t)
                v += np.multiply(half, a, out=kick)
            t = t_snap  # guard accumulated roundoff
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(v))):
            raise SolverError(f"non-finite state at the snapshot t={t:.6g}")
        times.append(t)
        xs.append(x.copy())
        vs.append(v.copy())
    return Trajectory(np.array(times), np.stack(xs), np.stack(vs))


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
    def accel(vals, t):
        try:
            a = gradient_array(P, vals)
        except AdmissibilityError as exc:
            raise SolverError(f"dynamics left the admissible region at t={t:.6g}: {exc}")
        return np.negative(a, out=a)

    return _verlet(u0.values, v0.values, accel, snap_times, cfl / max_frequency(P))


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
    fixed for the whole run.  Every acceleration takes the stress and the
    moduli from one bond pass (``CBModel._tangent``) and checks the
    gradient: it must stay in the admissible region, and the smallest
    modulus must stay positive (loss of hyperbolicity); either failure
    aborts with ``SolverError`` and the time.  Snapshots hold displacement
    and velocity on the grid ``X_i = i / n_grid``, shape
    ``(n_snap, n_grid)``.
    """
    if M.P.d != 1 or data.U0.d != 1 or data.U0.n_components != 1:
        raise NotImplementedError("the wave solver is one-dimensional")
    U = data.U0.sample(n_grid)[:, 0]
    V = data.U1.sample(n_grid)[:, 0]

    def tangent(Uv, t=0.0):
        """Stress and moduli at the gradient U_X, once both checks pass."""
        try:
            s, mods = M._tangent(_spectral_ddx(Uv)[:, None, None])
        except AdmissibilityError as exc:
            raise SolverError(
                f"continuum gradient left the admissible region at T={t:.6g}"
            ) from exc
        mods = mods[:, 0, 0, 0, 0]
        if not float(np.min(mods)) > 0.0:
            raise SolverError(
                f"Cauchy-Born wave lost hyperbolicity (modulus <= 0) at T={t:.6g}"
            )
        return s[:, 0, 0], mods

    def accel(Uv, t):
        # Regularity is monitored every step, not just at snapshots: once the
        # gradient leaves the admissible region the quasilinear problem is no
        # longer meaningful and everything downstream would be silent noise.
        return _spectral_ddx(tangent(Uv, t)[0])

    c_max = float(np.sqrt(np.max(tangent(U)[1])))
    return _verlet(U, V, accel, snap_times, cfl / (n_grid * c_max))


# ---------------------------------------------------------------------------
# convergence sweep
# ---------------------------------------------------------------------------

def _dynamic_member(P: Potential, data: InitialData, cb_times, cb_U, cb_V, eps, cfl, q) -> dict:
    """The lattice run at ``eps`` against the continuum snapshots' interpolants ``cb_U``,
    ``cb_V``; its energy drift is ``max_j |E_j - E_0|`` over the lattice snapshots."""
    u0, v0 = make_initial_data(data, eps)
    micro_times = cb_times / eps
    traj = integrate_atomistic(P, u0, v0, micro_times, cfl=cfl)
    errors, energies = [], []
    for Uj, Vj, uj, vj in zip(cb_U, cb_V, traj.u, traj.v):
        e_grad = interp_gradient_gap(Uj, DisplacementField(u0.lattice, uj), eps, q=q)
        e_vel = interp_value_gap(Vj, DisplacementField(u0.lattice, vj), eps, q=q)
        errors.append(e_grad + e_vel)
        energies.append(total_energy(P, uj) + 0.5 * float(np.sum(vj * vj)))
    energies = np.array(energies)
    return {
        "eps": float(eps),
        "error": float(np.max(errors)),
        "energy_drift": float(np.max(np.abs(energies - energies[0]))),
    }


def _dynamic_run(job) -> list:
    """One continuum reference of the dynamic sweep (module-level so process pools can
    pickle it): the wave at CFL fraction ``cfl``, then its members at that fraction."""
    P, data, cb_times, n_grid, cfl, q, spacings = job
    cb = solve_cb_wave(CBModel(P), data, cb_times, n_grid=n_grid, cfl=cfl)
    cb_U, cb_V = ([TrigField.from_grid_1d(g[:, None]) for g in grids] for grids in (cb.u, cb.v))
    return [_dynamic_member(P, data, cb_times, cb_U, cb_V, eps, cfl, q) for eps in spacings]


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
    (``half_dt``) to confirm integration error is subdominant; the sweep and
    this control are one pool job each, the sweep first.  An unstable
    reference lattice raises SolverError before any solve.
    """
    _require_stable(P)
    cb_times = np.linspace(0.0, T, n_snap)
    finest = min(eps_list)
    # Both integrators are re-run at half step: the continuum solve is shared
    # across the sweep, so its dt error is a common bias that an
    # atomistic-only control would miss entirely.
    members, (control,) = _map_members(
        _dynamic_run,
        [(P, data, cb_times, n_grid, c, q, spacings)
         for c, spacings in ((cfl, list(eps_list)), (0.5 * cfl, [finest]))],
        workers,
    )
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
    """
    N = supercell_period(eps)
    if N % 2:
        raise ValueError("1/eps must be an even integer")
    T_end = 3.0 * abs(math.log(eps))
    lattice = LatticeSpec(d=1, A=np.eye(1), N=N)
    zero = DisplacementField.zeros(lattice)

    def chain(a):
        return HarmonicChain.build(a1=a[0], a2=a[1])

    def run(P, probe_kind):
        v0 = DisplacementField(lattice, eps**2 * _probe_field(lattice, probe_kind))
        n_snap = max(64, int(math.ceil(T_end / 0.1)))
        snap = np.linspace(0.0, T_end, n_snap + 1)
        traj = integrate_atomistic(P, zero, v0, snap, cfl=cfl)
        norms = np.array([_l2(traj.v[j]) for j in range(len(traj.times))])
        return traj.times, norms

    t_u, n_u = run(chain(a_unstable), "alternating")
    in_window = t_u >= window_start
    bound = 0.5 * eps**2 * np.exp(t_u[in_window])
    growth_ratios = n_u[in_window] / bound
    t_s, n_s = run(chain(a_stable), "alternating")
    t_w, n_w = run(chain(a_unstable), "smooth")

    cb_modulus = float(CBModel(chain(a_unstable)).moduli(np.zeros((1, 1)))[0, 0, 0, 0])
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
