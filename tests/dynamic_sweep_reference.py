"""Reference dynamic sweep with one pool job per continuum reference.

This is ``latcb.dynamics.dynamic_error_sweep`` as it was before the lattice
runs were stepped in lockstep: the first job solves the wave at the sweep's
CFL fraction and then integrates and compares every spacing, one run after
another; the second does the same for the half-dt control at the finest
spacing.  The tests compare its results with the library's sweep.
"""

from __future__ import annotations

import numpy as np

from latcb.dynamics import _map_members, integrate_atomistic, make_initial_data, solve_cb_wave
from latcb.fields import TrigField
from latcb.lattice import DisplacementField
from latcb.potentials import total_energy
from latcb.static import _require_stable, interp_gradient_gap, interp_value_gap
from latcb.stress import CBModel


def reference_dynamic_member(P, data, cb_times, cb_U, cb_V, eps, cfl, q) -> dict:
    """The lattice run at ``eps``, integrated alone, against the continuum
    snapshots' interpolants ``cb_U``, ``cb_V``."""
    u0, v0 = make_initial_data(data, eps)
    traj = integrate_atomistic(P, u0, v0, cb_times / eps, cfl=cfl)
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


def reference_dynamic_run(P, data, cb_times, n_grid, cfl, q, spacings) -> list:
    """One continuum reference: the wave at CFL fraction ``cfl``, then its members."""
    cb = solve_cb_wave(CBModel(P), data, cb_times, n_grid=n_grid, cfl=cfl)
    cb_U, cb_V = ([TrigField.from_grid_1d(g[:, None]) for g in grids] for grids in (cb.u, cb.v))
    return [reference_dynamic_member(P, data, cb_times, cb_U, cb_V, eps, cfl, q)
            for eps in spacings]


def reference_dynamic_error_sweep(P, data, T, eps_list, n_snap=17, n_grid=128, cfl=0.2, q=6,
                                  workers=1) -> dict:
    """``dynamic_error_sweep`` with one job per continuum reference, the sweep first."""
    _require_stable(P)
    cb_times = np.linspace(0.0, T, n_snap)
    finest = min(eps_list)
    members, (control,) = _map_members(
        [(reference_dynamic_run, (P, data, cb_times, n_grid, c, q, spacings))
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
