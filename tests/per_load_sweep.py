"""Reference static sweep that solves and measures one load at a time.

This is ``latcb.static.static_converge_sweep`` as it was before both loads
became one batch: one job per load, the full load first, each job solving
its own continuum equilibrium (``solve_cb_static``), then every spacing's
lattice equilibrium in one lockstep batch from the quasi-interpolant of it,
then each spacing's gap with ``interp_gradient_gap``, one field at a time.
The jobs run one after another.  The tests compare its results with the
library's sweep by ``repr``.
"""

from __future__ import annotations

from latcb.static import (
    MacroForce,
    _atomistic_statics,
    _hat_transfer,
    _require_stable,
    interp_gradient_gap,
    make_forces,
    solve_cb_static,
)
from latcb.stress import CBModel


def static_run(P, F: MacroForce, eps_list, n_grid, tol, q) -> dict:
    """One load of the sweep: its continuum equilibrium, its lattice batch, its gaps."""
    cb = solve_cb_static(CBModel(P), F, n_grid=n_grid, tol=min(tol, 1e-10))
    U_c = cb.field
    sols = _atomistic_statics(
        P, [(make_forces(F, eps), _hat_transfer(U_c, eps, 1.0 / eps)) for eps in eps_list], tol)
    return {"cb_residual": cb.residual,
            "members": [{"eps": float(eps),
                         "error": float(interp_gradient_gap(U_c, sol.field, eps, q=q)),
                         "residual": sol.residual,
                         "newton_iterations": sol.iterations}
                        for eps, sol in zip(eps_list, sols)]}


def per_load_sweep(P, F: MacroForce, eps_list, n_grid: int = 256, tol: float = 1e-10,
                   q: int = 6) -> dict:
    """The sweep of ``static_run`` jobs, full load then half load, one after another."""
    _require_stable(P)
    loads = {"full": F, "half": F.scaled(0.5)}
    runs = {name: static_run(P, load, eps_list, n_grid, tol, q) for name, load in loads.items()}
    errors = [m["error"] for m in runs["full"]["members"]]
    errors_half = [m["error"] for m in runs["half"]["members"]]
    return {
        "eps": [float(e) for e in eps_list],
        "errors": errors,
        "delta": F.delta,
        "details": runs,
        "errors_half": errors_half,
        "half_ratios": [h / f for h, f in zip(errors_half, errors)],
    }
