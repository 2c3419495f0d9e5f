"""Reference Cauchy-Born wave solver with the two-call acceleration.

This is ``latcb.dynamics.solve_cb_wave`` as it was before the stress and
the moduli came from one bond pass (``CBModel._tangent``): every
acceleration calls ``CBModel.moduli`` for the admissibility and
hyperbolicity checks and then ``CBModel.stress`` for the force.  The tests
compare its trajectories and error messages with the library's bit for bit.
"""

from __future__ import annotations

import numpy as np

from latcb.dynamics import _verlet
from latcb.potentials import AdmissibilityError
from latcb.static import SolverError, _spectral_ddx


def reference_solve_cb_wave(M, data, snap_times, n_grid: int = 128, cfl: float = 0.2):
    """``solve_cb_wave`` with separate ``moduli`` and ``stress`` calls per step."""
    U = data.U0.sample(n_grid)[:, 0]
    V = data.U1.sample(n_grid)[:, 0]

    def checked_moduli(Uv, t=0.0):
        up = _spectral_ddx(Uv)
        try:
            mods = M.moduli(up[:, None, None])[:, 0, 0, 0, 0]
        except AdmissibilityError as exc:
            raise SolverError(
                f"continuum gradient left the admissible region at T={t:.6g}"
            ) from exc
        if not float(np.min(mods)) > 0.0:
            raise SolverError(
                f"Cauchy-Born wave lost hyperbolicity (modulus <= 0) at T={t:.6g}"
            )
        return up, mods

    def grad(Uv, live, t):
        up, _ = checked_moduli(Uv, t[0])
        return -_spectral_ddx(M.stress(up[:, None, None])[:, 0, 0])

    c_max = float(np.sqrt(np.max(checked_moduli(U)[1])))
    return _verlet([(U, V, snap_times, cfl / (n_grid * c_max))], grad)[0]
