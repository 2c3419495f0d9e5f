"""Reference Legendre-Hadamard minimum by a joint scan over (a, b).

This is the original ``legendre_hadamard_min``: the rank-one form
``(a x b) : C : (a x b)`` scanned on an angular grid over both unit vectors
and polished by Nelder-Mead in all angles at once.  The library now
minimizes the smallest acoustic-tensor eigenvalue over ``b`` alone; the
tests compare the two.
"""

from __future__ import annotations

from itertools import product

import numpy as np
from scipy import optimize


def _lh_value(C: np.ndarray, a: np.ndarray, b: np.ndarray) -> float:
    return float(np.einsum("ipjq,i,p,j,q->", C, a, b, a, b))


def lh_scan(C: np.ndarray) -> float:
    """Minimum of (a x b) : C : (a x b) over unit a, b, for moduli C of d = 2 or 3."""
    d = C.shape[0]

    def unit(ang):
        if d == 2:
            return np.array([np.cos(ang[0]), np.sin(ang[0])])
        t, p = ang
        return np.array([np.sin(t) * np.cos(p), np.sin(t) * np.sin(p), np.cos(t)])

    n_ang = 1 if d == 2 else 2
    grid = np.linspace(0.0, np.pi, 48 if d == 2 else 12)
    best, best_ang = np.inf, None
    for ang_a in product(grid, repeat=n_ang):
        a = unit(ang_a)
        for ang_b in product(grid, repeat=n_ang):
            v = _lh_value(C, a, unit(ang_b))
            if v < best:
                best, best_ang = v, np.array(list(ang_a) + list(ang_b))

    res = optimize.minimize(
        lambda t: _lh_value(C, unit(t[:n_ang]), unit(t[n_ang:])),
        best_ang,
        method="Nelder-Mead",
        options={"xatol": 1e-10, "fatol": 1e-13},
    )
    return min(float(best), float(res.fun))
