"""Reference polishes of the stability minima by scipy.optimize.

These are the original local searches of ``stability._zone_min`` (bounded
Brent in one dimension, Nelder-Mead in two and three) and of
``legendre_hadamard_min`` (Nelder-Mead over the angles of b), each started
at the same grid minimizer.  The library now polishes both minima with one
numpy compass search; the tests compare the two.
"""

from __future__ import annotations

import numpy as np
from scipy import optimize

from latcb.lattice import tensor_grid
from latcb.stability import _acoustic_min, _min_ratio, zone_grid
from latcb.stress import CBModel


def scipy_zone_min(P, n_grid: int) -> float:
    """Grid minimum of the symbol ratio, polished by Brent or Nelder-Mead."""
    d = P.d
    h = 2.0 * np.pi / n_grid
    fc = P.force_constants
    pts = zone_grid(d, n_grid)
    vals = _min_ratio(fc, pts)
    best_idx = int(np.argmin(vals))
    best_k = pts[best_idx]
    best = float(vals[best_idx])
    if d == 1:
        lo, hi = best_k[0] - h, best_k[0] + h
        res = optimize.minimize_scalar(
            lambda t: float(_min_ratio(fc, np.array([[t]]))[0]),
            bounds=(lo, hi),
            method="bounded",
            options={"xatol": 1e-12},
        )
    else:
        res = optimize.minimize(
            lambda t: float(_min_ratio(fc, t[None, :])[0]),
            best_k,
            method="Nelder-Mead",
            options={"xatol": 1e-10, "fatol": 1e-12},
        )
    return min(best, float(res.fun))


def scipy_lh_min(M: CBModel) -> float:
    """Smallest acoustic-tensor eigenvalue over b, polished by Nelder-Mead."""
    d = M.P.d
    C = M.moduli(np.zeros((d, d)))
    if d == 1:
        return float(C[0, 0, 0, 0])
    ang = tensor_grid([np.linspace(0.0, np.pi, 48 if d == 2 else 24)] * (d - 1))
    vals = _acoustic_min(C, ang)
    res = optimize.minimize(
        lambda t: float(_acoustic_min(C, t[None, :])[0]),
        ang[int(np.argmin(vals))],
        method="Nelder-Mead",
        options={"xatol": 1e-10, "fatol": 1e-13},
    )
    return min(float(np.min(vals)), float(res.fun))


def scipy_stability_constant(P, n_grid: int) -> float:
    """``stability_constant`` with both scipy polishes."""
    return min(scipy_zone_min(P, n_grid), scipy_lh_min(CBModel(P)))
