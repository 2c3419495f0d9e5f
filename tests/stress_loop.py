"""Reference stress-field evaluation, one point and one direction at a time.

These are the original ``StressField.eval`` and ``StressField.div`` loops
with the per-point site window ``chi_window``.  The library now evaluates
fixed windows, with one kernel row per distinct cell position; the tests
compare the two bit for bit.
"""

from __future__ import annotations

import numpy as np

from latcb.interpolation import chi_eval, zeta_eval


def chi_window(rho: np.ndarray, x: np.ndarray) -> np.ndarray:
    """All integer sites xi with chi_{xi,rho} possibly nonzero at x.

    Per axis the support requires xi_alpha in
    (x_alpha - 1 - max(rho_alpha, 0), x_alpha + 1 - min(rho_alpha, 0)).
    Returns an (M, d) integer array (geometric coordinates, unwrapped).
    """
    d = x.shape[-1]
    ranges = []
    for alpha in range(d):
        lo = int(np.ceil(x[alpha] - 1.0 - max(rho[alpha], 0)))
        hi = int(np.floor(x[alpha] + 1.0 - min(rho[alpha], 0)))
        ranges.append(np.arange(lo, hi + 1))
    grid = np.meshgrid(*ranges, indexing="ij")
    return np.stack([g.ravel() for g in grid], axis=-1)


def bond_gradients(field, sites: np.ndarray, slot: int) -> np.ndarray:
    """Bond gradients V_rho(Du(xi)) of ``field`` at geometric sites (M, d), (M, d)."""
    idx = np.mod(sites, field.table.shape[0])
    return field.table[tuple(idx.T) + (slot,)]


def loop_eval(field, x) -> np.ndarray:
    """Stress tensors at points ``x`` of shape (..., d); returns (..., d, d)."""
    x = np.asarray(x, dtype=float)
    pts = x.reshape(-1, x.shape[-1])
    d = field.P.d
    out = np.zeros((pts.shape[0], d, d))
    for k, p in enumerate(pts):
        acc = np.zeros((d, d))
        for slot, rho in enumerate(field.P.S.directions):
            window = chi_window(rho, p)
            w = chi_eval(window.astype(float), rho, p)
            phi = bond_gradients(field, window, slot)
            acc += np.einsum("K,Ki,a->ia", w, phi, rho.astype(float))
        out[k] = acc
    return out.reshape(x.shape[:-1] + (d, d))


def loop_div(field, x) -> np.ndarray:
    """Distributional divergence at points ``x`` of shape (..., d); returns (..., d)."""
    x = np.asarray(x, dtype=float)
    pts = x.reshape(-1, x.shape[-1])
    d = field.P.d
    out = np.zeros((pts.shape[0], d))
    for k, p in enumerate(pts):
        acc = np.zeros(d)
        for slot, rho in enumerate(field.P.S.directions):
            window = chi_window(rho, p)
            wf = window.astype(float)
            grad_w = zeta_eval(wf - p) - zeta_eval(wf + rho - p)
            phi = bond_gradients(field, window, slot)
            acc += grad_w @ phi
        out[k] = acc
    return out.reshape(x.shape[:-1] + (d,))
