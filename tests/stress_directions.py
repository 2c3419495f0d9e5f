"""Reference stress-field evaluation, one kernel call per stencil direction.

This is the former ``StressField._sum_bonds``: per block of points, one
``chi_eval`` or ``grad_chi_eval`` call and one bond-gradient gather per
direction, on that direction's window of every distinct cell position.  The
library now makes one kernel call per group of directions that move along
the same axes and one gather per block; the tests compare the two bit for
bit.
"""

from __future__ import annotations

import numpy as np

from latcb import stress
from latcb.interpolation import chi_eval, grad_chi_eval
from latcb.lattice import tensor_grid


def _window(rho: np.ndarray, base: np.ndarray) -> np.ndarray:
    """Sites with chi_{xi,rho} possibly nonzero, (P, K, d), from the points'
    window bases ``base = ceil(x) - 1`` (P, d): per axis ``base + j`` for j
    from ``-max(rho_alpha, 0)`` to ``1 - min(rho_alpha, 0)``."""
    offsets = tensor_grid([np.arange(-max(r, 0), 2 - min(r, 0)) for r in rho.tolist()])
    return base[:, None, :] + offsets


def _phi(field, sites: np.ndarray, slot: int) -> np.ndarray:
    """Bond gradients V_rho(Du(xi)) of ``field`` for a geometric site batch (..., d)."""
    idx = np.mod(sites, field.table.shape[0])
    return field.table[tuple(np.moveaxis(idx, -1, 0)) + (slot,)]


def _sum_bonds(field, x, kernel, contract, shape: tuple) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    pts = x.reshape(-1, x.shape[-1])
    out = np.zeros((pts.shape[0],) + shape)
    block = stress._BLOCK
    for lo in range(0, pts.shape[0], block):
        p = pts[lo:lo + block]
        c, inverse = np.unique(p - np.trunc(p), axis=0, return_inverse=True)
        inverse = inverse.reshape(-1)
        base_c, base_p = (np.ceil(y).astype(int) - 1 for y in (c, p))
        for slot, rho in enumerate(field.P.S.directions):
            w = kernel(_window(rho, base_c).astype(float), rho, c[:, None, :])[inverse]
            out[lo:lo + block] += contract(w, _phi(field, _window(rho, base_p), slot), rho)
    return out.reshape(x.shape[:-1] + shape)


def direction_eval(field, x) -> np.ndarray:
    """Stress tensors at points ``x`` of shape (..., d); returns (..., d, d)."""

    def contract(w, phi, rho):
        return np.einsum("pK,pKi,a->pia", w, phi, rho.astype(float))

    d = field.P.d
    return _sum_bonds(field, x, chi_eval, contract, (d, d))


def direction_div(field, x) -> np.ndarray:
    """Divergence at points ``x`` of shape (..., d); returns (..., d)."""

    def contract(gw, phi, rho):
        return (gw[:, None, :] @ phi)[:, 0]

    return _sum_bonds(field, x, grad_chi_eval, contract, (field.P.d,))
