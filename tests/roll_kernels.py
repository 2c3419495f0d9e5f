"""Reference stencil kernels built from ``np.roll``, one shifted copy per slot.

These are the original implementations of ``all_stencils``, the gradient
scatter and the matrix-free Hessian apply.  The library now routes all
three through cached gather tables; the tests compare the two bit for bit.
"""

from __future__ import annotations

import numpy as np


def roll_stencils(values: np.ndarray, S) -> np.ndarray:
    """``out[xi, i] = u(xi + rho_i) - u(xi)``, shape (N,)*d + (n, d)."""
    d = values.ndim - 1
    out = np.empty(values.shape[:-1] + (S.n, d))
    axes = tuple(range(d))
    for i, rho in enumerate(S.directions):
        out[..., i, :] = np.roll(values, shift=tuple(-rho), axis=axes) - values
    return out


def roll_scatter(Vr: np.ndarray, S) -> np.ndarray:
    """sum_rho (Vr_rho(xi - rho) - Vr_rho(xi)), accumulated slot by slot."""
    d = Vr.ndim - 2
    axes = tuple(range(d))
    out = np.zeros(Vr.shape[:-2] + (Vr.shape[-1],))
    for i, rho in enumerate(S.directions):
        out += np.roll(Vr[..., i, :], shift=tuple(rho), axis=axes) - Vr[..., i, :]
    return out


def roll_gradient(P, values: np.ndarray) -> np.ndarray:
    """Assembled energy gradient dE/du."""
    return roll_scatter(P.site_gradient(roll_stencils(values, P.S)), P.S)


def roll_hessian_operator(P, values: np.ndarray):
    """Matrix-free Hessian action at ``values``."""
    M = P.site_hessian(roll_stencils(values, P.S))

    def apply(v_values: np.ndarray) -> np.ndarray:
        Dv = roll_stencils(np.asarray(v_values, dtype=float), P.S)
        return roll_scatter(np.einsum("...aibj,...ai->...bj", M, Dv), P.S)

    return apply
