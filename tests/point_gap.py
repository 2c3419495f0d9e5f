"""Reference gap metrics with the continuum side evaluated point by point.

This is the original exact side of ``static._interp_gap``: the continuum
field is evaluated with ``TrigField.eval`` at every Gauss point of every
lattice cell.  The library now samples one shifted grid per Gauss offset
with ``TrigField.sample``; the tests compare the two.
"""

from __future__ import annotations

import math

import numpy as np

from latcb.fields import ScaledDisplacement
from latcb.interpolation import quasi_grad, quasi_interp, smooth_nodal_interp
from latcb.lattice import gauss_rule_01, tensor_grid


def point_gap(u_a, eps: float, q: int, exact, interp) -> float:
    """eps^{d/2} || exact - interp(I u_a) ||_{L2(micro torus)} by a q-point Gauss rule per cell.

    ``exact(x)`` and ``interp(w, x)`` evaluate at an (M, d) batch of points.
    """
    N, d = u_a.lattice.N, u_a.lattice.d
    x1, w1 = gauss_rule_01(q)
    cells = tensor_grid([np.arange(N, dtype=float)] * d)
    pts = (cells[:, None, :] + tensor_grid([x1] * d)).reshape(-1, d)
    wts = np.tile(np.prod(tensor_grid([w1] * d), axis=1), cells.shape[0])
    diff = (exact(pts) - interp(smooth_nodal_interp(u_a), pts)).reshape(pts.shape[0], -1)
    val = float(np.sum(wts * np.sum(diff * diff, axis=-1)))
    return eps ** (d / 2.0) * math.sqrt(val)


def point_gradient_gap(U, u_a, eps: float, q: int = 6) -> float:
    """The gradient gap of ``static.interp_gradient_gap``, point by point."""
    return point_gap(u_a, eps, q, ScaledDisplacement(U, eps).grad, quasi_grad)


def point_value_gap(V, v_a, eps: float, q: int = 6) -> float:
    """The value gap of ``static.interp_value_gap``, point by point."""
    return point_gap(v_a, eps, q, lambda x: V.value(x * eps), quasi_interp)
