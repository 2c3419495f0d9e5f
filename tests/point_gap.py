"""The point-wise smoothed interpolant and gap metrics: the oracle of the grid samplers.

The library evaluates both sides of the gap metrics on shifted grids: the
continuum field with ``TrigField.sample`` and the smoothed interpolant of
the lattice function with ``interpolation.interp_sample_shifts``.  This module
computes the same quantities point by point: ``TrigField.eval`` at every
Gauss point of every lattice cell, and the B-spline quasi-interpolant as a
4^d-site window gather per point, after a deconvolution of the lattice
values.  The tests compare the two.
"""

from __future__ import annotations

import math

import numpy as np

from latcb.interpolation import b3, b3_prime
from latcb.lattice import DisplacementField, gauss_rule_01, tensor_grid

_B3_OFFSETS = np.array([-1, 0, 1, 2])


def site_values(u: DisplacementField, xi) -> np.ndarray:
    """Periodic lookup u(xi) for an integer site batch of shape (..., d)."""
    idx = np.mod(np.asarray(xi, dtype=int), u.lattice.N)
    return u.values[tuple(np.moveaxis(idx, -1, 0))]


def _b3_window(u: DisplacementField, x: np.ndarray):
    """The 4^d sites ``xi`` whose B-spline reaches each point of ``x`` (..., d).

    Returns ``(x - xi, u(xi))``, shapes (..., 4^d, d) and (..., 4^d, d).
    """
    xi = np.floor(x).astype(int)[..., None, :] + tensor_grid([_B3_OFFSETS] * u.lattice.d)
    return x[..., None, :] - xi, site_values(u, xi)


def quasi_interp(u: DisplacementField, x) -> np.ndarray:
    """C^2 quasi-interpolant: the multilinear interpolant convolved with zeta.

    Equals ``sum_xi u(xi) prod_alpha b3(x_alpha - xi_alpha)`` and reproduces
    affine functions; pointwise it is a local average, e.g. a unit impulse
    at the origin yields the value 2/3 there.
    """
    args, vals = _b3_window(u, np.asarray(x, dtype=float))
    w = np.prod(b3(args), axis=-1)  # (..., 4^d)
    return np.sum(w[..., None] * vals, axis=-2)


def quasi_grad(u: DisplacementField, x) -> np.ndarray:
    """Gradient of the quasi-interpolant, shape (..., d, d), C^1 in x."""
    x = np.asarray(x, dtype=float)
    d = u.lattice.d
    args, vals = _b3_window(u, x)
    B = b3(args)
    Bp = b3_prime(args)
    out = np.zeros(x.shape[:-1] + (d, d))
    for alpha in range(d):
        others = [b for b in range(d) if b != alpha]
        w = Bp[..., alpha] * (np.prod(B[..., others], axis=-1) if others else 1.0)
        out[..., :, alpha] = np.sum(w[..., None] * vals, axis=-2)
    return out


def b3_filter(values: np.ndarray) -> np.ndarray:
    """Periodic B-spline filter [1/6, 2/3, 1/6] applied along every lattice axis.

    This is the lattice restriction of the quasi-interpolant:
    ``quasi_interp(u, xi) = b3_filter(u.values)[xi]`` at every site ``xi``.
    """
    d = values.ndim - 1
    out = values
    for axis in range(d):
        out = (2.0 / 3.0) * out + (1.0 / 6.0) * (
            np.roll(out, 1, axis=axis) + np.roll(out, -1, axis=axis)
        )
    return out


def smooth_nodal_interp(u: DisplacementField) -> DisplacementField:
    """Preimage of ``u`` under the lattice B-spline filter.

    Returns the periodic lattice function ``w`` with
    ``b3_filter(w.values) = u.values``; ``quasi_interp(w, .)`` is then the
    smoothed interpolant, a C^2 field that matches ``u`` at every site.
    The filter's symbol per axis is the FFT of its response to an impulse.
    """
    d, N = u.lattice.d, u.lattice.N
    spec = np.fft.fftn(u.values, axes=tuple(range(d)))
    sym = np.real(np.fft.fft(b3_filter(np.eye(N)[:, :1])[:, 0]))
    for axis in range(d):
        shape = [1] * (d + 1)
        shape[axis] = N
        spec = spec / sym.reshape(shape)
    return DisplacementField(u.lattice, np.real(np.fft.ifftn(spec, axes=tuple(range(d)))))


def trig_grad(U, X) -> np.ndarray:
    """Gradient of a ``TrigField`` at points (..., d) by ``eval``, shape (..., m, d)."""
    return np.stack([U.eval(X, deriv=tuple(a)) for a in np.eye(U.d, dtype=int)], axis=-1)


def trig_hess(U, X) -> np.ndarray:
    """Second derivatives of a ``TrigField`` at points (..., d) by ``eval``, shape (..., m, d, d)."""
    E = np.eye(U.d, dtype=int)
    return np.stack([np.stack([U.eval(X, deriv=tuple(E[a] + E[b])) for b in range(U.d)], -1)
                     for a in range(U.d)], -2)


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
    return point_gap(u_a, eps, q, lambda x: trig_grad(U, x * eps), quasi_grad)


def point_value_gap(V, v_a, eps: float, q: int = 6) -> float:
    """The value gap of ``static.interp_value_gap``, point by point."""
    return point_gap(v_a, eps, q, lambda x: V.eval(x * eps), quasi_interp)
