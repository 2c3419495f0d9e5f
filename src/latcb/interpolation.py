"""Interpolation machinery connecting lattice functions to continuum fields.

Three ingredients:

* the tensor-product hat basis ``zeta``, whose lattice combinations are the
  periodic multilinear (P1/Q1) interpolants,
* the smoothed interpolant: the interpolant of the deconvolved lattice
  values convolved with ``zeta`` once more, a C^2 tensor cubic B-spline
  quasi-interpolant that matches the lattice values at every site;
  ``interp_sample_shifts`` evaluates it, or a first partial, on a batch of
  shifted grids with one FFT pair, as ``TrigField.sample_shifts`` does for
  continuum fields,
* bond localization kernels ``chi_{xi,rho}(x) = int_0^1 zeta(xi + t rho - x) dt``
  that smear a bond over its line segment and underpin the atomistic stress.

All quadratures here are exact for the piecewise-polynomial integrands they
are applied to, so kernel identities hold to machine precision.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .lattice import DisplacementField, gauss_rule_01

__all__ = [
    "zeta_eval",
    "hat",
    "b3",
    "b3_prime",
    "interp_sample_shifts",
    "chi_eval",
    "grad_chi_eval",
]


# ---------------------------------------------------------------------------
# one-dimensional profiles
# ---------------------------------------------------------------------------

def hat(s: np.ndarray) -> np.ndarray:
    """Hat profile max(0, 1 - |s|)."""
    return np.maximum(0.0, 1.0 - np.abs(s))


def b3(s: np.ndarray) -> np.ndarray:
    """Centered cubic B-spline, the self-convolution of the hat profile.

    b3(0) = 2/3, b3(+-1) = 1/6, support [-2, 2], C^2 across the knots.
    """
    a = np.abs(np.asarray(s, dtype=float))
    out = np.zeros_like(a)
    inner = a <= 1.0
    outer = (a > 1.0) & (a < 2.0)
    ai = a[inner]
    out[inner] = 2.0 / 3.0 - ai * ai + 0.5 * ai * ai * ai
    ao = a[outer]
    out[outer] = (2.0 - ao) ** 3 / 6.0
    return out


def b3_prime(s: np.ndarray) -> np.ndarray:
    """First derivative of the cubic B-spline profile."""
    s = np.asarray(s, dtype=float)
    a = np.abs(s)
    out = np.zeros_like(a)
    inner = a <= 1.0
    outer = (a > 1.0) & (a < 2.0)
    out[inner] = -2.0 * a[inner] + 1.5 * a[inner] ** 2
    out[outer] = -0.5 * (2.0 - a[outer]) ** 2
    return out * np.sign(s)


def zeta_eval(x) -> np.ndarray:
    """Tensor-product hat basis function zeta(x) = prod_alpha hat(x_alpha).

    zeta(0) = 1, zeta vanishes at all other lattice points, and
    zeta((1/2, 1/2)) = 1/4.
    """
    x = np.asarray(x, dtype=float)
    return np.prod(hat(x), axis=-1)


# ---------------------------------------------------------------------------
# smoothed interpolant on shifted grids
# ---------------------------------------------------------------------------

@lru_cache(maxsize=256)
def _sample_symbol(N: int, n_modes: int, s: float, order: int) -> np.ndarray:
    """Modes 0..n_modes-1 of one axis's multiplier in ``interp_sample_shifts`` (read-only).

    The sites ``j = floor(s) + (-1, 0, 1, 2)`` reach the offset ``s`` with
    the taps ``b3(s - j)`` (``b3_prime`` for a first partial); the 4-tap
    symbol over the symbol ``2/3 + cos(k)/3`` of the filter [1/6, 2/3, 1/6].
    Cached: the gap metrics ask for the same few offsets on every snapshot.
    """
    j = math.floor(s) + np.arange(-1, 3)
    taps = (b3_prime if order else b3)(s - j)
    k = 2.0 * np.pi * np.arange(n_modes) / N
    out = np.exp(1j * k[:, None] * j) @ taps / (2.0 / 3.0 + np.cos(k) / 3.0)
    out.flags.writeable = False
    return out


def interp_sample_shifts(u, shifts, deriv: tuple | None = None) -> np.ndarray:
    """The smoothed interpolant of ``u``, or one first partial, on the grids
    ``xi + shifts[q]`` of a (Q, d) batch of shifts.

    The smoothed interpolant ``I u(x) = sum_xi w(xi) prod_a b3(x_a - xi_a)``
    is the C^2 cubic B-spline quasi-interpolant of the values ``w`` whose
    B-spline filter [1/6, 2/3, 1/6] per axis gives back ``u``, so it matches
    ``u`` at every site.  ``u`` is a DisplacementField, or a list of them on
    one lattice, whose components are taken side by side in the order
    given (m components in all).  ``deriv`` (None, or the order per axis
    with at most one 1) follows ``TrigField.sample``.  Returns shape
    (Q,) + (N,)*d + (m,).  Each grid is a circular correlation of ``w``
    with 4 B-spline taps per axis: one real FFT of the values, a stack of
    per-axis multipliers, one per shift, and one batched inverse FFT.
    Each row, and each field of a list, has the bits of a one-shift call on
    that field alone.
    """
    if isinstance(u, DisplacementField):
        lattice, values = u.lattice, u.values
    else:
        lattice, values = u[0].lattice, np.concatenate([f.values for f in u], axis=-1)
    d, N = lattice.d, lattice.N
    shifts = np.asarray(shifts, dtype=float)
    if shifts.ndim != 2 or shifts.shape[0] < 1 or shifts.shape[1] != d:
        raise ValueError(f"shifts must have shape (Q, {d}) with Q >= 1, got {shifts.shape}")
    orders = (0,) * d if deriv is None else tuple(deriv)
    if len(orders) != d or any(o not in (0, 1) for o in orders) or sum(orders) > 1:
        raise ValueError(f"deriv must give d = {d} orders with at most one 1, got {deriv!r}")
    spec = np.fft.rfftn(values, axes=tuple(range(d)))
    out = spec[None]
    for axis, order in enumerate(orders):
        mult = np.array([_sample_symbol(N, spec.shape[axis], float(s), order)
                         for s in shifts[:, axis]])
        # shape (Q, 1, ..., n_modes, 1, ..., 1) broadcasts along ``axis`` of each spectrum
        out = out * mult.reshape((len(shifts),) + (1,) * axis + (-1,) + (1,) * (d - axis))
    return np.fft.irfftn(out, s=(N,) * d, axes=tuple(range(1, d + 1)))


# ---------------------------------------------------------------------------
# bond localization kernels
# ---------------------------------------------------------------------------

_T_GAUSS, _T_WEIGHTS = gauss_rule_01(3)


def _directions(rho, d: int) -> np.ndarray:
    """An integer array (..., d) of nonzero directions, one per row."""
    r = np.asarray(rho)
    ok = r.ndim >= 1 and r.shape[-1] == d and np.issubdtype(r.dtype, np.integer)
    if not (ok and r.any(axis=-1).all()):
        raise ValueError(f"directions must be nonzero integer rows of length {d}, "
                         f"got shape {r.shape} of dtype {r.dtype}")
    return r


def chi_eval(xi, rho, x) -> np.ndarray:
    """Bond kernel chi_{xi,rho}(x) = int_0^1 zeta(xi + t rho - x) dt.

    ``xi`` may be a batch of shape (..., d) of lattice sites (not wrapped:
    geometric coordinates); ``rho`` an integer array of directions (..., d),
    one per row, all moving along the same axes (the same nonzero entries);
    ``x`` a single point of shape (d,) or a point batch.  The three
    broadcast against each other (points of shape (P, 1, d) against
    per-point site windows (P, K, d) give (P, K); one site, direction and
    point give a 0-d array).  The t-integral is evaluated exactly by
    splitting at the parameter values where any coordinate of
    ``xi + t rho - x`` crosses a kink of the hat profile and applying
    3-point Gauss per piece; every row is computed on its own, so a batch,
    of points or of directions, gives the same bits as one row at a time.

    Example: in 1D, chi_{0,1}(0.5) = 3/4 (the bond from 0 to 1 is smeared
    so that its midpoint sees hat weight averaging 3/4).
    """
    x = np.asarray(x, dtype=float)
    d = x.shape[-1]
    rho = _directions(rho, d)
    moves = (rho != 0).reshape(-1, d)
    if not (moves == moves[0]).all():
        raise ValueError("the directions of one chi_eval call must move along the same axes")
    rel, r = np.broadcast_arrays(np.asarray(xi, dtype=float) - x, rho)
    c0, r = rel.reshape(-1, d), r.reshape(-1, d)  # (K, d): each row's offset and direction
    K = c0.shape[0]

    knot_cols = [np.zeros(K), np.ones(K)]
    for alpha in np.flatnonzero(moves[0]):
        for level in (-1.0, 0.0, 1.0):
            knot_cols.append((level - c0[:, alpha]) / r[:, alpha])
    knots = np.clip(np.stack(knot_cols, axis=1), 0.0, 1.0)
    knots.sort(axis=1)

    lo = knots[:, :-1]
    dt = knots[:, 1:] - lo  # (K, S)
    # Gauss nodes for every subinterval: (K, S, 3)
    tg = lo[:, :, None] + dt[:, :, None] * _T_GAUSS
    args = c0[:, None, None, :] + tg[..., None] * r[:, None, None, :]  # (K, S, 3, d)
    vals = zeta_eval(args)
    out = np.sum(vals * _T_WEIGHTS, axis=2) * dt
    out = out.sum(axis=1)
    return out.reshape(rel.shape[:-1])


def grad_chi_eval(xi, rho, x) -> np.ndarray:
    """Directional derivative (rho . grad_x) of the bond kernel.

    Closed form: zeta(xi - x) - zeta(xi + rho - x), by the fundamental
    theorem of calculus applied along the bond parameter.  ``rho`` is an
    integer array of directions that broadcasts against ``xi`` and ``x``
    (any axes), as in ``chi_eval``.
    """
    x = np.asarray(x, dtype=float)
    d = x.shape[-1]
    rho = _directions(rho, d)
    xi = np.asarray(xi, dtype=float)
    return zeta_eval(xi - x) - zeta_eval(xi + rho - x)
