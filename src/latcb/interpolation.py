"""Interpolation machinery connecting lattice functions to continuum fields.

Three ingredients:

* the tensor-product hat basis ``zeta``, whose lattice combinations are the
  periodic multilinear (P1/Q1) interpolants,
* the quasi-interpolant obtained by convolving the interpolant with ``zeta``
  once more, which is C^2 (a tensor cubic B-spline filter) and is inverted
  exactly on the lattice by a periodic deconvolution,
* bond localization kernels ``chi_{xi,rho}(x) = int_0^1 zeta(xi + t rho - x) dt``
  that smear a bond over its line segment and underpin the atomistic stress.

All quadratures here are exact for the piecewise-polynomial integrands they
are applied to, so kernel identities hold to machine precision.
"""

from __future__ import annotations

import numpy as np

from .lattice import DisplacementField, as_direction, gauss_rule_01, tensor_grid

__all__ = [
    "zeta_eval",
    "hat",
    "b3",
    "b3_prime",
    "quasi_interp",
    "quasi_grad",
    "b3_filter",
    "smooth_nodal_interp",
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
# quasi-interpolation (B-spline filter) and deconvolution
# ---------------------------------------------------------------------------

_B3_OFFSETS = np.array([-1, 0, 1, 2])


def _b3_window(u: DisplacementField, x: np.ndarray):
    """The 4^d sites ``xi`` whose B-spline reaches each point of ``x`` (..., d).

    Returns ``(x - xi, u(xi))``, shapes (..., 4^d, d) and (..., 4^d, d).
    """
    xi = np.floor(x).astype(int)[..., None, :] + tensor_grid([_B3_OFFSETS] * u.lattice.d)
    return x[..., None, :] - xi, u.site_values(xi)


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


def _b3_symbol(N: int) -> np.ndarray:
    """Fourier symbol of the B-spline filter on Z_N: 2/3 + (1/3) cos(2 pi m / N)."""
    k = 2.0 * np.pi * np.arange(N) / N
    return 2.0 / 3.0 + np.cos(k) / 3.0


def smooth_nodal_interp(u: DisplacementField) -> DisplacementField:
    """Preimage of ``u`` under the lattice B-spline filter.

    Returns the periodic lattice function ``w`` with
    ``b3_filter(w.values) = u.values``; the filter symbol
    ``prod_alpha (2/3 + cos(k_alpha)/3)`` is strictly positive, so the
    deconvolution is well posed with a modest condition number (<= 3 per
    axis).  ``quasi_interp(w, .)`` is then a C^2 field that matches ``u``
    at every lattice site.
    """
    d = u.lattice.d
    N = u.lattice.N
    spec = np.fft.fftn(u.values, axes=tuple(range(d)))
    sym = _b3_symbol(N)
    for axis in range(d):
        shape = [1] * (d + 1)
        shape[axis] = N
        spec = spec / sym.reshape(shape)
    vals = np.real(np.fft.ifftn(spec, axes=tuple(range(d))))
    return DisplacementField(u.lattice, vals)


# ---------------------------------------------------------------------------
# bond localization kernels
# ---------------------------------------------------------------------------

_T_GAUSS, _T_WEIGHTS = gauss_rule_01(3)


def chi_eval(xi, rho, x) -> np.ndarray:
    """Bond kernel chi_{xi,rho}(x) = int_0^1 zeta(xi + t rho - x) dt.

    ``xi`` may be a batch of shape (..., d) of lattice sites (not wrapped:
    geometric coordinates); ``rho`` a direction; ``x`` a single point of
    shape (d,) or a point batch that broadcasts against ``xi`` (points of
    shape (P, 1, d) against per-point site windows (P, K, d) give (P, K)).
    The t-integral is evaluated exactly by splitting at the parameter values
    where any coordinate of ``xi + t rho - x`` crosses a kink of the hat
    profile and applying 3-point Gauss per piece; every row is computed on
    its own, so a batch gives the same bits as one point at a time.

    Example: in 1D, chi_{0,1}(0.5) = 3/4 (the bond from 0 to 1 is smeared
    so that its midpoint sees hat weight averaging 3/4).
    """
    x = np.asarray(x, dtype=float)
    d = x.shape[-1]
    rho = as_direction(rho, d)
    rel = np.asarray(xi, dtype=float) - x
    single = rel.ndim == 1
    c0 = rel.reshape(-1, d)  # (K, d)
    K = c0.shape[0]

    knot_cols = [np.zeros(K), np.ones(K)]
    for alpha in range(d):
        if rho[alpha] == 0:
            continue
        for level in (-1.0, 0.0, 1.0):
            knot_cols.append((level - c0[:, alpha]) / rho[alpha])
    knots = np.clip(np.stack(knot_cols, axis=1), 0.0, 1.0)
    knots.sort(axis=1)

    lo = knots[:, :-1]
    dt = knots[:, 1:] - lo  # (K, S)
    # Gauss nodes for every subinterval: (K, S, 3)
    tg = lo[:, :, None] + dt[:, :, None] * _T_GAUSS
    args = c0[:, None, None, :] + tg[..., None] * rho  # (K, S, 3, d)
    vals = zeta_eval(args)
    out = np.sum(vals * _T_WEIGHTS, axis=2) * dt
    out = out.sum(axis=1)
    return float(out[0]) if single else out.reshape(rel.shape[:-1])


def grad_chi_eval(xi, rho, x) -> np.ndarray:
    """Directional derivative (rho . grad_x) of the bond kernel.

    Closed form: zeta(xi - x) - zeta(xi + rho - x), by the fundamental
    theorem of calculus applied along the bond parameter.
    """
    x = np.asarray(x, dtype=float)
    d = x.shape[-1]
    rho = as_direction(rho, d)
    xi = np.asarray(xi, dtype=float)
    return zeta_eval(xi - x) - zeta_eval(xi + rho - x)

