"""Reference pair-force kernel: the half-stencil ``_pair_gradient`` with its
out-of-place Horner evaluation of ``phi'(r)/r``.

The library evaluates the same arithmetic in place through
``PairPotential._bond``; the tests compare the two bit for bit.
"""

from __future__ import annotations

import numpy as np

from latcb.lattice import neighbour_plan
from latcb.potentials import PowerLawProfile


def _int_power(x: np.ndarray, k: int) -> np.ndarray:
    """``x ** k`` for an integer ``k >= 0`` by repeated squaring (products only)."""
    out = None
    while k:
        if k & 1:
            out = x if out is None else out * x
        k >>= 1
        if k:
            x = x * x
    return np.ones_like(x) if out is None else out


def deriv1_over_r(phi, r2: np.ndarray) -> np.ndarray:
    """phi'(r) / r from ``r2 = r * r``: Horner's rule in ``1 / r2`` when every
    power of a power law is an even integer, ``deriv(r, 1) / r`` otherwise."""
    r2 = np.asarray(r2, dtype=float)
    if not (isinstance(phi, PowerLawProfile)
            and all(p == int(p) and int(p) % 2 == 0 for p in phi.powers)):
        r = np.sqrt(r2)
        return phi.deriv(r, 1) / r
    terms = sorted(((1 - int(p) // 2, c * p) for p, c in zip(phi.powers, phi.coeffs)),
                   reverse=True)
    inv = 1.0 / r2
    acc = terms[0][1]
    for (k_hi, _), (k, a) in zip(terms, terms[1:]):
        acc = acc * _int_power(inv, k_hi - k) + a
    k = terms[-1][0]
    return acc * _int_power(inv if k >= 0 else r2, abs(k))


def _sq_norm(x: np.ndarray) -> np.ndarray:
    out = x[0] * x[0]
    for xc in x[1:]:
        out += xc * xc
    return out


def reference_pair_gradient(P, values: np.ndarray) -> np.ndarray:
    """Pair-potential gradient over the positive half stencil, one visit per bond."""
    cell, d = values.shape[:-1], values.shape[-1]
    _, _, half = neighbour_plan(cell, P.S)  # (h, sites)
    ut = values.reshape(-1, d).T
    g = ut.take(half, axis=1) - ut[:, None, :]
    P._require_admissible(_sq_norm(g).max(axis=1), P._half_inv_sq)
    b = g + P._half_ref
    f = deriv1_over_r(P.phi, _sq_norm(b)) * b
    n_sites, idx = ut.shape[1], half.ravel()
    out = np.empty((n_sites, d))
    for c, fc in enumerate(f):
        out[:, c] = np.bincount(idx, fc.ravel(), n_sites) - np.add.reduce(fc, axis=0)
    return out.reshape(values.shape)
