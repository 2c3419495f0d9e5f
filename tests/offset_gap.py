"""The gap metrics one Gauss offset at a time: the oracle of the batched gap metrics.

The library evaluates both sides of a gap metric at all q^d Gauss offsets
in one pass (``TrigField.sample_shifts`` and
``interpolation.interp_sample_shifts``).  This module keeps the per-offset
form it replaced: for each offset, one inverse FFT of the folded continuum
modes and one real FFT pair of the lattice field, then the weighted sum of
squares added to the total in offset order.  Both forms do the same
arithmetic per number, so the tests compare them bit for bit.
"""

from __future__ import annotations

import math

import numpy as np

from latcb.interpolation import _sample_symbol
from latcb.lattice import gauss_rule_01, tensor_grid

_TWO_PI = 2.0 * np.pi


def trig_sample(U, N: int, shift=0.0, deriv: tuple | None = None) -> np.ndarray:
    """``TrigField.sample`` for one shift: fold the modes, one inverse FFT."""
    shift = np.broadcast_to(np.asarray(shift, dtype=float), (U.d,))
    phase = shift[0] * U.modes[:, 0]  # m . shift axis by axis, as the library adds it
    for a in range(1, U.d):
        phase = phase + shift[a] * U.modes[:, a]
    coeff = U._deriv_amps(deriv) * np.exp(_TWO_PI * 1j * phase / N)[:, None]
    axes = tuple(range(U.d))
    spec = np.zeros((N,) * U.d + (U.n_components,), dtype=complex)
    np.add.at(spec, tuple(np.mod(U.modes, N).T), coeff)
    return np.real(np.fft.ifftn(spec, axes=axes)) * float(N) ** U.d


def interp_sample_at(u, shift=0.0, deriv: tuple | None = None) -> np.ndarray:
    """One row of ``interpolation.interp_sample_shifts``, for one shift: one real FFT pair."""
    d, N = u.lattice.d, u.lattice.N
    shift = np.broadcast_to(np.asarray(shift, dtype=float), (d,))
    orders = (0,) * d if deriv is None else tuple(deriv)
    axes = tuple(range(d))
    spec = np.fft.rfftn(u.values, axes=axes)
    for axis, (s, order) in enumerate(zip(shift, orders)):
        mult = _sample_symbol(N, spec.shape[axis], float(s), order)
        spec = spec * mult.reshape((-1,) + (1,) * (d - axis))
    return np.fft.irfftn(spec, s=(N,) * d, axes=axes)


def _interp_gap(u_a, eps: float, q: int, exact, interp) -> float:
    """eps^{d/2} || exact - interp ||_{L2(micro torus)}, one Gauss offset ``o`` at a time."""
    d = u_a.lattice.d
    x1, w1 = gauss_rule_01(q)
    val = 0.0
    for o, w in zip(tensor_grid([x1] * d), np.prod(tensor_grid([w1] * d), axis=1)):
        diff = exact(o) - interp(o)
        val += w * float(np.sum(diff * diff))
    return eps ** (d / 2.0) * math.sqrt(val)


def interp_gradient_gap(U, u_a, eps: float, q: int = 6) -> float:
    """The gradient gap of ``static.interp_gradient_gap``, one offset at a time."""
    N, axes = u_a.lattice.N, [tuple(a) for a in np.eye(U.d, dtype=int)]
    return _interp_gap(u_a, eps, q,
                       lambda o: np.stack([trig_sample(U, N, o, deriv=a) for a in axes], -1),
                       lambda o: np.stack([interp_sample_at(u_a, o, deriv=a) for a in axes], -1))


def interp_value_gap(V, v_a, eps: float, q: int = 6) -> float:
    """The value gap of ``static.interp_value_gap``, one offset at a time."""
    return _interp_gap(v_a, eps, q, lambda o: trig_sample(V, v_a.lattice.N, o),
                       lambda o: interp_sample_at(v_a, o))
