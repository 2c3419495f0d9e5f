"""Reference values computed apart from latcb, with numpy only.

Nothing here imports latcb: each function restates the closed form or the
direct formula that a latcb output must match, so a fault in a shared
latcb helper cannot hide in both sides of a check.
"""

from __future__ import annotations

import itertools
import math

import numpy as np


def loglog_slope(eps, errors) -> float:
    """Least-squares slope of log(error) against log(spacing)."""
    x = np.log(np.asarray(eps, dtype=float))
    y = np.log(np.asarray(errors, dtype=float))
    A = np.stack([x, np.ones_like(x)], axis=1)
    coef, *_ = np.linalg.lstsq(A, y, rcond=None)
    return float(coef[0])


def ball_directions(d: int, r_cut: float) -> np.ndarray:
    """All nonzero integer vectors of Euclidean norm at most r_cut."""
    m = int(math.floor(r_cut))
    dirs = [
        r for r in itertools.product(range(-m, m + 1), repeat=d)
        if any(r) and math.sqrt(sum(c * c for c in r)) <= r_cut
    ]
    return np.array(dirs, dtype=float)


def lj_dphi(r):
    """phi'(r) of the unit Lennard-Jones profile r^-12 - 2 r^-6."""
    return -12.0 * r**-13 + 12.0 * r**-7


def lj_ddphi(r):
    """phi''(r) of the unit Lennard-Jones profile."""
    return 156.0 * r**-14 - 84.0 * r**-8


def cb_stress_lj(F: np.ndarray, dirs: np.ndarray) -> np.ndarray:
    """LJ Cauchy-Born stress 1/2 sum_rho phi'(|(I+F)rho|) (I+F)rho/|(I+F)rho| (x) rho."""
    bonds = dirs @ (np.eye(F.shape[0]) + F).T
    r = np.linalg.norm(bonds, axis=1)
    t = 0.5 * lj_dphi(r)[:, None] * bonds / r[:, None]
    return t.T @ dirs


def lj_chain_gamma() -> float:
    """Stability constant of the 1D LJ chain (r_cut 3) from its closed-form ratio.

    min over k in (0, pi] of sum_{m <= 3} phi''(m) sin^2(mk/2) / sin^2(k/2),
    on a 2e5-point grid polished by golden-section search, together with
    the k -> 0 limit sum_m phi''(m) m^2.
    """
    m = np.arange(1.0, 4.0)
    c = lj_ddphi(m)

    def ratio(k):
        k = np.atleast_1d(k)[:, None]
        return (c * np.sin(0.5 * m * k) ** 2).sum(axis=1) / np.sin(0.5 * k[:, 0]) ** 2

    k = np.linspace(0.0, math.pi, 200_001)[1:]
    vals = ratio(k)
    j = int(np.argmin(vals))
    lo, hi = k[max(j - 1, 0)], k[min(j + 1, k.size - 1)]
    g = (math.sqrt(5.0) - 1.0) / 2.0
    for _ in range(100):
        a, b = hi - g * (hi - lo), lo + g * (hi - lo)
        if ratio(a)[0] < ratio(b)[0]:
            hi = b
        else:
            lo = a
    best = min(float(vals[j]), float(ratio(0.5 * (lo + hi))[0]))
    return min(best, float(np.sum(c * m * m)))


def lj_chain_symbol(k) -> np.ndarray:
    """Dynamical symbol sum_{m <= 3} phi''(m) 4 sin^2(mk/2) of the 1D LJ chain."""
    m = np.arange(1.0, 4.0)
    k = np.asarray(k, dtype=float)[:, None]
    return (lj_ddphi(m) * 4.0 * np.sin(0.5 * m * k) ** 2).sum(axis=1)


def harmonic_chain_solve(f: np.ndarray, a1: float, a2: float) -> np.ndarray:
    """Zero-mean equilibrium of the harmonic chain under zero-sum site loads.

    FFT division by the closed-form symbol 4 a1 sin^2(k/2) + 4 a2 sin^2(k).
    """
    N = f.size
    k = 2.0 * math.pi * np.arange(N) / N
    sym = 4.0 * a1 * np.sin(0.5 * k) ** 2 + 4.0 * a2 * np.sin(k) ** 2
    fh = np.fft.fft(f)
    uh = np.zeros_like(fh)
    uh[1:] = fh[1:] / sym[1:]
    return np.real(np.fft.ifft(uh))


def harmonic_chain_gradient(u: np.ndarray, a1: float, a2: float) -> np.ndarray:
    """Energy gradient of sum_xi a1/2 (u(xi+1)-u(xi))^2 + a2/2 (u(xi+2)-u(xi))^2."""
    return (
        a1 * (2.0 * u - np.roll(u, 1) - np.roll(u, -1))
        + a2 * (2.0 * u - np.roll(u, 2) - np.roll(u, -2))
    )
