"""Reference dynamical symbol as one three-operand einsum.

This is the original ``stability.dynamical_symbol``: the factored phases
contracted with the reference Hessian blocks in a single complex einsum,
``H_ij(k) = sum_{a,b} f_a(k) V_{a i b j}(0) conj(f_b(k))``.  The library
now contracts ``a`` with one matrix product per block of wave vectors; the
tests compare the two bit for bit on pair and harmonic potentials (one
nonzero term per ``(a, b)`` sum) and to roundoff on EAM.
"""

from __future__ import annotations

import numpy as np


def einsum_symbol(P, k) -> np.ndarray:
    """Hermitian symbol H(k), shape (..., d, d), for a wave-vector batch (..., d)."""
    k = np.asarray(k, dtype=float)
    single = k.ndim == 1
    pts = k.reshape(-1, k.shape[-1])
    blocks = P.site_hessian(np.zeros((P.S.n, P.d)))
    theta = 0.5 * (pts @ P.S.directions.T.astype(float))  # (K, n)
    s = np.sin(theta)
    phase = np.exp(1j * theta)
    # factor_ab = 4 sin(theta_a) sin(theta_b) e^{i (theta_a - theta_b)}
    fa = 2.0 * s * phase  # (K, n)
    out = np.einsum("Ka,aibj,Kb->Kij", fa, blocks.astype(complex), np.conj(fa))
    return out[0] if single else out.reshape(k.shape[:-1] + out.shape[-2:])
