"""Reference dynamical symbol as one three-operand complex einsum.

This is the original ``stability.dynamical_symbol``: the factored phases
contracted with the reference Hessian blocks in a single complex einsum,
``H_ij(k) = sum_{a,b} f_a(k) V_{a i b j}(0) conj(f_b(k))``.  The library
now evaluates the real force-constant series ``sum_tau W_tau
sin^2(k.tau/2)``, which sums the same terms in another order; the tests
compare the two per wave vector against ``term_magnitude``, the sum of the
oracle's absolute terms.
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


def term_magnitude(P, k) -> np.ndarray:
    """Sum of the einsum's absolute terms, ``sum_{a,b} |f_a| |V_{a i b j}| |f_b|``,
    shape (K, d, d) for the rows of ``k`` (K, d): the roundoff scale of H(k).

    It vanishes to second order at k = 0 like H(k), but not where the terms
    of H(k) cancel, such as the zero crossings of an unstable chain's symbol.
    """
    f = np.abs(2.0 * np.sin(0.5 * (k @ P.S.directions.T)))
    V = np.abs(P.site_hessian(np.zeros((P.S.n, P.d))))
    return np.einsum("Ka,aibj,Kb->Kij", f, V, f)
