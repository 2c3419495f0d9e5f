"""Reference mode folding by a dict loop over the terms.

This is the original ``fields._canonical``: each term flips into the half
space (first nonzero entry positive, amplitude conjugated) and adds onto
its mode's entry in input order.  The library now folds with numpy; the
tests compare the two bit for bit.
"""

from __future__ import annotations

import numpy as np


def canonical_loop(modes: np.ndarray, amps: np.ndarray):
    """Folded, merged and sorted ``(modes, amps)`` of the terms."""
    folded: dict[tuple, np.ndarray] = {}
    for m, a in zip(modes, amps):
        m = tuple(int(v) for v in m)
        a = np.asarray(a, dtype=complex)
        nz = next((v for v in m if v != 0), 0)
        if nz < 0:
            m = tuple(-v for v in m)
            a = np.conj(a)
        if m in folded:
            folded[m] = folded[m] + a
        else:
            folded[m] = a
    m_list = sorted(folded)
    M = np.array(m_list, dtype=int).reshape(len(m_list), -1)
    A = np.array([folded[m] for m in m_list], dtype=complex)
    zero = ~M.any(axis=1)
    if zero.any():
        A[zero] = A[zero].real  # the constant term must be real
    return M, A
