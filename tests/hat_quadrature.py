"""Reference hat-kernel convolution by a Gauss product rule.

This is the original load transfer ``zeta_convolve``: it integrates any
smooth field against the hat basis, split at the kink per axis.  The
library now transfers trigonometric fields exactly through their Fourier
multiplier (``TrigField.hat_smoothed``); the tests compare the two and use
the quadrature wherever the integrand is not a trigonometric field.
"""

from __future__ import annotations

from itertools import product

import numpy as np

from latcb.interpolation import hat
from latcb.lattice import gauss_rule_01


def zeta_convolve(fn, sites: np.ndarray, n_components: int, q: int = 8) -> np.ndarray:
    """Convolution samples (zeta * f)(xi) = int zeta(xi - x) f(x) dx.

    ``fn`` maps an (M, d) point batch to (M, n_components) values and must be
    defined wherever the window reaches (periodic continuum fields in
    practice).  Per axis the integral is split at the hat kink and each half
    integrated with ``q``-point Gauss, which is spectrally accurate for
    smooth ``f``.  Reproduces affine functions exactly.
    """
    sites = np.asarray(sites, dtype=float)
    d = sites.shape[-1]
    g, w = gauss_rule_01(q)
    # nodes/weights for int_{-1}^{1} hat(s) f(xi - s) ds per axis
    s_nodes = np.concatenate([g - 1.0, g])
    s_wts = np.concatenate([w, w]) * hat(s_nodes)
    combos = np.array(list(product(range(2 * q), repeat=d)))
    pts = s_nodes[combos]  # (n_combo, d)
    wts = np.prod(s_wts[combos], axis=1)  # (n_combo,)
    X = sites[..., None, :] - pts  # (..., n_combo, d)
    flatX = X.reshape(-1, d)
    vals = np.asarray(fn(flatX)).reshape(X.shape[:-1] + (n_components,))
    return np.sum(wts[..., :, None] * vals, axis=-2)
