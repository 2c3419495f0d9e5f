"""Reference compass search, one step length per call.

This is the former ``stability._polished_min``: each halving of ``h`` is a
separate call of ``fn``.  The library now tries every step length down to
1e-10 in one call and moves at the first that improves; the tests compare
the two bit for bit.
"""

from __future__ import annotations

import numpy as np

from latcb.lattice import tensor_grid


def polished_min(fn, grid: np.ndarray, h: float) -> float:
    """Smallest value of ``fn`` over ``grid``, polished by a compass search
    from the grid minimizer: move to the best of the 3^d - 1 points
    ``x + h s`` while it improves, else halve ``h``, down to ``h < 1e-10``."""
    vals = fn(grid)
    i = int(np.argmin(vals))
    x, f = grid[i], float(vals[i])
    steps = tensor_grid([[-1.0, 0.0, 1.0]] * x.size)
    steps = steps[steps.any(axis=1)]
    while h >= 1e-10:
        vals = fn(x + h * steps)
        i = int(np.argmin(vals))
        if vals[i] < f:
            x, f = x + h * steps[i], float(vals[i])
        else:
            h *= 0.5
    return f
