"""The generic Cauchy-Born contraction, kept as the oracle of the pair path.

``CBModel`` evaluates a pair potential on the positive half stencil through
``PairPotential._bond``.  ``GenericCBModel`` has no half stencil, so every
variant goes the way EAM and the harmonic chain still go: the site energy,
gradient and Hessian of the full homogeneous stencil, contracted with the
stencil directions.
"""

from __future__ import annotations

from latcb.stress import CBModel


class GenericCBModel(CBModel):
    """``CBModel`` on the generic full-stencil path for every potential."""

    _half = None
