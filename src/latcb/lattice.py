"""Periodic lattice geometry, displacement fields, and difference stencils.

A simple lattice ``A Z^d`` is represented through its integer coordinates:
sites are elements of ``Z^d`` and the deformation matrix ``A`` only enters
through bond lengths ``|A rho|`` inside the site potentials.  All fields live
on a periodic supercell ``{0, ..., N-1}^d`` and are extended periodically.
The difference stencils ``Du(xi) = (u(xi + rho) - u(xi))_rho`` of every site
and their adjoint scatter share one cached neighbour table per cell shape
and stencil, which energy, forces and Hessian all go through.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

__all__ = [
    "tensor_grid",
    "supercell_period",
    "LatticeSpec",
    "StencilSet",
    "DisplacementField",
    "all_stencils",
    "scatter_bonds",
    "gauss_rule_01",
]


def tensor_grid(axes) -> np.ndarray:
    """Tensor-product grid of the 1D ``axes``, one point per row.

    Rows run in row-major (``ij``) order, the last axis fastest; the dtype is the axes'.
    """
    return np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")], -1)


def supercell_period(eps: float) -> int:
    """Supercell period ``N = 1/eps`` of the spacing ``eps``.

    Raises ValueError unless ``|N eps - 1| <= 1e-9`` for an integer N >= 1.
    """
    inv = 1.0 / eps if eps > 0 else math.nan
    N = round(inv) if math.isfinite(inv) else 0
    if N < 1 or abs(N * eps - 1.0) > 1e-9:
        raise ValueError(f"1/eps must be an integer number of lattice cells; got eps = {eps!r}")
    return N


@dataclass(frozen=True)
class LatticeSpec:
    """Geometry of the periodic supercell.

    Parameters
    ----------
    d : int
        Space dimension, 1 <= d <= 3.
    A : (d, d) array
        Nondegenerate lattice matrix, checked here and read nowhere else:
        the reference bond lengths ``|A rho|`` come from the potential's
        own ``A``.
    N : int
        Supercell period per axis (N >= 4 so that second-neighbour stencils
        do not wrap onto themselves).
    """

    d: int
    A: np.ndarray
    N: int

    def __post_init__(self):
        if self.d not in (1, 2, 3):
            raise ValueError(f"dimension must be 1, 2 or 3, got {self.d}")
        A = np.asarray(self.A, dtype=float)
        if A.shape != (self.d, self.d):
            raise ValueError(f"A must have shape ({self.d}, {self.d}), got {A.shape}")
        if abs(np.linalg.det(A)) < 1e-14:
            raise ValueError("lattice matrix A is singular")
        if self.N < 4:
            raise ValueError(f"supercell period N must be >= 4, got {self.N}")
        object.__setattr__(self, "A", A)


def _read_only(value) -> None:
    """Mark an array, or every array in a (nested) tuple, read-only."""
    if isinstance(value, np.ndarray):
        value.flags.writeable = False
    elif isinstance(value, tuple):
        for item in value:
            _read_only(item)


class _ReadOnlyState:
    """Base of immutable classes whose array attributes are read-only.

    Pickle rebuilds arrays writable, so unpickling (as in pool workers)
    marks every array attribute, cached ones included, read-only again.
    """

    def __setstate__(self, state: dict) -> None:
        for value in state.values():
            _read_only(value)
        self.__dict__.update(state)


# the most directions ``StencilSet.ball`` builds: a per-site Hessian holds
# (n d)^2 entries and the symbol plan n^2 slot pairs; d = 3, r_cut = 3 has 122
MAX_DIRECTIONS = 128


@dataclass(frozen=True)
class StencilSet(_ReadOnlyState):
    """Finite interaction range: a set of nonzero integer directions ``rho``.

    The direction list is closed under negation, contains the nearest
    neighbours, and is sorted lexicographically so that every array indexed
    by stencil slot has a reproducible layout.  A stencil is its directions:
    two stencils compare and hash equal when their directions are equal, so
    every table built from the stencil alone is cached on it.
    """

    directions: np.ndarray = field(compare=False)
    _key: tuple = field(init=False, repr=False)  # (d, direction bytes): equality and hash

    def __post_init__(self):
        dirs = np.asarray(self.directions, dtype=int)
        if dirs.ndim != 2 or dirs.shape[0] == 0:
            raise ValueError("directions must be a nonempty (n, d) integer array")
        as_set = {tuple(r) for r in dirs}
        for r in dirs:
            if not r.any():
                raise ValueError("the zero vector is not a valid direction")
            if tuple(-r) not in as_set:
                raise ValueError(f"stencil not closed under negation: missing {tuple(-r)}")
        d = dirs.shape[1]
        for axis in range(d):
            e = tuple(1 if a == axis else 0 for a in range(d))
            if e not in as_set:
                raise ValueError(f"stencil must contain nearest neighbour {e}")
        order = np.lexsort(dirs.T[::-1])
        dirs = dirs[order]
        dirs.flags.writeable = False  # the key below holds these bytes
        object.__setattr__(self, "directions", dirs)
        object.__setattr__(self, "_key", (d, dirs.tobytes()))

    @classmethod
    def ball(cls, d: int, r_cut: float) -> "StencilSet":
        """All nonzero integer vectors with Euclidean norm <= r_cut.

        ValueError for a non-finite ``r_cut`` or a ball of more than
        ``MAX_DIRECTIONS`` vectors.  The ball holds the ``2 d floor(r_cut)``
        vectors on the axes, so a large ``r_cut`` is refused before its
        ``(2 floor(r_cut) + 1)^d`` box is built.  Below 1 the ball is
        empty, which the constructor refuses.
        """
        if not math.isfinite(r_cut):
            raise ValueError(f"r_cut must be finite; got {r_cut}")
        m = int(np.floor(r_cut))
        if 2 * d * m > MAX_DIRECTIONS:
            raise ValueError(f"r_cut = {r_cut} in d = {d} gives at least {2 * d * m} "
                             f"directions; at most {MAX_DIRECTIONS} are supported")
        box = tensor_grid([np.arange(-m, m + 1)] * d)
        dirs = box[box.any(axis=1) & (np.linalg.norm(box, axis=1) <= r_cut)]
        if len(dirs) > MAX_DIRECTIONS:
            raise ValueError(f"r_cut = {r_cut} in d = {d} gives {len(dirs)} "
                             f"directions; at most {MAX_DIRECTIONS} are supported")
        return cls(dirs)

    @property
    def n(self) -> int:
        return self.directions.shape[0]

    @property
    def d(self) -> int:
        return self.directions.shape[1]

    @cached_property
    def inv_sq_norms(self) -> np.ndarray:
        """Inverse squared lengths 1 / |rho|^2 of all directions, shape (n,), read-only."""
        out = 1.0 / np.sum(self.directions * self.directions, axis=1)
        out.flags.writeable = False
        return out

    @cached_property
    def half(self) -> np.ndarray:
        """Slots whose direction has a positive first nonzero entry, read-only.

        The stencil is closed under negation, so these visit every bond
        ``{xi, xi + rho}`` once, as ``rho``; ``-rho`` lies in the other half.
        """
        out = np.flatnonzero(_leading_entry(self.directions) > 0)
        out.flags.writeable = False
        return out


@dataclass
class DisplacementField:
    """Periodic vector-valued lattice function u : Z^d -> R^d.

    ``values`` has shape ``(N,)*d + (d,)``; entry ``values[xi]`` is the
    displacement of site ``xi`` of the supercell.
    """

    lattice: LatticeSpec
    values: np.ndarray

    def __post_init__(self):
        want = (self.lattice.N,) * self.lattice.d + (self.lattice.d,)
        v = np.asarray(self.values, dtype=float)
        if v.shape != want:
            raise ValueError(f"values must have shape {want}, got {v.shape}")
        self.values = v

    @classmethod
    def zeros(cls, lattice: LatticeSpec) -> "DisplacementField":
        return cls(lattice, np.zeros((lattice.N,) * lattice.d + (lattice.d,)))


# ---------------------------------------------------------------------------
# difference stencils
# ---------------------------------------------------------------------------

def _leading_entry(v: np.ndarray) -> np.ndarray:
    """The first nonzero entry of each row of ``v`` (0 for a zero row).

    Its sign picks one of ``+-v`` as the representative of the pair: the
    positive half stencil, a sine-square term, a Fourier mode.
    """
    return v[np.arange(v.shape[0]), np.argmax(v != 0, axis=1)]


@lru_cache(maxsize=64)
def neighbour_plan(shape: tuple, S: StencilSet) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Flat neighbour tables of the periodic cell ``shape`` (a tuple) for the
    stencil ``S``, cached per shape and stencil; the tables are read-only.

    ``gather[xi, i]`` is the row-major index of site ``xi + rho_i``;
    ``scatter[i, xi] = gather[xi, j] * n + i`` with ``rho_j = -rho_i``
    addresses slot ``i`` of site ``xi - rho_i`` in a flattened
    (sites * n, d) bond array; ``half[k, xi]`` is ``gather[xi, i]`` for the
    k-th slot ``i`` of ``S.half``, slot-major.
    """
    dirs, d = S.directions, len(shape)
    sites = np.indices(shape).reshape(d, -1).T
    nbrs = np.mod(sites[:, None, :] + dirs, shape)
    gather = np.ravel_multi_index(tuple(np.moveaxis(nbrs, -1, 0)), shape)
    neg = [int(np.flatnonzero((dirs == -r).all(axis=1))[0]) for r in dirs]
    scatter = gather[:, neg].T * len(dirs) + np.arange(len(dirs))[:, None]
    half = np.ascontiguousarray(gather[:, S.half].T)
    for table in (gather, scatter, half):
        table.flags.writeable = False
    return gather, scatter, half


def stacked_plan(shapes, S: StencilSet) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``neighbour_plan`` tables of the periodic cells ``shapes`` laid end to end.

    The cells' sites are stacked in row-major order, cell after cell; each
    cell's tables are its own ``neighbour_plan``, with site indices offset
    by the cell's first site (scatter addresses by that times ``S.n``).
    Every site keeps its own neighbours, so the kernels given these tables
    compute each cell's values bit for bit as on the cell alone.  One cell
    gives its (cached) ``neighbour_plan``; more are built anew, read-only.
    """
    plans = [neighbour_plan(shape, S) for shape in shapes]
    if len(plans) == 1:
        return plans[0]
    starts = np.cumsum([0] + [math.prod(shape) for shape in shapes[:-1]])
    gather = np.concatenate([g + s for (g, _, _), s in zip(plans, starts)])
    scatter = np.concatenate([sc + s * S.n for (_, sc, _), s in zip(plans, starts)], axis=1)
    half = np.concatenate([h + s for (_, _, h), s in zip(plans, starts)], axis=1)
    for table in (gather, scatter, half):
        table.flags.writeable = False
    return gather, scatter, half


def all_stencils(values: np.ndarray, S: StencilSet, plan=None) -> np.ndarray:
    """Difference stencils at every site at once.

    Parameters
    ----------
    values : array, shape (N,)*d + (d,)
        Periodic displacement values; with ``plan``, the (sites, d) values
        of the cells the plan stacks.
    S : StencilSet
    plan : tables of ``stacked_plan``, or None for the cell of ``values``.

    Returns
    -------
    array, shape values.shape[:-1] + (n, d)
        ``out[xi, i] = u(xi + rho_i) - u(xi)``.
    """
    cell, d = values.shape[:-1], values.shape[-1]
    gather, _, _ = plan or neighbour_plan(cell, S)
    flat = values.reshape(-1, d)
    return (np.take(flat, gather, axis=0) - flat[:, None, :]).reshape(cell + (S.n, d))


def scatter_bonds(Vr: np.ndarray, S: StencilSet, plan=None) -> np.ndarray:
    """Adjoint of ``all_stencils``: sum_rho (Vr_rho(xi - rho) - Vr_rho(xi)).

    ``Vr`` has shape (N,)*d + (n, d), or (sites, n, d) with the ``plan`` of
    stacked cells; the result drops the slot axis.
    The terms are laid out slot-major so the sum over slots runs in stencil
    order; numpy sums a contiguous axis of 8 or more entries pairwise,
    which would change the last bits of the result.
    """
    cell, d = Vr.shape[:-2], Vr.shape[-1]
    _, scatter, _ = plan or neighbour_plan(cell, S)
    terms = np.take(Vr.reshape(-1, d), scatter, axis=0)
    terms -= Vr.reshape(-1, S.n, d).swapaxes(0, 1)
    return terms.sum(axis=0).reshape(cell + (d,))


# ---------------------------------------------------------------------------
# quadrature
# ---------------------------------------------------------------------------

def gauss_rule_01(q: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes/weights on [0, 1]."""
    x, w = np.polynomial.legendre.leggauss(q)
    return 0.5 * (x + 1.0), 0.5 * w
