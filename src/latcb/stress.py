"""Cauchy-Born continuum model and the localized atomistic stress field.

The Cauchy-Born energy density evaluates the site potential on the
homogeneous stencil of an affine map, ``W(F) = V((F rho)_rho)``; its first
variation gives the continuum (first Piola-Kirchhoff) stress and its second
variation the elasticity tensor.

The atomistic stress distributes each bond contribution ``V_rho(Du(xi))``
along the bond segment with the localization kernel ``chi_{xi,rho}``,
producing a field that satisfies the same weak divergence identity as the
discrete equilibrium equations.  For affine maps it reproduces the
Cauchy-Born stress exactly (the kernels integrate to one); for smooth
displacements the mismatch is second order in the strain-gradient scale,
which the consistency experiment measures.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .fields import TrigField
from .interpolation import chi_eval, grad_chi_eval
from .lattice import DisplacementField, LatticeSpec, StencilSet, all_stencils, tensor_grid
from .lattice import supercell_period
from .potentials import PairPotential, Potential

__all__ = [
    "CBModel",
    "AffineDisplacement",
    "StressField",
    "atomistic_stress",
    "div_cb_stress",
    "stress_consistency_field",
]


# ---------------------------------------------------------------------------
# Cauchy-Born model
# ---------------------------------------------------------------------------

@dataclass
class CBModel:
    """Continuum model induced by a site potential via the Cauchy-Born rule.

    A pair potential takes the positive half stencil: each bond ``{rho, -rho}``
    once, through the potential's ``PairPotential._half_bonds`` and ``_bond``.
    Other variants contract their site derivatives over the full stencil.
    ``_tangent`` returns the stress and the moduli together, from one bond
    pass on the pair path (the wave solver's step).
    """

    P: Potential

    def homogeneous_stencil(self, F: np.ndarray) -> np.ndarray:
        """Stencil (F rho)_rho of an affine map, batched over F (..., d, d).

        The admissibility check of Cauchy-Born gradients: a gradient outside
        the lattice's admissible region, or a non-finite one, raises
        AdmissibilityError, so every method below rejects it too (the pair
        path takes the decision on the half slots from the potential's bond
        pass, ``PairPotential._half_bonds``, in the same words).
        """
        g = self.P.S.directions @ np.swapaxes(np.asarray(F, dtype=float), -1, -2)
        self.P.check_admissible(g, "Cauchy-Born gradient")
        return g

    @cached_property
    def _half(self):
        """A pair potential's positive half stencil: float directions (h, d)
        and their products ``rho_alpha rho_beta`` (h, d * d); None for other
        variants."""
        if not isinstance(self.P, PairPotential):
            return None
        rho = self.P.S.directions[self.P.S.half].astype(float)
        return rho, (rho[:, :, None] * rho[:, None, :]).reshape(rho.shape[0], -1)

    def _half_bonds(self, F):
        """Deformed bonds ``b = A rho + F rho`` on the positive half stencil
        and their squared lengths, component-major over the flattened batch
        of F: (B, d, h) and (B, h).

        ``homogeneous_stencil``'s check on the half slots, by the potential's
        bond pass on the (d, h, B) view: ``F (-rho)`` is ``-F rho``, so it
        rejects the same gradients in the same words.
        """
        rho = self._half[0]
        F = np.asarray(F, dtype=float)
        d = F.shape[-1]
        b = (F.reshape(-1, d) @ rho.T).reshape(-1, d, rho.shape[0])
        return b, self.P._half_bonds(b.transpose(1, 2, 0), "Cauchy-Born gradient").T

    def energy_density(self, F) -> np.ndarray:
        """W(F) = V((F rho)_rho); W(0) = 0 in the reference state.

        Pair: ``W = sum_half (phi(|A rho + F rho|) - phi(|A rho|))``.
        """
        if self._half is None:
            return self.P.site_energy(self.homogeneous_stencil(F))
        _, r2 = self._half_bonds(F)
        W = np.sum(self.P.phi.deriv(np.sqrt(r2), 0) - self.P._phi_ref[self.P.S.half], axis=-1)
        return W.reshape(np.shape(F)[:-2])

    def stress(self, F) -> np.ndarray:
        """First Piola-Kirchhoff stress S(F)_{i alpha} = sum_rho V_rho,i rho_alpha.

        Pair: ``S = sum_half (phi'(r)/r) b (x) rho``.
        """
        if self._half is None:
            Vr = self.P.site_gradient(self.homogeneous_stencil(F))
            return np.einsum("...ni,na->...ia", Vr, self.P.S.directions.astype(float))
        b, r2 = self._half_bonds(F)
        b *= self.P._bond(r2)[:, None, :]
        return self._pair_stress(b, F)

    def moduli(self, F) -> np.ndarray:
        """Elasticity tensor C_{i alpha j beta}(F) = sum_{rho sigma} (V_{rho sigma})_{ij} rho_alpha sigma_beta.

        Pair: ``C = sum_half [phi''(r) u (x) u + phi'(r)/r (I - u (x) u)] (x) rho (x) rho``
        with the unit bonds ``u = b / r``.
        """
        if self._half is None:
            H = self.P.site_hessian(self.homogeneous_stencil(F))
            dirs = self.P.S.directions.astype(float)
            return np.einsum("...aibj,ap,bq->...ipjq", H, dirs, dirs)
        b, r2 = self._half_bonds(F)
        return self._pair_moduli(b, r2, *self.P._bond(r2, stiffness=True), F)

    def _tangent(self, F) -> tuple[np.ndarray, np.ndarray]:
        """``(stress(F), moduli(F))`` with the bits of the two calls.

        Pair: one ``_half_bonds`` and one ``_bond(r2, stiffness=True)`` serve
        both; the stress takes the forces on a copy of the bonds.  Other
        variants call ``moduli`` and then ``stress``.
        """
        if self._half is None:
            C = self.moduli(F)
            return self.stress(F), C
        b, r2 = self._half_bonds(F)
        f, stiff = self.P._bond(r2, stiffness=True)
        S = self._pair_stress(b * f[:, None, :], F)
        return S, self._pair_moduli(b, r2, f, stiff, F)

    def _pair_stress(self, fb: np.ndarray, F) -> np.ndarray:
        """Stress from the half-stencil bond forces ``fb`` (B, d, h)."""
        rho = self._half[0]
        return (fb.reshape(-1, rho.shape[0]) @ rho).reshape(np.shape(F))

    def _pair_moduli(self, u, r2, f, stiff, F) -> np.ndarray:
        """Moduli from the half-stencil bonds ``u`` (B, d, h), which turn into
        unit bonds in place, and their bond terms ``f``, ``stiff`` (B, h)."""
        d = self.P.d
        rho_rho = self._half[1]
        u /= np.sqrt(r2)[:, None, :]
        uu = u[:, :, None, :] * u[:, None, :, :]  # (B, i, j, h)
        K = stiff[:, None, None, :] * uu + f[:, None, None, :] * (np.eye(d)[:, :, None] - uu)
        C = (K.reshape(-1, rho_rho.shape[0]) @ rho_rho).reshape(-1, d, d, d, d)
        return C.transpose(0, 1, 3, 2, 4).reshape(np.shape(F)[:-2] + (d,) * 4)


# ---------------------------------------------------------------------------
# displacement providers for stress assembly
# ---------------------------------------------------------------------------

@dataclass
class AffineDisplacement:
    """Free-space affine displacement u(x) = F x (homogeneous stencils)."""

    F: np.ndarray

    def __post_init__(self):
        self.F = np.asarray(self.F, dtype=float)


def _bond_gradient_table(P: Potential, u) -> np.ndarray:
    """Per-site bond gradients V_rho(Du(xi)), shape (N,)*d + (n, d).

    The table is periodic in the site.  An affine map has the same stencil
    at every site, so its table is a single cell (N = 1).
    """
    if isinstance(u, AffineDisplacement):
        g = CBModel(P).homogeneous_stencil(u.F)[(None,) * P.d]
    elif isinstance(u, DisplacementField):
        g = all_stencils(u.values, P.S)
        P.check_admissible(g, f"lattice displacement of period N={u.lattice.N}")
    else:
        raise TypeError(f"unsupported displacement provider: {type(u)!r}")
    return P.site_gradient(g)


# points per batch: bounds the (points x window x subinterval) kernel arrays
_BLOCK = 4096


@dataclass(frozen=True)
class _Layout:
    """Every stencil direction's window of sites, as columns of one table.

    A direction rho's window holds the sites ``base + j``, per axis j from
    ``-max(rho_alpha, 0)`` to ``1 - min(rho_alpha, 0)``, where
    ``base = ceil(x) - 1``: the support
    ``x_alpha - 1 - max(rho_alpha, 0) < xi_alpha < x_alpha + 1 - min(rho_alpha, 0)``
    of the kernel.  The window has the same size at every point; at an
    integer coordinate it leaves out the site on the open upper end, whose
    kernel and kernel gradient are exactly zero there.

    The windows are concatenated group by group, a group being the
    directions that move along the same axes (stencil order inside it), so
    each group is one column range and each direction one range inside it.
    """

    offsets: np.ndarray  # (K, d) window offsets j of every column
    dirs: np.ndarray  # (K, d) the direction of each column
    slots: np.ndarray  # (K,) the stencil slot of each column
    groups: tuple  # (start, stop) column range of each group
    spans: tuple  # (start, stop, float direction) of each slot, in stencil order
    widest: int  # the largest window of one direction


@lru_cache(maxsize=64)
def _layout(S: StencilSet) -> _Layout:
    """The ``_Layout`` of the stencil ``S``, cached on it; its arrays are read-only."""
    dirs = S.directions
    by_axes: dict = {}
    for slot, rho in enumerate(dirs):
        by_axes.setdefault(tuple(rho != 0), []).append(slot)
    offsets, slots, groups, spans = [], [], [], [None] * len(dirs)
    start = 0
    for members in by_axes.values():
        group_start = start
        for slot in members:
            rho = dirs[slot]
            window = tensor_grid([np.arange(-max(r, 0), 2 - min(r, 0)) for r in rho.tolist()])
            offsets.append(window)
            slots.append(np.full(len(window), slot))
            spans[slot] = (start, start + len(window), rho.astype(float))
            start += len(window)
        groups.append((group_start, start))
    slots = np.concatenate(slots)
    layout = _Layout(np.concatenate(offsets), dirs[slots], slots, tuple(groups), tuple(spans),
                     max(len(w) for w in offsets))
    for table in (layout.offsets, layout.dirs, layout.slots, *(s[2] for s in spans)):
        table.flags.writeable = False
    return layout


# largest point coordinate: from 2**52 on, a double holds no position inside
# a cell (and the window bases would overflow int64 from 2**63 on)
_MAX_COORD = 2.0**52


@dataclass
class StressField:
    """Atomistic stress as a field with its divergence.

    Every point gets the same fixed window of sites per stencil direction
    (``_Layout``).  A kernel ``chi_{xi,rho}(x)`` depends on x only through
    its cell position, so per block of ``_BLOCK`` points the kernels are
    evaluated on the windows of the distinct cell positions
    ``c = x - trunc(x)`` only (the staggered comparison grid has
    ``n_per_cell**d`` of them), with one ``chi_eval`` or ``grad_chi_eval``
    call per group of directions that move along the same axes; a call
    holds at most ``_BLOCK`` times the widest window rows, more positions
    are split over several calls.  The subtraction is exact, and ``s - x``
    equals ``(s - trunc(x)) - c`` as a real number for every integer site s,
    so every weight has the bits of a direct evaluation at x.  The bond
    gradients of all windows come from one gather per block; the sum over
    each direction's window is one contraction, added in stencil order.
    ``table`` holds the bond gradients of one periodic cell, shape
    (N,)*d + (n, d).
    """

    P: Potential
    table: np.ndarray

    def _sum_bonds(self, x, kernel, contract, shape: tuple) -> np.ndarray:
        """sum over directions of ``contract(w, phi, rho)`` at points (..., d),
        with the window weights ``w = kernel(sites, rho, x)``.

        Raises ValueError before any kernel runs when the points' last axis
        is not of length d, or naming the first point that is not finite or
        has a coordinate of magnitude ``2**52`` or more (a row of the points
        flattened to (P, d)).
        """
        x = np.asarray(x, dtype=float)
        d = self.P.d
        if x.ndim < 1 or x.shape[-1] != d:
            raise ValueError(f"stress field points must have a last axis of length d = {d}, "
                             f"got shape {x.shape}")
        pts = x.reshape(-1, d)
        bad = np.flatnonzero(~(np.abs(pts) < _MAX_COORD).all(axis=1))
        if bad.size:
            raise ValueError(f"stress field points must be finite and below 2**52 in "
                             f"magnitude; row {bad[0]} is {pts[bad[0]].tolist()}")
        L = _layout(self.P.S)
        rows = _BLOCK * L.widest  # the largest kernel call: _BLOCK points, widest window
        out = np.zeros((pts.shape[0],) + shape)
        for lo in range(0, pts.shape[0], _BLOCK):
            p = pts[lo:lo + _BLOCK]
            c = p - np.trunc(p)
            # distinct cell positions by bit pattern (no -0.0 arises, so by value)
            keys, inverse = np.unique(c.view(np.dtype((np.void, 8 * d))).reshape(-1),
                                      return_inverse=True)
            c = keys.view(float).reshape(-1, d)
            base_c = np.ceil(c).astype(int) - 1
            w = np.empty((len(c), len(L.slots)))
            for g0, g1 in L.groups:
                step = max(1, rows // (g1 - g0))
                for a in range(0, len(c), step):
                    sites = (base_c[a:a + step, None, :] + L.offsets[g0:g1]).astype(float)
                    w[a:a + step, g0:g1] = kernel(sites, L.dirs[g0:g1], c[a:a + step, None, :])
            w = w[inverse]
            sites = np.mod(np.ceil(p).astype(int)[:, None, :] - 1 + L.offsets, self.table.shape[0])
            phi = self.table[tuple(sites[..., a] for a in range(d)) + (L.slots,)]
            block = out[lo:lo + _BLOCK]
            for s0, s1, rho in L.spans:
                block += contract(w[:, s0:s1], phi[:, s0:s1], rho)
        return out.reshape(x.shape[:-1] + shape)

    def eval(self, x) -> np.ndarray:
        """Stress tensors at points ``x`` of shape (..., d); returns (..., d, d)."""

        def contract(w, phi, rho):
            return np.einsum("pK,pKi,a->pia", w, phi, rho)

        d = self.P.d
        return self._sum_bonds(x, chi_eval, contract, (d, d))

    def div(self, x) -> np.ndarray:
        """Distributional divergence at points away from kernel kinks, (..., d)."""

        def contract(gw, phi, rho):
            return (gw[:, None, :] @ phi)[:, 0]

        return self._sum_bonds(x, grad_chi_eval, contract, (self.P.d,))


def atomistic_stress(P: Potential, u) -> StressField:
    """Localized atomistic stress field of a displacement.

    ``u`` may be a periodic ``DisplacementField`` or a free-space
    ``AffineDisplacement``.  The returned field evaluates

        S(x) = sum_xi sum_rho V_rho(Du(xi)) (x) rho  chi_{xi, rho}(x).
    """
    return StressField(P=P, table=_bond_gradient_table(P, u))


def div_cb_stress(M: CBModel, F: np.ndarray, H2: np.ndarray) -> np.ndarray:
    """Divergence of the Cauchy-Born stress of a smooth field from its derivatives.

    The arrays ``F`` (..., d, d) hold the gradients ``F[i, alpha] = d_alpha u_i``
    and ``H2`` (..., d, d, d) the second derivatives ``H2[j, p, q] = d_p d_q u_j``;
    div S_i = sum_{j p q} C_{i p j q}(F) d_p d_q u_j with the moduli of ``M``.
    Returns shape (..., d).
    """
    d = M.P.d
    C = M.moduli(F.reshape(-1, d, d))
    return np.einsum("kipjq,kjpq->ki", C, H2.reshape(-1, d, d, d)).reshape(F.shape[:-1])


# ---------------------------------------------------------------------------
# consistency experiment
# ---------------------------------------------------------------------------

def stress_consistency_field(
    M: CBModel,
    U: TrigField,
    eps: float,
    n_per_cell: int = 4,
) -> dict:
    """Pointwise gap between the atomistic stress of ``M.P`` and ``M``'s Cauchy-Born stress.

    The macroscopic displacement ``U`` is viewed at scale ``eps``,
    ``u(x) = U(eps x) / eps``, and restricted to the lattice; both stress
    fields are compared on a staggered grid with ``n_per_cell`` points per
    lattice cell and axis, where ``grad u = (grad U)(eps x)`` and
    ``hess u = eps (hess U)(eps x)`` are ``TrigField.sample`` grids.  The
    divergence gap is reported in macroscopic scaling (divided by ``eps``),
    matching the second-order consistency claim; the raw microscopic
    divergence gap is one order smaller.

    Returns a dict with ``err_stress`` = max |S^a - S^c| and
    ``err_div`` = max |div S^a - div S^c| / eps over the grid.
    """
    d, N = U.d, supercell_period(eps)
    n = N * n_per_cell
    offsets = (np.arange(n_per_cell) + 0.5) / n_per_cell
    pts = tensor_grid([np.add.outer(np.arange(N, dtype=float), offsets).ravel()] * d)
    E = np.eye(d, dtype=int)
    F = np.stack([U.sample(n, 0.5, deriv=tuple(e)) for e in E], -1).reshape(-1, d, d)
    H2 = eps * np.stack([np.stack([U.sample(n, 0.5, deriv=tuple(a + b)) for b in E], -1)
                         for a in E], -2).reshape(-1, d, d, d)

    u = DisplacementField(LatticeSpec(d=d, A=np.eye(d), N=N), U.sample(N) / eps)
    field = atomistic_stress(M.P, u)
    Sa = field.eval(pts)
    Sc = M.stress(F)
    err_stress = float(np.max(np.abs(Sa - Sc)))

    diva = field.div(pts)
    divc = div_cb_stress(M, F, H2)
    err_div = float(np.max(np.abs(diva - divc))) / eps

    return {
        "eps": float(eps),
        "n_points": int(pts.shape[0]),
        "err_stress": err_stress,
        "err_div": err_div,
    }
