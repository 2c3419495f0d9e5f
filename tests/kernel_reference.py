"""The full-stencil kernel with its per-call overhead: the oracle of the trimmed one.

These are the stencil pass, the admissibility rule's squared norms, the EAM,
harmonic-chain and pair site terms and the assembled operators as they were
written with the ``np.sum`` and ``np.take`` wrappers, ``np.sum(g * g,
axis=-1)`` for squared lengths and the harmonic chain's ``2 c`` formed on
every call.  The library computes the same floating-point operations in the
same order; the tests compare the two bit for bit.
"""

from __future__ import annotations

import numpy as np

from latcb.lattice import neighbour_plan
from latcb.potentials import EAMPotential, HarmonicChain, PairPotential


def all_stencils(values, S, plan=None):
    cell, d = values.shape[:-1], values.shape[-1]
    gather, _, _ = plan or neighbour_plan(cell, S)
    flat = values.reshape(-1, d)
    return (np.take(flat, gather, axis=0) - flat[:, None, :]).reshape(cell + (S.n, d))


def scatter_bonds(Vr, S, plan=None):
    cell, d = Vr.shape[:-2], Vr.shape[-1]
    _, scatter, _ = plan or neighbour_plan(cell, S)
    terms = np.take(Vr.reshape(-1, d), scatter, axis=0)
    terms -= Vr.reshape(-1, S.n, d).swapaxes(0, 1)
    return terms.sum(axis=0).reshape(cell + (d,))


def check_admissible(P, g, context=""):
    P._require_admissible(np.sum(g * g, axis=-1), P.S.inv_sq_norms, context)


def _bond_geometry(P, g):
    bonds = g + P.bond_ref
    r = np.sqrt(np.sum(bonds * bonds, axis=-1))
    return bonds, r, bonds / r[..., None]


def site_energy(P, g):
    if isinstance(P, HarmonicChain):
        return np.sum(P._c * g[..., 0] ** 2, axis=-1)
    _, r, _ = _bond_geometry(P, g)
    if isinstance(P, PairPotential):
        return 0.5 * np.sum(P.phi.deriv(r, 0) - P._phi_ref, axis=-1)
    pair = np.sum(P.phi.deriv(r, 0) - P._phi_ref, axis=-1)
    s = np.sum(P.psi.deriv(r, 0), axis=-1)
    return pair + P.embed.deriv(s, 0) - P.embed.deriv(P._s_ref, 0)


def site_gradient(P, g):
    if isinstance(P, HarmonicChain):
        return (2.0 * P._c)[..., None] * g
    assert isinstance(P, EAMPotential)
    _, r, unit = _bond_geometry(P, g)
    s = np.sum(P.psi.deriv(r, 0), axis=-1)
    radial = P.phi.deriv(r, 1) + P.embed.deriv(s, 1)[..., None] * P.psi.deriv(r, 1)
    return radial[..., None] * unit


def eam_site_hessian(P, g):
    _, r, unit = _bond_geometry(P, g)
    n, d = P.S.n, P.d
    s = np.sum(P.psi.deriv(r, 0), axis=-1)
    g1 = P.embed.deriv(s, 1)
    g2 = P.embed.deriv(s, 2)
    eye = np.eye(d)
    uu = unit[..., :, None] * unit[..., None, :]
    rad2 = P.phi.deriv(r, 2) + g1[..., None] * P.psi.deriv(r, 2)
    rad1_over_r = (P.phi.deriv(r, 1) + g1[..., None] * P.psi.deriv(r, 1)) / r
    diag = rad2[..., None, None] * uu + rad1_over_r[..., None, None] * (eye - uu)
    psi_grad = P.psi.deriv(r, 1)[..., None] * unit
    out = g2[..., None, None, None, None] * (
        psi_grad[..., :, :, None, None] * psi_grad[..., None, None, :, :]
    )
    idx = np.arange(n)
    out[..., idx, :, idx, :] += np.moveaxis(diag, -3, 0)
    return out


def total_energy(P, values):
    g = all_stencils(values, P.S)
    check_admissible(P, g)
    return float(np.sum(site_energy(P, g)))


def gradient_array(P, values, plan=None):
    """The full-stencil path (EAM and the harmonic chain)."""
    plan = plan or neighbour_plan(values.shape[:-1], P.S)
    g = all_stencils(values, P.S, plan)
    check_admissible(P, g)
    return scatter_bonds(site_gradient(P, g), P.S, plan)


def energies_and_gradient(P, values, plan=None):
    plan = plan or neighbour_plan(values.shape[:-1], P.S)
    g = all_stencils(values, P.S, plan)
    check_admissible(P, g)
    return site_energy(P, g), scatter_bonds(site_gradient(P, g), P.S, plan)


def hessian_operator(P, values, plan=None):
    g = all_stencils(values, P.S, plan)
    if isinstance(P, HarmonicChain):
        blocks = np.broadcast_to((2.0 * P._c)[:, None, None], g.shape[:-2] + (P.S.n, 1, 1))
        M, spec = blocks, "...aij,...ai->...aj"
    else:
        M, spec = eam_site_hessian(P, g), "...aibj,...ai->...bj"

    def apply(v_values):
        Dv = all_stencils(np.asarray(v_values, dtype=float), P.S, plan)
        return scatter_bonds(np.einsum(spec, M, Dv), P.S, plan)

    return apply
