"""Finite-range site potentials on the lattice and their derivatives.

A site potential maps the local difference stencil
``g = (D_rho u(xi))_rho`` to an energy; the lattice energy is the sum over
sites.  Three variants are provided:

* ``PairPotential`` -- half-counted pair interactions through a smooth
  radial profile (Lennard-Jones, Morse, or a general power-law sum),
* ``EAMPotential`` -- pair part plus an embedding function of a host
  electron density built from a radial weight,
* ``HarmonicChain`` -- the quadratic first/second-neighbour chain used for
  closed-form stability and instability studies.

All variants are normalized so that the ground state has zero energy
(``V(0) = 0``), and all expose analytic gradients and Hessian blocks that
the rest of the package consumes.  Configurations are admissible when every
scaled difference ``|g_rho| / |rho|`` stays below the potential's ``kappa``,
which keeps bond lengths inside the validity interval of the radial
profiles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from .lattice import (
    DisplacementField,
    LatticeSpec,
    StencilSet,
    all_stencils,
    scatter_bonds,
    stencil_sup_norm,
)

__all__ = [
    "AdmissibilityError",
    "RadialProfile",
    "PowerLawProfile",
    "MorseProfile",
    "ExpProfile",
    "PolynomialEmbedding",
    "lennard_jones",
    "Potential",
    "PairPotential",
    "EAMPotential",
    "HarmonicChain",
    "site_energy",
    "site_gradient",
    "site_hessian",
    "pair_block",
    "total_energy",
    "force_array",
    "gradient_array",
    "hessian_operator",
    "hessian_matrix",
    "decay_report",
    "DecayReport",
    "potential_from_config",
]


class AdmissibilityError(ValueError):
    """Raised when a configuration leaves the admissible stencil region."""


# ---------------------------------------------------------------------------
# radial profiles
# ---------------------------------------------------------------------------

class RadialProfile:
    """Smooth scalar profile r -> phi(r) with analytic derivatives.

    Subclasses implement ``deriv(r, order)`` for any order; ``r_min`` marks
    the lower end of the validity interval.
    """

    r_min: float = 0.0

    def __call__(self, r):
        return self.deriv(r, 0)

    def deriv(self, r, order: int):  # pragma: no cover - interface
        raise NotImplementedError


@dataclass(frozen=True)
class PowerLawProfile(RadialProfile):
    """Sum of power laws phi(r) = sum_i c_i r^{p_i}."""

    powers: tuple
    coeffs: tuple
    r_min: float = 1e-8

    def deriv(self, r, order: int):
        r = np.asarray(r, dtype=float)
        out = np.zeros_like(r)
        for p, c in zip(self.powers, self.coeffs):
            fac = c
            for k in range(order):
                fac *= p - k
            out = out + fac * r ** (p - order)
        return out


def lennard_jones(well_depth: float = 1.0, r0: float = 1.0) -> PowerLawProfile:
    """Lennard-Jones profile with minimum -well_depth at r0.

    phi(r) = well_depth ((r0/r)^12 - 2 (r0/r)^6); phi'(r0) = 0 and
    phi''(r0) = 72 well_depth / r0^2.
    """
    return PowerLawProfile(
        powers=(-12, -6),
        coeffs=(well_depth * r0**12, -2.0 * well_depth * r0**6),
    )


@dataclass(frozen=True)
class MorseProfile(RadialProfile):
    """Morse profile phi(r) = D (e^{-2a(r-r0)} - 2 e^{-a(r-r0)})."""

    well_depth: float = 1.0
    stiffness: float = 3.0
    r0: float = 1.0
    r_min: float = 0.0

    def deriv(self, r, order: int):
        r = np.asarray(r, dtype=float)
        a = self.stiffness
        dr = r - self.r0
        return self.well_depth * (
            (-2.0 * a) ** order * np.exp(-2.0 * a * dr)
            - 2.0 * (-a) ** order * np.exp(-a * dr)
        )


@dataclass(frozen=True)
class ExpProfile(RadialProfile):
    """Exponential weight psi(r) = c e^{-beta (r - r0)} (host density kernels)."""

    amplitude: float = 1.0
    beta: float = 3.0
    r0: float = 1.0
    r_min: float = 0.0

    def deriv(self, r, order: int):
        r = np.asarray(r, dtype=float)
        return self.amplitude * (-self.beta) ** order * np.exp(-self.beta * (r - self.r0))


@dataclass(frozen=True)
class PolynomialEmbedding:
    """Embedding function G(s) = sum_i c_i s^i with analytic derivatives."""

    coeffs: tuple

    def deriv(self, s, order: int):
        c = np.polynomial.polynomial.polyder(np.asarray(self.coeffs, dtype=float), order) \
            if order > 0 else np.asarray(self.coeffs, dtype=float)
        return np.polynomial.polynomial.polyval(np.asarray(s, dtype=float), c)

    def __call__(self, s):
        return self.deriv(s, 0)


# ---------------------------------------------------------------------------
# potential variants
# ---------------------------------------------------------------------------

@dataclass
class Potential:
    """Common bookkeeping for site potentials.

    Attributes
    ----------
    d : space dimension.
    A : (d, d) lattice matrix defining reference bonds ``A rho``.
    S : interaction stencil.
    kappa : admissibility radius for the scaled stencil norm.
    """

    d: int
    A: np.ndarray
    S: StencilSet
    kappa: float

    variant = "abstract"

    def __post_init__(self):
        self.A = np.asarray(self.A, dtype=float)
        if self.A.shape != (self.d, self.d):
            raise ValueError(f"A must be ({self.d}, {self.d})")
        if self.S.d != self.d:
            raise ValueError("stencil dimension does not match potential dimension")
        # reference bonds A rho and their lengths, aligned with stencil slots
        self.bond_ref = self.S.directions @ self.A.T
        self.bond_len = np.linalg.norm(self.bond_ref, axis=1)
        self.inv_norm_A = float(np.linalg.norm(np.linalg.inv(self.A), 2))
        if not (0.0 < self.kappa):
            raise ValueError("kappa must be positive")

    # -- admissibility ------------------------------------------------------

    @property
    def mu(self) -> float:
        """Lower bond-compression factor 1 - kappa ||A^-1||; positive when finite."""
        if math.isinf(self.kappa):
            return -math.inf
        return 1.0 - self.kappa * self.inv_norm_A

    def check_admissible(self, g: np.ndarray, context: str = "") -> None:
        """Raise AdmissibilityError unless max_rho |g_rho|/|rho| <= kappa.

        Non-finite stencils are rejected for every kappa, infinite included.
        """
        nrm = stencil_sup_norm(g, self.S)
        if not math.isfinite(nrm):
            problem = f"non-finite stencil norm {nrm}"
        elif not nrm <= self.kappa:
            problem = f"stencil norm {nrm:.6g} exceeds kappa={self.kappa:.6g}"
        else:
            return
        where = f" ({context})" if context else ""
        raise AdmissibilityError(problem + where)

    # -- derivative interface ----------------------------------------------

    def site_energy(self, g: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def site_gradient(self, g: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def site_hessian(self, g: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    # -- helpers shared by pair-type variants -------------------------------

    def _bond_geometry(self, g: np.ndarray):
        """Deformed bonds, lengths and unit vectors for a stencil batch."""
        bonds = g + self.bond_ref
        r = np.sqrt(np.sum(bonds * bonds, axis=-1))
        unit = bonds / r[..., None]
        return bonds, r, unit


@dataclass
class PairPotential(Potential):
    """Half-counted pair interaction V(g) = 1/2 sum_rho (phi(|A rho + g_rho|) - phi(|A rho|))."""

    phi: RadialProfile = dc_field(default_factory=lennard_jones)
    variant = "pair"

    def __post_init__(self):
        super().__post_init__()
        if math.isfinite(self.kappa):
            if self.mu <= 0.0:
                raise ValueError(
                    f"kappa={self.kappa} allows bond collapse (mu={self.mu:.3g} <= 0)"
                )
            if self.mu * self.bond_len.min() <= self.phi.r_min:
                raise ValueError("admissible bonds can leave the profile domain")
        self._phi_ref = self.phi.deriv(self.bond_len, 0)

    def site_energy(self, g):
        _, r, _ = self._bond_geometry(g)
        return 0.5 * np.sum(self.phi.deriv(r, 0) - self._phi_ref, axis=-1)

    def site_gradient(self, g):
        _, r, unit = self._bond_geometry(g)
        return 0.5 * self.phi.deriv(r, 1)[..., None] * unit

    def site_hessian(self, g):
        _, r, unit = self._bond_geometry(g)
        n, d = self.S.n, self.d
        p2 = self.phi.deriv(r, 2)
        p1_over_r = self.phi.deriv(r, 1) / r
        eye = np.eye(d)
        uu = unit[..., :, None] * unit[..., None, :]  # (..., n, d, d)
        block = 0.5 * (p2[..., None, None] * uu + p1_over_r[..., None, None] * (eye - uu))
        out = np.zeros(g.shape[:-2] + (n, d, n, d))
        idx = np.arange(n)
        # advanced indexing puts the slot axis first
        out[..., idx, :, idx, :] = np.moveaxis(block, -3, 0)
        return out


@dataclass
class EAMPotential(Potential):
    """Embedded-atom site energy: pair part plus embedded host density.

    V(g) = sum_rho (phi(|A rho + g_rho|) - phi(|A rho|))
           + G(sum_rho psi(|A rho + g_rho|)) - G(sum_rho psi(|A rho|)).

    The embedding couples all stencil slots, so Hessian blocks carry a
    rank-one contribution G''(s) grad_psi x grad_psi across slot pairs.
    """

    phi: RadialProfile = dc_field(default_factory=lambda: MorseProfile())
    psi: RadialProfile = dc_field(default_factory=lambda: ExpProfile())
    embed: PolynomialEmbedding = dc_field(default_factory=lambda: PolynomialEmbedding((0.0, 1.0)))
    variant = "eam"

    def __post_init__(self):
        super().__post_init__()
        if math.isfinite(self.kappa) and self.mu <= 0.0:
            raise ValueError(f"kappa={self.kappa} allows bond collapse")
        self._phi_ref = self.phi.deriv(self.bond_len, 0)
        self._psi_ref = self.psi.deriv(self.bond_len, 0)
        self._s_ref = float(np.sum(self._psi_ref))

    def site_energy(self, g):
        _, r, _ = self._bond_geometry(g)
        pair = np.sum(self.phi.deriv(r, 0) - self._phi_ref, axis=-1)
        s = np.sum(self.psi.deriv(r, 0), axis=-1)
        return pair + self.embed.deriv(s, 0) - self.embed.deriv(self._s_ref, 0)

    def site_gradient(self, g):
        _, r, unit = self._bond_geometry(g)
        s = np.sum(self.psi.deriv(r, 0), axis=-1)
        gprime = self.embed.deriv(s, 1)
        radial = self.phi.deriv(r, 1) + gprime[..., None] * self.psi.deriv(r, 1)
        return radial[..., None] * unit

    def site_hessian(self, g):
        _, r, unit = self._bond_geometry(g)
        n, d = self.S.n, self.d
        s = np.sum(self.psi.deriv(r, 0), axis=-1)
        g1 = self.embed.deriv(s, 1)
        g2 = self.embed.deriv(s, 2)
        eye = np.eye(d)
        uu = unit[..., :, None] * unit[..., None, :]
        rad2 = self.phi.deriv(r, 2) + g1[..., None] * self.psi.deriv(r, 2)
        rad1_over_r = (self.phi.deriv(r, 1) + g1[..., None] * self.psi.deriv(r, 1)) / r
        diag = rad2[..., None, None] * uu + rad1_over_r[..., None, None] * (eye - uu)
        psi_grad = self.psi.deriv(r, 1)[..., None] * unit  # (..., n, d)
        cross = g2[..., None, None, None, None] * (
            psi_grad[..., :, :, None, None] * psi_grad[..., None, None, :, :]
        )
        out = cross
        idx = np.arange(n)
        out[..., idx, :, idx, :] += np.moveaxis(diag, -3, 0)
        return out


@dataclass
class HarmonicChain(Potential):
    """Quadratic first/second-neighbour chain in one dimension.

    V(g) = (a1/4)(g_{-1}^2 + g_1^2) + (a2/4)(g_{-2}^2 + g_2^2), which yields
    the per-site energies (a1 + 4 a2)/2 under unit homogeneous strain and
    a1/2 under the alternating strain pattern.  Quadratic potentials are
    globally defined, so ``kappa`` defaults to infinity.
    """

    a1: float = 1.0
    a2: float = 0.0
    variant = "harmonic_chain"

    def __post_init__(self):
        super().__post_init__()
        if self.d != 1:
            raise ValueError("HarmonicChain requires d = 1")
        coeff = {1: self.a1 / 4.0, 2: self.a2 / 4.0}
        self._c = np.array([coeff[int(abs(r[0]))] for r in self.S.directions])

    @classmethod
    def build(cls, a1: float, a2: float, kappa: float = math.inf) -> "HarmonicChain":
        return cls(
            d=1,
            A=np.eye(1),
            S=StencilSet.ball(1, 2.0),
            kappa=kappa,
            a1=a1,
            a2=a2,
        )

    def site_energy(self, g):
        return np.sum(self._c * g[..., 0] ** 2, axis=-1)

    def site_gradient(self, g):
        return (2.0 * self._c)[..., None] * g

    def site_hessian(self, g):
        n = self.S.n
        batch = g.shape[:-2]
        out = np.zeros(batch + (n, 1, n, 1))
        idx = np.arange(n)
        # scalar separators keep the advanced block contiguous, so the slot
        # axis stays in place and a (n,) right-hand side broadcasts
        out[..., idx, 0, idx, 0] = 2.0 * self._c
        return out


# ---------------------------------------------------------------------------
# module-level operations (thin wrappers with validation)
# ---------------------------------------------------------------------------

def site_energy(P: Potential, g: np.ndarray) -> np.ndarray:
    """Energy V(g) of a single stencil or stencil batch (..., n, d)."""
    g = np.asarray(g, dtype=float)
    P.check_admissible(g)
    return P.site_energy(g)


def site_gradient(P: Potential, g: np.ndarray) -> np.ndarray:
    """First derivatives (V_rho(g))_rho, shape (..., n, d)."""
    g = np.asarray(g, dtype=float)
    P.check_admissible(g)
    return P.site_gradient(g)


def site_hessian(P: Potential, g: np.ndarray) -> np.ndarray:
    """Second-derivative blocks V_{rho sigma}(g), shape (..., n, d, n, d)."""
    g = np.asarray(g, dtype=float)
    P.check_admissible(g)
    return P.site_hessian(g)


def pair_block(P: Potential, g: np.ndarray, rho, sigma) -> np.ndarray:
    """Single Hessian block V_{rho sigma}(g) as a (d, d) matrix."""
    H = site_hessian(P, g)
    i = P.S.index_of(rho)
    j = P.S.index_of(sigma)
    return H[..., i, :, j, :]


def total_energy(P: Potential, u: DisplacementField) -> float:
    """Supercell energy E(u) = sum_xi V(Du(xi))."""
    g = all_stencils(u.values, P.S)
    P.check_admissible(g)
    return float(np.sum(P.site_energy(g)))


def gradient_array(P: Potential, values: np.ndarray, check: bool = True) -> np.ndarray:
    """Assembled energy gradient dE/du(eta) as a raw value array.

    Site gradients are scattered by the difference structure:
    dE/du(eta) = sum_rho (V_rho(Du(eta - rho)) - V_rho(Du(eta))).
    """
    g = all_stencils(values, P.S)
    if check:
        P.check_admissible(g)
    return scatter_bonds(P.site_gradient(g), P.S)


def force_array(P: Potential, values: np.ndarray, check: bool = True) -> np.ndarray:
    """Forces -dE/du as a raw value array."""
    return -gradient_array(P, values, check=check)


def hessian_operator(P: Potential, values: np.ndarray):
    """Matrix-free action of the energy Hessian at a fixed configuration.

    Returns ``apply(v_values) -> (H v)_values`` with the second-derivative
    blocks precomputed once, suitable for Krylov inner solves:
    (Hv)(eta) = sum_{rho, sigma} (M_{rho sigma}(eta - sigma)^T D_rho v(eta - sigma)
                                  - M_{rho sigma}(eta)^T D_rho v(eta)).
    """
    g = all_stencils(values, P.S)
    M = P.site_hessian(g)  # (N..., n, d, n, d)
    S = P.S

    def apply(v_values: np.ndarray) -> np.ndarray:
        Dv = all_stencils(np.asarray(v_values, dtype=float), S)
        return scatter_bonds(np.einsum("...aibj,...ai->...bj", M, Dv), S)

    return apply


def hessian_matrix(P: Potential, lattice: LatticeSpec, values: np.ndarray | None = None) -> np.ndarray:
    """Dense Hessian of the supercell energy (desk-scale sizes only).

    Row/column index is ``site * d + component`` with sites in row-major
    order.  Assembled by applying the matrix-free Hessian to unit vectors.
    """
    if values is None:
        values = np.zeros((lattice.N,) * lattice.d + (lattice.d,))
    apply = hessian_operator(P, values)
    n_dof = lattice.n_sites * lattice.d
    H = np.empty((n_dof, n_dof))
    shape = values.shape
    for j in range(n_dof):
        e = np.zeros(n_dof)
        e[j] = 1.0
        H[:, j] = apply(e.reshape(shape)).ravel()
    return 0.5 * (H + H.T)


# ---------------------------------------------------------------------------
# decay report
# ---------------------------------------------------------------------------

@dataclass
class DecayReport:
    """Certified bounds on stencil-derivative magnitudes and their sums.

    ``m[j]`` maps each direction (or direction pair for the embedding cross
    terms) to an upper bound on the derivative block norms over all
    admissible configurations, scaled by the bond-length weights
    ``prod |rho_i|``.  ``M`` collects the partial sums per order,
    ``Ms2``/``Md2`` the weighted second-order sums used by the stress and
    dynamics error constants, and ``tails`` the bound on the remainder if
    the interaction were extended beyond the cutoff with the declared decay
    exponent (``None`` when the sum would diverge).
    """

    variant: str
    kappa: float
    j_max: int
    m: dict
    M: dict
    Ms2: float
    Md2: float
    tails: dict
    notes: str = ""

    def summary(self) -> str:
        lines = [f"decay report ({self.variant}, kappa={self.kappa:g})"]
        for j in sorted(self.M):
            lines.append(f"  M^({j}) = {self.M[j]:.6g}")
        lines.append(f"  Ms^(2,2) = {self.Ms2:.6g}, Md^(2,2) = {self.Md2:.6g}")
        for name, val in self.tails.items():
            lines.append(f"  tail[{name}] = {'divergent' if val is None else f'{val:.3g}'}")
        if self.notes:
            lines.append(f"  note: {self.notes}")
        return "\n".join(lines)


def _interval_sup(profile: RadialProfile, order: int, lo: float, hi: float, n: int = 400) -> float:
    """Upper bound for |profile^(order)| on [lo, hi] via a dense grid."""
    r = np.linspace(lo, hi, n)
    return float(np.max(np.abs(profile.deriv(r, order))))


def _radial_block_bound(profile: RadialProfile, j: int, lo: float, hi: float) -> float:
    """Bound on j-th derivative blocks of v -> profile(|b + v|) on the shell.

    Uses max_i |profile^(i)(r)| / r^(j-i) over the radius interval
    (combinatorial constants of the chain rule are dropped; this is a
    finiteness certificate, not a sharp constant).
    """
    r = np.linspace(lo, hi, 400)
    best = 0.0
    for i in range(1, j + 1):
        best = max(best, float(np.max(np.abs(profile.deriv(r, i)) / r ** (j - i))))
    return best


def decay_report(
    P: Potential,
    alpha: float | None = None,
    beta: float | None = None,
    j_max: int = 4,
    r_tail: float | None = None,
) -> DecayReport:
    """Tabulated decay constants m(rho) and tail bounds for a potential.

    Parameters
    ----------
    P : Potential
    alpha : power-law decay exponent of the pair profile tail
        (|phi^(i)(r)| ~ r^{-alpha-i}); required for pair-tail bounds.
    beta : exponential rate of the density weight (EAM); required for
        embedding-tail bounds.
    j_max : highest derivative order tabulated.
    r_tail : radius beyond which the tail bound is evaluated
        (defaults to the stencil cutoff).

    Divergent sums (e.g. alpha <= d) are reported as ``None`` entries in
    ``tails`` rather than raising.
    """
    S = P.S
    d = P.d
    R = float(r_tail if r_tail is not None else S.r_cut)
    kappa = P.kappa
    m: dict[int, dict] = {j: {} for j in range(1, j_max + 1)}
    notes = ""

    if P.variant == "harmonic_chain":
        # quadratic: only j in {1, 2} nonzero; exact values per direction
        for i, rho in enumerate(S.directions):
            t = tuple(rho)
            nrm = float(np.linalg.norm(rho))
            c = 2.0 * P._c[i]
            m[2][t] = nrm**2 * abs(c)
            m[1][t] = nrm * abs(c) * kappa * nrm if math.isfinite(kappa) else math.inf
        for j in range(3, j_max + 1):
            for rho in S.directions:
                m[j][tuple(rho)] = 0.0
        M = {j: float(sum(m[j].values())) for j in m}
        Ms2 = float(
            sum(
                v * (2 * np.linalg.norm(np.array(t))) ** 2 * math.sqrt(2 * np.linalg.norm(np.array(t)))
                for t, v in m[2].items()
            )
        )
        Md2 = float(
            sum(
                v * 8.0 * np.linalg.norm(np.array(t)) ** 2 * math.sqrt(2 * np.linalg.norm(np.array(t)))
                for t, v in m[2].items()
            )
        )
        return DecayReport(
            variant=P.variant, kappa=kappa, j_max=j_max, m=m, M=M, Ms2=Ms2, Md2=Md2,
            tails={"pair": 0.0}, notes="finite-range quadratic; tails vanish identically",
        )

    mu_lo = max(P.mu, 0.0) if math.isfinite(kappa) else 1.0
    mu_hi = 2.0 - mu_lo

    def shell(i_slot: int) -> tuple[float, float]:
        L = P.bond_len[i_slot]
        return max(L * mu_lo, getattr(P.phi, "r_min", 0.0) + 1e-9), L * mu_hi

    pair_scale = 0.5 if P.variant == "pair" else 1.0
    for i, rho in enumerate(S.directions):
        t = tuple(rho)
        lo, hi = shell(i)
        nrm = float(np.linalg.norm(rho))
        for j in range(1, j_max + 1):
            m[j][t] = pair_scale * nrm**j * _radial_block_bound(P.phi, j, lo, hi)

    cross2 = 0.0
    if P.variant == "eam":
        # embedding contributions: diagonal radial part plus cross products
        s_lo = float(sum(min(P.psi.deriv(np.array([lo, hi]), 0)) for lo, hi in map(shell, range(S.n))))
        s_hi = float(sum(max(P.psi.deriv(np.array([lo, hi]), 0)) for lo, hi in map(shell, range(S.n))))
        supG = {i: _interval_sup(P.embed, i, min(s_lo, s_hi), max(s_lo, s_hi)) for i in range(1, j_max + 1)}
        E1 = {}
        for i, rho in enumerate(S.directions):
            lo, hi = shell(i)
            E1[i] = _interval_sup(P.psi, 1, lo, hi)
            t = tuple(rho)
            nrm = float(np.linalg.norm(rho))
            for j in range(1, j_max + 1):
                m[j][t] += supG[1] * nrm**j * _radial_block_bound(P.psi, j, lo, hi)
        # rank-one cross-blocks at order 2: G'' psi' psi' over all pairs
        for i, rho in enumerate(S.directions):
            for k, sig in enumerate(S.directions):
                if i == k:
                    continue
                val = supG[2] * E1[i] * E1[k]
                nr, ns = np.linalg.norm(rho), np.linalg.norm(sig)
                m[2][(tuple(rho), tuple(sig))] = float(nr * ns * val)
                cross2 += float(nr * ns * val)
        notes = "embedding cross terms tabulated at order 2; higher orders bounded by products"

    M = {j: float(sum(m[j].values())) for j in m}

    def pairweights(t) -> tuple[float, float, float]:
        """(|rho1|, |rho2|, cross weight) for a diagonal or off-diagonal entry."""
        if isinstance(t[0], tuple):
            r1, r2 = np.array(t[0], float), np.array(t[1], float)
        else:
            r1 = r2 = np.array(t, float)
        n1, n2 = np.linalg.norm(r1), np.linalg.norm(r2)
        if len(r1) == 3:
            crs = np.linalg.norm(np.cross(r1, r2))
        elif len(r1) == 2:
            crs = abs(r1[0] * r2[1] - r1[1] * r2[0])
        else:
            crs = 0.0
        return n1, n2, crs

    Ms2 = 0.0
    Md2 = 0.0
    for t, v in m[2].items():
        n1, n2, crs = pairweights(t)
        tot = n1 + n2
        w = math.sqrt(crs + n1 + n2)
        Ms2 += v * tot**2 * w
        Md2 += v * tot**3 / n1 * w
    Ms2, Md2 = float(Ms2), float(Md2)

    tails: dict[str, float | None] = {}
    if alpha is not None:
        # power-law tail: m_j(rho) ~ K |rho|^{-alpha}; calibrate K on the
        # outermost shell, count lattice shells by c_d n^{d-1}
        c_d = 2 * d * 3 ** (d - 1)
        outer = max(
            (v * np.linalg.norm(np.array(t)) ** alpha)
            for t, v in m[min(2, j_max)].items()
            if not isinstance(t[0], tuple)
        )
        if alpha <= d:
            tails["pair"] = None
        else:
            tails["pair"] = float(c_d * outer * R ** (d - alpha) / (alpha - d))
        tails["pair_weighted"] = (
            None if alpha <= d + 2.5
            else float(c_d * outer * 8.0 * R ** (d + 2.5 - alpha) / (alpha - d - 2.5))
        )
    if beta is not None and P.variant == "eam":
        # exponential tail via a geometric majorant on lattice shells
        c_d = 2 * d * 3 ** (d - 1)
        q = ((R + 1.0) / R) ** (d + 1) * math.exp(-beta * mu_lo)
        if q >= 1.0:
            tails["embedding"] = None
        else:
            first = c_d * (R + 1.0) ** (d + 1) * math.exp(-beta * mu_lo * (R + 1.0))
            tails["embedding"] = float(first / (1.0 - q))

    return DecayReport(
        variant=P.variant, kappa=kappa, j_max=j_max, m=m, M=M,
        Ms2=Ms2, Md2=Md2, tails=tails, notes=notes,
    )


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

def _profile_from_config(cfg: dict) -> RadialProfile:
    kind = cfg.get("kind")
    if kind == "lennard_jones":
        return lennard_jones(cfg.get("well_depth", 1.0), cfg.get("r0", 1.0))
    if kind == "morse":
        return MorseProfile(
            well_depth=cfg.get("well_depth", 1.0),
            stiffness=cfg.get("stiffness", 3.0),
            r0=cfg.get("r0", 1.0),
        )
    if kind == "exp":
        return ExpProfile(
            amplitude=cfg.get("amplitude", 1.0),
            beta=cfg.get("beta", 3.0),
            r0=cfg.get("r0", 1.0),
        )
    if kind == "power_law":
        return PowerLawProfile(powers=tuple(cfg["powers"]), coeffs=tuple(cfg["coeffs"]))
    raise ValueError(f"unknown radial profile kind: {kind!r}")


def potential_from_config(cfg: dict) -> Potential:
    """Build a potential from a plain configuration dictionary.

    Required keys: ``variant``; pair/eam additionally need ``d``, ``r_cut``
    and profile blocks, the harmonic chain needs ``a1``/``a2``.  ``kappa``
    defaults to 0.25 scaled by 1/||A^-1|| (a safely admissible radius).
    """
    variant = cfg.get("variant")
    if variant == "harmonic_chain":
        return HarmonicChain.build(
            a1=float(cfg["a1"]),
            a2=float(cfg.get("a2", 0.0)),
            kappa=float(cfg.get("kappa", math.inf)),
        )
    d = int(cfg.get("d", 1))
    A = np.asarray(cfg.get("A", np.eye(d)), dtype=float)
    S = StencilSet.ball(d, float(cfg.get("r_cut", 1.0)))
    kappa = cfg.get("kappa")
    if kappa is None:
        kappa = 0.25 / np.linalg.norm(np.linalg.inv(A), 2)
    if variant == "pair":
        return PairPotential(d=d, A=A, S=S, kappa=float(kappa),
                             phi=_profile_from_config(cfg.get("phi", {"kind": "lennard_jones"})))
    if variant == "eam":
        return EAMPotential(
            d=d, A=A, S=S, kappa=float(kappa),
            phi=_profile_from_config(cfg.get("phi", {"kind": "morse"})),
            psi=_profile_from_config(cfg.get("psi", {"kind": "exp"})),
            embed=PolynomialEmbedding(tuple(cfg.get("embed", {}).get("coeffs", (0.0, 1.0)))),
        )
    raise ValueError(f"unknown potential variant: {variant!r}")
