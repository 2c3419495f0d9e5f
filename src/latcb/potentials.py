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
from functools import cached_property, lru_cache

import numpy as np

from .lattice import (
    StencilSet,
    _read_only,
    _ReadOnlyState,
    _leading_entry,
    all_stencils,
    neighbour_plan,
    scatter_bonds,
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
    "total_energy",
    "gradient_array",
    "hessian_operator",
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
    # Horner plan of the pair-bond terms in 1 / r^2 (see PowerLawProfile);
    # None: PairPotential._bond takes them from ``deriv``
    _horner_plan = None

    def deriv(self, r, order: int):  # pragma: no cover - interface
        raise NotImplementedError


@dataclass(frozen=True)
class PowerLawProfile(RadialProfile):
    """Sum of power laws phi(r) = sum_i c_i r^{p_i}."""

    powers: tuple
    coeffs: tuple
    r_min = 1e-8

    def __post_init__(self):
        if not 0 < len(self.powers) == len(self.coeffs):
            raise ValueError(f"powers and coeffs must be nonempty and of equal length; "
                             f"got {len(self.powers)} and {len(self.coeffs)}")

    def deriv(self, r, order: int):
        r = np.asarray(r, dtype=float)
        out = np.zeros_like(r)
        for p, c in zip(self.powers, self.coeffs):
            fac = c
            for k in range(order):
                fac *= p - k
            out = out + fac * r ** (p - order)
        return out

    @cached_property
    def _horner_plan(self):
        """Horner plan of ``phi'(r)/r`` and ``phi''(r)`` in ``x = 1 / r^2``;
        None unless every power is an even integer.

        Both are sums ``sum_j a_j x^k_j`` over ``k_j = 1 - p_j / 2``, with
        ``a_j = c_j p_j`` and ``c_j p_j (p_j - 1)``.  With the terms sorted by
        k, highest first, Horner's rule multiplies by ``x^(k_j - k_{j+1})``
        between terms and by ``x^k`` of the last k at the end (``(r^2)^-k``
        if it is negative).  The plan holds the products that form these
        powers (see ``_power``), whether one of them is the zeroth power (the
        ones register), and per quantity its Horner steps (coefficient,
        register of the power).
        """
        if not all(p == int(p) and int(p) % 2 == 0 for p in self.powers):
            return None
        terms = sorted(((1 - int(p) // 2, c * p, c * p * (p - 1))
                        for p, c in zip(self.powers, self.coeffs)), reverse=True)
        ks, force, stiffness = zip(*terms)
        exps = [(_INV, hi - lo) for hi, lo in zip(ks, ks[1:])]
        exps.append((_INV, ks[-1]) if ks[-1] >= 0 else (_R2, -ks[-1]))
        products = []
        powers = [_power(products, x, k) for x, k in exps]
        # numpy scalars: in-place updates skip the conversion of a Python float
        force, stiffness = (tuple(zip(map(np.float64, a), powers)) for a in (force, stiffness))
        return products, _ONES in powers, force, stiffness


# registers of a Horner plan: 1 / r^2, r^2, ones, then one per listed product
_INV, _R2, _ONES = 0, 1, 2


def _power(products: list, x: int, k: int) -> int:
    """Register of ``x ** k`` for an integer ``k >= 0`` by repeated squaring
    (products only): the product of the squares of k's set bits, lowest first.

    A product ``regs[i] * regs[j]`` is listed once in ``products`` as the
    pair (i, j) and lands in register ``3 + `` its position.
    """
    def times(i, j):
        if (i, j) not in products:
            products.append((i, j))
        return 3 + products.index((i, j))

    out = None
    while k:
        if k & 1:
            out = x if out is None else times(out, x)
        k >>= 1
        if k:
            x = times(x, x)
    return _ONES if out is None else out


def _horner(steps: tuple, regs: list) -> np.ndarray:
    """``(..((a_0 x_0 + a_1) x_1 + a_2) ..) x_m`` over the steps ``(a_j, p_j)``
    with ``x_j = regs[p_j]``, into a new array updated in place."""
    a, p = steps[0]
    acc = a * regs[p]
    for a, p in steps[1:]:
        acc += a
        acc *= regs[p]
    return acc


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

    def deriv(self, r, order: int):
        r = np.asarray(r, dtype=float)
        return self.amplitude * (-self.beta) ** order * np.exp(-self.beta * (r - self.r0))


@dataclass(frozen=True)
class PolynomialEmbedding(_ReadOnlyState):
    """Embedding function G(s) = sum_i c_i s^i with analytic derivatives."""

    coeffs: tuple

    @cached_property
    def _derivs(self) -> tuple:
        """Read-only coefficients of G, G', G'', ..., ending with the zero
        polynomial one order past the degree, which serves every higher order."""
        c = np.array(self.coeffs, dtype=float)
        out = (c,) + tuple(np.polynomial.polynomial.polyder(c, k) for k in range(1, c.size + 1))
        _read_only(out)
        return out

    def deriv(self, s, order: int):
        c = self._derivs[min(order, len(self._derivs) - 1)]
        return np.polynomial.polynomial.polyval(np.asarray(s, dtype=float), c)


# ---------------------------------------------------------------------------
# potential variants
# ---------------------------------------------------------------------------

def _require_finite(f, name: str, x, where: str) -> None:
    """ValueError unless ``f`` and its first two derivatives are finite at ``x``:
    a non-finite reference state would pass NaN into every symbol and solver."""
    with np.errstate(over="ignore", invalid="ignore"):
        values = [f.deriv(x, order) for order in range(3)]
    for value, primes in zip(values, ("", "'", "''")):
        if not np.all(np.isfinite(value)):
            raise ValueError(f"{name}{primes} is not finite at {where}")


@lru_cache(maxsize=16)
def _sine_plan(S: StencilSet) -> tuple[np.ndarray, np.ndarray]:
    """Half vectors ``tau / 2`` (d, T) of the stencil's sine-square terms and
    their (T, n^2) incidence matrix: slot pair (a, b) adds 2 at ``rho_a`` and
    ``rho_b``, -2 at ``rho_a - rho_b``; +-tau is one term."""
    dirs = S.directions
    ab = np.arange(len(dirs) ** 2)
    a, b = np.divmod(ab, len(dirs))
    off = a != b
    vecs = np.concatenate([dirs[a], dirs[b], dirs[a[off]] - dirs[b[off]]])
    vecs *= np.sign(_leading_entry(vecs))[:, None]
    tau, rows = np.unique(vecs, axis=0, return_inverse=True)
    incidence = np.zeros((len(tau), ab.size))
    np.add.at(incidence, (rows.ravel(), np.concatenate([ab, ab, ab[off]])),
              np.repeat([2.0, 2.0, -2.0], [ab.size, ab.size, int(off.sum())]))
    half = 0.5 * tau.T
    half.flags.writeable = incidence.flags.writeable = False
    return half, incidence


@dataclass(frozen=True)
class Potential(_ReadOnlyState):
    """Common bookkeeping for site potentials.

    Potentials are immutable: ``__post_init__`` derives the reference bonds
    and the variant's reference values once, as read-only arrays, and
    ``force_constants`` is computed on first use and kept.  The arrays stay
    read-only through pickling (see ``_ReadOnlyState``).

    A slot-diagonal variant sets ``hessian_blocks`` and inherits
    ``site_hessian``, which places the blocks on the diagonal, so the two
    cannot disagree; a class that overrides ``site_hessian`` must leave
    ``hessian_blocks`` None (checked when the class is defined).

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
    # slot-diagonal variants, whose energy couples no two stencil slots, set
    # ``hessian_blocks(g)``: the (..., n, d, d) blocks V_{rho rho}(g)
    hessian_blocks = None

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if cls.hessian_blocks is not None and cls.site_hessian is not Potential.site_hessian:
            raise TypeError(f"{cls.__name__} overrides site_hessian but keeps hessian_blocks; "
                            "hessian_operator would ignore its site_hessian")

    def __post_init__(self):
        A = np.array(self.A, dtype=float)
        if A.shape != (self.d, self.d):
            raise ValueError(f"A must be ({self.d}, {self.d})")
        if self.S.d != self.d:
            raise ValueError("stencil dimension does not match potential dimension")
        # reference bonds A rho and their lengths, aligned with stencil slots
        bond_ref = self.S.directions @ A.T
        self._derive(A=A, bond_ref=bond_ref, bond_len=np.linalg.norm(bond_ref, axis=1),
                     inv_norm_A=float(np.linalg.norm(np.linalg.inv(A), 2)))
        if not (0.0 < self.kappa):
            raise ValueError("kappa must be positive")

    def _derive(self, **values) -> None:
        """Set attributes of the frozen instance in ``__post_init__``; arrays
        become read-only."""
        for name, value in values.items():
            _read_only(value)
            object.__setattr__(self, name, value)

    @cached_property
    def force_constants(self) -> tuple[np.ndarray, np.ndarray]:
        """``(tau / 2, W)`` of the reference Hessian, read-only: the half vectors
        (d, T) and the nonzero rows W (T, d d) of the real Born-von Karman
        series H(k) = sum_tau W_tau sin^2(k.tau/2) (see ``stability``), from one
        ``site_hessian`` at g = 0.  ValueError unless V(0) is point symmetric."""
        n, d = self.S.n, self.d
        V = self.site_hessian(np.zeros((n, d)))
        # the stencil is sorted and closed under negation: -rho_a sits in slot n-1-a
        if abs(V - V[::-1, :, ::-1]).max() > 4.0 * np.finfo(float).eps * abs(V).max():
            raise ValueError("the reference Hessian blocks are not point symmetric, "
                             "so the dynamical symbol would be complex")
        half, incidence = _sine_plan(self.S)
        W = (incidence @ V.transpose(0, 2, 1, 3).reshape(n * n, d * d)).reshape(-1, d, d)
        W = (0.5 * (W + W.transpose(0, 2, 1))).reshape(-1, d * d)  # H == H^T bit for bit
        keep = W.any(axis=1)
        half, W = half[:, keep], W[keep]
        half.flags.writeable = W.flags.writeable = False
        return half, W

    # -- admissibility ------------------------------------------------------

    @property
    def mu(self) -> float:
        """Lower bond-compression factor 1 - kappa ||A^-1||; -inf at an infinite kappa."""
        return 1.0 - self.kappa * self.inv_norm_A

    def check_admissible(self, g: np.ndarray, context: str = "") -> None:
        """Raise AdmissibilityError unless max_rho |g_rho|/|rho| <= kappa.

        Non-finite stencils are rejected for every kappa, infinite included.
        """
        self._require_admissible(_sq_norm(g, last=True), self.S.inv_sq_norms, context)

    def _require_admissible(self, sq: np.ndarray, inv_sq: np.ndarray,
                            context: str = "") -> None:
        """The admissibility rule, from squared differences per slot.

        ``sq`` holds squared differences ``|g_rho|^2`` along its last axis,
        per site or already maximised over the sites; ``inv_sq`` holds
        ``1 / |rho|^2`` of the same slots.  The scaled norm is the square
        root of the largest ``sq * inv_sq``.  Maxima propagate NaN, so a
        non-finite site makes the norm NaN and the state is rejected.
        """
        nrm = math.sqrt(float((sq * inv_sq).max()))
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
        """Hessian blocks V_{rho sigma}(g), shape (..., n, d, n, d); a
        slot-diagonal variant places its ``hessian_blocks`` on the diagonal."""
        blocks = self.hessian_blocks(g)
        n, d = blocks.shape[-3], blocks.shape[-1]
        out = np.zeros(blocks.shape[:-3] + (n, d, n, d))
        idx = np.arange(n)
        # advanced indexing puts the slot axis first
        out[..., idx, :, idx, :] = np.moveaxis(blocks, -3, 0)
        return out

    # -- helpers shared by pair-type variants -------------------------------

    def _bond_geometry(self, g: np.ndarray):
        """Deformed bonds, lengths and unit vectors for a stencil batch."""
        bonds = g + self.bond_ref
        r = np.sqrt(_sq_norm(bonds, last=True))
        unit = bonds / r[..., None]
        return bonds, r, unit


@dataclass(frozen=True)
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
        _require_finite(self.phi, "phi", self.bond_len, "the reference bond lengths")
        self._derive(
            _phi_ref=self.phi.deriv(self.bond_len, 0),
            # positive half stencil: reference bonds component-major (d, h, 1), 1/|rho|^2
            _half_ref=self.bond_ref[self.S.half].T[:, :, None].copy(),
            _half_inv_sq=self.S.inv_sq_norms[self.S.half],
        )

    def _half_bonds(self, g: np.ndarray, context: str = "") -> np.ndarray:
        """The half-stencil bond pass of the lattice kernel and the Cauchy-Born
        model: admissibility of the differences ``g`` (d, h, X) on the positive
        half slots (slot ``-rho`` holds ``-g_rho``, so they decide as the full
        stencil does); then ``g`` becomes the bonds ``A rho + g_rho`` in place,
        and their squared lengths (h, X) return.  As every ``|rho| >= 1``, the
        one-reduction bound ``sqrt(max |g|^2)`` is never below the rule's norm
        (rounding is monotone); only a bound that is not a finite number at
        most kappa (NaN included) hands the per-slot maxima to the exact rule
        ``_require_admissible``, which decides and words the error.
        """
        sq = _sq_norm(g)
        bound = math.sqrt(float(sq.max()))
        if not (bound <= self.kappa and bound < math.inf):
            self._require_admissible(sq.max(axis=1), self._half_inv_sq, context)
        g += self._half_ref
        return _sq_norm(g)

    def _bond(self, r2: np.ndarray, stiffness: bool = False):
        """Bond force per unit length ``phi'(r)/r`` at squared bond lengths ``r2``;
        with ``stiffness``, the pair ``(phi'(r)/r, phi''(r))``.

        The one pair-bond routine of the lattice kernel and the Cauchy-Born
        model.  Even integer power laws go by Horner's rule in ``1 / r2``
        (products only); other profiles through ``deriv`` at ``r = sqrt(r2)``.
        """
        plan = self.phi._horner_plan
        if plan is None:
            r = np.sqrt(r2)
            f = self.phi.deriv(r, 1) / r
            return (f, self.phi.deriv(r, 2)) if stiffness else f
        products, ones, force, stiff = plan
        regs = [1.0 / r2, r2, np.ones_like(r2) if ones else None]
        for i, j in products:
            regs.append(regs[i] * regs[j])
        f = _horner(force, regs)
        return (f, _horner(stiff, regs)) if stiffness else f

    def site_energy(self, g):
        _, r, _ = self._bond_geometry(g)
        return 0.5 * np.add.reduce(self.phi.deriv(r, 0) - self._phi_ref, axis=-1)

    def site_gradient(self, g):
        _, r, unit = self._bond_geometry(g)
        return 0.5 * self.phi.deriv(r, 1)[..., None] * unit

    def hessian_blocks(self, g):
        _, r, unit = self._bond_geometry(g)
        p2 = self.phi.deriv(r, 2)
        p1_over_r = self.phi.deriv(r, 1) / r
        eye = np.eye(self.d)
        uu = unit[..., :, None] * unit[..., None, :]  # (..., n, d, d)
        return 0.5 * (p2[..., None, None] * uu + p1_over_r[..., None, None] * (eye - uu))


@dataclass(frozen=True)
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
        for f, name in ((self.phi, "phi"), (self.psi, "psi")):
            _require_finite(f, name, self.bond_len, "the reference bond lengths")
        psi_ref = self.psi.deriv(self.bond_len, 0)
        self._derive(_phi_ref=self.phi.deriv(self.bond_len, 0), _psi_ref=psi_ref,
                     _s_ref=float(np.sum(psi_ref)))
        _require_finite(self.embed, "G", self._s_ref,
                        f"the reference density {self._s_ref:.6g}")

    def site_energy(self, g):
        _, r, _ = self._bond_geometry(g)
        pair = np.add.reduce(self.phi.deriv(r, 0) - self._phi_ref, axis=-1)
        s = np.add.reduce(self.psi.deriv(r, 0), axis=-1)
        return pair + self.embed.deriv(s, 0) - self.embed.deriv(self._s_ref, 0)

    def site_gradient(self, g):
        _, r, unit = self._bond_geometry(g)
        s = np.add.reduce(self.psi.deriv(r, 0), axis=-1)
        gprime = self.embed.deriv(s, 1)
        radial = self.phi.deriv(r, 1) + gprime[..., None] * self.psi.deriv(r, 1)
        return radial[..., None] * unit

    def site_hessian(self, g):
        _, r, unit = self._bond_geometry(g)
        n, d = self.S.n, self.d
        s = np.add.reduce(self.psi.deriv(r, 0), axis=-1)
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


@dataclass(frozen=True)
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
        for name, value in (("a1", self.a1), ("a2", self.a2)):
            if not math.isfinite(value):
                raise ValueError(f"{name} = {value} is not finite")
        coeff = {1: self.a1 / 4.0, 2: self.a2 / 4.0}
        c = np.array([coeff[int(abs(r[0]))] for r in self.S.directions])
        # the slot stiffnesses 2 c, shaped (n, 1) against the (..., n, 1) stencils
        self._derive(_c=c, _two_c=(2.0 * c)[:, None])

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
        return np.add.reduce(self._c * g[..., 0] ** 2, axis=-1)

    def site_gradient(self, g):
        return self._two_c * g

    def hessian_blocks(self, g):
        return np.broadcast_to(self._two_c[:, :, None], g.shape[:-2] + (self.S.n, 1, 1))


# ---------------------------------------------------------------------------
# assembled lattice operators
# ---------------------------------------------------------------------------

def total_energy(P: Potential, values: np.ndarray) -> float:
    """Supercell energy E(u) = sum_xi V(Du(xi)) of the value array of u."""
    g = all_stencils(values, P.S)
    P.check_admissible(g)
    return float(np.add.reduce(P.site_energy(g), axis=None))


def _energies_and_gradient(P: Potential, values: np.ndarray, plan=None):
    """Site energies ``V(Du(xi))`` and the assembled gradient of one state,
    admissibility checked, from one stencil pass.

    The gradient is ``gradient_array``'s, and the energies summed give
    ``total_energy``'s bits.  With the ``plan`` of ``lattice.stacked_plan``
    (values as in ``gradient_array``) there is one energy per stacked site,
    cell after cell, and each cell's entries summed on their own give its
    energy.  A pair potential's gradient takes its own half-stencil pass.
    """
    plan = plan or neighbour_plan(values.shape[:-1], P.S)
    g = all_stencils(values, P.S, plan)
    P.check_admissible(g)
    if isinstance(P, PairPotential):
        return P.site_energy(g), _pair_gradient(P, values, plan[2])
    return P.site_energy(g), scatter_bonds(P.site_gradient(g), P.S, plan)


def gradient_array(P: Potential, values: np.ndarray, plan=None) -> np.ndarray:
    """Assembled energy gradient dE/du(eta) as a raw value array.

    Site gradients are scattered by the difference structure:
    dE/du(eta) = sum_rho (V_rho(Du(eta - rho)) - V_rho(Du(eta))).
    A pair potential visits each bond once instead (``_pair_gradient``).
    With the ``plan`` of ``lattice.stacked_plan``, ``values`` are the
    (sites, d) rows of several cells laid end to end, and each cell's
    gradient has the bits of its own call; the admissibility rule then
    holds on all the cells at once.
    """
    plan = plan or neighbour_plan(values.shape[:-1], P.S)
    if isinstance(P, PairPotential):
        return _pair_gradient(P, values, plan[2])
    g = all_stencils(values, P.S, plan)
    P.check_admissible(g)
    return scatter_bonds(P.site_gradient(g), P.S, plan)


def _sq_norm(x: np.ndarray, last: bool = False) -> np.ndarray:
    """Squared Euclidean norm over the leading (component) axis, or with
    ``last`` over the trailing one, summed component by component in order:
    the bits of ``np.sum(x * x, axis)`` on that axis, without its per-call
    overhead."""
    parts = [x[..., c] for c in range(x.shape[-1])] if last else x
    out = parts[0] * parts[0]
    for xc in parts[1:]:
        out += xc * xc
    return out


def _pair_gradient(P: PairPotential, values: np.ndarray, half: np.ndarray) -> np.ndarray:
    """Pair-potential gradient over the positive half stencil, one visit per bond.

    The bond ``b = A rho + u(xi + rho) - u(xi)`` carries the force
    ``f = phi'(|b|) b / |b|``, which adds to ``dE/du(xi + rho)`` and
    subtracts from ``dE/du(xi)``; the slot ``-rho`` of site ``xi + rho``
    is the same bond.  One component-major array (d, h, sites), contiguous
    over the sites, turns from the differences into the bonds, admissibility
    decided (``PairPotential._half_bonds``), and then the forces in place.
    ``half`` is the plan's (h, sites) positive-half table.  In 1D the
    scatter is returned directly.
    """
    d = values.shape[-1]
    ut = values.reshape(-1, d).T
    f = ut.take(half, axis=1)
    f -= ut[:, None, :]
    f *= P._bond(P._half_bonds(f))
    n_sites, idx = ut.shape[1], half.ravel()
    if d == 1:
        return (np.bincount(idx, f[0].ravel(), n_sites)
                - np.add.reduce(f[0], axis=0)).reshape(values.shape)
    out = np.empty((n_sites, d))
    for c, fc in enumerate(f):
        out[:, c] = np.bincount(idx, fc.ravel(), n_sites) - np.add.reduce(fc, axis=0)
    return out.reshape(values.shape)


def hessian_operator(P: Potential, values: np.ndarray, plan=None):
    """Matrix-free action of the energy Hessian at a fixed configuration.

    Returns ``apply(v_values) -> (H v)_values`` with the second-derivative
    blocks precomputed once, suitable for Krylov inner solves:
    (Hv)(eta) = sum_{rho, sigma} (M_{rho sigma}(eta - sigma)^T D_rho v(eta - sigma)
                                  - M_{rho sigma}(eta)^T D_rho v(eta)).
    A slot-diagonal variant keeps only its blocks M_{rho rho}; the dense
    contraction would add exact zeros to the same terms.  With the ``plan``
    of ``lattice.stacked_plan``, ``values`` and ``v_values`` are the
    (sites, d) rows of several cells laid end to end, and each cell's rows
    of ``H v`` have the bits of its own operator.
    """
    g = all_stencils(values, P.S, plan)
    if P.hessian_blocks is None:
        M, spec = P.site_hessian(g), "...aibj,...ai->...bj"  # (N..., n, d, n, d)
    else:
        M, spec = P.hessian_blocks(g), "...aij,...ai->...aj"  # (N..., n, d, d)
    S = P.S

    def apply(v_values: np.ndarray) -> np.ndarray:
        Dv = all_stencils(np.asarray(v_values, dtype=float), S, plan)
        return scatter_bonds(np.einsum(spec, M, Dv), S, plan)

    return apply


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

def _power_law(*, powers, coeffs) -> PowerLawProfile:
    """A power-law profile from its config lists."""
    return PowerLawProfile(powers=tuple(powers), coeffs=tuple(coeffs))


# the keys each profile kind (with its constructor, which owns the defaults),
# potential variant and embedding block reads: any other key would fall back
# to a default without a word, so it is an error
_PROFILES = {
    "lennard_jones": (lennard_jones, {"kind", "well_depth", "r0"}),
    "morse": (MorseProfile, {"kind", "well_depth", "stiffness", "r0"}),
    "exp": (ExpProfile, {"kind", "amplitude", "beta", "r0"}),
    "power_law": (_power_law, {"kind", "powers", "coeffs"}),
}
_VARIANT_KEYS = {
    "harmonic_chain": {"variant", "a1", "a2", "kappa"},
    "pair": {"variant", "d", "A", "r_cut", "kappa", "phi"},
    "eam": {"variant", "d", "A", "r_cut", "kappa", "phi", "psi", "embed"},
}
_EMBED_KEYS = {"coeffs"}


def _check_keys(cfg: dict, known: set, where: str, owner: str):
    for key in cfg:
        if key not in known:
            raise ValueError(f"key {f'{where}{key}'!r} is not read by the {owner} "
                             f"(it reads {', '.join(sorted(known))})")


def _profile_from_config(cfg: dict, where: str) -> RadialProfile:
    kind = cfg.get("kind")
    if kind not in _PROFILES:
        raise ValueError(f"unknown radial profile kind: {kind!r}")
    make, keys = _PROFILES[kind]
    _check_keys(cfg, keys, where, f"{kind} profile")
    return make(**{k: v for k, v in cfg.items() if k != "kind"})


def potential_from_config(cfg: dict) -> Potential:
    """Build a potential from a plain configuration dictionary.

    Required keys: ``variant``; pair/eam also need ``r_cut``, the harmonic
    chain needs ``a1``.  ``d`` must be the integer 1, 2 or 3.  Defaults:
    ``d`` 1, ``A`` the identity, ``phi`` Lennard-Jones (pair) or Morse (eam),
    ``psi`` exp, ``embed`` the coefficients (0, 1), ``a2`` 0; ``kappa`` is
    infinite for the harmonic chain and otherwise 0.25 scaled by 1/||A^-1||
    (a safely admissible radius).  A key the variant, profile or embedding
    does not read raises ``ValueError`` naming it.
    """
    variant = cfg.get("variant")
    if variant not in _VARIANT_KEYS:
        raise ValueError(f"unknown potential variant: {variant!r}")
    _check_keys(cfg, _VARIANT_KEYS[variant], "", f"{variant} potential")
    if variant == "harmonic_chain":
        return HarmonicChain.build(
            a1=float(cfg["a1"]),
            a2=float(cfg.get("a2", 0.0)),
            kappa=float(cfg.get("kappa", math.inf)),
        )
    if "r_cut" not in cfg:
        raise ValueError(f"the {variant} potential needs r_cut")
    d = cfg.get("d", 1)
    if isinstance(d, bool) or not isinstance(d, int) or d not in (1, 2, 3):
        raise ValueError(f"d must be the integer 1, 2 or 3; got {d!r}")
    A = np.asarray(cfg.get("A", np.eye(d)), dtype=float)
    S = StencilSet.ball(d, float(cfg["r_cut"]))
    kappa = cfg.get("kappa")
    if kappa is None:
        kappa = 0.25 / np.linalg.norm(np.linalg.inv(A), 2)
    if variant == "pair":
        return PairPotential(d=d, A=A, S=S, kappa=float(kappa),
                             phi=_profile_from_config(cfg.get("phi", {"kind": "lennard_jones"}),
                                                      "phi."))
    embed = cfg.get("embed", {})
    coeffs = tuple(embed.get("coeffs", (0.0, 1.0)))
    _check_keys(embed, _EMBED_KEYS, "embed.", "polynomial embedding")
    return EAMPotential(
        d=d, A=A, S=S, kappa=float(kappa),
        phi=_profile_from_config(cfg.get("phi", {"kind": "morse"}), "phi."),
        psi=_profile_from_config(cfg.get("psi", {"kind": "exp"}), "psi."),
        embed=PolynomialEmbedding(coeffs),
    )
