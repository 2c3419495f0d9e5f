"""Shared factories for the test suite.

Every helper builds small, desk-scale objects; heavyweight sweeps live in
the module tests that need them and reuse session-scoped fixtures there.
"""

from __future__ import annotations

import numpy as np
import pytest

from latcb.potentials import (
    EAMPotential,
    ExpProfile,
    HarmonicChain,
    MorseProfile,
    PairPotential,
    PolynomialEmbedding,
    PowerLawProfile,
    lennard_jones,
)
from latcb.fields import TrigField
from latcb.lattice import DisplacementField, LatticeSpec, StencilSet, tensor_grid
from latcb.static import MacroForce


def lj_chain(r_cut: float = 3.0, kappa: float = 0.25) -> PairPotential:
    """The 1D Lennard-Jones chain used throughout the experiments."""
    return PairPotential(
        d=1, A=np.eye(1), S=StencilSet.ball(1, r_cut), kappa=kappa, phi=lennard_jones()
    )


def lj_square(r_cut: float = 2.0, kappa: float = 0.25) -> PairPotential:
    """A 2D square-lattice Lennard-Jones crystal (second-neighbour range)."""
    return PairPotential(
        d=2, A=np.eye(2), S=StencilSet.ball(2, r_cut), kappa=kappa, phi=lennard_jones()
    )


TRIANGULAR = np.array([[1.0, 0.5], [0.0, np.sqrt(3.0) / 2.0]])


def lj_triangular(r_cut: float = 1.5, kappa: float = 0.25) -> PairPotential:
    """The triangular Lennard-Jones crystal on the index ball (a sheared A)."""
    return PairPotential(
        d=2, A=TRIANGULAR, S=StencilSet.ball(2, r_cut), kappa=kappa, phi=lennard_jones()
    )


# pair profiles and lattices (d, A, r_cut) on which the pair kernels of the
# lattice and of the Cauchy-Born model are checked against the generic path
PAIR_PROFILES = {
    "lj": lennard_jones(),
    "morse": MorseProfile(),
    # an odd power: no Horner plan, the bond terms come from deriv
    "odd_power": PowerLawProfile(powers=(-9, -6), coeffs=(2.0, -3.0)),
}
PAIR_LATTICES = [
    (1, np.eye(1), 3.0),
    (2, np.eye(2), 2.0),
    (2, TRIANGULAR, 1.5),
    (3, np.eye(3), 1.5),
]


def morse_chain(kappa: float = 0.25) -> PairPotential:
    return PairPotential(
        d=1, A=np.eye(1), S=StencilSet.ball(1, 2.0), kappa=kappa, phi=MorseProfile()
    )


def eam_chain(kappa: float = 0.25) -> EAMPotential:
    """EAM chain with a genuinely nonlinear embedding (rank-one cross blocks)."""
    return EAMPotential(
        d=1,
        A=np.eye(1),
        S=StencilSet.ball(1, 2.0),
        kappa=kappa,
        phi=MorseProfile(),
        psi=ExpProfile(),
        embed=PolynomialEmbedding((0.0, 1.0, 0.3, -0.05)),
    )


def eam_square(kappa: float = 0.25) -> EAMPotential:
    return EAMPotential(
        d=2,
        A=np.eye(2),
        S=StencilSet.ball(2, 1.5),
        kappa=kappa,
        phi=MorseProfile(),
        psi=ExpProfile(),
        embed=PolynomialEmbedding((0.0, 1.0, 0.2)),
    )


def single_mode_load(delta: float, mode: int = 1, kind: str = "sin") -> MacroForce:
    """1D load c sin(2 pi m X) (or cos) with c tuned to the size ``delta``.

    Built like the experiments' loads: unit amplitude, then scaled.
    """
    F = MacroForce(TrigField.from_terms(1, 1, [((mode,), 0, kind, 1.0)]))
    return F.scaled(delta / F.delta)


def site_coords(lattice: LatticeSpec) -> np.ndarray:
    """All supercell sites as an (N^d, d) integer array, row-major order."""
    return tensor_grid([np.arange(lattice.N)] * lattice.d)


def index_of(S: StencilSet, rho) -> int:
    """Slot of direction ``rho`` in the stencil ordering."""
    r = np.asarray(rho)
    hit = np.nonzero((S.directions == r).all(axis=1))[0]
    if hit.size == 0:
        raise KeyError(f"direction {tuple(r.tolist())} not in stencil {S.directions.tolist()}")
    return int(hit[0])


def random_displacement(
    lattice: LatticeSpec, rng: np.random.Generator, scale: float = 0.02
) -> DisplacementField:
    """Small random periodic displacement (safely admissible for kappa=0.25)."""
    vals = scale * rng.standard_normal((lattice.N,) * lattice.d + (lattice.d,))
    return DisplacementField(lattice, vals)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20260823)
