"""latcb: a numerical laboratory for atomistic-to-continuum coupling.

The package implements a periodic atomistic lattice model with finite-range
site potentials, the Cauchy-Born continuum model derived from the same
potential, an atomistic stress field built from bond localization kernels,
lattice stability analysis via the dynamical symbol, and convergence
experiments (static and dynamic) that measure the second-order accuracy of
the Cauchy-Born approximation at desk scale.
"""

__version__ = "0.1.0"

from .lattice import (
    LatticeSpec,
    StencilSet,
    DisplacementField,
)
from .potentials import (
    Potential,
    PairPotential,
    EAMPotential,
    HarmonicChain,
    AdmissibilityError,
    total_energy,
)
from .interpolation import (
    zeta_eval,
    chi_eval,
    grad_chi_eval,
)
from .stress import (
    CBModel,
    StressField,
    atomistic_stress,
    div_cb_stress,
    stress_consistency_field,
)
from .stability import (
    DispersionSpectrum,
    dynamical_symbol,
    dispersion_spectrum,
    stability_constant,
    legendre_hadamard_min,
    instability_eigenprobe,
)
from .static import (
    MacroForce,
    StaticSolution,
    SolverError,
    make_forces,
    solve_cb_static,
    solve_atomistic_static,
    static_converge_sweep,
)
from .dynamics import (
    InitialData,
    Trajectory,
    integrate_atomistic,
    solve_cb_wave,
    dynamic_error_sweep,
    instability_demo,
)
from .harness import ExperimentConfig, RateReport, ConfigError, fit_rate, run

__all__ = [
    "LatticeSpec",
    "StencilSet",
    "DisplacementField",
    "Potential",
    "PairPotential",
    "EAMPotential",
    "HarmonicChain",
    "AdmissibilityError",
    "total_energy",
    "zeta_eval",
    "chi_eval",
    "grad_chi_eval",
    "CBModel",
    "StressField",
    "atomistic_stress",
    "div_cb_stress",
    "stress_consistency_field",
    "DispersionSpectrum",
    "dynamical_symbol",
    "dispersion_spectrum",
    "stability_constant",
    "legendre_hadamard_min",
    "instability_eigenprobe",
    "MacroForce",
    "StaticSolution",
    "SolverError",
    "make_forces",
    "solve_cb_static",
    "solve_atomistic_static",
    "static_converge_sweep",
    "InitialData",
    "Trajectory",
    "integrate_atomistic",
    "solve_cb_wave",
    "dynamic_error_sweep",
    "instability_demo",
    "ExperimentConfig",
    "RateReport",
    "ConfigError",
    "fit_rate",
    "run",
]
