"""The public API: every exported name resolves, the package exports a fixed
list, importing it loads no scipy module, and its modules import each other
without a cycle."""

from __future__ import annotations

import ast
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import latcb

MODULES = sorted(m.name for m in pkgutil.iter_modules(latcb.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(f"latcb.{name}")
    exported = getattr(module, "__all__", [])
    assert len(exported) == len(set(exported))
    missing = [n for n in exported if not hasattr(module, n)]
    assert not missing, f"latcb.{name}.__all__ names missing attributes: {missing}"


def test_package_all_resolves():
    assert len(latcb.__all__) == len(set(latcb.__all__))
    missing = [n for n in latcb.__all__ if not hasattr(latcb, n)]
    assert not missing, f"latcb.__all__ names missing attributes: {missing}"


# every addition to or removal from the package API shows up as a diff here
PACKAGE_API = [
    "LatticeSpec", "StencilSet", "DisplacementField",
    "Potential", "PairPotential", "EAMPotential", "HarmonicChain", "AdmissibilityError",
    "total_energy",
    "zeta_eval", "chi_eval", "grad_chi_eval",
    "CBModel", "StressField", "atomistic_stress", "div_cb_stress", "stress_consistency_field",
    "DispersionSpectrum", "dynamical_symbol", "dispersion_spectrum", "stability_constant",
    "legendre_hadamard_min", "instability_eigenprobe",
    "MacroForce", "StaticSolution", "SolverError", "make_forces", "solve_cb_static",
    "solve_atomistic_static", "static_converge_sweep",
    "InitialData", "Trajectory", "integrate_atomistic", "solve_cb_wave",
    "dynamic_error_sweep", "instability_demo",
    "ExperimentConfig", "RateReport", "ConfigError", "fit_rate", "run",
]


def test_package_all_is_pinned():
    assert latcb.__all__ == PACKAGE_API


# every addition to or removal from a module's API shows up as a diff here
MODULE_API = {
    "cli": [],
    "dynamics": [
        "InitialData", "Trajectory", "make_initial_data",
        "integrate_atomistic", "solve_cb_wave", "dynamic_error_sweep", "instability_demo",
    ],
    "fields": ["TrigField"],
    "harness": ["EXPERIMENTS", "ConfigError", "ExperimentConfig", "RateReport", "fit_rate", "run"],
    "interpolation": [
        "zeta_eval", "hat", "b3", "b3_prime", "interp_sample_shifts", "chi_eval", "grad_chi_eval",
    ],
    "lattice": [
        "tensor_grid", "supercell_period", "LatticeSpec", "StencilSet", "DisplacementField",
        "all_stencils", "scatter_bonds", "gauss_rule_01",
    ],
    "potentials": [
        "AdmissibilityError", "RadialProfile", "PowerLawProfile", "MorseProfile", "ExpProfile",
        "PolynomialEmbedding", "lennard_jones", "Potential", "PairPotential", "EAMPotential",
        "HarmonicChain", "total_energy", "gradient_array", "hessian_operator",
        "potential_from_config",
    ],
    "stability": [
        "DispersionSpectrum", "dynamical_symbol", "difference_symbol", "dispersion_spectrum",
        "stability_constant", "stability_constants", "max_frequency", "zone_grid", "ZONE_GRID",
        "legendre_hadamard_min", "instability_eigenprobe",
    ],
    "static": [
        "SolverError", "MacroForce", "StaticSolution", "make_forces", "solve_cb_static",
        "solve_atomistic_static", "interp_gradient_gap", "interp_value_gap",
        "static_converge_sweep",
    ],
    "stress": [
        "CBModel", "AffineDisplacement", "StressField", "atomistic_stress", "div_cb_stress",
        "stress_consistency_field",
    ],
}


def test_module_api_covers_every_module():
    assert sorted(MODULE_API) == MODULES


@pytest.mark.parametrize("name", MODULES)
def test_module_all_is_pinned(name):
    module = importlib.import_module(f"latcb.{name}")
    assert getattr(module, "__all__", []) == MODULE_API[name]


def test_import_leaves_scipy_optimize_out():
    # latcb runs on numpy alone: importing the package and its CLI loads no
    # scipy module at all, scipy.optimize and scipy.sparse.linalg included;
    # nor the process pool, which only a sweep with workers > 1 imports
    src = str(Path(latcb.__file__).resolve().parent.parent)
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    code = ("import latcb, latcb.cli, sys; "
            "print(*sorted(m for m in sys.modules if m.split('.')[0] in ('scipy', 'multiprocessing')"
            " or m == 'concurrent.futures.process'))")
    proc = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []


def test_no_import_cycle_inside_the_package():
    # every ``from .x import`` of every module, function-local ones included:
    # a local import that closes a cycle hides it from import order alone
    graph = {}
    for path in Path(latcb.__file__).resolve().parent.glob("*.py"):
        graph[path.stem] = {node.module.split(".")[0] for node in ast.walk(ast.parse(path.read_text()))
                            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module}
    assert {"potentials", "stability"} <= graph["static"]  # the parse sees the imports
    done = set()

    def cycle_from(name, path):
        """A cycle reachable from ``name`` along ``path``, as a list of modules."""
        if name in path:
            return path[path.index(name):] + [name]
        if name not in done:
            for dep in sorted(graph.get(name, ())):
                if found := cycle_from(dep, path + [name]):
                    return found
            done.add(name)
        return None

    cycles = [cycle for name in sorted(graph) if (cycle := cycle_from(name, []))]
    assert not cycles, "import cycle: " + " -> ".join(cycles[0])


def test_every_module_level_definition_has_a_caller_in_the_package():
    # a module-level function or class that no name, attribute, import alias or
    # string (``__all__`` included) of the package mentions is dead library code
    trees = {path.stem: ast.parse(path.read_text())
             for path in Path(latcb.__file__).resolve().parent.glob("*.py")}
    mentioned = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                mentioned.add(node.id)
            elif isinstance(node, ast.Attribute):
                mentioned.add(node.attr)
            elif isinstance(node, ast.alias):
                mentioned.update((node.name, node.asname))
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                mentioned.add(node.value)
    defined = [(module, node.name) for module, tree in sorted(trees.items()) for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))]
    assert ("harness", "csv_text") in defined  # the parse sees the definitions
    dead = [f"{module}.{name}" for module, name in defined if name not in mentioned]
    assert not dead, f"no caller in the package: {dead}"
