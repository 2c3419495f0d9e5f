"""Span tracing of latcb's layers, installed from the benchmark's side.

Each traced function is replaced where callers look it up: in every latcb
module namespace that binds it (``latcb.static.gradient_array`` and
``latcb.dynamics.force_array`` reach the kernel through names imported
from ``latcb.potentials``), and on the class for methods.  A span records
name, start, end, parent span and run id in memory; self time is the
span's duration minus the durations of its direct children.  Work counts
are taken from arguments and return values.
"""

from __future__ import annotations

import functools
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

_F8 = 8  # bytes per float64


def _sites(values) -> int:
    return math.prod(np.shape(values)[:-1])


def _points(x) -> int:
    shape = np.shape(x)
    return 1 if len(shape) <= 1 else math.prod(shape[:-1])


def _gradient_counts(args, kwargs, result):
    P, values = args[0], args[1]
    sites, n, d = _sites(values), P.S.n, np.shape(values)[-1]
    # computed from array sizes: values read and output written once; the
    # (sites, n, d) stencil and site-gradient arrays written once, read once
    moved = _F8 * (2 * sites * d + 4 * sites * n * d)
    return {"bond_evals": sites * n, "bytes_computed": moved}


def _apply_counts(P):
    def counts(args, kwargs, result):
        sites, n, d = _sites(args[0]), P.S.n, np.shape(args[0])[-1]
        # Hessian blocks read once; v in and Hv out once; Dv and the
        # contracted (sites, n, d) array written once, read once
        moved = _F8 * (sites * n * d * n * d + 2 * sites * d + 4 * sites * n * d)
        return {"bytes_computed": moved}
    return counts


def _static_counts(args, kwargs, result):
    return {
        "newton_iterations": int(result.iterations),
        "cg_iterations": int(sum(result.diagnostics.get("cg_iterations", []))),
    }


def _cb_static_counts(args, kwargs, result):
    return {"newton_iterations": int(result.iterations)}


def _point_counts(args, kwargs, result):
    return {"points": _points(args[1])}


def _symbol_counts(args, kwargs, result):
    return {"k_points": _points(args[1])}


def _max_frequency_counts(args, kwargs, result):
    n_grid = args[1] if len(args) > 1 else kwargs.get("n_grid", 512)
    return {"k_points": int(n_grid) ** args[0].d}


# (module, qualname, count function); "steps" come from child spans below
TARGETS = [
    ("potentials", "gradient_array", _gradient_counts),
    ("lattice", "all_stencils", None),
    ("potentials", "Potential.check_admissible", None),
    ("potentials", "total_energy", None),
    ("potentials", "hessian_operator", None),
    ("static", "solve_atomistic_static", _static_counts),
    ("static", "solve_cb_static", _cb_static_counts),
    ("static", "make_forces", None),
    ("static", "interp_gradient_gap", None),
    ("static", "interp_value_gap", None),
    ("dynamics", "integrate_atomistic", None),
    ("dynamics", "solve_cb_wave", None),
    ("dynamics", "make_initial_data", None),
    ("stress", "CBModel.moduli", None),
    ("stress", "CBModel.stress", None),
    ("stress", "StressField.eval", _point_counts),
    ("stress", "StressField.div", _point_counts),
    ("stress", "div_cb_stress", None),
    ("fields", "TrigField.eval", _point_counts),
    ("interpolation", "zeta_convolve", None),
    ("interpolation", "chi_eval", None),
    ("interpolation", "chi_window", None),
    ("interpolation", "quasi_grad", None),
    ("interpolation", "smooth_nodal_interp", None),
    ("stability", "dynamical_symbol", _symbol_counts),
    ("stability", "max_frequency", _max_frequency_counts),
    ("stability", "stability_constant", None),
    ("stability", "legendre_hadamard_min", None),
    ("harness", "run", None),
    ("harness", "write_csv", None),
    ("cli", "main", None),
]

# span whose direct children of the given name count its time steps
STEP_CHILDREN = {
    "dynamics.integrate_atomistic": "potentials.gradient_array",
    "dynamics.solve_cb_wave": "stress.CBModel.stress",
}

# per-layer metrics reported from the spans: (span name, quantity)
LAYER_METRICS = [
    ("potentials.gradient_array", "calls"),
    ("potentials.gradient_array", "self_s"),
    ("potentials.gradient_array", "bond_evals"),
    ("potentials.gradient_array", "ns_per_bond"),
    ("potentials.gradient_array", "bytes_computed"),
    ("lattice.all_stencils", "self_s"),
    ("potentials.Potential.check_admissible", "self_s"),
    ("potentials.total_energy", "self_s"),
    ("potentials.hessian_operator", "calls"),
    ("potentials.hessian_operator", "self_s"),
    ("potentials.hessian_operator.apply", "calls"),
    ("potentials.hessian_operator.apply", "self_s"),
    ("potentials.hessian_operator.apply", "bytes_computed"),
    ("static.solve_atomistic_static", "self_s"),
    ("static.solve_atomistic_static", "newton_iterations"),
    ("static.solve_atomistic_static", "cg_iterations"),
    ("dynamics.integrate_atomistic", "self_s"),
    ("dynamics.integrate_atomistic", "steps"),
    ("dynamics.solve_cb_wave", "self_s"),
    ("dynamics.solve_cb_wave", "steps"),
    ("stress.CBModel.moduli", "calls"),
    ("stress.CBModel.moduli", "self_s"),
    ("stress.CBModel.stress", "self_s"),
    ("fields.TrigField.eval", "calls"),
    ("fields.TrigField.eval", "points"),
    ("fields.TrigField.eval", "self_s"),
    ("interpolation.zeta_convolve", "self_s"),
    ("static.make_forces", "self_s"),
    ("static.solve_cb_static", "self_s"),
    ("static.solve_cb_static", "newton_iterations"),
    ("stress.StressField.eval", "points"),
    ("stress.StressField.eval", "self_s"),
    ("stress.StressField.div", "points"),
    ("stress.StressField.div", "self_s"),
    ("interpolation.chi_eval", "calls"),
    ("interpolation.chi_eval", "self_s"),
    ("interpolation.chi_window", "self_s"),
    ("stress.div_cb_stress", "self_s"),
    ("interpolation.quasi_grad", "self_s"),
    ("interpolation.smooth_nodal_interp", "self_s"),
    ("static.interp_gradient_gap", "self_s"),
    ("static.interp_value_gap", "self_s"),
    ("dynamics.make_initial_data", "self_s"),
    ("stability.dynamical_symbol", "calls"),
    ("stability.dynamical_symbol", "k_points"),
    ("stability.dynamical_symbol", "self_s"),
    ("stability.max_frequency", "k_points"),
    ("stability.max_frequency", "self_s"),
    ("stability.stability_constant", "self_s"),
    ("stability.legendre_hadamard_min", "self_s"),
    ("harness.run", "self_s"),
    ("harness.write_csv", "self_s"),
    ("cli.main", "self_s"),
]

UNITS = {
    "self_s": "s",
    "ns_per_bond": "ns",
    "bytes_computed": "B",
}


class Tracer:
    """In-memory span recorder; one record per call of a wrapped function."""

    def __init__(self):
        # record: [name, start_ns, end_ns, parent, run_id, child_ns, counts]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.run_id = 0

    def wrap(self, name: str, fn, counts=None, result_wrap=None):
        """``fn`` recording one span per call under ``name``."""
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            rec = [name, 0, 0, parent, self.run_id, 0, None]
            idx = len(spans)
            spans.append(rec)
            stack.append(idx)
            t0 = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter_ns()
                stack.pop()
                rec[1], rec[2] = t0, t1
                if parent >= 0:
                    spans[parent][5] += t1 - t0
            if counts is not None:
                rec[6] = counts(args, kwargs, result)
            if result_wrap is not None:
                result = result_wrap(args, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every target where latcb's modules look it up.

        A target that no longer exists is skipped; its metrics read 0.
        """
        modules = [m for n, m in sys.modules.items() if n == "latcb" or n.startswith("latcb.")]
        for mod_name, qualname, counts in TARGETS:
            module = sys.modules.get(f"latcb.{mod_name}")
            name = f"{mod_name}.{qualname}"
            result_wrap = None
            if qualname == "hessian_operator":
                result_wrap = self._wrap_apply
            if "." in qualname:
                cls_name, meth = qualname.split(".")
                cls = getattr(module, cls_name, None)
                if meth in getattr(cls, "__dict__", {}):
                    setattr(cls, meth, self.wrap(name, cls.__dict__[meth], counts))
                continue
            original = getattr(module, qualname, None)
            if original is None:
                continue
            wrapped = self.wrap(name, original, counts, result_wrap)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, attr, wrapped)

    def _wrap_apply(self, args, apply):
        return self.wrap("potentials.hessian_operator.apply", apply, _apply_counts(args[0]))

    def write(self, path: Path) -> None:
        """Spans as JSON lines: name, start, end (ns), parent index, run id, counts."""
        with open(path, "w") as fh:
            for name, t0, t1, parent, run_id, _, counts in self.spans:
                fh.write(json.dumps([name, t0, t1, parent, run_id, counts]) + "\n")

    def layer_metrics(self, rounds: int, scale: float) -> dict:
        """Per-round self time (times ``scale``) and work counts of every traced layer."""
        agg: dict[str, dict] = {}
        for name, t0, t1, parent, _, child_ns, counts in self.spans:
            a = agg.setdefault(name, {"calls": 0, "self_ns": 0})
            a["calls"] += 1
            a["self_ns"] += (t1 - t0) - child_ns
            for key, val in (counts or {}).items():
                a[key] = a.get(key, 0) + val
        for parent_name, child_name in STEP_CHILDREN.items():
            steps = sum(
                1 for name, _, _, parent, *_ in self.spans
                if name == child_name and parent >= 0 and self.spans[parent][0] == parent_name
            )
            agg.setdefault(parent_name, {"calls": 0, "self_ns": 0})["steps"] = steps
        out = {}
        for name, quantity in LAYER_METRICS:
            a = agg.get(name, {})
            if quantity == "self_s":
                value = scale * a.get("self_ns", 0) / 1e9 / rounds
            elif quantity == "ns_per_bond":
                bonds = a.get("bond_evals", 0)
                value = scale * a.get("self_ns", 0) / bonds if bonds else 0.0
            else:
                value = a.get(quantity, 0) / rounds
            out[f"{name}.{quantity}"] = {"value": value, "unit": UNITS.get(quantity, "count")}
        return out


# modules whose size is reported; a module added later counts in total.loc
LOC_MODULES = ("__init__", "cli", "dynamics", "fields", "harness", "interpolation",
               "lattice", "potentials", "stability", "static", "stress")


def source_loc(src_dir: Path) -> dict:
    """Non-blank, non-comment source lines of each latcb module (0 if gone)."""
    counts = {
        path.stem: sum(1 for line in path.read_text().splitlines()
                       if line.strip() and not line.strip().startswith("#"))
        for path in src_dir.glob("*.py")
    }
    out = {
        f"{'latcb' if m == '__init__' else m}.loc": {"value": counts.get(m, 0), "unit": "count"}
        for m in LOC_MODULES
    }
    out["total.loc"] = {"value": sum(counts.values()), "unit": "count"}
    return out
