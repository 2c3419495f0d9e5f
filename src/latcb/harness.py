"""Experiment harness: configuration, dispatch, rate fits, artifacts.

Experiments are described by JSON configs (potential, geometry, numerical
parameters, declared acceptance bands) and produce a gnuplot-ready CSV
table plus a JSON report per run.  Outputs are deterministic: floats are
serialized with ``repr`` (shortest round-trip form), reductions run in a
fixed order, the config hash and tool version are embedded in every
artifact, and no timestamps are written, so identical config + seed give
byte-identical files.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import operator
import os
import sys
from dataclasses import asdict, dataclass, field as dc_field
from pathlib import Path

import numpy as np

from .fields import TrigField, _require_resolved
from .lattice import supercell_period
from .potentials import potential_from_config
from .stability import (
    ZONE_GRID,
    dispersion_spectrum,
    instability_eigenprobe,
    max_frequency,
    stability_constants,
    zone_grid,
)
from .static import MacroForce, static_converge_sweep
from .stress import CBModel, stress_consistency_field
from .dynamics import InitialData, dynamic_error_sweep, instability_demo

__all__ = [
    "EXPERIMENTS",
    "ConfigError",
    "ExperimentConfig",
    "RateReport",
    "fit_rate",
    "run",
]


class ConfigError(Exception):
    """Invalid configuration (schema violation or unreadable file)."""


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

def _field_error(name: str, message: str) -> ConfigError:
    return ConfigError(f"config field {name!r}: {message}")


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)


def _period(v) -> int:
    """The supercell period of spacing ``v``, 0 if it has none."""
    try:
        return supercell_period(v)
    except ValueError:
        return 0


# (key, experiments whose runner reads it, default, type, check, rule): the one
# owner of every numeric param.  _validate resolves the rows of the config's
# experiment into ``cfg.values``: a dict default is keyed by the potential's
# dimension, and a None default marks an optional param that stays None when
# absent.  A value that fails its type (a list must hold finite numbers) or its
# check would crash the solver, so it is a configuration error (exit 2); the
# check sees the value and the values resolved by the rows above it.
_PARAMS = (
    ("n_grid", ("stability",), ZONE_GRID, int, lambda v, r: v >= 8, "must be an integer >= 8"),
    ("eigenprobe_N", ("stability",), None, int, lambda v, r: v >= 4 and v % 2 == 0,
     "must be an even integer >= 4"),
    ("n_k", ("dispersion",), {1: 256, 2: 48, 3: 12}, int, lambda v, r: v >= 1,
     "must be an integer >= 1"),
    ("n_per_cell", ("stress-consistency",), 4, int, lambda v, r: v >= 1,
     "must be an integer >= 1"),
    ("n_grid", ("static-converge",), 256, int, lambda v, r: v >= 8 and v % 2 == 0,
     "must be an even integer >= 8"),
    ("n_grid", ("dynamic-converge",), 128, int, lambda v, r: v >= 8 and v % 2 == 0,
     "must be an even integer >= 8"),
    ("solver_tol", ("static-converge",), 1e-10, float, lambda v, r: v > 0, "must be > 0"),
    ("delta", ("static-converge",), 0.01, float, lambda v, r: v > 0, "must be > 0"),
    ("quadrature", ("static-converge", "dynamic-converge"), 6, int, lambda v, r: v >= 1,
     "must be an integer >= 1"),
    ("T", ("dynamic-converge",), 0.5, float, lambda v, r: v > 0, "must be > 0"),
    ("n_snap", ("dynamic-converge",), 17, int, lambda v, r: v >= 2, "must be an integer >= 2"),
    ("cfl", ("dynamic-converge", "instability-demo"), 0.2, float, lambda v, r: v > 0,
     "must be > 0"),
    ("eps", ("instability-demo",), 1.0 / 64.0, float,
     lambda v, r: _period(v) >= 4 and _period(v) % 2 == 0,
     "must be 1/N for an even integer N >= 4"),
    ("window_start", ("instability-demo",), 1.0, float,
     lambda v, r: 0 <= v < 3.0 * abs(math.log(r["eps"])),
     "must be >= 0 and below the window end 3 |log eps|"),
    ("a_unstable", ("instability-demo",), (-1.0, 0.5), tuple, lambda v, r: len(v) == 2,
     "must be two finite numbers [a1, a2]"),
    ("a_stable", ("instability-demo",), (2.0, -0.25), tuple, lambda v, r: len(v) == 2,
     "must be two finite numbers [a1, a2]"),
)

# field specs each experiment's runner reads, with their defaults
_FIELD_SPECS = {
    "stress-consistency": {"displacement": {"grad_amplitude": 0.05, "mode": 1}},
    "dynamic-converge": {"U0": {"grad_amplitude": 0.05, "mode": 1},
                         "U1": {"amplitude": 0.0, "mode": 1}},
}

# the other params keys each experiment reads: the static load's shape, and two
# retired switches (no-ops) that shipped configs still carry and hash into
# their artifacts.  Any key not read here, in _PARAMS or in _FIELD_SPECS exits 2.
_OTHER_PARAMS = {"static-converge": {"force", "delta_halving"},
                 "dynamic-converge": {"half_dt_check"}}

# what building a potential, load or field from a malformed block raises
_BUILD_ERRORS = (AttributeError, IndexError, KeyError, TypeError, ValueError)

# (experiment, check name, tolerance key, report value, comparison, constraint
# label): each row turns one declared tolerance into an acceptance check on the
# finished report.  The report value is a key path; "*_band" keys are [lo, hi],
# a "within" key is a target with the absolute tolerance named in _WITHIN, and
# stable_factor is declared in units of eps^2.
_CHECKS = (
    ("stability", "gamma_value", "gamma_value", "gamma", "within", "gamma"),
    ("stability", "gamma_min", "gamma_min", "gamma", ">=", "gamma"),
    ("stability", "eigenprobe_value", "eigenprobe_value", "alternating_quotient", "within",
     "quotient"),
    ("dispersion", "min_ratio_min", "min_ratio_min", "min_ratio", ">=", "min ratio"),
    ("stress-consistency", "stress_slope", "slope_band", "stress_rate.slope", "in", "slope"),
    ("stress-consistency", "divergence_slope", "slope_band", "divergence_rate.slope", "in",
     "slope"),
    ("static-converge", "error_slope", "slope_band", "rate.slope", "in", "slope"),
    ("static-converge", "delta_halving", "half_ratio_band", "half_ratios", "all in", "ratios"),
    ("dynamic-converge", "error_slope", "slope_band", "rate.slope", "in", "slope"),
    ("dynamic-converge", "half_dt_control", "half_dt_rel_max", "half_dt.rel_change", "<",
     "relative change"),
    ("instability-demo", "growth_lower_bound", "growth_ratio_min", "min_growth_ratio", ">=",
     "min ratio"),
    ("instability-demo", "stable_chain_bounded", "stable_factor", "stable_max_norm", "<=",
     "max norm"),
    ("instability-demo", "smooth_probe_bounded", "stable_factor", "smooth_max_norm", "<=",
     "max norm"),
    ("instability-demo", "cb_modulus_positive", "cb_modulus_min", "cb_modulus", ">", "modulus"),
)

# absolute tolerance key and its default for each "within" target
_WITHIN = {"gamma_value": ("gamma_abs_tol", 1e-6),
           "eigenprobe_value": ("eigenprobe_abs_tol", 1e-10)}

# comparison -> (test of the observed value against the bound, constraint text)
_COMPARE = {
    ">": (operator.gt, "{label} > {0}"),
    ">=": (operator.ge, "{label} >= {0}"),
    "<=": (operator.le, "{label} <= {0}"),
    "<": (operator.lt, "{label} < {0}"),
    "in": (lambda x, lo, hi: lo <= x <= hi, "{label} in [{0}, {1}]"),
    "all in": (lambda xs, lo, hi: all(lo <= x <= hi for x in xs), "{label} in [{0}, {1}]"),
    # a stability report without the eigenprobe has no quotient to compare
    "within": (lambda x, v, tol: x is not None and abs(x - v) <= tol, "|{label} - {0}| <= {1}"),
}


@dataclass
class ExperimentConfig:
    """Validated experiment description.

    ``raw`` keeps the parsed JSON object verbatim; its canonical
    serialization is hashed into every output artifact.  The runners read
    only what ``_validate`` builds to check the blocks: the potential ``P``,
    the ``_PARAMS`` ``values``, the ``fields`` (the load's under "force"),
    the static ``load`` and the ``spacings``, coarsest first.
    """

    P = load = spacings = None

    experiment: str
    name: str
    potential: dict
    geometry: dict
    params: dict
    tolerances: dict
    seed: int
    raw: dict

    @classmethod
    def from_dict(cls, obj) -> ExperimentConfig:
        if not isinstance(obj, dict):
            raise ConfigError("config root must be a JSON object")
        experiment = obj.get("experiment")
        if not isinstance(experiment, str) or experiment not in EXPERIMENTS:
            raise _field_error(
                "experiment", f"must be one of {', '.join(EXPERIMENTS)}; got {experiment!r}"
            )
        for key in ("potential", "geometry", "params", "tolerances"):
            if key in obj and not isinstance(obj[key], dict):
                raise _field_error(key, "must be a JSON object")
        name = obj.get("name", experiment.replace("-", "_"))
        if not isinstance(name, str) or name in ("", ".", "..") or "/" in name or "\\" in name:
            raise _field_error("name", f"must be a plain file name; got {name!r}")
        seed = obj.get("seed", 0)
        if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
            raise _field_error("seed", "must be a nonnegative integer")
        cfg = cls(
            experiment=experiment,
            name=name,
            potential=obj.get("potential", {}),
            geometry=obj.get("geometry", {}),
            params=obj.get("params", {}),
            tolerances=obj.get("tolerances", {}),
            seed=seed,
            raw=obj,
        )
        cfg._validate()
        return cfg

    @classmethod
    def from_file(cls, path) -> ExperimentConfig:
        path = Path(path)
        try:
            text = path.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}")
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(
                f"config parse error in {path} at line {exc.lineno}, column {exc.colno}: {exc.msg}"
            )
        return cls.from_dict(obj)

    def _validate(self):
        if self.experiment == "instability-demo":
            # the demo builds its own harmonic chains
            if self.potential:
                raise _field_error("potential", "not read by the instability-demo experiment")
            dim = 1
        else:
            if "variant" not in self.potential:
                raise _field_error("potential.variant", "required")
            try:
                P = self.P = potential_from_config(self.potential)
            except _BUILD_ERRORS as exc:
                raise _field_error("potential", f"not resolvable: {exc}")
            dim = P.d
        sweep = self.experiment in ("stress-consistency", "static-converge", "dynamic-converge")
        geometry_keys = {"d", "eps_list"} if sweep else {"d"}
        for key in self.geometry:
            if key not in geometry_keys:
                raise _field_error(f"geometry.{key}",
                                   f"not read by the {self.experiment} experiment")
        d = self.geometry.get("d", dim)
        if not (_is_number(d) and d == int(d)):
            raise _field_error("geometry.d", f"must be an integer; got {d!r}")
        if d != dim:
            raise _field_error("geometry.d", "does not match the potential dimension"
                               if self.P is not None else "the instability demo is one-dimensional")
        if self.experiment in ("static-converge", "dynamic-converge") and dim != 1:
            raise _field_error(
                "geometry.d", f"the {self.experiment} sweep is one-dimensional; got d = {dim}"
            )
        if sweep:
            self.spacings = self.eps_list()
        read = {row[0] for row in _PARAMS if self.experiment in row[1]}
        read |= _FIELD_SPECS.get(self.experiment, {}).keys()
        read |= _OTHER_PARAMS.get(self.experiment, set())
        for key in self.params:
            if key not in read:
                raise _field_error(f"params.{key}", f"not read by the {self.experiment} experiment")
        values = self.values = {}
        for key, experiments, default, kind, ok, rule in _PARAMS:
            if self.experiment not in experiments:
                continue
            v = self.params.get(key, default[self.P.d] if isinstance(default, dict) else default)
            if v is None and default is None:
                values[key] = None
                continue
            typed = (isinstance(v, (list, tuple)) and all(map(_is_number, v)) if kind is tuple
                     else _is_number(v) and (kind is not int or v == int(v)))
            if not typed or not ok(v, values):
                raise _field_error(f"params.{key}", f"{rule}; got {v!r}")
            values[key] = kind(v)
        fields = self.fields = {}
        if self.experiment == "static-converge":
            try:
                self.load = _macro_force(self.params.get("force", {}), values["delta"])
            except _BUILD_ERRORS as exc:
                raise _field_error("params.force", f"cannot make a load: {exc}")
            fields["force"] = self.load.field
        for key, default in _FIELD_SPECS.get(self.experiment, {}).items():
            try:
                fields[key] = _initial_field(self.params.get(key, default))
            except _BUILD_ERRORS as exc:
                raise _field_error(f"params.{key}", f"cannot make a field: {exc}")
        for key, U in fields.items():
            if (U.d, U.n_components) != (P.d, P.d):
                raise _field_error(f"params.{key}", f"the field has d = {U.d} and {U.n_components} "
                                   f"component(s); the potential needs d = {P.d} and {P.d}")
            if values.get("n_grid") is not None:
                try:
                    _require_resolved(U, values["n_grid"])
                except ValueError as exc:
                    raise _field_error(f"params.{key}", str(exc))
        read = {row[2] for row in _CHECKS if row[0] == self.experiment}
        read |= {_WITHIN[k][0] for k in read & _WITHIN.keys() & self.tolerances.keys()}
        for key, v in self.tolerances.items():
            if key not in read:
                raise _field_error(f"tolerances.{key}", f"not read by the {self.experiment} checks")
            band = key.endswith("_band")
            vals = v if band and isinstance(v, list) else [v]
            if not all(map(_is_number, vals)) or band and (len(vals) != 2 or vals[0] > vals[1]):
                rule = "[lo, hi], two finite numbers with lo <= hi" if band else "a finite number"
                raise _field_error(f"tolerances.{key}", f"must be {rule}; got {v!r}")

    def eps_list(self) -> list[float]:
        """Spacing sweep from ``geometry.eps_list``."""
        if "eps_list" not in self.geometry:
            raise _field_error("geometry", "needs eps_list")
        vals = self.geometry["eps_list"]
        if not isinstance(vals, list) or len(vals) < 3:
            raise _field_error("geometry", "the spacing sweep needs at least 3 values")
        out = []
        for v in vals:
            # a JSON number, named as written: float() would also read "0.125" or true
            if not _is_number(v) or _period(v) < 4:
                raise _field_error(
                    "geometry", f"spacings must be reciprocals of integers >= 4; got {v!r}"
                )
            out.append(float(v))
        if len(set(out)) != len(out):
            raise _field_error("geometry", "spacings must be distinct")
        return sorted(out, reverse=True)

    @property
    def config_hash(self) -> str:
        canon = json.dumps(self.raw, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode()).hexdigest()


# ---------------------------------------------------------------------------
# rate fitting
# ---------------------------------------------------------------------------

@dataclass
class RateReport:
    """Log-log least-squares fit of errors against spacings."""

    eps: list
    errors: list
    slope: float
    intercept: float
    fit_residual: float
    dropped: list = dc_field(default_factory=list)


def fit_rate(eps_list, errors, noise_floor=None) -> RateReport:
    """Least-squares slope of log error against log spacing.

    Requires at least three positive pairs at distinct spacings (repeated
    spacings leave the slope undetermined).  When ``noise_floor`` is given
    (the solver tolerance), the coarsest spacing is excluded if its error
    sits within 10x that floor — such a point measures solver noise, not
    the model error — provided at least three points remain.  The slope's
    acceptance band is a ``_CHECKS`` row, not part of the fit.
    """
    eps = np.asarray(list(eps_list), dtype=float)
    err = np.asarray(list(errors), dtype=float)
    if eps.shape != err.shape or eps.ndim != 1 or eps.size < 3:
        raise ValueError("rate fits need at least 3 (eps, error) pairs")
    if np.any(eps <= 0) or np.any(err <= 0):
        raise ValueError("rate fits need positive spacings and errors")
    if len(set(eps.tolist())) != eps.size:
        raise ValueError("rate fits need distinct spacings")
    order = np.argsort(eps)[::-1]
    eps, err = eps[order], err[order]
    dropped = []
    if noise_floor is not None and eps.size > 3 and err[0] <= 10.0 * noise_floor:
        dropped.append(float(eps[0]))
        eps, err = eps[1:], err[1:]
    x, y = np.log(eps), np.log(err)
    A = np.stack([x, np.ones_like(x)], axis=1)
    coef, *_ = np.linalg.lstsq(A, y, rcond=None)
    slope, intercept = float(coef[0]), float(coef[1])
    if not math.isfinite(slope):
        raise ValueError("rate fit produced a non-finite slope")
    resid = float(np.sqrt(np.mean((A @ coef - y) ** 2)))
    return RateReport(
        eps=[float(e) for e in eps],
        errors=[float(e) for e in err],
        slope=slope,
        intercept=intercept,
        fit_residual=resid,
        dropped=dropped,
    )


# ---------------------------------------------------------------------------
# artifacts
# ---------------------------------------------------------------------------

def _atomic_write(texts: dict):
    """Write each ``{path: text}`` to ``path.tmp``, then replace the paths in
    order.  On failure the ``.tmp`` files this call opened are removed; no
    path changes unless every text was written, though a failing replace
    leaves the paths replaced before it."""
    tmps = []
    try:
        for path, text in texts.items():
            tmp = path.with_name(path.name + ".tmp")
            with open(tmp, "w") as fh:
                tmps.append(tmp)
                fh.write(text)
        for tmp, path in zip(tmps, texts):
            os.replace(tmp, path)
    except BaseException:
        for tmp in tmps:
            tmp.unlink(missing_ok=True)
        raise


def _format_value(v) -> str:
    """A CSV cell: a float by its shortest round-trip repr, anything else by str.
    Exact Python floats and float64 tables never reach it: ``csv_text``
    formats them itself in bulk (``_float_texts``), with the same text."""
    return repr(float(v)) if isinstance(v, (float, np.floating)) else str(v)


def _float_texts(values: np.ndarray) -> np.ndarray:
    """The shortest round-trip repr of every float64 of ``values``, as an object
    array of their shape, formatting each distinct bit pattern once: latcb's
    one float formatter.

    The floats are grouped by bit pattern, not by value, which would merge
    0.0 with -0.0; each group's text is gathered back to its cells.
    """
    keys, inverse = np.unique(values.ravel().view(np.uint64), return_inverse=True)
    key_texts = np.array(list(map(repr, keys.view(float).tolist())), dtype=object)
    return key_texts[inverse].reshape(values.shape)


def _cell_texts(rows: list) -> list:
    """``_format_value`` of every cell of ``rows``, in order, the exact Python
    floats among them formatted in bulk (``_float_texts``)."""
    texts = np.fromiter(itertools.chain.from_iterable(rows), dtype=object)
    is_float = np.array([type(v) is float for v in texts], dtype=bool)
    texts[is_float] = _float_texts(texts[is_float].astype(float))
    other = ~is_float
    texts[other] = list(map(_format_value, texts[other]))
    return texts.tolist()


def csv_text(comments, columns, rows) -> str:
    """Comment lines, the column line and one line per row (a sequence of cells,
    of any length) of ``_format_value`` texts.

    A 2-D float64 array is formatted from its array (``_float_texts``); any
    other table has the cells of all its rows formatted in one pass
    (``_cell_texts``).  The text is the per-row loop's, kept as the oracle
    ``tests/csv_reference.py``.
    """
    lines = [f"# {c}" for c in comments]
    lines.append("# columns: " + ",".join(columns))
    if type(rows) is np.ndarray and rows.dtype == np.float64 and rows.ndim == 2:
        lines.extend(map(",".join, _float_texts(rows).tolist()))
    else:
        rows = list(rows)
        # each row takes its own number of texts off one iterator
        texts = iter(_cell_texts(rows))
        lines.extend(map(",".join, map(itertools.islice, itertools.repeat(texts), map(len, rows))))
    return "\n".join(lines) + "\n"


def _evaluate_checks(cfg: ExperimentConfig, report: dict) -> list:
    """The `_CHECKS` rows of the experiment whose tolerance the config declares."""
    tol = cfg.tolerances
    checks = []
    for experiment, name, key, path, compare, label in _CHECKS:
        if experiment != cfg.experiment or key not in tol:
            continue
        observed = report
        for part in path.split("."):
            observed = observed.get(part)
        if key.endswith("_band"):
            bound = [float(v) for v in tol[key]]
        elif key in _WITHIN:
            abs_key, default = _WITHIN[key]
            bound = [float(tol[key]), float(tol.get(abs_key, default))]
        else:
            bound = [float(tol[key])]
            if key == "stable_factor":
                bound[0] *= report["eps"] ** 2
        test, text = _COMPARE[compare]
        checks.append({"name": name, "passed": bool(test(observed, *bound)), "observed": observed,
                       "constraint": text.format(*bound, label=label)})
    return checks


# ---------------------------------------------------------------------------
# experiment runners
# ---------------------------------------------------------------------------
# each runner returns (report_fields, columns, rows): `run` adds the "checks"
# list from _CHECKS to the report and writes the table as `<name>.csv`.

def _run_stability(cfg: ExperimentConfig, workers: int):
    """lattice stability constant, max frequency, Legendre-Hadamard minimum"""
    P, probe_N = cfg.P, cfg.values["eigenprobe_N"]
    gamma, lh_min = stability_constants(P, cfg.values["n_grid"])
    report = {"gamma": gamma, "omega_max": max_frequency(P), "lh_min": lh_min}
    if probe_N is not None:
        report["alternating_quotient"] = instability_eigenprobe(P, probe_N)
    return report, ("quantity", "value"), list(report.items())


def _run_dispersion(cfg: ExperimentConfig, workers: int):
    """dynamical-symbol eigenvalues over a Brillouin-zone sample"""
    d, n_k = cfg.P.d, cfg.values["n_k"]
    spec = dispersion_spectrum(cfg.P, zone_grid(d, n_k))
    n_eig = spec.eigs.shape[1]
    columns = (
        tuple(f"k{i + 1}" for i in range(d))
        + tuple(f"eig{i + 1}" for i in range(n_eig))
        + ("normalizer",)
        + tuple(f"ratio{i + 1}" for i in range(n_eig))
    )
    rows = spec.to_rows()
    finite = spec.ratios[np.isfinite(spec.ratios)]
    min_ratio = float(np.min(finite))
    max_omega = float(np.sqrt(np.max(np.abs(spec.eigs))))
    report = {"min_ratio": min_ratio, "max_omega_sampled": max_omega, "n_k": n_k}
    return report, columns, rows


def _initial_field(spec: dict) -> TrigField:
    """Band-limited scalar field on the unit torus from a config block."""
    if "terms" in spec:
        terms = [
            (tuple(int(m) for m in t[0]), int(t[1]), str(t[2]), float(t[3]))
            for t in spec["terms"]
        ]
        d = len(terms[0][0])
        return TrigField.from_terms(d, 1, terms)
    mode = int(spec.get("mode", 1))
    kind = str(spec.get("kind", "sin"))
    if "grad_amplitude" in spec:
        if mode == 0:
            raise ValueError("grad_amplitude needs a nonzero mode")
        amp = float(spec["grad_amplitude"]) / (2.0 * np.pi * abs(mode))
    else:
        amp = float(spec.get("amplitude", 0.0))
    return TrigField.from_terms(1, 1, [((mode,), 0, kind, amp)])


def _run_stress_consistency(cfg: ExperimentConfig, workers: int):
    """atomistic vs Cauchy-Born stress gap over a spacing sweep"""
    M, U = CBModel(cfg.P), cfg.fields["displacement"]
    rows = []
    for eps in cfg.spacings:
        rep = stress_consistency_field(M, U, eps, n_per_cell=cfg.values["n_per_cell"])
        rows.append((eps, rep["err_stress"], rep["err_div"]))
    rr_stress = fit_rate(cfg.spacings, [r[1] for r in rows])
    rr_div = fit_rate(cfg.spacings, [r[2] for r in rows])
    report = {"stress_rate": asdict(rr_stress), "divergence_rate": asdict(rr_div)}
    return report, ("eps", "err_stress", "err_div"), rows


def _macro_force(shape: dict, delta: float) -> MacroForce:
    """The load shaped by the ``params.force`` block and scaled to size ``delta``."""
    # the size comes from delta alone: any amplitude in the spec is replaced
    shape = {k: v for k, v in shape.items() if k != "grad_amplitude"}
    F = MacroForce(_initial_field({**shape, "amplitude": 1.0}))
    if not F.delta > 0.0:
        raise ValueError("the force shape has zero size")
    return F.scaled(delta / F.delta)


def _run_static_converge(cfg: ExperimentConfig, workers: int):
    """static equilibrium convergence rate study"""
    v = cfg.values
    sweep = static_converge_sweep(cfg.P, cfg.load, cfg.spacings, n_grid=v["n_grid"],
                                  tol=v["solver_tol"], q=v["quadrature"])
    rr = fit_rate(sweep["eps"], sweep["errors"], noise_floor=v["solver_tol"])
    columns = ("eps", "error", "residual", "newton_iterations", "error_half_delta", "half_ratio")
    rows = [
        (det["eps"], det["error"], det["residual"], det["newton_iterations"], half, ratio)
        for det, half, ratio in zip(sweep["details"]["full"]["members"], sweep["errors_half"],
                                    sweep["half_ratios"])
    ]
    report = {"rate": asdict(rr), "delta": sweep["delta"], "half_ratios": sweep["half_ratios"]}
    return report, columns, rows


def _run_dynamic_converge(cfg: ExperimentConfig, workers: int):
    """lattice dynamics vs Cauchy-Born wave convergence rate study"""
    v = cfg.values
    sweep = dynamic_error_sweep(
        cfg.P, InitialData(cfg.fields["U0"], cfg.fields["U1"]), T=v["T"], eps_list=cfg.spacings,
        n_snap=v["n_snap"], n_grid=v["n_grid"], cfl=v["cfl"], q=v["quadrature"], workers=workers,
    )
    rr = fit_rate(sweep["eps"], sweep["errors"])
    rows = [
        (det["eps"], det["error"], det["energy_drift"])
        for det in sweep["details"]
    ]
    report = {"rate": asdict(rr), "T": sweep["T"], "half_dt": sweep["half_dt"]}
    return report, ("eps", "error", "energy_drift"), rows


def _run_instability_demo(cfg: ExperimentConfig, workers: int):
    """exponential growth of the unstable chain vs its stable continuum"""
    # the demo's params are exactly its keyword arguments
    rep = instability_demo(**cfg.values)
    eps, times = cfg.values["eps"], rep["times"]
    rows = np.column_stack([times, rep["velocity_norms"],
                            [0.5 * eps**2 * math.exp(t) for t in times]])
    report = {k: v for k, v in rep.items() if k not in ("times", "velocity_norms")}
    return report, ("t", "velocity_norm", "growth_bound"), rows


# experiment name -> runner; each runner's docstring is its CLI help line
EXPERIMENTS = {
    "stability": _run_stability,
    "dispersion": _run_dispersion,
    "stress-consistency": _run_stress_consistency,
    "static-converge": _run_static_converge,
    "dynamic-converge": _run_dynamic_converge,
    "instability-demo": _run_instability_demo,
}


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def run(
    config_path,
    out_dir=None,
    workers: int = 1,
    seed: int | None = None,
    expect_experiment: str | None = None,
) -> int:
    """Run one experiment config; returns the process exit status.

    0: all declared acceptance bands passed; 1: some band failed;
    2: configuration error; 3: runtime/solver error.
    """
    from . import __version__

    try:
        cfg = ExperimentConfig.from_file(config_path)
        if expect_experiment is not None and cfg.experiment != expect_experiment:
            raise _field_error(
                "experiment",
                f"config declares {cfg.experiment!r} but the {expect_experiment!r} "
                "subcommand was invoked",
            )
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    if workers < 1:
        print(f"config error: workers must be >= 1, got {workers}", file=sys.stderr)
        return 2
    if seed is not None:
        if seed < 0:  # the same rule as the config's seed
            print(f"config error: seed must be a nonnegative integer, got {seed}", file=sys.stderr)
            return 2
        cfg.seed = seed
    out = Path(out_dir) if out_dir is not None else Path(".")
    try:
        out.mkdir(parents=True, exist_ok=True)
        report_fields, columns, rows = EXPERIMENTS[cfg.experiment](cfg, workers)
        report_fields["checks"] = _evaluate_checks(cfg, report_fields)
        passed = all(c["passed"] for c in report_fields["checks"])
        comments = [
            f"latcb {__version__}",
            f"experiment: {cfg.experiment}",
            f"config sha256: {cfg.config_hash}",
            f"seed: {cfg.seed}",
        ]
        csv = csv_text(comments, columns, rows)
        report = {
            "experiment": cfg.experiment,
            "name": cfg.name,
            "version": __version__,
            "config_sha256": cfg.config_hash,
            "seed": cfg.seed,
            "passed": passed,
        }
        report.update(report_fields)
        # both texts exist before either file is touched
        _atomic_write({out / f"{cfg.name}.csv": csv,
                       out / f"{cfg.name}.report.json":
                       json.dumps(report, indent=2, sort_keys=True) + "\n"})
    except Exception as exc:
        print(f"runtime error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    for c in report_fields["checks"]:
        status = "PASS" if c["passed"] else "FAIL"
        print(f"{status} {cfg.name}:{c['name']} observed={c['observed']} ({c['constraint']})")
    return 0 if passed else 1
