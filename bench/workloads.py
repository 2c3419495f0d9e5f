"""The four benchmark workloads: inputs, operations and output checks.

A workload is built by ``prepare(latcb, seed, workdir)``, which writes and
validates its generated configs and builds its library inputs (this is the
set-up that ``setup_s`` times).  It returns the operations of one round.
Every operation calls latcb through its public entry points: the
``latcb.cli.main`` entry for configs, library functions otherwise, always
looked up at call time so that a traced run sees the wrapped functions.
An operation's ``check`` compares the output with the computations in
``oracles`` and raises ``Failed`` when the operation did not do what the
program promises, ``Wrong`` when it did but the output is wrong.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import oracles

ROOT = Path(__file__).resolve().parent.parent

LJ_CHAIN = {"variant": "pair", "d": 1, "r_cut": 3.0, "phi": {"kind": "lennard_jones"}}
LJ_SQUARE = {"variant": "pair", "d": 2, "r_cut": 2.0, "phi": {"kind": "lennard_jones"}}
MORSE_CHAIN = {"variant": "pair", "d": 1, "r_cut": 2.0, "phi": {"kind": "morse"}}
EAM_CHAIN = {
    "variant": "eam", "d": 1, "r_cut": 2.0,
    "phi": {"kind": "morse"}, "psi": {"kind": "exp"},
    "embed": {"coeffs": [0.0, 1.0, 0.3, -0.05]},
}
EAM_SQUARE = {
    "variant": "eam", "d": 2, "r_cut": 1.5,
    "phi": {"kind": "morse"}, "psi": {"kind": "exp"},
    "embed": {"coeffs": [0.0, 1.0, 0.2]},
}
SLOPE_BAND = (1.8, 2.2)


class Failed(Exception):
    """The operation did not do what the program promises."""


class Wrong(Exception):
    """The operation completed but its output is wrong."""


@dataclass
class Op:
    name: str
    call: Callable[[], object]
    check: Callable[[object], None]


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise Wrong(message)


def _in_band(name: str, value: float, band) -> None:
    _require(band[0] <= value <= band[1], f"{name} = {value!r} outside {list(band)}")


def _write_config(workdir: Path, obj: dict) -> Path:
    path = workdir / f"{obj['name']}.json"
    path.write_text(json.dumps(obj, indent=2) + "\n")
    return path


def _read_csv(path: Path) -> dict:
    """Columns of a latcb CSV artifact; numeric columns as float arrays."""
    columns, rows = None, []
    for line in path.read_text().splitlines():
        if line.startswith("# columns: "):
            columns = line[len("# columns: "):].split(",")
        elif not line.startswith("#"):
            rows.append(line.split(","))
    out = {}
    for j, c in enumerate(columns):
        cells = [row[j] for row in rows]
        try:
            out[c] = np.array([float(v) for v in cells])
        except ValueError:
            out[c] = cells
    return out


def _cli_op(latcb, config: Path, out: Path, seed: int, check=None, expect_exit: int = 0) -> Op:
    """Operation running one config through the command-line entry point."""
    cfg = json.loads(config.read_text())
    name = cfg["name"]
    argv = [cfg["experiment"], "--config", str(config), "--out", str(out),
            "--workers", "1", "--seed", str(seed)]

    def call():
        return latcb.cli.main(argv)

    def verify(code):
        if code == 1 and expect_exit == 0:
            raise Wrong(f"{name}: a declared acceptance band failed (exit 1)")
        if code != expect_exit:
            raise Failed(f"{name}: exit {code}, expected {expect_exit}")
        if check is not None:
            check(_read_csv(out / f"{name}.csv"),
                  json.loads((out / f"{name}.report.json").read_text()))

    return Op(name, call, verify)


def _validated(latcb, workdir: Path, obj: dict) -> Path:
    path = _write_config(workdir, obj)
    latcb.harness.ExperimentConfig.from_file(path)  # parses and builds the potential
    return path


def _spacings(n_min: int, n_max: int) -> list:
    return [1.0 / n for n in (2**j for j in range(n_min, n_max + 1))]


# ---------------------------------------------------------------------------
# shadowing: lattice dynamics against the Cauchy-Born wave
# ---------------------------------------------------------------------------

# The shipped small-amplitude sweep (configs/dynamic_converge_lj_smallamp.json)
# with the macroscopic horizon cut from 1/2 to 1/256, so one round takes
# about a second, not minutes.  Lattices, amplitude, CFL fraction and the
# half-dt control are unchanged, so each step does the shipped force-kernel
# and wave-solver work.  Snapshots drop from 17 to 3: their comparison cost does
# not shrink with the horizon and would otherwise outweigh the time steps.
SHADOWING_T = 1.0 / 256.0


def _shadowing_config(seed: int, cfl: float, name: str) -> dict:
    return {
        "experiment": "dynamic-converge",
        "name": name,
        "potential": LJ_CHAIN,
        "geometry": {"d": 1, "eps_list": _spacings(6, 9)},
        "params": {
            "T": SHADOWING_T,
            "n_snap": 3,
            "U0": {"grad_amplitude": 0.005, "mode": 1, "kind": "sin"},
            "U1": {"amplitude": 0.0, "mode": 1},
            "cfl": cfl,
            "half_dt_check": True,
        },
        "tolerances": {"slope_band": list(SLOPE_BAND), "half_dt_rel_max": 0.1},
        "seed": seed,
    }


def _check_shadowing(csv, report):
    eps, err = csv["eps"], csv["error"]
    slope = oracles.loglog_slope(eps, err)
    _in_band("shadowing slope", slope, SLOPE_BAND)
    _require(abs(slope - report["rate"]["slope"]) <= 1e-9,
             f"reported slope {report['rate']['slope']!r} differs from the refit {slope!r}")
    order = np.argsort(eps)[::-1]
    _require(bool(np.all(np.diff(err[order]) < 0.0)),
             f"errors do not fall with every halving: {err[order].tolist()}")
    rel = report["half_dt"]["rel_change"]
    _require(rel < 0.1, f"half-dt relative change {rel!r} >= 0.1")


def shadowing(latcb, seed: int, workdir: Path, out: Path) -> list:
    rng = np.random.default_rng([seed, 1])
    sweep = _validated(latcb, workdir, _shadowing_config(seed, 0.05, "shadowing_sweep"))
    # not validated here: rejecting it is the operation under test
    cfl_zero = _write_config(workdir, _shadowing_config(seed, 0.0, "shadowing_cfl_zero"))

    P = latcb.potentials.potential_from_config(LJ_CHAIN)
    N = 64
    lattice = latcb.lattice.LatticeSpec(d=1, A=np.eye(1), N=N)
    u = 0.01 * rng.standard_normal((N, 1))
    u[int(rng.integers(N)), 0] = math.nan

    def nan_state():
        """Whether latcb rejected the state: any error raised on the way counts."""
        try:
            u0 = latcb.lattice.DisplacementField(lattice, u)
            v0 = latcb.lattice.DisplacementField.zeros(lattice)
            latcb.dynamics.integrate_atomistic(P, u0, v0, [0.05], cfl=0.05)
        except Exception:
            return True
        return False

    def check_nan(rejected):
        if not rejected:
            raise Failed("nan_state: a state with a NaN site was integrated without an error")

    return [
        _cli_op(latcb, sweep, out, seed, _check_shadowing),
        Op("nan_state", nan_state, check_nan),
        _cli_op(latcb, cfl_zero, out, seed, expect_exit=2),
    ]


# ---------------------------------------------------------------------------
# statics: static equilibria of three chains plus the harmonic chain
# ---------------------------------------------------------------------------

STATIC_TOL = 1e-10


def _check_static(csv, report):
    slope = oracles.loglog_slope(csv["eps"], csv["error"])
    _in_band("static slope", slope, SLOPE_BAND)
    ratios = csv["error_half_delta"] / csv["error"]
    _require(bool(np.all((ratios >= 0.4) & (ratios <= 0.6))),
             f"half-load ratios {ratios.tolist()} outside [0.4, 0.6]")
    _require(bool(np.all(csv["residual"] <= STATIC_TOL)),
             f"residuals {csv['residual'].tolist()} above {STATIC_TOL}")


def statics(latcb, seed: int, workdir: Path, out: Path) -> list:
    rng = np.random.default_rng([seed, 2])
    ops = []
    for label, pot in (("lj", LJ_CHAIN), ("morse", MORSE_CHAIN), ("eam", EAM_CHAIN)):
        for delta in (0.01, 0.02):
            cfg = {
                "experiment": "static-converge",
                "name": f"statics_{label}_delta{delta}",
                "potential": pot,
                "geometry": {"d": 1, "eps_list": _spacings(3, 7)},
                "params": {
                    "delta": delta,
                    "force": {"mode": 1, "kind": "sin"},
                    "solver_tol": STATIC_TOL,
                    "delta_halving": True,
                },
                "tolerances": {"slope_band": list(SLOPE_BAND), "half_ratio_band": [0.4, 0.6]},
                "seed": seed,
            }
            ops.append(_cli_op(latcb, _validated(latcb, workdir, cfg), out, seed, _check_static))

    a1, a2, N = 2.0, -0.25, 128
    P = latcb.potentials.potential_from_config({"variant": "harmonic_chain", "a1": a1, "a2": a2})
    f = 1e-3 * rng.standard_normal(N)
    f -= f.mean()
    lattice = latcb.lattice.LatticeSpec(d=1, A=np.eye(1), N=N)
    f_a = latcb.lattice.DisplacementField(lattice, f[:, None])
    tol = 1e-13

    def harmonic():
        return latcb.static.solve_atomistic_static(P, f_a, tol=tol)

    def check_harmonic(sol):
        u = sol.field.values[:, 0]
        gap = float(np.max(np.abs(u - oracles.harmonic_chain_solve(f, a1, a2))))
        _require(gap <= 1e-11, f"harmonic equilibrium differs from the FFT solve by {gap:.3e}")
        res = float(np.max(np.abs(oracles.harmonic_chain_gradient(u, a1, a2) - f)))
        _require(res <= tol, f"re-evaluated harmonic residual {res:.3e} above {tol}")

    ops.append(Op("harmonic_equilibrium", harmonic, check_harmonic))
    return ops


# ---------------------------------------------------------------------------
# stress_field: stress consistency sweep and affine exactness
# ---------------------------------------------------------------------------

def _check_stress_sweep(csv, report):
    for column in ("err_stress", "err_div"):
        _in_band(f"{column} slope", oracles.loglog_slope(csv["eps"], csv[column]), SLOPE_BAND)


def _affine_op(latcb, name: str, pot: dict, F: np.ndarray, pts: np.ndarray) -> Op:
    P = latcb.potentials.potential_from_config(pot)
    expect = oracles.cb_stress_lj(F, oracles.ball_directions(pot["d"], pot["r_cut"]))

    def call():
        field = latcb.stress.atomistic_stress(P, latcb.stress.AffineDisplacement(F))
        return field.eval(pts), field.div(pts)

    def check(result):
        S, div = result
        gap = float(np.max(np.abs(S - expect)))
        _require(gap <= 1e-12, f"{name}: affine stress differs from Cauchy-Born by {gap:.3e}")
        worst = float(np.max(np.abs(div)))
        _require(worst <= 1e-12, f"{name}: affine stress divergence {worst:.3e} is not zero")

    return Op(name, call, check)


def stress_field(latcb, seed: int, workdir: Path, out: Path) -> list:
    rng = np.random.default_rng([seed, 3])
    cfg = {
        "experiment": "stress-consistency",
        "name": "stress_field_sweep",
        "potential": LJ_CHAIN,
        "geometry": {"d": 1, "eps_list": _spacings(3, 7)},
        "params": {
            "displacement": {"grad_amplitude": 0.05, "mode": 1, "kind": "sin"},
            "n_per_cell": 4,
        },
        "tolerances": {"slope_band": list(SLOPE_BAND)},
        "seed": seed,
    }
    sweep = _validated(latcb, workdir, cfg)
    return [
        _cli_op(latcb, sweep, out, seed, _check_stress_sweep),
        _affine_op(latcb, "affine_1d", LJ_CHAIN,
                   rng.uniform(-0.04, 0.04, (1, 1)), rng.uniform(0.0, 8.0, (64, 1))),
        _affine_op(latcb, "affine_2d", LJ_SQUARE,
                   rng.uniform(-0.03, 0.03, (2, 2)), rng.uniform(0.0, 4.0, (32, 2))),
    ]


# ---------------------------------------------------------------------------
# spectra: stability, dispersion and the instability demonstration
# ---------------------------------------------------------------------------

# the LJ-chain stability constant from the closed form, computed once per run
_lj_gamma = functools.cache(oracles.lj_chain_gamma)


def _check_gamma(value, a1=None):
    def check(csv, report):
        gamma = report["gamma"]
        _require(abs(gamma - value) <= 1e-6, f"gamma {gamma!r} differs from {value}")
        if a1 is not None:
            q = report["alternating_quotient"]
            _require(abs(q - a1) <= 1e-10, f"alternating quotient {q!r} differs from a1 = {a1}")
    return check


def _check_lj_gamma(csv, report):
    _check_gamma(_lj_gamma())(csv, report)


def _check_lj_dispersion(csv, report):
    k, eig = csv["k1"], csv["eig1"]
    expect = oracles.lj_chain_symbol(k)
    gap = float(np.max(np.abs(eig - expect) / (1.0 + np.abs(expect))))
    _require(gap <= 1e-9, f"LJ chain symbol differs from the closed form by {gap:.3e}")
    worst = float(np.nanmin(csv["ratio1"]))
    _require(worst >= _lj_gamma() - 1e-9, f"sampled ratio {worst!r} below gamma")


def _check_demo(eps: float, window_start: float):
    def check(csv, report):
        _require(all(c["passed"] for c in report["checks"]), "a declared band failed")
        t, norm = csv["t"], csv["velocity_norm"]
        inside = t >= window_start
        ratio = float(np.min(norm[inside] / (0.5 * eps**2 * np.exp(t[inside]))))
        _require(ratio >= 1.0, f"velocity norm falls below eps^2 e^t / 2 (ratio {ratio!r})")
    return check


def _check_lh(csv, report):
    gamma, lh = report["gamma"], report["lh_min"]
    _require(gamma <= lh + 1e-9, f"gamma {gamma!r} above the Legendre-Hadamard minimum {lh!r}")


def _check_omega(stability_report: Path):
    def check(csv, report):
        omega = json.loads(stability_report.read_text())["omega_max"]
        eigs = np.stack([v for c, v in csv.items() if c.startswith("eig")])
        worst = float(np.max(np.abs(eigs)))
        _require(worst <= omega**2 * (1.0 + 1e-12),
                 f"sampled eigenvalue {worst!r} above omega_max^2 = {omega**2!r}")
    return check


def spectra(latcb, seed: int, workdir: Path, out: Path) -> list:
    shipped = {name: ROOT / "configs" / f"{name}.json" for name in (
        "stability_lj", "stability_chain_stable", "stability_chain_unstable",
        "dispersion_lj", "instability_demo")}
    for path in shipped.values():
        latcb.harness.ExperimentConfig.from_file(path)
    demo = json.loads(shipped["instability_demo"].read_text())["params"]
    ops = [
        _cli_op(latcb, shipped["stability_lj"], out, seed, _check_lj_gamma),
        _cli_op(latcb, shipped["stability_chain_stable"], out, seed, _check_gamma(1.0, a1=2.0)),
        _cli_op(latcb, shipped["stability_chain_unstable"], out, seed,
                _check_gamma(-1.0, a1=-1.0)),
        _cli_op(latcb, shipped["dispersion_lj"], out, seed, _check_lj_dispersion),
        _cli_op(latcb, shipped["instability_demo"], out, seed,
                _check_demo(demo["eps"], demo["window_start"])),
    ]
    for label, pot in (("lj_square", LJ_SQUARE), ("eam_square", EAM_SQUARE)):
        names = {exp: f"spectra_{exp}_{label}" for exp in ("stability", "dispersion")}
        configs = {
            exp: _validated(latcb, workdir, {
                "experiment": exp, "name": name, "potential": pot,
                "geometry": {"d": 2}, "params": {}, "tolerances": {}, "seed": seed,
            })
            for exp, name in names.items()
        }
        stability_report = out / f"{names['stability']}.report.json"
        ops.append(_cli_op(latcb, configs["stability"], out, seed, _check_lh))
        ops.append(_cli_op(latcb, configs["dispersion"], out, seed,
                           _check_omega(stability_report)))
    return ops


WORKLOADS = {
    "shadowing": shadowing,
    "statics": statics,
    "stress_field": stress_field,
    "spectra": spectra,
}
