"""Acceptance suite: the eleven headline checks of the package contract.

Each criterion is one test that prints a single PASS/FAIL line (run with
``pytest -s tests/test_acceptance.py`` to see them) and asserts the stated
tolerance.  Criterion 9 is expected to fail: its parameters push the
Cauchy-Born wave equation out of its hyperbolic regime before the requested
horizon, so the comparison it asks for does not exist for this potential.
The test documents the obstruction; the companion right after it
demonstrates the second-order shadowing rate at an amplitude where the
continuum problem stays well posed.
"""

from __future__ import annotations

import json
import shutil

import numpy as np
import pytest

from latcb.dynamics import InitialData, dynamic_error_sweep, instability_demo
from latcb.fields import TrigField
from latcb.harness import fit_rate, run
from latcb.lattice import LatticeSpec, StencilSet, gauss_rule_01
from latcb.potentials import gradient_array, hessian_operator, total_energy
from latcb.stability import instability_eigenprobe, stability_constant
from latcb.static import SolverError, static_converge_sweep
from latcb.stress import (
    AffineDisplacement,
    CBModel,
    atomistic_stress,
    stress_consistency_field,
)
from latcb.potentials import HarmonicChain

from conftest import lj_chain, lj_square, random_displacement, single_mode_load
from hat_quadrature import zeta_convolve
from point_gap import trig_grad
from test_interpolation import _kernel_identity_violations, _trig_test_field
from test_potentials import _variants
from test_stress import _trig_velocity, weak_form_mismatch


def _report(num: int, label: str, ok: bool, detail: str) -> bool:
    print(f"{'PASS' if ok else 'FAIL'} criterion-{num:02d} {label}: {detail}")
    return ok


# ---------------------------------------------------------------------------

def test_c01_kernel_identities():
    rng = np.random.default_rng(101)
    worst = 0.0
    for d in (1, 2):
        worst = max(worst, float(np.max(_kernel_identity_violations(rng, d, 50))))
    ok = worst <= 1e-10
    assert _report(1, "bond kernel lattice-sum identities", ok,
                   f"max violation {worst:.3e} (tol 1e-10, 100 samples)"), worst


def test_c02_localization_formula():
    rng = np.random.default_rng(102)
    L = 8.0
    tg, tw = gauss_rule_01(12)
    worst = 0.0
    for d in (1, 2):
        dirs = list(StencilSet.ball(d, 3.0).directions)
        for _ in range(10):
            Vf = _trig_test_field(rng, d, 1)
            rho = np.asarray(dirs[rng.integers(0, len(dirs))], dtype=float)
            xi = rng.integers(0, 8, size=d).astype(float)

            def v_fn(x):
                return Vf.eval(np.asarray(x) / L)

            def dv_fn(x):
                return (trig_grad(Vf, np.asarray(x) / L) @ rho) / L

            pts = xi[None, :] + tg[:, None] * rho
            inner = zeta_convolve(dv_fn, pts, n_components=1, q=10)
            lhs = float(tw @ inner[:, 0])
            ends = zeta_convolve(v_fn, np.stack([xi + rho, xi]), n_components=1, q=10)
            worst = max(worst, abs(lhs - float(ends[0, 0] - ends[1, 0])))
    ok = worst <= 1e-10
    assert _report(2, "stress localization formula", ok,
                   f"max residual {worst:.3e} (tol 1e-10, 20 fields)"), worst


def test_c03_weak_form_stress_identity():
    rng = np.random.default_rng(103)
    worst = 0.0
    for P, N in ((lj_chain(), 8), (lj_square(), 6)):
        lattice = LatticeSpec(d=P.d, A=P.A, N=N)
        for _ in range(10):
            u = random_displacement(lattice, rng, scale=0.02)
            Vf = _trig_velocity(rng, P.d)
            worst = max(worst, weak_form_mismatch(P, u, Vf))
    ok = worst <= 1e-8
    assert _report(3, "weak-form stress identity", ok,
                   f"max relative mismatch {worst:.3e} (tol 1e-8, 20 pairs)"), worst


def test_c04_derivative_consistency():
    rng = np.random.default_rng(104)
    h = 1e-5
    worst = 0.0
    for _, P in _variants():
        lattice = LatticeSpec(d=P.d, A=P.A, N=5)
        u = random_displacement(lattice, rng, scale=0.02)
        vals = u.values
        G = gradient_array(P, vals)
        gmax = float(np.max(np.abs(G)))
        flat = vals.ravel()
        idx = rng.permutation(flat.size)[:8]
        for i in idx:
            if abs(G.ravel()[i]) < 1e-3 * gmax:
                continue
            vp, vm = flat.copy(), flat.copy()
            vp[i] += h
            vm[i] -= h
            ep = total_energy(P, vp.reshape(vals.shape))
            em = total_energy(P, vm.reshape(vals.shape))
            fd = (ep - em) / (2 * h)
            worst = max(worst, abs(fd - G.ravel()[i]) / max(abs(fd), abs(G.ravel()[i])))
        w = rng.standard_normal(vals.shape)
        w /= np.max(np.abs(w))
        fdH = (gradient_array(P, vals + h * w) - gradient_array(P, vals - h * w)) / (2 * h)
        Hw = hessian_operator(P, vals)(w)
        worst = max(worst, float(np.max(np.abs(fdH - Hw)) / np.max(np.abs(Hw))))
    ok = worst <= 1e-6
    assert _report(4, "gradient/Hessian finite-difference consistency", ok,
                   f"max relative deviation {worst:.3e} (tol 1e-6, all variants)"), worst


def test_c05_affine_exactness():
    rng = np.random.default_rng(105)
    worst = 0.0
    for P in (lj_chain(), lj_square()):
        M = CBModel(P)
        d = P.d
        for _ in range(10):
            F = rng.standard_normal((d, d))
            F *= rng.uniform(0.0, 0.95) * P.kappa / max(np.linalg.norm(F, 2), 1e-12)
            field = atomistic_stress(P, AffineDisplacement(F))
            x = rng.uniform(-2.0, 2.0, size=(5, d))
            worst = max(worst, float(np.max(np.abs(field.eval(x) - M.stress(F)))))
            worst = max(worst, float(np.max(np.abs(field.div(x)))))
    ok = worst <= 1e-12
    assert _report(5, "affine states collapse onto the continuum stress", ok,
                   f"max deviation {worst:.3e} (tol 1e-12, 20 gradients)"), worst


def test_c06_stability_constants():
    g_stable = stability_constant(HarmonicChain.build(a1=2.0, a2=-0.25))
    g_unstable = stability_constant(HarmonicChain.build(a1=-1.0, a2=0.5))
    quotient = instability_eigenprobe(HarmonicChain.build(a1=-1.0, a2=0.5), N=64)
    ok = (
        abs(g_stable - 1.0) <= 1e-6
        and abs(g_unstable - (-1.0)) <= 1e-6
        and abs(quotient - (-1.0)) <= 1e-10
    )
    assert _report(
        6, "chain stability constants", ok,
        f"gamma(2,-1/4)={g_stable:.9f} (target 1), gamma(-1,1/2)={g_unstable:.9f} "
        f"(target -1), alternating quotient={quotient:.12f} (target -1)",
    ), (g_stable, g_unstable, quotient)


def test_c07_stress_consistency_rates():
    M = CBModel(lj_chain())
    U = TrigField.from_terms(1, 1, [((1,), 0, "sin", 0.05 / (2.0 * np.pi))])
    eps_list = [1 / 8, 1 / 16, 1 / 32, 1 / 64, 1 / 128]
    e_stress, e_div = [], []
    for eps in eps_list:
        rep = stress_consistency_field(M, U, eps, n_per_cell=4)
        e_stress.append(rep["err_stress"])
        e_div.append(rep["err_div"])
    s1 = fit_rate(eps_list, e_stress).slope
    s2 = fit_rate(eps_list, e_div).slope
    ok = 1.8 <= s1 <= 2.2 and 1.8 <= s2 <= 2.2
    assert _report(7, "stress/divergence consistency rates", ok,
                   f"stress slope {s1:.4f}, divergence slope {s2:.4f} "
                   f"(band [1.8, 2.2])"), (s1, s2)


def test_c08_static_convergence():
    F = single_mode_load(0.01)
    eps_list = [1 / 8, 1 / 16, 1 / 32, 1 / 64, 1 / 128]
    sweep = static_converge_sweep(lj_chain(), F, eps_list, tol=1e-10)
    rr = fit_rate(sweep["eps"], sweep["errors"], noise_floor=1e-10)
    ratios_ok = all(0.4 <= r <= 0.6 for r in sweep["half_ratios"])
    ok = 1.8 <= rr.slope <= 2.2 and ratios_ok
    assert _report(8, "static equilibrium convergence", ok,
                   f"slope {rr.slope:.4f} (band [1.8, 2.2]), half-load ratios "
                   f"{[round(r, 4) for r in sweep['half_ratios']]} (band [0.4, 0.6])"), rr.slope


def test_c09_dynamic_convergence_large_amplitude():
    P = lj_chain()
    U0 = TrigField.from_terms(1, 1, [((1,), 0, "sin", 0.05 / (2.0 * np.pi))])
    U1 = TrigField.from_terms(1, 1, [((1,), 0, "sin", 0.0)])
    eps_list = [1 / 16, 1 / 32, 1 / 64, 1 / 128]
    try:
        sweep = dynamic_error_sweep(P, InitialData(U0, U1), T=0.5, eps_list=eps_list)
    except SolverError as exc:
        detail = (
            f"no continuum reference exists at these parameters: {exc}. "
            "The gradient-0.05 wave steepens under the Lennard-Jones flow until "
            "the tangent modulus crosses zero (near gradient 0.105, reached at "
            "T of about 0.13-0.15 on refined grids), well before the horizon "
            "T=0.5, so the requested comparison cannot be completed. The "
            "shadowing rate itself is second order whenever the continuum "
            "solution stays smooth; see the companion test below and "
            "configs/dynamic_converge_lj_smallamp.json."
        )
        _report(9, "dynamic shadowing at gradient amplitude 0.05", False, detail)
        pytest.fail(detail)
    rr = fit_rate(sweep["eps"], sweep["errors"])
    ok = 1.8 <= rr.slope <= 2.2 and sweep["half_dt"]["rel_change"] < 0.1
    assert _report(9, "dynamic shadowing at gradient amplitude 0.05", ok,
                   f"slope {rr.slope:.4f}, half-dt change "
                   f"{sweep['half_dt']['rel_change']:.4f}"), rr.slope


def test_c09_companion_small_amplitude():
    P = lj_chain()
    U0 = TrigField.from_terms(1, 1, [((1,), 0, "sin", 0.005 / (2.0 * np.pi))])
    U1 = TrigField.from_terms(1, 1, [((1,), 0, "sin", 0.0)])
    sweep = dynamic_error_sweep(
        P, InitialData(U0, U1), T=0.5,
        eps_list=[1 / 64, 1 / 128, 1 / 256], cfl=0.05,
    )
    np.testing.assert_allclose(
        sweep["errors"], [1.096405e-03, 3.113231e-04, 8.087270e-05], rtol=1e-5
    )
    rr = fit_rate(sweep["eps"], sweep["errors"])
    ok = 1.8 <= rr.slope <= 2.2 and sweep["half_dt"]["rel_change"] < 0.1
    assert _report(9, "companion: shadowing at gradient amplitude 0.005", ok,
                   f"slope {rr.slope:.4f} (band [1.8, 2.2]), half-dt change "
                   f"{sweep['half_dt']['rel_change']:.4f} (< 0.1)"), rr.slope


def test_c10_instability_window():
    demo = instability_demo(1.0 / 64.0)
    eps2 = (1.0 / 64.0) ** 2
    ok = (
        demo["min_growth_ratio"] >= 1.0
        and demo["stable_max_norm"] <= 2.0 * eps2
        and demo["smooth_max_norm"] <= 2.0 * eps2
        and demo["cb_modulus"] == 1.0
    )
    assert _report(
        10, "zone-boundary instability growth", ok,
        f"min ||v(t)|| / (eps^2 e^t / 2) = {demo['min_growth_ratio']:.4f} on "
        f"[{demo['window'][0]:.2f}, {demo['window'][1]:.2f}]; stable chain max "
        f"{demo['stable_max_norm']:.3e} <= {2.0 * eps2:.3e}; continuum modulus "
        f"{demo['cb_modulus']} > 0",
    ), demo


def test_c11_deterministic_artifacts(tmp_path):
    configs = [
        {
            "experiment": "stability",
            "name": "det_chain",
            "potential": {"variant": "harmonic_chain", "a1": 2.0, "a2": -0.25},
            "params": {"eigenprobe_N": 16},
            "tolerances": {"gamma_value": 1.0},
            "seed": 7,
        },
        {
            "experiment": "stress-consistency",
            "name": "det_stress",
            "potential": {"variant": "pair", "d": 1, "r_cut": 3.0,
                          "phi": {"kind": "lennard_jones"}},
            "geometry": {"eps_list": [0.125, 0.0625, 0.03125]},
            "tolerances": {"slope_band": [1.5, 2.5]},
            "seed": 7,
        },
    ]
    mismatches = []
    for obj in configs:
        path = tmp_path / f"{obj['name']}.json"
        path.write_text(json.dumps(obj))
        outs = []
        for tag in ("a", "b"):
            out = tmp_path / f"{obj['name']}_{tag}"
            code = run(path, out_dir=out)
            assert code == 0, (obj["name"], code)
            outs.append(out)
        for f in sorted(outs[0].iterdir()):
            twin = outs[1] / f.name
            if f.read_bytes() != twin.read_bytes():
                mismatches.append(f.name)
        shutil.rmtree(outs[0])
        shutil.rmtree(outs[1])
    ok = not mismatches
    assert _report(11, "byte-identical artifacts on repeated runs", ok,
                   "2 experiments x 2 runs compared"
                   + ("" if ok else f"; mismatches: {mismatches}")), mismatches
