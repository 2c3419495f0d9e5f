"""Static equilibria: loads, both solvers, the gap metric, and a short sweep.

The harmonic chain gives exact linear-algebra oracles (FFT solve of the
symbol); Lennard-Jones values at small load are pinned against the linear
response prediction and frozen regression anchors.
"""

from __future__ import annotations

import json
import math
import re
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from latcb import static
from latcb.dynamics import InitialData, make_initial_data, solve_cb_wave
from latcb.fields import TrigField
from latcb.harness import ExperimentConfig, _run_static_converge
from latcb.interpolation import interp_sample_shifts
from latcb.lattice import DisplacementField, LatticeSpec, StencilSet
from latcb.potentials import (
    AdmissibilityError,
    HarmonicChain,
    PairPotential,
    _energies_and_gradient,
    gradient_array,
    hessian_operator,
    lennard_jones,
)
from latcb.stability import dynamical_symbol, stability_constants
from latcb.static import (
    MacroForce,
    SolverError,
    _newton_krylov,
    _spectral_ddx,
    interp_gradient_gap,
    interp_value_gap,
    make_forces,
    solve_atomistic_static,
    solve_cb_static,
    static_converge_sweep,
)
from latcb.stress import CBModel

from conftest import eam_chain, lj_chain, lj_square, morse_chain, single_mode_load, site_coords
from dense_cb_static import solve_cb_static as dense_solve_cb_static
from hat_quadrature import zeta_convolve
import offset_gap
import per_load_sweep
from point_gap import point_gradient_gap, point_value_gap
from scipy_cg import scipy_newton_krylov
from single_newton import line_search, serial_newton_krylov

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

LJ_GAMMA = 70.6106531415735

# unit-amplitude sin(2 pi X) quasi-sampling anchors (scaled L2 metrics)
GRAD_GAP_UNIT_SIN = {8: 2.267252532e-01, 16: 5.697544277e-02, 32: 1.426614958e-02}
VALUE_GAP_UNIT_SIN = {8: 3.601994274e-02, 16: 9.064408609e-03, 32: 2.270316892e-03}

# delta = 0.01 Lennard-Jones sweep anchors
SWEEP_ERRORS = [1.749167818544e-08, 3.333964929409e-09, 7.741910228724e-10]


def _quasi_sample(U: TrigField, eps: float) -> DisplacementField:
    N = int(round(1.0 / eps))
    lattice = LatticeSpec(d=1, A=np.eye(1), N=N)
    sites = site_coords(lattice).astype(float)
    vals = zeta_convolve(lambda x: U.eval(np.asarray(x) * eps) / eps, sites, n_components=1)
    return DisplacementField(lattice, vals.reshape(N, 1))


# ---------------------------------------------------------------------------
# loads
# ---------------------------------------------------------------------------

def test_single_mode_load_amplitude_and_size():
    delta = 0.01
    F = single_mode_load(delta)
    km = 2.0 * np.pi
    c = delta * np.sqrt(2.0) / (1.0 / km + km)
    assert F.field.eval(np.array([[0.25]]))[0, 0] == pytest.approx(c, rel=1e-13)
    # ||c sin(k X)||_{H^s} = |k|^s c / sqrt(2); delta adds s = -1 and s = 1
    assert F.field.sobolev_norm(-1.0) == pytest.approx(c / (km * np.sqrt(2.0)), rel=1e-12)
    assert F.field.sobolev_norm(1.0) == pytest.approx(c * km / np.sqrt(2.0), rel=1e-12)
    assert F.delta == pytest.approx(delta, rel=1e-12)
    assert F.scaled(0.5).delta == pytest.approx(0.5 * delta, rel=1e-12)


def test_loads_require_zero_mean():
    const = TrigField.from_terms(1, 1, [((0,), 0, "cos", 0.3)])
    with pytest.raises(ValueError):
        MacroForce(field=const)


def test_make_forces_transfer():
    F = single_mode_load(0.01)
    eps = 1.0 / 8.0
    f_a = make_forces(F, eps)
    assert f_a.values.shape == (8, 1)
    # site load = hat-kernel average of the microscopic force eps F(eps x)
    sites = np.arange(8.0)[:, None]
    f_micro = zeta_convolve(lambda x: eps * F.field.eval(x * eps), sites, n_components=1)
    # at the sin nodes (sites 0 and 4) both sides are roundoff of a true zero
    atol = 1e-15 * float(np.max(np.abs(f_micro)))
    np.testing.assert_allclose(f_a.values, f_micro, rtol=1e-14, atol=atol)
    assert abs(float(np.sum(f_a.values))) < 1e-15
    with pytest.raises(ValueError):
        make_forces(F, 0.3)


_TRANSFER_TERMS = {
    1: [((1,), 0, "sin", 0.7), ((2,), 0, "cos", -0.4), ((3,), 0, "sin", 0.25)],
    2: [((1, 0), 0, "sin", 0.7), ((0, 2), 1, "cos", -0.4), ((1, -1), 0, "cos", 0.3),
        ((2, 3), 1, "sin", 0.25), ((3, 1), 0, "sin", -0.2)],
}


@pytest.mark.parametrize("d, eps_list", [
    (1, [1 / 8, 1 / 16, 1 / 64, 1 / 512]),
    (2, [1 / 8, 1 / 16, 1 / 64]),
])
def test_hat_transfer_matches_quadrature_oracle(d, eps_list):
    # zero-mean modes up to 3 in every component, plus a constant in U0
    F = MacroForce(TrigField.from_terms(d, d, _TRANSFER_TERMS[d]))
    U0 = TrigField.from_terms(d, d, _TRANSFER_TERMS[d] + [((0,) * d, d - 1, "cos", 0.5)])
    U1 = F.field.scale(-1.5)
    for eps in eps_list:
        N = int(round(1.0 / eps))
        sites = site_coords(LatticeSpec(d=d, A=np.eye(d), N=N)).astype(float)
        u0, v0 = make_initial_data(InitialData(U0, U1), eps)
        # u0 is also the static sweep's start, _hat_transfer(U0, eps, 1 / eps)
        pairs = [
            (make_forces(F, eps), lambda x: eps * F.field.eval(x * eps)),
            (u0, lambda x: U0.eval(x * eps) / eps),
            (v0, lambda x: U1.eval(x * eps)),
        ]
        for got, fn in pairs:
            ref = zeta_convolve(fn, sites, n_components=d).reshape(got.values.shape)
            gap = float(np.max(np.abs(got.values - ref)))
            assert gap <= 4e-15 * float(np.max(np.abs(ref))), (eps, gap)


# ---------------------------------------------------------------------------
# continuum solver
# ---------------------------------------------------------------------------

def test_cb_solver_harmonic_one_step():
    # quadratic energy: the linearized start is already the solution
    M = CBModel(HarmonicChain.build(a1=2.0, a2=-0.25))
    F = single_mode_load(0.01)
    sol = solve_cb_static(M, F)
    assert sol.iterations == 1
    assert sol.residual < 1e-12
    km = 2.0 * np.pi
    c = 0.01 * np.sqrt(2.0) / (1.0 / km + km)
    # gamma = a1 + 4 a2 = 1, so U = c sin(k X) / k^2
    assert sol.field.eval(np.array([[0.25]]))[0, 0] == pytest.approx(
        c / km**2, rel=1e-10
    )


def test_cb_solver_lj_linear_response():
    M = CBModel(lj_chain())
    F = single_mode_load(0.01)
    sol = solve_cb_static(M, F)
    assert sol.residual <= 1e-10
    assert sol.iterations <= 6
    km = 2.0 * np.pi
    c = 0.01 * np.sqrt(2.0) / (1.0 / km + km)
    assert sol.field.eval(np.array([[0.25]]))[0, 0] == pytest.approx(
        c / (LJ_GAMMA * km**2), rel=1e-8
    )
    assert sol.diagnostics["grad_inf"] < M.P.kappa


@pytest.mark.parametrize("chain", [lj_chain, morse_chain, eam_chain])
@pytest.mark.parametrize("delta", [0.01, 1.0, 20.0])
def test_cb_solver_matches_dense_oracle(chain, delta):
    # the matrix-free Newton-Krylov solve against the dense spectral Newton
    # solve it replaced: the same steps, and the same equilibrium to roundoff
    M, F, tol = CBModel(chain()), single_mode_load(delta), 1e-10
    sol, ref = solve_cb_static(M, F, tol=tol), dense_solve_cb_static(M, F, tol=tol)
    assert sol.iterations == ref.iterations
    assert sol.residual <= tol and ref.residual <= tol
    X = (np.arange(256) / 256)[:, None]
    U, U_ref = sol.field.eval(X), ref.field.eval(X)
    assert np.max(np.abs(U - U_ref)) <= 1e-9 * np.max(np.abs(U_ref))


def test_cb_solver_rejects_nan_state():
    nan = MacroForce(TrigField.from_terms(1, 1, [((1,), 0, "sin", float("nan"))]))
    with pytest.raises(SolverError, match="continuum start left the admissible region: "
                                          "non-finite stencil norm nan"):
        solve_cb_static(CBModel(lj_chain()), nan, n_grid=16)


def test_cb_solver_rejects_an_inadmissible_start():
    # the linearized start of a load of size 1000 has max |U'| far beyond kappa
    with pytest.raises(SolverError, match=r"continuum start left the admissible region: "
                                          r"stencil norm \S+ exceeds kappa=0.25 "
                                          r"\(Cauchy-Born gradient\)"):
        solve_cb_static(CBModel(lj_chain()), single_mode_load(1000.0), n_grid=64)


def test_lattice_solver_rejects_an_inadmissible_start():
    # the alternating start has nearest-neighbour differences of 1 > kappa
    lattice = LatticeSpec(d=1, A=np.eye(1), N=8)
    u0 = DisplacementField(lattice, 0.5 * (-1.0) ** np.arange(8).reshape(8, 1))
    with pytest.raises(SolverError, match="lattice start left the admissible region: "
                                          "stencil norm 1 exceeds kappa=0.25"):
        solve_atomistic_static(lj_chain(), DisplacementField.zeros(lattice), u0=u0)


def test_cb_solver_never_accepts_an_inadmissible_trial(monkeypatch):
    # the linearized start of this load has max |U'| = 0.049 and the
    # equilibrium 0.080: at kappa = 0.06 the first Newton step leaves the
    # admissible region, so the line search has to backtrack inside it
    M = CBModel(lj_chain(kappa=0.06))
    seen = []
    density = M.energy_density
    monkeypatch.setattr(M, "energy_density",
                        lambda F: seen.append(float(np.max(np.abs(F)))) or density(F))
    with pytest.raises(SolverError, match="line search failed in the continuum solver"):
        solve_cb_static(M, single_mode_load(100.0), n_grid=64)
    assert len(seen) > 2 and max(seen) <= 0.06


def test_spectral_ddx_differentiates_each_row_along_the_last_axis(rng):
    # 1D samples of sin(2 pi X) give 2 pi cos(2 pi X); a stack of rows gives
    # each row's own 1D derivative, bit for bit
    X = np.arange(32) / 32
    d = _spectral_ddx(np.sin(2.0 * np.pi * X))
    np.testing.assert_allclose(d, 2.0 * np.pi * np.cos(2.0 * np.pi * X), atol=1e-12)
    rows = rng.standard_normal((3, 32))
    stacked = _spectral_ddx(rows)
    assert stacked.shape == rows.shape
    for got, row in zip(stacked, rows):
        assert got.tobytes() == _spectral_ddx(row).tobytes()


def test_cb_solver_is_one_dimensional():
    with pytest.raises(NotImplementedError):
        solve_cb_static(CBModel(lj_square()), single_mode_load(0.01))


def _waves(d: int) -> InitialData:
    """Initial data of one small mode on the d-torus."""
    U0 = TrigField.from_terms(d, d, [((1,) + (0,) * (d - 1), 0, "sin", 0.01)])
    return InitialData(U0, U0.scale(0.0))


@pytest.mark.parametrize("solve, solver", [
    (lambda: solve_atomistic_static(
        lj_square(), DisplacementField.zeros(LatticeSpec(d=2, A=np.eye(2), N=8))), "lattice"),
    (lambda: solve_cb_wave(CBModel(lj_square()), _waves(1), [0.1]), "wave"),
    (lambda: solve_cb_wave(CBModel(lj_chain()), _waves(2), [0.1]), "wave"),
], ids=["lattice_static", "wave_2d_potential", "wave_2d_data"])
def test_lattice_and_wave_solvers_are_one_dimensional(solve, solver):
    with pytest.raises(NotImplementedError, match=f"^the {solver} solver is one-dimensional$"):
        solve()


# ---------------------------------------------------------------------------
# lattice solver
# ---------------------------------------------------------------------------

def test_atomistic_solver_matches_fft_oracle():
    a1, a2 = 2.0, -0.25
    P = HarmonicChain.build(a1=a1, a2=a2)
    F = single_mode_load(0.05, mode=2)
    f_a = make_forces(F, 1.0 / 16.0)
    sol = solve_atomistic_static(P, f_a, tol=1e-12)
    assert sol.residual <= 1e-12
    assert sol.iterations <= 3
    # dense-free oracle: \hat u(k) = \hat f(k) / H(k) on nonzero modes
    N = 16
    k = 2.0 * np.pi * np.arange(N) / N
    sym = dynamical_symbol(P, k[:, None])[:, 0, 0]
    fh = np.fft.fft(f_a.values[:, 0])
    uh = np.zeros_like(fh)
    uh[1:] = fh[1:] / sym[1:]
    u_exact = np.real(np.fft.ifft(uh))
    u_exact -= u_exact.mean()
    np.testing.assert_allclose(sol.field.values[:, 0], u_exact, atol=1e-11)
    # the reported residual is the gradient norm of the returned state
    g = gradient_array(P, sol.field.values) - f_a.values
    assert sol.residual == pytest.approx(float(np.max(np.abs(g))), abs=1e-16)


def test_atomistic_solver_rejects_unbalanced_loads():
    lattice = LatticeSpec(d=1, A=np.eye(1), N=8)
    bad = DisplacementField(lattice, np.full((8, 1), 0.1))
    with pytest.raises(ValueError):
        solve_atomistic_static(lj_chain(), bad)


def test_atomistic_solver_lj_small_load():
    F = single_mode_load(0.01)
    f_a = make_forces(F, 1.0 / 8.0)
    sol = solve_atomistic_static(lj_chain(), f_a)
    assert sol.residual <= 1e-10
    assert sol.iterations <= 6
    assert abs(float(np.mean(sol.field.values))) < 1e-12


def test_static_solvers_evaluate_each_state_once(monkeypatch):
    # the eps = 1/64 member of the shipped LJ-chain static sweep; every
    # Newton step of both solves is accepted at t = 1, so the states are the
    # start plus one trial per step: as many as the iterations
    cfg = ExperimentConfig.from_file(CONFIGS / "static_converge_lj.json")
    P, F = cfg.P, cfg.load
    calls = {"energy_density": 0, "stress": 0, "_energies_and_gradient": 0}

    def counted(fn, key):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    M = CBModel(P)
    monkeypatch.setattr(M, "energy_density", counted(M.energy_density, "energy_density"))
    monkeypatch.setattr(M, "stress", counted(M.stress, "stress"))
    cb = solve_cb_static(M, F)
    assert calls["energy_density"] == calls["stress"] == cb.iterations

    monkeypatch.setattr(static, "_energies_and_gradient",
                        counted(static._energies_and_gradient, "_energies_and_gradient"))
    out = static_converge_sweep(P, F, [1.0 / 64.0])
    assert [run["members"][0]["newton_iterations"] for run in out["details"].values()] == [2, 2]
    assert calls["_energies_and_gradient"] == 2  # both loads' rows in each evaluation


# ---------------------------------------------------------------------------
# damped-Newton line search (shared by both solvers)
# ---------------------------------------------------------------------------

class _Trials:
    """Scripted ``evaluate`` for the line search that records every trial."""

    def __init__(self, evaluate):
        self.evaluate = evaluate
        self.seen = []

    def __call__(self, x):
        self.seen.append(float(x))
        return self.evaluate(x)


def test_line_search_accepts_full_step_on_armijo():
    # merit x^2 / 2 from x = 1 along the Newton step; the residual plays no part
    trials = _Trials(lambda x: (0.5 * x * x, np.inf))
    x, ev = line_search(1.0, -1.0, trials, base=0.5, slope=-1.0, floor=0.0, solver="test")
    assert x == 0.0
    assert ev == (0.0, np.inf)
    assert trials.seen == [0.0]


def test_line_search_backtracks_a_rising_merit_whose_residual_halves():
    # the full step halves the residual, but its merit rises by more than the
    # floor: Armijo is the one acceptance rule, so the step is halved
    base = 1.0
    floor = 64.0 * np.finfo(float).eps * (1.0 + base)
    trials = _Trials(lambda x: (base + 2.0 * floor, 0.5) if x == 0.75 else (base, 0.75))
    x, ev = line_search(1.0, -0.25, trials, base=base, slope=-1e-20, floor=floor,
                        solver="test")
    assert x == 0.875
    assert ev == (base, 0.75)
    assert trials.seen == [0.75, 0.875]


def test_line_search_backtracks_inadmissible_trials():
    def evaluate(x):
        if x > 1.5:
            raise AdmissibilityError("trial left the admissible region")
        return 0.5 * (x - 4.0) ** 2, abs(x - 4.0)

    trials = _Trials(evaluate)
    x, ev = line_search(0.0, 4.0, trials, base=8.0, slope=-16.0, floor=0.0, solver="test")
    assert x == 1.0
    # the accepted trial's evaluation comes back with it
    assert ev == (4.5, 3.0)
    assert trials.seen == [4.0, 2.0, 1.0]


def test_line_search_evaluates_the_rows_alone_when_the_stack_is_inadmissible():
    # row 0's full step leaves the admissible region, row 1's is accepted:
    # the stacked trial fails, so each row is evaluated alone, and row 0
    # backtracks by itself
    seen = []

    def evaluate(trials, rows):
        seen.append((rows, [float(x) for x in trials]))
        if any(x > 1.5 for x in trials):
            raise AdmissibilityError("trial left the admissible region")
        return [(0.5 * (x - 1.0) ** 2, abs(x - 1.0)) for x in trials]

    accepted = static._line_search([0.0, 0.0], [2.0, 1.0], evaluate, bases=[0.5, 0.5],
                                   slopes=[-2.0, -1.0], floors=[0.0, 0.0], solver="test")
    assert accepted == [(1.0, (0.0, 0.0)), (1.0, (0.0, 0.0))]
    assert seen == [((0, 1), [2.0, 1.0]), ((0,), [2.0]), ((1,), [1.0]), ((0,), [1.0])]


def test_line_search_gives_up_after_forty_halvings():
    trials = _Trials(lambda x: (np.inf, np.inf))
    with pytest.raises(SolverError, match="line search failed in the lattice solver"):
        line_search(0.0, 1.0, trials, base=0.0, slope=-1.0, floor=0.0, solver="lattice")
    assert trials.seen == [0.5**j for j in range(40)]


# ---------------------------------------------------------------------------
# Newton-Krylov loop (shared by both solvers)
# ---------------------------------------------------------------------------

def _identity_problem():
    """Scripted problem on four unknowns: identity Hessian, no gauge.

    ``evaluate`` reports a merit that falls by 1 at every call and the
    constant gradient ``(1, 1, 1, 1) / 2``, whose norm 1 it reports as the
    residual.
    """
    merits = iter(-np.arange(100.0))
    G = np.full(4, 0.5)

    def evaluate(x):
        return next(merits), 1.0, G.copy()

    return dict(evaluate=evaluate, hessian=lambda x: lambda v: v, symbol=np.ones(4),
                gauge=lambda v: 0.0)


def _newton_one(x, evaluate, hessian, symbol, gauge, tol, solver):
    """``_newton_krylov`` on the one row ``x`` of a one-problem ``evaluate`` and ``hessian``."""
    (out,) = _newton_krylov([x], lambda xs, rows: [evaluate(xs[0])],
                            lambda xs, rows: hessian(xs[0]), [symbol], [gauge], tol, solver)
    return out


@pytest.mark.parametrize("solver", ["continuum", "lattice"])
def test_newton_krylov_iteration_cap(solver):
    # every step is the descent step -G with slope -1 and lowers the merit,
    # so the line search accepts it, but the residual stays at 1: the loop
    # stops at its cap with the last residual
    problem = _identity_problem()
    with pytest.raises(SolverError, match=rf"^{solver} Newton did not reach tol=1e-10 in "
                       rf"40 iterations \(last residual 1\.000e\+00\)$"):
        _newton_one(np.ones(4), tol=1e-10, solver=solver, **problem)


def test_newton_krylov_inner_cg_failure():
    # I + 10 S with S skew has p.Hp = |p|^2 > 0 on every direction, but CG
    # assumes a symmetric operator: it exhausts its 8n iterations and the
    # loop reports where
    problem = _identity_problem()
    S = np.triu(np.ones((4, 4)), 1)
    S = S - S.T
    problem["hessian"] = lambda x: lambda v: v + 10.0 * (S @ v)
    with pytest.raises(
        SolverError, match=r"^inner CG failed \(info=32\) at Newton iteration 1$"
    ):
        _newton_one(np.ones(4), tol=1e-10, solver="lattice", **problem)


@pytest.mark.parametrize("curvature", [0.0, -1.0])
def test_newton_krylov_stops_on_nonpositive_curvature(curvature):
    # a zero or negative Hessian gives the first CG direction p.Hp <= 0
    problem = _identity_problem()
    problem["hessian"] = lambda x: lambda v: curvature * v
    message = f"lattice Hessian is not positive definite (p.Hp = {curvature:.3e} at Newton iteration 1)"
    with pytest.raises(SolverError, match=f"^{re.escape(message)}$"):
        _newton_one(np.ones(4), tol=1e-10, solver="lattice", **problem)


def _stretched_lj_chain():
    """The Lennard-Jones chain stretched to A = 1.11, where gamma = -0.869."""
    return PairPotential(d=1, A=np.array([[1.11]]), S=StencilSet.ball(1, 3.0), kappa=0.25,
                         phi=lennard_jones())


@pytest.mark.parametrize("solver, solve", [
    ("continuum", lambda P, F: solve_cb_static(CBModel(P), F)),
    ("lattice", lambda P, F: solve_atomistic_static(P, make_forces(F, 1.0 / 16.0))),
])
def test_solvers_stop_on_the_stretched_chain(solver, solve):
    # the static_converge_lj load: without the curvature check both solves
    # take ascent steps and converge to a saddle
    with pytest.raises(SolverError, match=rf"^{solver} Hessian is not positive definite "
                       r"\(p\.Hp = -\d\.\d{3}e[-+]\d{2} at Newton iteration 1\)$"):
        solve(_stretched_lj_chain(), single_mode_load(0.01))


def _solve_with_both_cgs(monkeypatch, solve):
    """``solve()`` with the numpy inner CG, then with scipy's ``cg`` swapped in."""
    sol = solve()
    with monkeypatch.context() as m:
        m.setattr(static, "_newton_krylov", scipy_newton_krylov)
        ref = solve()
    assert sol.residual == ref.residual and sol.iterations == ref.iterations
    assert sol.diagnostics == ref.diagnostics  # residual and CG-count histories
    assert sum(sol.diagnostics["cg_iterations"]) > 0
    return sol, ref


@pytest.mark.parametrize("chain", [lj_chain, morse_chain, eam_chain])
@pytest.mark.parametrize("delta", [0.01, 1.0])
def test_atomistic_solver_matches_scipy_cg_bit_for_bit(monkeypatch, chain, delta):
    P, f_a = chain(), make_forces(single_mode_load(delta), 1.0 / 32.0)
    sol, ref = _solve_with_both_cgs(monkeypatch, lambda: solve_atomistic_static(P, f_a))
    assert sol.field.values.tobytes() == ref.field.values.tobytes()


def test_static_member_matches_scipy_cg_bit_for_bit(monkeypatch):
    # the eps = 1/16 member of the shipped LJ-chain sweep, from its continuum start
    cfg = ExperimentConfig.from_file(CONFIGS / "static_converge_lj.json")
    U_c = solve_cb_static(CBModel(cfg.P), cfg.load).field
    f_a, u0 = make_forces(cfg.load, 1.0 / 16.0), static._hat_transfer(U_c, 1.0 / 16.0, 16.0)
    sol, ref = _solve_with_both_cgs(monkeypatch,
                                    lambda: solve_atomistic_static(cfg.P, f_a, u0=u0))
    assert sol.field.values.tobytes() == ref.field.values.tobytes()


@pytest.mark.parametrize("chain", [lj_chain, morse_chain, eam_chain])
@pytest.mark.parametrize("delta", [0.01, 1.0, 20.0])
def test_cb_solver_matches_scipy_cg_bit_for_bit(monkeypatch, chain, delta):
    M, F = CBModel(chain()), single_mode_load(delta)
    sol, ref = _solve_with_both_cgs(monkeypatch, lambda: solve_cb_static(M, F, n_grid=256))
    assert sol.field.modes.tobytes() == ref.field.modes.tobytes()
    assert sol.field.amps.tobytes() == ref.field.amps.tobytes()


@pytest.mark.parametrize("chain", [lj_chain, morse_chain, eam_chain])
def test_lattice_solve_applies_the_hessian_once_per_cg_iteration(monkeypatch, chain):
    applies = []

    def counted(P, values, plan=None):
        H = hessian_operator(P, values, plan)
        return lambda v: applies.append(1) or H(v)

    monkeypatch.setattr(static, "hessian_operator", counted)
    sol = solve_atomistic_static(chain(), make_forces(single_mode_load(1.0), 1.0 / 32.0))
    assert sol.iterations > 2
    assert len(applies) == sum(sol.diagnostics["cg_iterations"])


# ---------------------------------------------------------------------------
# lockstep batches of lattice solves
# ---------------------------------------------------------------------------

SWEEP_EPS = [1.0 / 8.0, 1.0 / 16.0, 1.0 / 32.0, 1.0 / 64.0, 1.0 / 128.0]


def _harmonic_chain():
    return HarmonicChain.build(2.0, -0.25)


def _sweep_rows(P, F, eps_list=SWEEP_EPS) -> list:
    """Each spacing's (site load, start) as the static sweep builds them: the
    start is the quasi-interpolant of the continuum equilibrium."""
    U_c = solve_cb_static(CBModel(P), F).field
    return [(make_forces(F, eps), static._hat_transfer(U_c, eps, 1.0 / eps)) for eps in eps_list]


def _assert_same_solves(got, want):
    for g, w in zip(got, want, strict=True):
        assert g.field.values.tobytes() == w.field.values.tobytes()
        assert repr(g.residual) == repr(w.residual) and g.iterations == w.iterations
        assert g.diagnostics == w.diagnostics  # residual and CG-count histories


def _batch_checked(monkeypatch, P, rows) -> list:
    """The lockstep batch of ``rows``, each row checked bit for bit against its
    single solve and against the one-problem loop, row after row."""
    batch = static._atomistic_statics(P, rows, 1e-10)
    _assert_same_solves(batch, [solve_atomistic_static(P, f_a, u0=u0) for f_a, u0 in rows])
    with monkeypatch.context() as m:
        m.setattr(static, "_newton_krylov", serial_newton_krylov)
        _assert_same_solves(batch, static._atomistic_statics(P, rows, 1e-10))
    return batch


@pytest.mark.parametrize("chain", [lj_chain, morse_chain, eam_chain, _harmonic_chain])
@pytest.mark.parametrize("delta", [0.01, 0.02])
def test_batch_rows_match_their_single_solves_bit_for_bit(monkeypatch, chain, delta):
    P = chain()
    batch = _batch_checked(monkeypatch, P, _sweep_rows(P, single_mode_load(delta)))
    assert all(sum(s.diagnostics["cg_iterations"]) > 0 for s in batch)


def test_batch_rows_leave_at_their_own_newton_steps(monkeypatch):
    # at delta = 0.02 the coarsest spacing takes one Newton step more
    P = lj_chain()
    batch = _batch_checked(monkeypatch, P, _sweep_rows(P, single_mode_load(0.02)))
    assert [s.iterations for s in batch] == [3, 2, 2, 2, 2]


def test_batch_rows_near_the_fold_match_bit_for_bit(monkeypatch):
    # the shipped LJ-chain sweep at delta = 107.5, just below the load where
    # the continuum equilibrium folds: the finest spacing needs one step less
    base = json.loads((CONFIGS / "static_converge_lj.json").read_text())
    cfg = ExperimentConfig.from_dict({**base, "params": {**base["params"], "delta": 107.5}})
    batch = _batch_checked(monkeypatch, cfg.P, _sweep_rows(cfg.P, cfg.load, cfg.spacings))
    assert [s.iterations for s in batch] == [4, 4, 4, 4, 3]


def _triangle_start(f_a: DisplacementField, slope: float) -> DisplacementField:
    """A start whose bonds stretch by ``slope`` over the first half of the cell
    and compress by as much over the second."""
    N = f_a.lattice.N
    ramp = np.concatenate([np.arange(N // 2), N // 2 - np.arange(N // 2)]) * slope
    return DisplacementField(f_a.lattice, ramp[:, None])


def test_batch_rows_far_from_equilibrium_match_bit_for_bit(monkeypatch):
    # random starts: the rows need 7 to 11 Newton steps, their trials
    # backtrack, and stacked trials leave the admissible region, so the
    # rows are evaluated alone
    P = lj_chain()
    rng = np.random.default_rng(1)
    rows = [(f_a, DisplacementField(f_a.lattice, rng.uniform(-0.06, 0.06, f_a.values.shape)))
            for f_a, _ in _sweep_rows(P, single_mode_load(0.01))]
    inadmissible = []

    def recorded(P, values, plan=None):
        try:
            return _energies_and_gradient(P, values, plan)
        except AdmissibilityError:
            inadmissible.append(len(values))
            raise

    monkeypatch.setattr(static, "_energies_and_gradient", recorded)
    batch = _batch_checked(monkeypatch, P, rows)
    assert [s.iterations for s in batch] == [8, 7, 9, 9, 11]
    assert max(inadmissible) > 128  # a stacked trial of several rows


def _spiked_start(f_a: DisplacementField) -> DisplacementField:
    """A start with one site moved past the admissible stencil norm."""
    values = np.zeros_like(f_a.values)
    values[3] = 0.4
    return DisplacementField(f_a.lattice, values)


_FAILING_STARTS = {"curvature": lambda f_a: _triangle_start(f_a, 0.2),
                   "inadmissible": _spiked_start}


@pytest.mark.parametrize("second, fourth", [("curvature", "inadmissible"),
                                            ("inadmissible", "curvature")])
def test_failing_batch_raises_its_first_failing_rows_error(monkeypatch, second, fourth):
    # rows 2 and 4 fail, row 4 at an earlier lockstep step when its start is
    # inadmissible: the batch raises row 2's own error, word for word, as the
    # rows solved one after another do
    P = lj_chain()
    rows = _sweep_rows(P, single_mode_load(0.01))
    for i, kind in ((1, second), (3, fourth)):
        rows[i] = rows[i][0], _FAILING_STARTS[kind](rows[i][0])
    errors = []
    for f_a, u0 in (rows[1], rows[3]):
        with pytest.raises(SolverError) as alone:
            solve_atomistic_static(P, f_a, u0=u0)
        errors.append(str(alone.value))
    assert errors[0] != errors[1]
    assert ("not positive definite" if second == "curvature"
            else "lattice start left the admissible region") in errors[0]
    with pytest.raises(SolverError) as batch:
        static._atomistic_statics(P, rows, 1e-10)
    assert str(batch.value) == errors[0]
    with monkeypatch.context() as m:
        m.setattr(static, "_newton_krylov", serial_newton_krylov)
        with pytest.raises(SolverError) as serial:
            static._atomistic_statics(P, rows, 1e-10)
    assert str(serial.value) == errors[0]


@pytest.mark.parametrize("n", [1, 7, 8, 9, 127, 128, 129, 1000, 4099])
def test_lattice_gauge_is_numpy_mean_bit_for_bit(rng, n):
    for v in (rng.standard_normal((n, 1)), 1e3 * rng.standard_normal(n) + 1.0):
        assert repr(static._mean(v)) == repr(np.mean(v))


def test_static_run_solves_each_load_in_one_batch(monkeypatch):
    # one evaluation and one Hessian per lockstep step, on all the spacings
    # of both loads still iterating, and one Hessian apply per lockstep CG
    # iteration
    P, F = lj_chain(), single_mode_load(0.02)
    calls = []

    def recorded(name, fn):
        def wrapper(P, values, plan=None):
            calls.append((name, len(values)))
            return fn(P, values, plan)
        return wrapper

    for name in ("_energies_and_gradient", "hessian_operator"):
        monkeypatch.setattr(static, name, recorded(name, getattr(static, name)))
    runs = static_converge_sweep(P, F, SWEEP_EPS)["details"]
    assert [m["newton_iterations"] for m in runs["full"]["members"]] == [3, 2, 2, 2, 2]
    assert [m["newton_iterations"] for m in runs["half"]["members"]] == [2, 2, 2, 2, 2]
    sites = 2 * sum(int(round(1.0 / eps)) for eps in SWEEP_EPS)
    # start, step 1 (all rows), step 2 (only the full load's coarsest row still iterates)
    assert calls == [("_energies_and_gradient", sites), ("hessian_operator", sites),
                     ("_energies_and_gradient", sites), ("hessian_operator", 8),
                     ("_energies_and_gradient", 8)]


# ---------------------------------------------------------------------------
# gap metric
# ---------------------------------------------------------------------------

def test_interp_gradient_gap_frozen_second_order():
    U = TrigField.from_terms(1, 1, [((1,), 0, "sin", 1.0)])
    gaps = {}
    for N, anchor in GRAD_GAP_UNIT_SIN.items():
        eps = 1.0 / N
        g = interp_gradient_gap(U, _quasi_sample(U, eps), eps)
        assert g == pytest.approx(anchor, rel=1e-8)
        gaps[N] = g
    assert gaps[8] / gaps[16] == pytest.approx(4.0, rel=0.1)
    assert gaps[16] / gaps[32] == pytest.approx(4.0, rel=0.05)


def test_interp_value_gap_frozen_second_order():
    V = TrigField.from_terms(1, 1, [((1,), 0, "sin", 1.0)])
    for N, anchor in VALUE_GAP_UNIT_SIN.items():
        eps = 1.0 / N
        lattice = LatticeSpec(d=1, A=np.eye(1), N=N)
        sites = site_coords(lattice).astype(float)
        vals = zeta_convolve(lambda x: V.eval(np.asarray(x) * eps), sites, n_components=1)
        va = DisplacementField(lattice, vals.reshape(N, 1))
        assert interp_value_gap(V, va, eps) == pytest.approx(anchor, rel=1e-8)


def test_interp_gap_scales_linearly():
    U = TrigField.from_terms(1, 1, [((1,), 0, "sin", 1.0)])
    eps = 1.0 / 8.0
    ua = _quasi_sample(U, eps)
    g1 = interp_gradient_gap(U, ua, eps)
    ua2 = DisplacementField(ua.lattice, 2.0 * ua.values)
    g2 = interp_gradient_gap(U.scale(2.0), ua2, eps)
    assert g2 == pytest.approx(2.0 * g1, rel=1e-12)
    zero = TrigField.from_terms(1, 1, [((1,), 0, "sin", 0.0)])
    zf = DisplacementField(ua.lattice, np.zeros_like(ua.values))
    assert interp_gradient_gap(zero, zf, eps) == 0.0


@pytest.mark.parametrize("d, N_list", [(1, [8, 16, 64, 256]), (2, [8, 16, 32])])
def test_gap_metrics_match_point_oracle(rng, d, N_list):
    """Grid samples of both sides, all Gauss offsets in one pass, give the point-by-point gaps."""
    terms = _TRANSFER_TERMS[d]
    U = TrigField.from_terms(d, d, terms)
    V = U.scale(-0.8)
    for N in N_list:
        eps = 1.0 / N
        lattice = LatticeSpec(d=d, A=np.eye(d), N=N)
        # the exact transfer plus a lattice-scale perturbation, so the gaps are not tiny
        ua = DisplacementField(lattice, static._hat_transfer(U, eps, 1.0 / eps).values
                               + 1e-3 * rng.standard_normal((N,) * d + (d,)))
        va = DisplacementField(lattice, static._hat_transfer(V, eps, 1.0).values)
        for q in (2, 6):
            got, ref = interp_gradient_gap(U, ua, eps, q=q), point_gradient_gap(U, ua, eps, q=q)
            assert got == pytest.approx(ref, rel=1e-10), (N, q)
            got, ref = interp_value_gap(V, va, eps, q=q), point_value_gap(V, va, eps, q=q)
            assert ref > 0.0
            assert got == pytest.approx(ref, rel=1e-10), (N, q)


def _gap_inputs(rng, d: int, N: int):
    """A continuum field with modes past N/2 and two lattice fields near its transfer."""
    modes = rng.integers(-3 * N // 2, 3 * N // 2 + 1, (7, d))
    U = TrigField(d, modes, rng.standard_normal((7, d)) + 1j * rng.standard_normal((7, d)))
    lattice = LatticeSpec(d=d, A=np.eye(d), N=N)
    base = static._hat_transfer(U, 1.0 / N, 1.0).values
    ua = DisplacementField(lattice, base + 1e-2 * rng.standard_normal(base.shape))
    va = DisplacementField(lattice, base + 1e-3 * rng.standard_normal(base.shape))
    return U, ua, va


@pytest.mark.parametrize("d, N_list", [(1, [5, 8, 64, 512]), (2, [4, 7, 16]), (3, [4, 5])])
@pytest.mark.parametrize("q", [1, 2, 3, 6])
def test_gap_metrics_match_offset_oracle_bit_for_bit(rng, d, N_list, q):
    """All Gauss offsets in one pass give the bits of one offset at a time."""
    for N in N_list:
        U, ua, va = _gap_inputs(rng, d, N)
        got, ref = interp_gradient_gap(U, ua, 1.0 / N, q=q), offset_gap.interp_gradient_gap(U, ua, 1.0 / N, q=q)
        assert repr(got) == repr(ref), (N, got, ref)
        got, ref = interp_value_gap(U, va, 1.0 / N, q=q), offset_gap.interp_value_gap(U, va, 1.0 / N, q=q)
        assert repr(got) == repr(ref), (N, got, ref)


def test_static_member_gap_matches_offset_oracle_bit_for_bit(monkeypatch):
    # the eps = 1/16 member of the shipped LJ-chain sweep, with the per-offset gap swapped in
    cfg = ExperimentConfig.from_file(CONFIGS / "static_converge_lj.json")
    args = (cfg.P, cfg.load, [1.0 / 16.0])
    got = static_converge_sweep(*args)
    monkeypatch.setattr(per_load_sweep, "interp_gradient_gap", offset_gap.interp_gradient_gap)
    ref = per_load_sweep.per_load_sweep(*args)
    assert got["details"]["full"]["members"][0]["error"] > 0.0
    assert repr(got) == repr(ref)


def test_gauss_offsets_are_cached_and_read_only():
    for q, d in ((6, 1), (3, 2), (2, 3)):
        offsets, weights = static._gauss_offsets(q, d)
        assert static._gauss_offsets(q, d)[0] is offsets
        assert offsets.shape == (q ** d, d) and weights.shape == (q ** d,)
        assert not offsets.flags.writeable and not weights.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            offsets[0, 0] = 0.0
        with pytest.raises(ValueError, match="read-only"):
            weights[0] = 0.0


@pytest.mark.parametrize("gap", [interp_gradient_gap, interp_value_gap])
def test_gap_metrics_reject_mismatched_inputs(rng, gap):
    name = gap.__name__
    on_64 = DisplacementField(LatticeSpec(d=1, A=np.eye(1), N=64), rng.standard_normal((64, 1)))
    U1 = TrigField.from_terms(1, 1, [((1,), 0, "sin", 0.1)])
    with pytest.raises(ValueError, match=rf"^{name}: eps = 0.03125 has period 32, but the lattice has N = 64$"):
        gap(U1, on_64, 1.0 / 32.0)
    on_2d = DisplacementField(LatticeSpec(d=2, A=np.eye(2), N=8), rng.standard_normal((8, 8, 2)))
    one_component = TrigField.from_terms(2, 1, [((1, 0), 0, "sin", 0.1)])
    with pytest.raises(ValueError, match=rf"^{name}: the field has d = 2 and 1 components, "
                                         r"but the lattice needs d = 2 and 2$"):
        gap(one_component, on_2d, 1.0 / 8.0)
    with pytest.raises(ValueError, match=rf"^{name}: the field has d = 1 and 1 components, "
                                         r"but the lattice needs d = 2 and 2$"):
        gap(U1, on_2d, 1.0 / 8.0)


def _count_fft_calls(monkeypatch) -> Counter:
    """Count the calls of every public ``np.fft`` function from here on."""
    calls = Counter()
    for name in np.fft.__all__:
        def counted(*args, _name=name, _fn=getattr(np.fft, name), **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(np.fft, name, counted)
    return calls


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("q", [1, 2, 3, 6])
def test_gap_metric_fft_calls_do_not_grow_with_q(rng, monkeypatch, d, q):
    # one batched pass per side and component of the gradient, whatever the q^d offsets
    U, ua, va = _gap_inputs(rng, d, 8)
    calls = _count_fft_calls(monkeypatch)
    interp_gradient_gap(U, ua, 1.0 / 8.0, q=q)
    assert calls == Counter(ifftn=d, rfftn=d, irfftn=d)
    calls.clear()
    interp_value_gap(U, va, 1.0 / 8.0, q=q)
    assert calls == Counter(ifftn=1, rfftn=1, irfftn=1)


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def test_static_sweep_short_lj():
    F = single_mode_load(0.01)
    out = static_converge_sweep(lj_chain(), F, [1.0 / 8.0, 1.0 / 16.0, 1.0 / 32.0])
    np.testing.assert_allclose(out["errors"], SWEEP_ERRORS, rtol=1e-6)
    for r in out["half_ratios"]:
        assert 0.48 <= r <= 0.52
    eps = np.array(out["eps"])
    slope = np.polyfit(np.log(eps), np.log(out["errors"]), 1)[0]
    assert 1.9 <= slope <= 2.4
    for m in out["details"]["full"]["members"]:
        assert m["residual"] <= 1e-10
    assert out["delta"] == pytest.approx(0.01, rel=1e-12)


# LJ chains stretched by A = [[a]] toward the spinodal (gamma 70.61 at a = 1, 0.559 at 1.103)
STRETCHES = (1.00, 1.04, 1.08, 1.09, 1.095, 1.10, 1.103)


def test_static_error_constant_grows_as_the_stability_margin_shrinks():
    """The shipped ``static_converge_lj`` sweep on stretched chains.

    Measured (a: gamma, slope, finest error, finest error x gamma^2, finest
    half ratio): 1.00: 70.61, 2.120, 4.73e-11, 2.36e-7, 0.5000002; 1.04:
    27.69, 2.040, 2.25e-10, 1.73e-7, 0.4999999; 1.08: 6.971, 1.987,
    2.64e-9, 1.28e-7, 0.499997; 1.09: 3.821, 1.976, 8.17e-9, 1.19e-7,
    0.49997; 1.095: 2.464, 1.968, 1.89e-8, 1.15e-7, 0.49986; 1.10: 1.237,
    1.952, 7.28e-8, 1.11e-7, 0.4980; 1.103: 0.559, 1.896, 3.96e-7,
    1.24e-7, 0.4524.
    """
    base = json.loads((CONFIGS / "static_converge_lj.json").read_text())
    gammas, slopes, finest, ratios = [], [], [], []
    for a in STRETCHES:
        cfg = ExperimentConfig.from_dict({**base, "potential": {**base["potential"], "A": [[a]]}})
        report, _, rows = _run_static_converge(cfg, 1)
        gammas.append(stability_constants(cfg.P)[0])
        slopes.append(report["rate"]["slope"])
        finest.append(rows[-1][1])
        ratios.append(rows[-1][5])
    assert np.all(np.diff(gammas) < 0) and gammas[-1] == pytest.approx(0.559, abs=1e-3)
    # second order at every stretch: the shipped slope band holds all of 1.896-2.120
    assert all(1.8 <= s <= 2.2 for s in slopes)
    # the error constant grows as the stability margin shrinks
    assert np.all(np.diff(finest) > 0)
    # the O(eps^2) gap passes through two inverses of the stiffness: over
    # gamma in [1.2, 4], error x gamma^2 is flat at 1.114e-7 to 1.192e-7
    flat = [e * g * g for g, e in zip(gammas, finest) if 1.2 <= g <= 4.0]
    assert len(flat) == 3 and all(1.05e-7 <= x <= 1.25e-7 for x in flat)
    # linear response in the load while gamma >= 1.2 (worst 0.4980 at gamma
    # 1.237); at gamma 0.559 the load is no longer small against gamma
    assert all(abs(r - 0.5) <= 0.005 for g, r in zip(gammas, ratios) if g >= 1.2)
    assert ratios[-1] == pytest.approx(0.452, abs=1e-3)


def test_static_sweep_solves_both_loads_as_one_batch(monkeypatch):
    # both loads are one batch at every stage: one continuum batch of two
    # rows, the full load first, before any lattice evaluation; one lattice
    # evaluation per lockstep step on all the live rows of both loads; and
    # one exact-side sample of both continuum solutions per spacing for the
    # gaps.  The result is the per-load oracle's, bit for bit.
    F, eps_list = single_mode_load(0.01), [1.0 / 8.0, 1.0 / 16.0, 1.0 / 32.0]
    ref = per_load_sweep.per_load_sweep(lj_chain(), F, eps_list)
    events = []
    cb_statics, energies = static._cb_statics, static._energies_and_gradient
    sample_shifts = TrigField.sample_shifts

    def recorded_cb(M, loads, n_grid, tol):
        events.append(("continuum", [load.delta for load in loads]))
        return cb_statics(M, loads, n_grid, tol)

    def recorded_energies(P, values, plan=None):
        events.append(("lattice", len(values)))
        return energies(P, values, plan)

    def recorded_shifts(self, N, shifts, deriv=None):
        if deriv is not None:  # the gaps' exact side; site transfers sample the field itself
            events.append(("gap", N, self.n_components))
        return sample_shifts(self, N, shifts, deriv)

    monkeypatch.setattr(static, "_cb_statics", recorded_cb)
    monkeypatch.setattr(static, "_energies_and_gradient", recorded_energies)
    monkeypatch.setattr(TrigField, "sample_shifts", recorded_shifts)
    out = static_converge_sweep(lj_chain(), F, eps_list)
    assert repr(out) == repr(ref)
    (kind, deltas), *rest = events
    assert kind == "continuum" and deltas == pytest.approx([0.01, 0.005], rel=1e-12)
    steps = max(m["newton_iterations"] for run in out["details"].values() for m in run["members"])
    assert steps == 2  # every row converges after one Newton step
    assert rest == [("lattice", 2 * (8 + 16 + 32))] * steps + [("gap", 8, 2), ("gap", 16, 2),
                                                               ("gap", 32, 2)]


@pytest.mark.parametrize("chain", [lj_chain, morse_chain, eam_chain, _harmonic_chain])
@pytest.mark.parametrize("delta", [0.01, 0.02])
def test_static_sweep_matches_the_per_load_oracle(chain, delta):
    args = (chain(), single_mode_load(delta), SWEEP_EPS)
    assert repr(static_converge_sweep(*args)) == repr(per_load_sweep.per_load_sweep(*args))


def test_static_sweep_near_the_fold_matches_the_per_load_oracle():
    # the shipped LJ-chain sweep at delta 107.5, just below the continuum fold
    base = json.loads((CONFIGS / "static_converge_lj.json").read_text())
    cfg = ExperimentConfig.from_dict({**base, "params": {**base["params"], "delta": 107.5}})
    v = cfg.values
    args = (cfg.P, cfg.load, cfg.spacings, v["n_grid"], v["solver_tol"], v["quadrature"])
    out = static_converge_sweep(*args)
    assert repr(out) == repr(per_load_sweep.per_load_sweep(*args))
    assert [m["newton_iterations"] for m in out["details"]["full"]["members"]] == [4, 4, 4, 4, 3]


def _assert_same_cb_solves(got, want):
    for g, w in zip(got, want, strict=True):
        assert g.field.amps.tobytes() == w.field.amps.tobytes()
        assert g.field.modes.tobytes() == w.field.modes.tobytes()
        assert repr(g.residual) == repr(w.residual) and g.iterations == w.iterations
        assert g.diagnostics == w.diagnostics  # residual and CG-count histories, grad_inf


@pytest.mark.parametrize("chain", [lj_chain, morse_chain, eam_chain, _harmonic_chain])
@pytest.mark.parametrize("delta", [0.01, 0.02])
def test_cb_batch_rows_match_their_single_solves_bit_for_bit(chain, delta):
    P, F = chain(), single_mode_load(delta)
    M, loads = CBModel(P), [F, F.scaled(0.5), F.scaled(-1.5)]
    batch = static._cb_statics(M, loads, 256, 1e-10)
    _assert_same_cb_solves(batch, [solve_cb_static(M, load) for load in loads])
    # the harmonic chain's linearized start is its equilibrium
    harmonic = chain is _harmonic_chain
    assert all((sum(s.diagnostics["cg_iterations"]) == 0) == harmonic for s in batch)


def test_cb_batch_rows_near_the_fold_match_bit_for_bit():
    # delta 107.5 and its half: the rows leave the batch at their own Newton steps
    base = json.loads((CONFIGS / "static_converge_lj.json").read_text())
    cfg = ExperimentConfig.from_dict({**base, "params": {**base["params"], "delta": 107.5}})
    M, loads = CBModel(cfg.P), [cfg.load, cfg.load.scaled(0.5)]
    batch = static._cb_statics(M, loads, 256, 1e-10)
    _assert_same_cb_solves(batch, [solve_cb_static(M, load) for load in loads])
    assert batch[0].iterations > batch[1].iterations


@pytest.mark.parametrize("d, N_list", [(1, [5, 8, 64, 512]), (2, [4, 7, 16]), (3, [4, 5])])
def test_column_transfers_and_gaps_match_one_column_calls_bit_for_bit(rng, d, N_list):
    for N in N_list:
        eps = 1.0 / N
        modes = rng.integers(-3 * N // 2, 3 * N // 2 + 1, (7, d))
        fields = [TrigField(d, modes, rng.standard_normal((7, d)) + 1j * rng.standard_normal((7, d)))
                  for _ in range(2)]
        both = static._columns(fields)
        for c in (1.0, eps, 1.0 / eps):
            got = static._hat_transfers(both, eps, c)
            for g, U in zip(got, fields, strict=True):
                assert g.values.tobytes() == static._hat_transfer(U, eps, c).values.tobytes()
                assert g.values.flags.c_contiguous
        lattice = LatticeSpec(d=d, A=np.eye(d), N=N)
        sites = [DisplacementField(lattice, u.values + 1e-2 * rng.standard_normal(u.values.shape))
                 for u in static._hat_transfers(both, eps, 1.0)]
        S = static._gauss_offsets(3, d)[0]
        stacked = interp_sample_shifts(sites, S, deriv=(1,) + (0,) * (d - 1))
        for j, u in enumerate(sites):
            one = interp_sample_shifts(u, S, deriv=(1,) + (0,) * (d - 1))
            assert np.ascontiguousarray(stacked[..., j * d:(j + 1) * d]).tobytes() == one.tobytes()
        for q in (1, 2, 6):
            assert repr(static._interp_gap(both, sites, eps, q, grad=True)) == repr(
                [interp_gradient_gap(U, u, eps, q=q) for U, u in zip(fields, sites)])
            assert repr(static._interp_gap(both, sites, eps, q, grad=False)) == repr(
                [interp_value_gap(U, u, eps, q=q) for U, u in zip(fields, sites)])


def test_static_sweep_fails_in_its_stated_order(monkeypatch):
    # the half load's continuum solve and the full load's lattice solve at
    # eps = 1/16 both fail: the sweep solves both continuum rows first and
    # raises the half load's continuum error, where the per-load oracle
    # raises the full load's lattice error first
    P, F, eps_list = lj_chain(), single_mode_load(0.01), [1.0 / 8.0, 1.0 / 16.0, 1.0 / 32.0]
    nan_half = MacroForce(F.field.scale(math.nan))
    with pytest.raises(SolverError) as alone:
        solve_cb_static(CBModel(P), nan_half)
    continuum_error = str(alone.value)
    start = _spiked_start(make_forces(F, 1.0 / 16.0))
    with pytest.raises(SolverError) as alone:
        solve_atomistic_static(P, make_forces(F, 1.0 / 16.0), u0=start)
    lattice_error = str(alone.value)
    half_forces = make_forces(F.scaled(0.5), 1.0 / 8.0)
    with pytest.raises(SolverError) as alone:
        solve_atomistic_static(P, half_forces, u0=_triangle_start(half_forces, 0.2))
    half_lattice_error = str(alone.value)
    assert continuum_error.startswith("continuum start left the admissible region")
    assert lattice_error.startswith("lattice start left the admissible region")
    assert half_lattice_error.startswith("lattice Hessian is not positive definite")

    transfers, spiked = static._hat_transfers, []

    def spiking(U, eps, c):
        # the first start transferred at 1/16 is the full load's, in both
        # sweeps; the sweep's starts at 1/8 also hold the half load's
        out = transfers(U, eps, c)
        if eps == 1.0 / 16.0 and c == 16.0 and not spiked:
            spiked.append(eps)
            out[0] = _spiked_start(out[0])
        if eps == 1.0 / 8.0 and c == 8.0 and len(out) == 2:
            out[1] = _triangle_start(out[1], 0.2)
        return out

    monkeypatch.setattr(static, "_hat_transfers", spiking)
    # the full load's lattice rows come before the half load's, whatever their spacings
    with pytest.raises(SolverError) as lattice_only:
        static_converge_sweep(P, F, eps_list)
    assert str(lattice_only.value) == lattice_error
    for sweep, want in ((static_converge_sweep, continuum_error),
                        (per_load_sweep.per_load_sweep, lattice_error)):
        spiked.clear()
        with monkeypatch.context() as m:
            m.setattr(MacroForce, "scaled", lambda self, factor: nan_half)
            with pytest.raises(SolverError) as both:
                sweep(P, F, eps_list)
        assert str(both.value) == want
        assert spiked == ([] if sweep is static_converge_sweep else [1.0 / 16.0])


def test_static_sweep_builds_the_reference_force_constants_once(monkeypatch):
    # the stability guard and every lattice solve's preconditioner read one
    # reference Hessian; before they were cached on the potential a sweep
    # built it 1 + 2 * len(eps_list) times
    site_hessian, at_zero = PairPotential.site_hessian, []

    def counted(self, g):
        if not g.any():
            at_zero.append(g.shape)
        return site_hessian(self, g)

    monkeypatch.setattr(PairPotential, "site_hessian", counted)
    P = lj_chain()
    out = static_converge_sweep(P, single_mode_load(0.01), [1.0 / 8.0, 1.0 / 16.0, 1.0 / 32.0])
    assert at_zero == [(P.S.n, P.d)]
    np.testing.assert_allclose(out["errors"], SWEEP_ERRORS, rtol=1e-6)


def _two_mode_load(top: int, delta: float = 0.01) -> MacroForce:
    """A zero-mean load of modes 1 and ``top``, scaled to the size ``delta``."""
    F = MacroForce(TrigField.from_terms(1, 1, [((1,), 0, "sin", 1.0), ((top,), 0, "cos", 0.5)]))
    return F.scaled(delta / F.delta)


@pytest.mark.parametrize("top", [128, -130, 200])
def test_aliased_load_is_refused_by_the_library(top):
    """A load mode at or above n_grid/2 would be sampled on the continuum grid as
    another, lower mode: the solver and the sweep refuse it in the CLI's words,
    naming the mode and the grid, before any solve."""
    F, P = _two_mode_load(top), lj_chain()
    msg = f"mode {abs(top)} aliases on the continuum grid of n_grid = 256; modes need |m| < 128"
    with pytest.raises(ValueError, match=re.escape(msg)):
        solve_cb_static(CBModel(P), F, n_grid=256)
    with pytest.raises(ValueError, match=re.escape(msg)):
        static_converge_sweep(P, F, [1.0 / 8.0, 1.0 / 16.0], n_grid=256)
    # the batch checks every load, not only the first
    with pytest.raises(ValueError, match=re.escape(msg)):
        static._cb_statics(CBModel(P), [single_mode_load(0.01), F], 256, 1e-10)


def test_highest_resolved_load_mode_still_solves():
    sol = solve_cb_static(CBModel(lj_chain()), _two_mode_load(127, delta=1e-4), n_grid=256)
    assert sol.residual <= 1e-10
    # an odd grid resolves its modes below n_grid/2 = 127.5
    sol = solve_cb_static(CBModel(lj_chain()), _two_mode_load(127, delta=1e-4), n_grid=255)
    assert sol.residual <= 1e-10
    with pytest.raises(ValueError, match=re.escape("n_grid = 253; modes need |m| < 127")):
        solve_cb_static(CBModel(lj_chain()), _two_mode_load(127, delta=1e-4), n_grid=253)
