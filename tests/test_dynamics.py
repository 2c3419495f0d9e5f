"""Lattice dynamics, the Cauchy-Born wave solver, and their shadowing error.

Harmonic chains make every oracle exact: plane waves oscillate at the
symbol frequency, arbitrary data evolves by FFT, and the continuum wave is
d'Alembert.  The nonlinear pieces are covered through abort behaviour and
the sweep anchors.
"""

from __future__ import annotations

import dataclasses
import inspect
import math

import numpy as np
import pytest

from latcb import dynamics, static
from latcb.dynamics import (
    InitialData,
    _verlet,
    dynamic_error_sweep,
    instability_demo,
    integrate_atomistic,
    make_initial_data,
    solve_cb_wave,
)
from latcb.fields import TrigField
from latcb.lattice import DisplacementField, LatticeSpec
from latcb.potentials import HarmonicChain, total_energy
from latcb.stability import dynamical_symbol, max_frequency
from latcb.static import SolverError, _spectral_ddx
from latcb.stress import CBModel

from conftest import eam_chain, lj_chain, site_coords
from generic_cb import GenericCBModel
from hat_quadrature import zeta_convolve
import offset_gap
from point_gap import trig_grad
from verlet_reference import reference_verlet
from wave_reference import reference_solve_cb_wave

AMP = 0.05 / (2.0 * np.pi)  # unit-torus sin amplitude with gradient sup 0.05

# harmonic sweep anchors: T=0.5, eps {1/16, 1/32, 1/64}, n_snap=9, n_grid=64
HARMONIC_SWEEP_ERRORS = [1.848009080e-03, 4.674223186e-04, 1.159165649e-04]


def _chain():
    return HarmonicChain.build(a1=2.0, a2=-0.25)


def _sin_field(amp=AMP):
    return TrigField.from_terms(1, 1, [((1,), 0, "sin", amp)])


def _zero_field():
    return TrigField.from_terms(1, 1, [((1,), 0, "sin", 0.0)])


def _record_steps(monkeypatch, stepper=_verlet) -> list:
    """Swap ``stepper`` in for ``dynamics._verlet``; the list fills with each call's ``dt_target``."""
    steps = []

    def recorded(x, v, accel, snap_times, dt_target):
        steps.append(dt_target)
        return stepper(x, v, accel, snap_times, dt_target)

    monkeypatch.setattr(dynamics, "_verlet", recorded)
    return steps


def _lattice_energies(P, traj):
    """Total energy of each lattice snapshot, by the sweep member's formula."""
    return np.array([total_energy(P, u) + 0.5 * float(np.sum(v * v))
                     for u, v in zip(traj.u, traj.v)])


def _cb_energies(M, cb):
    """Total energy of each continuum snapshot: the grid mean of the kinetic
    and the stored energy density."""
    return np.array([float(np.mean(0.5 * V * V + M.energy_density(_spectral_ddx(U)[:, None, None])))
                     for U, V in zip(cb.u, cb.v)])


def _drift(energies):
    return float(np.max(np.abs(energies - energies[0])))


def _companion_member_args():
    """A sweep member's arguments: the c09 companion's data (gradient 0.005,
    cfl 0.05) at eps = 1/32 over a short horizon, five snapshots."""
    P = lj_chain()
    data = InitialData(_sin_field(0.005 / (2.0 * np.pi)), _zero_field())
    cb_times = np.linspace(0.0, 0.125, 5)
    cb = solve_cb_wave(CBModel(P), data, cb_times, n_grid=128, cfl=0.05)
    cb_U, cb_V = ([TrigField.from_grid_1d(g[:, None]) for g in grids] for grids in (cb.u, cb.v))
    return (P, data, cb_times, cb_U, cb_V, 1.0 / 32.0, 0.05, 6)


# ---------------------------------------------------------------------------
# initial data
# ---------------------------------------------------------------------------

def test_make_initial_data_scaling():
    data = InitialData(_sin_field(), TrigField.from_terms(1, 1, [((1,), 0, "cos", 0.03)]))
    X = (np.arange(512) / 512)[:, None]
    assert np.max(np.abs(trig_grad(data.U0, X))) == pytest.approx(0.05, rel=1e-6)
    eps = 1.0 / 8.0
    u0, v0 = make_initial_data(data, eps)
    assert u0.values.shape == (8, 1) and v0.values.shape == (8, 1)
    lattice = LatticeSpec(d=1, A=np.eye(1), N=8)
    sites = site_coords(lattice).astype(float)
    # velocities are order one: smeared samples of U1(eps x), no eps factor
    expect_v = zeta_convolve(lambda x: data.U1.eval(np.asarray(x) * eps), sites,
                             n_components=1)
    np.testing.assert_allclose(v0.values, expect_v.reshape(8, 1), atol=1e-14)
    expect_u = zeta_convolve(lambda x: data.U0.eval(np.asarray(x) * eps) / eps, sites,
                             n_components=1)
    np.testing.assert_allclose(u0.values, expect_u.reshape(8, 1), atol=1e-12)


def test_initial_data_shape_mismatch():
    with pytest.raises(ValueError):
        InitialData(_sin_field(), TrigField.from_terms(2, 2, [((1, 0), 0, "sin", 0.1)]))


# ---------------------------------------------------------------------------
# atomistic integrator against exact harmonic evolution
# ---------------------------------------------------------------------------

def test_plane_wave_oscillates_at_symbol_frequency():
    P = _chain()
    N, j, A = 16, 3, 0.01
    lattice = LatticeSpec(d=1, A=np.eye(1), N=N)
    xi = np.arange(N)
    mode = np.cos(2.0 * np.pi * j * xi / N).reshape(N, 1)
    u0 = DisplacementField(lattice, A * mode)
    k = 2.0 * np.pi * j / N
    omega = float(np.sqrt(dynamical_symbol(P, np.array([k]))[0, 0]))
    snap = np.array([0.0, 0.5, 1.0, 1.5, 2.0])
    traj = integrate_atomistic(P, u0, DisplacementField.zeros(lattice), snap,
                               cfl=1e-3 * max_frequency(P))
    for t, uj, vj in zip(traj.times[1:], traj.u[1:], traj.v[1:]):
        np.testing.assert_allclose(uj, A * np.cos(omega * t) * mode, atol=5e-8)
        np.testing.assert_allclose(vj, -A * omega * np.sin(omega * t) * mode, atol=1e-7)
    assert traj.u[0] == pytest.approx(u0.values)
    assert np.max(np.abs(np.diff(_lattice_energies(P, traj)))) < 1e-7


def test_verlet_is_second_order_against_fft_oracle(rng):
    P = _chain()
    N, T = 16, 1.0
    lattice = LatticeSpec(d=1, A=np.eye(1), N=N)
    u0 = rng.normal(0.0, 0.01, (N, 1))
    u0 -= u0.mean()
    k = 2.0 * np.pi * np.arange(N) / N
    omega = np.sqrt(np.maximum(dynamical_symbol(P, k[:, None])[:, 0, 0], 0.0))
    u_exact = np.real(np.fft.ifft(np.cos(omega * T) * np.fft.fft(u0[:, 0])))
    errs = {}
    for dt in (1.0 / 100.0, 1.0 / 200.0):
        traj = integrate_atomistic(P, DisplacementField(lattice, u0),
                                   DisplacementField.zeros(lattice), [T],
                                   cfl=dt * max_frequency(P))
        errs[dt] = float(np.max(np.abs(traj.u[-1][:, 0] - u_exact)))
    assert errs[1.0 / 100.0] / errs[1.0 / 200.0] == pytest.approx(4.0, rel=0.1)


def test_energy_drift_is_second_order(rng):
    P = _chain()
    N = 16
    lattice = LatticeSpec(d=1, A=np.eye(1), N=N)
    u0 = rng.normal(0.0, 0.01, (N, 1))
    u0 -= u0.mean()
    snap = np.linspace(0.1, 1.0, 10)
    drift = {}
    for dt in (1.0 / 100.0, 1.0 / 200.0):
        traj = integrate_atomistic(P, DisplacementField(lattice, u0),
                                   DisplacementField.zeros(lattice), snap,
                                   cfl=dt * max_frequency(P))
        drift[dt] = _drift(_lattice_energies(P, traj))
    assert drift[1.0 / 100.0] / drift[1.0 / 200.0] == pytest.approx(4.0, rel=0.15)


def test_verlet_time_reversibility(rng):
    P = lj_chain()
    N = 8
    lattice = LatticeSpec(d=1, A=np.eye(1), N=N)
    u0 = rng.normal(0.0, 0.01, (N, 1))
    v0 = rng.normal(0.0, 0.01, (N, 1))
    fwd = integrate_atomistic(P, DisplacementField(lattice, u0),
                              DisplacementField(lattice, v0), [1.0],
                              cfl=0.01 * max_frequency(P))
    back = integrate_atomistic(P, DisplacementField(lattice, fwd.u[-1]),
                               DisplacementField(lattice, -fwd.v[-1]), [1.0],
                               cfl=0.01 * max_frequency(P))
    np.testing.assert_allclose(back.u[-1], u0, atol=1e-10)
    np.testing.assert_allclose(-back.v[-1], v0, atol=1e-10)


def test_integrator_validation_and_abort():
    lattice = LatticeSpec(d=1, A=np.eye(1), N=8)
    zero = DisplacementField.zeros(lattice)
    with pytest.raises(ValueError):
        integrate_atomistic(lj_chain(), zero, zero, [1.0, 0.5])
    kick = DisplacementField(lattice, 5.0 * (-1.0) ** np.arange(8).reshape(8, 1))
    with pytest.raises(SolverError, match=r"admissible region at t="):
        integrate_atomistic(lj_chain(), zero, kick, [1.0])


BAD_SNAPSHOT_TIMES = [[-1.0, -0.5], [-0.5, 0.5], [0.5, 0.5]]


@pytest.mark.parametrize("snap", BAD_SNAPSHOT_TIMES)
def test_integrator_rejects_bad_snapshot_times(snap):
    lattice = LatticeSpec(d=1, A=np.eye(1), N=8)
    zero = DisplacementField.zeros(lattice)
    P = _chain()
    with pytest.raises(ValueError, match="snapshot times"):
        integrate_atomistic(P, zero, zero, snap, cfl=0.01 * max_frequency(P))


def test_integrator_rejects_nan_site(rng):
    lattice = LatticeSpec(d=1, A=np.eye(1), N=64)
    u = 0.01 * rng.standard_normal((64, 1))
    u[17, 0] = np.nan
    start = DisplacementField(lattice, u)
    with pytest.raises(SolverError, match=r"t=0.*non-finite"):
        integrate_atomistic(lj_chain(), start, DisplacementField.zeros(lattice), [0.05])


@pytest.mark.parametrize("shape", [(8, 1), (16,)], ids=["lattice", "grid"])
def test_verlet_rejects_non_finite_snapshot(shape):
    # the stub acceleration turns NaN after t = 0.5 without raising, so only
    # the snapshot rule of the shared stepper can stop the run
    def accel(x, t):
        return np.full(shape, np.nan if t > 0.5 else 0.0)

    with pytest.raises(SolverError, match=r"non-finite state at the snapshot t=1$"):
        _verlet(np.zeros(shape), np.ones(shape), accel, [0.25, 1.0], 0.1)


def test_stepper_records_states_only():
    assert list(inspect.signature(_verlet).parameters) == [
        "x", "v", "accel", "snap_times", "dt_target"]
    assert [f.name for f in dataclasses.fields(dynamics.Trajectory)] == ["times", "u", "v"]


@pytest.mark.parametrize("run", ["lj_companion", "unstable_chain", "cb_wave"])
def test_in_place_verlet_matches_the_reference_bit_for_bit(monkeypatch, run):
    if run == "cb_wave":
        data = InitialData(_sin_field(), TrigField.from_terms(1, 1, [((1,), 0, "cos", 0.03)]))
        inputs = ()

        def go():
            return solve_cb_wave(CBModel(lj_chain()), data, [0.0, 0.05, 0.1], n_grid=64)
    else:
        if run == "lj_companion":
            # the c09 companion's data (gradient 0.005, cfl 0.05) at eps = 1/32
            P = lj_chain()
            data = InitialData(_sin_field(0.005 / (2.0 * np.pi)), _zero_field())
            u0, v0 = make_initial_data(data, 1.0 / 32.0)
            snap, cfl = np.linspace(0.0, 4.0, 5), 0.05
        else:
            # the instability demo's unstable chain under its alternating kick
            P = HarmonicChain.build(a1=-1.0, a2=0.5)
            lattice = LatticeSpec(d=1, A=np.eye(1), N=16)
            u0 = DisplacementField.zeros(lattice)
            v0 = DisplacementField(lattice, (-1.0) ** np.arange(16).reshape(16, 1) / 1024.0)
            snap, cfl = np.linspace(0.0, 3.0, 7), 0.2
        inputs = (u0.values, v0.values)

        def go():
            return integrate_atomistic(P, u0, v0, snap, cfl=cfl)
    before = [a.copy() for a in inputs]
    steps = _record_steps(monkeypatch)
    new = go()
    for a, b in zip(inputs, before):
        assert a.tobytes() == b.tobytes()  # the caller's state is not stepped
    # a snapshot that aliased the stepped state would repeat the final one
    assert len({x.tobytes() for x in new.u}) == len(new.u)
    assert len({x.tobytes() for x in new.v}) == len(new.v)
    ref_steps = _record_steps(monkeypatch, reference_verlet)
    ref = go()
    assert steps == ref_steps
    for name in ("times", "u", "v"):
        got, want = (getattr(t, name).tobytes() for t in (new, ref))
        assert got == want, name


def test_dynamic_member_gaps_match_offset_oracle_bit_for_bit(monkeypatch):
    # the batched gaps, then the per-offset gradient and value gaps swapped
    # in: every snapshot's two gaps and the member agree bit for bit
    args, results, gaps = _companion_member_args(), [], []
    for module in (static, offset_gap):
        gaps.append([])
        for name in ("interp_gradient_gap", "interp_value_gap"):
            def recorded(*a, _fn=getattr(module, name), _out=gaps[-1], **kw):
                _out.append(_fn(*a, **kw))
                return _out[-1]
            monkeypatch.setattr(dynamics, name, recorded)
        results.append(dynamics._dynamic_member(*args))
    assert len(gaps[0]) == 10 and min(gaps[0][2:]) > 0.0  # both gaps after t = 0
    # the member's error is the largest snapshot's gradient plus value gap
    assert results[0]["error"] == max(g + v for g, v in zip(gaps[0][::2], gaps[0][1::2]))
    assert repr(gaps[0]) == repr(gaps[1])
    assert repr(results[0]) == repr(results[1])


def test_dynamic_member_measures_energy_drift_from_its_snapshots():
    P, data, cb_times, _, _, eps, cfl, _ = args = _companion_member_args()
    got = dynamics._dynamic_member(*args)["energy_drift"]
    u0, v0 = make_initial_data(data, eps)
    traj = integrate_atomistic(P, u0, v0, cb_times / eps, cfl=cfl)
    assert got > 0.0
    assert repr(got) == repr(_drift(_lattice_energies(P, traj)))


# ---------------------------------------------------------------------------
# continuum wave solver
# ---------------------------------------------------------------------------

def test_cb_wave_dalembert_standing_wave(monkeypatch):
    # gamma = 1: U_tt = U_XX, so sin data stands and returns after one period
    M = CBModel(_chain())
    data = InitialData(_sin_field(), _zero_field())
    snap = np.array([0.0, 0.25, 0.5, 1.0])
    steps = _record_steps(monkeypatch)
    cb = solve_cb_wave(M, data, snap)
    # the initial wave speed is 1, so the target step is cfl / (n_grid * 1)
    assert steps == [pytest.approx(0.2 / (128 * 1.0), rel=1e-12)]
    # snapshots are the grid values at X_i = i / 128
    X = np.arange(128) / 128.0
    for t, Uj, Vj in zip(cb.times, cb.u, cb.v):
        expect = AMP * np.sin(2.0 * np.pi * X) * np.cos(2.0 * np.pi * t)
        np.testing.assert_allclose(Uj, expect, atol=1e-6)
        expect_v = -AMP * 2.0 * np.pi * np.sin(2.0 * np.pi * X) * np.sin(2.0 * np.pi * t)
        np.testing.assert_allclose(Vj, expect_v, atol=5e-6)
    assert _drift(_cb_energies(M, cb)) < 1e-7


@pytest.mark.parametrize("snap", BAD_SNAPSHOT_TIMES)
def test_cb_wave_rejects_bad_snapshot_times(snap):
    M = CBModel(_chain())
    with pytest.raises(ValueError, match="snapshot times"):
        solve_cb_wave(M, InitialData(_sin_field(), _zero_field()), snap, n_grid=16)


def test_cb_wave_aborts():
    M = CBModel(lj_chain())
    # gradient 0.12 sits beyond the hyperbolicity threshold (about 0.105)
    steep = TrigField.from_terms(1, 1, [((1,), 0, "sin", 0.12 / (2.0 * np.pi))])
    with pytest.raises(SolverError, match=r"hyperbolicity .* at T="):
        solve_cb_wave(M, InitialData(steep, _zero_field()), [0.5])
    # a tight admissibility radius trips before the modulus does
    M2 = CBModel(lj_chain(kappa=0.05))
    mid = TrigField.from_terms(1, 1, [((1,), 0, "sin", 0.07 / (2.0 * np.pi))])
    with pytest.raises(SolverError, match=r"admissible region at T="):
        solve_cb_wave(M2, InitialData(mid, _zero_field()), [0.5])


def test_cb_wave_matches_generic_oracle(monkeypatch):
    """The half-stencil pair path and the generic contraction give one wave:
    the companion's data (gradient 0.005, cfl 0.05) over a short horizon."""
    data = InitialData(_sin_field(0.005 / (2.0 * np.pi)), _zero_field())
    snap = np.linspace(0.0, 0.02, 5)
    models = [make(lj_chain()) for make in (CBModel, GenericCBModel)]
    steps = _record_steps(monkeypatch)
    got, ref = (solve_cb_wave(M, data, snap, cfl=0.05) for M in models)
    assert steps[0] == pytest.approx(steps[1], rel=1e-14)
    assert np.array_equal(got.times, ref.times)
    energies = [_cb_energies(M, cb) for M, cb in zip(models, (got, ref))]
    for a, b in ((got.u, ref.u), (got.v, ref.v), energies):
        assert np.max(np.abs(a - b)) <= 1e-10 * np.max(np.abs(b))


def test_cb_wave_loses_hyperbolicity_like_generic_oracle():
    # gradient 0.09 steepens past the threshold in about 200 steps on 32 points
    steep = InitialData(_sin_field(0.09 / (2.0 * np.pi)), _zero_field())
    messages = []
    for make in (CBModel, GenericCBModel):
        with pytest.raises(SolverError, match=r"hyperbolicity .* at T=0\.06") as info:
            solve_cb_wave(make(lj_chain()), steep, [0.5], n_grid=32)
        messages.append(str(info.value))
    assert messages[0] == messages[1]


def test_cb_wave_rejects_nan_state():
    # NaN fails every comparison, so the lattice's rule, not a hand-coded
    # bound, has to reject it before the wave speed or the step is formed
    nan = TrigField.from_terms(1, 1, [((1,), 0, "sin", float("nan"))])
    with pytest.raises(SolverError, match=r"admissible region at T=0$") as info:
        solve_cb_wave(CBModel(lj_chain()), InitialData(nan, _zero_field()), [0.5], n_grid=16)
    assert "non-finite" in str(info.value.__cause__)


def _wave_case(case):
    """(model, data, snapshot times, n_grid) of a wave run for the fused-pass checks."""
    smooth = InitialData(_sin_field(), TrigField.from_terms(1, 1, [((1,), 0, "cos", 0.03)]))
    snap = [0.0, 0.05, 0.1]
    return {
        "lj": (CBModel(lj_chain()), smooth, snap, 64),
        "eam": (CBModel(eam_chain()), smooth, snap, 64),
        "generic_lj": (GenericCBModel(lj_chain()), smooth, snap, 64),
        "hyperbolicity": (CBModel(lj_chain()), InitialData(_sin_field(0.09 / (2.0 * np.pi)),
                                                          _zero_field()), [0.5], 32),
        "admissibility": (CBModel(lj_chain(kappa=0.05)),
                          InitialData(_sin_field(0.07 / (2.0 * np.pi)), _zero_field()), [0.5], 32),
        "nan": (CBModel(lj_chain()), InitialData(_sin_field(float("nan")), _zero_field()),
                [0.5], 16),
    }[case]


@pytest.mark.parametrize("case", ["lj", "eam", "generic_lj", "hyperbolicity",
                                  "admissibility", "nan"])
def test_cb_wave_matches_two_call_reference_bit_for_bit(case):
    """Stress and moduli from one bond pass give the two-call solver's wave,
    and its aborts in the same words."""
    def outcome(solve):
        M, data, snap, n_grid = _wave_case(case)
        try:
            traj = solve(M, data, snap, n_grid=n_grid)
        except SolverError as exc:
            return str(exc), str(exc.__cause__)
        return tuple(getattr(traj, name).tobytes() for name in ("times", "u", "v"))

    got = outcome(solve_cb_wave)
    assert got == outcome(reference_solve_cb_wave)
    assert (len(got) == 2) == (case in ("hyperbolicity", "admissibility", "nan"))


def test_cb_wave_forms_one_bond_pass_per_step(monkeypatch):
    """The wave speed, the first acceleration and every step form the bonds once."""
    calls = []
    half_bonds = CBModel._half_bonds

    def counted(self, F):
        calls.append(np.shape(F))
        return half_bonds(self, F)

    monkeypatch.setattr(CBModel, "_half_bonds", counted)
    M, data, snap, n_grid = _wave_case("lj")
    dt = _record_steps(monkeypatch)
    solve_cb_wave(M, data, snap, n_grid=n_grid)
    steps = sum(max(1, math.ceil(span / dt[0] - 1e-12)) for span in np.diff(snap))
    assert steps > 2
    assert len(calls) == steps + 2


# ---------------------------------------------------------------------------
# shadowing sweep (harmonic anchors)
# ---------------------------------------------------------------------------

def test_dynamic_sweep_harmonic():
    data = InitialData(_sin_field(), _zero_field())
    sweep = dynamic_error_sweep(
        _chain(),
        data,
        T=0.5,
        eps_list=[1.0 / 16.0, 1.0 / 32.0, 1.0 / 64.0],
        n_snap=9,
        n_grid=64,
    )
    np.testing.assert_allclose(sweep["errors"], HARMONIC_SWEEP_ERRORS, rtol=1e-6)
    slope = np.polyfit(np.log(sweep["eps"]), np.log(sweep["errors"]), 1)[0]
    assert 1.7 <= slope <= 2.3
    assert sweep["half_dt"]["rel_change"] < 0.1
    # the continuum solve the sweep shares, rerun with its parameters
    M = CBModel(_chain())
    cb = solve_cb_wave(M, data, np.linspace(0.0, 0.5, 9), n_grid=64)
    assert _drift(_cb_energies(M, cb)) < 1e-6
    for m in sweep["details"]:
        assert m["energy_drift"] < 1e-5


def test_sweep_energy_drift_is_measured_from_t0():
    # with two snapshots the lattice records t = 0 and the horizon only, so
    # the drift is the energy change over the whole run
    P = lj_chain()
    data = InitialData(_sin_field(0.005 / (2.0 * np.pi)), _zero_field())
    T, eps_list = 1.0 / 64.0, [1.0 / 32.0, 1.0 / 64.0]
    sweep = dynamic_error_sweep(P, data, T=T, eps_list=eps_list, n_snap=2)
    for eps, m in zip(eps_list, sweep["details"]):
        u0, v0 = make_initial_data(data, eps)
        e0 = total_energy(P, u0.values) + 0.5 * float(np.sum(v0.values * v0.values))
        traj = integrate_atomistic(P, u0, v0, [T / eps])
        assert m["energy_drift"] > 0.0
        drift = abs(_lattice_energies(P, traj)[-1] - e0)
        assert m["energy_drift"] == pytest.approx(drift, rel=1e-12)


def test_sweep_maps_control_and_members_in_one_call(monkeypatch):
    # two jobs, one per continuum reference: the sweep's own first, then the
    # half-dt control, the finest spacing at half the CFL fraction.  No wave
    # is solved before the map, and the job order does not change a bit of
    # the result.
    calls, solved = [], []

    def reversed_map(fn, jobs, workers):
        calls.append((jobs, list(solved)))
        return [fn(job) for job in jobs[::-1]][::-1]

    def recorded_solve(M, data, snap_times, n_grid, cfl):
        solved.append(cfl)
        return solve_cb_wave(M, data, snap_times, n_grid=n_grid, cfl=cfl)

    args = (_chain(), InitialData(_sin_field(), _zero_field()))
    kw = dict(T=1.0 / 16.0, eps_list=[1.0 / 8.0, 1.0 / 16.0, 1.0 / 32.0], n_snap=3, n_grid=32)
    ref = dynamic_error_sweep(*args, **kw)
    monkeypatch.setattr(dynamics, "_map_members", reversed_map)
    monkeypatch.setattr(dynamics, "solve_cb_wave", recorded_solve)
    assert dynamic_error_sweep(*args, **kw) == ref
    ((jobs, solved_before),) = calls
    assert solved_before == [] and solved == [0.1, 0.2]
    assert [(job[4], job[6]) for job in jobs] == [(0.2, kw["eps_list"]), (0.1, [1.0 / 32.0])]


# ---------------------------------------------------------------------------
# instability demonstration
# ---------------------------------------------------------------------------

def test_instability_demo_quick():
    demo = instability_demo(1.0 / 16.0)
    eps2 = (1.0 / 16.0) ** 2
    assert demo["window"][0] == 1.0
    assert demo["window"][1] == pytest.approx(3.0 * np.log(16.0), rel=1e-12)
    assert demo["min_growth_ratio"] > 1.0
    # stable chain and long-wave probe conserve the kick size exactly
    assert demo["stable_max_norm"] <= demo["stable_bound"] == 2.0 * eps2
    assert demo["stable_max_norm"] == pytest.approx(eps2, rel=1e-10)
    assert demo["smooth_max_norm"] <= 2.0 * eps2
    # the continuum of the unstable chain is stable: modulus a1 + 4 a2 = 1
    assert demo["cb_modulus"] == 1.0
    assert len(demo["times"]) == len(demo["velocity_norms"])


def test_instability_demo_computes_no_energy(monkeypatch):
    # the demo reads velocity norms only, so its lattice runs evaluate forces
    # and no energy
    calls = []

    def counting(name):
        fn = getattr(dynamics, name)

        def counted(*args):
            calls.append(name)
            return fn(*args)
        return counted

    for name in ("total_energy", "gradient_array"):
        monkeypatch.setattr(dynamics, name, counting(name))
    instability_demo(1.0 / 64.0)
    assert (calls.count("total_energy"), calls.count("gradient_array")) == (0, 503)


def test_instability_demo_requires_even_reciprocal():
    with pytest.raises(ValueError):
        instability_demo(1.0 / 15.0)
