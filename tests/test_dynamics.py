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
from latcb.potentials import HarmonicChain, gradient_array, total_energy
from latcb.stability import dynamical_symbol, max_frequency
from latcb.static import SolverError, _spectral_ddx
from latcb.stress import CBModel

from conftest import eam_chain, eam_square, lj_chain, site_coords
from generic_cb import GenericCBModel
from hat_quadrature import zeta_convolve
import offset_gap
from point_gap import trig_grad
from dynamic_sweep_reference import reference_dynamic_error_sweep
import instability_demo_reference
from verlet_reference import reference_batch
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
    """Swap ``stepper`` in for ``dynamics._verlet``; the list fills with each run's
    ``dt_target``."""
    steps = []

    def recorded(runs, grad):
        steps.extend(dt_target for *_, dt_target in runs)
        return stepper(runs, grad)

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
    cfl 0.05) at eps = 1/32 over a short horizon, five snapshots, and the
    lattice run alone."""
    P, eps = lj_chain(), 1.0 / 32.0
    data = InitialData(_sin_field(0.005 / (2.0 * np.pi)), _zero_field())
    cb_times = np.linspace(0.0, 0.125, 5)
    cb = solve_cb_wave(CBModel(P), data, cb_times, n_grid=128, cfl=0.05)
    cb_U, cb_V = ([TrigField.from_grid_1d(g[:, None]) for g in grids] for grids in (cb.u, cb.v))
    traj = integrate_atomistic(P, *make_initial_data(data, eps), cb_times / eps, cfl=0.05)
    return (P, cb_U, cb_V, traj, eps, 6)


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


BAD_SNAPSHOT_TIMES = [[-1.0, -0.5], [-0.5, 0.5], [0.5, 0.5], [0.5, math.nan, 1.0], [0.5, math.inf]]


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
    def grad(x, live, t):
        return np.full(shape, np.nan if t[0] > 0.5 else 0.0)

    with pytest.raises(SolverError, match=r"non-finite state at the snapshot t=1$"):
        _verlet([(np.zeros(shape), np.ones(shape), [0.25, 1.0], 0.1)], grad)


@pytest.mark.parametrize("n_v", [16, 4])
def test_stepper_refuses_a_velocity_of_another_shape(monkeypatch, n_v):
    # a longer velocity used to be cut to the state's 8 sites without a word,
    # and a shorter one failed in numpy's broadcasting words after a step
    calls = []
    monkeypatch.setattr(dynamics, "gradient_array", lambda *args: calls.append(args))
    u0 = DisplacementField.zeros(LatticeSpec(d=1, A=np.eye(1), N=8))
    v0 = DisplacementField(LatticeSpec(d=1, A=np.eye(1), N=n_v), np.full((n_v, 1), 1e-3))
    with pytest.raises(ValueError, match=rf"^run 0: the velocity's shape \({n_v}, 1\) "
                                         r"differs from the state's \(8, 1\)$"):
        integrate_atomistic(lj_chain(), u0, v0, [0.1])
    assert calls == []
    # in a batch the run is named by its place in the order given
    rest = (np.zeros((8, 1)), np.zeros((8, 1)), [0.1], 0.05)
    with pytest.raises(ValueError, match=rf"^run 1: the velocity's shape \({n_v}, 1\)"):
        _verlet([rest, (np.zeros((8, 1)), np.zeros((n_v, 1)), [0.1], 0.05)],
                lambda *args: calls.append(args))
    assert calls == []


def test_stepper_records_states_only():
    assert list(inspect.signature(_verlet).parameters) == ["runs", "grad"]
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
    ref_steps = _record_steps(monkeypatch, reference_batch)
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
    P, _, _, traj, _, _ = args = _companion_member_args()
    got = dynamics._dynamic_member(*args)["energy_drift"]
    assert got > 0.0
    assert repr(got) == repr(_drift(_lattice_energies(P, traj)))


BAD_STEPS = [0.0, -0.1, math.nan, math.inf]


@pytest.mark.parametrize("cfl", BAD_STEPS)
def test_integrator_rejects_bad_step_before_stepping(monkeypatch, cfl):
    lattice = LatticeSpec(d=1, A=np.eye(1), N=8)
    zero = DisplacementField.zeros(lattice)
    calls = []
    monkeypatch.setattr(dynamics, "gradient_array", lambda *a: calls.append(a))
    with pytest.raises(ValueError, match=r"^the time step \S+ is not a finite positive number$"):
        integrate_atomistic(lj_chain(), zero, zero, [1.0], cfl=cfl)
    assert calls == []


@pytest.mark.parametrize("cfl", BAD_STEPS)
def test_cb_wave_rejects_bad_step(cfl):
    with pytest.raises(ValueError, match=r"^the time step \S+ is not a finite positive number$"):
        solve_cb_wave(CBModel(_chain()), InitialData(_sin_field(), _zero_field()), [0.5],
                      n_grid=16, cfl=cfl)


# ---------------------------------------------------------------------------
# lockstep batches of lattice runs
# ---------------------------------------------------------------------------

def _run(rng, P, N, snap, cfl, amp=0.002):
    """A lattice run ``(u0, v0, snap_times, cfl)`` from small random data on the N-cell."""
    lattice = LatticeSpec(d=P.d, A=np.eye(P.d), N=N)
    u0, v0 = (DisplacementField(lattice, rng.uniform(-amp, amp, (N,) * P.d + (P.d,)))
              for _ in range(2))
    return u0, v0, snap, cfl


def _kicked(P, N, kick, snap, cfl=0.2):
    """A lattice run from rest under an alternating velocity kick of size ``kick``."""
    lattice = LatticeSpec(d=1, A=np.eye(1), N=N)
    v0 = DisplacementField(lattice, kick * (-1.0) ** np.arange(N).reshape(N, 1))
    return DisplacementField.zeros(lattice), v0, snap, cfl


@pytest.mark.parametrize("kind", ["lj", "eam", "harmonic", "eam_square"])
def test_batch_runs_match_single_runs_bit_for_bit(monkeypatch, rng, kind):
    """Each run of a batch has the bits of ``integrate_atomistic`` on it alone and
    of the out-of-place reference stepper.  The batch mixes a first snapshot at
    t = 0 and after it, two runs with equal step counts, a run that never
    steps, two step sizes and a snapshot within 1e-14 of the one before it
    mid-run (it records that time without stepping), and evaluates the
    forces once per lockstep step."""
    P = {"lj": lj_chain, "eam": eam_chain, "harmonic": _chain, "eam_square": eam_square}[kind]()
    n = (6, 4, 4, 8) if P.d == 2 else (32, 16, 16, 8)
    runs = [_run(rng, P, n[0], [0.0, 0.5, 1.0], 0.2), _run(rng, P, n[1], [0.25, 0.75], 0.2),
            _run(rng, P, n[2], [0.25, 0.75], 0.2), _run(rng, P, n[3], [0.0], 0.2),
            _run(rng, P, n[0], [0.0, 0.5, 1.0], 0.1),
            _run(rng, P, n[1], [0.25, 0.5, 0.5 + 5e-15, 0.75], 0.2)]
    calls = []

    def counted(P, values, plan):
        calls.append(len(values))
        return gradient_array(P, values, plan)

    monkeypatch.setattr(dynamics, "gradient_array", counted)
    dt = _record_steps(monkeypatch)
    got = dynamics._integrate_runs(P, runs)
    # the longest run (the last, at half the step) sets the lockstep count
    steps = [sum(max(1, math.ceil(s / dt[i] - 1e-12)) for s in np.diff([0.0, *r[2]]) if s > 1e-14)
             for i, r in enumerate(runs)]
    assert steps[1] == steps[2] > 0 and steps[3] == 0 and max(steps) == steps[4]
    assert len(calls) == steps[4] + 1 and calls[0] == sum(u0.values[..., 0].size
                                                          for u0, *_ in runs)
    assert got[5].times.tolist() == [0.25, 0.5, 0.5, 0.75]
    monkeypatch.undo()
    single = [integrate_atomistic(P, *run[:3], cfl=run[3]) for run in runs]
    _record_steps(monkeypatch, reference_batch)
    ref = [integrate_atomistic(P, *run[:3], cfl=run[3]) for run in runs]
    for trajs in (single, ref):
        for a, b in zip(got, trajs):
            for name in ("times", "u", "v"):
                x, y = getattr(a, name), getattr(b, name)
                assert x.shape == y.shape and x.tobytes() == y.tobytes(), name


def test_batch_reports_the_inadmissible_run_with_its_own_time():
    P = lj_chain()
    quiet, kicked = _run(np.random.default_rng(3), P, 16, [1.0], 0.2), _kicked(P, 8, 5.0, [1.0])
    with pytest.raises(SolverError, match=r"admissible region at t=") as alone:
        integrate_atomistic(P, *kicked[:3], cfl=kicked[3])
    for runs in ([quiet, kicked], [kicked, quiet]):
        with pytest.raises(SolverError) as batch:
            dynamics._integrate_runs(P, runs)
        assert str(batch.value) == str(alone.value)


def test_batch_names_the_time_of_its_non_finite_snapshot():
    # run 1 (stacked second: fewer steps) turns NaN after t = 0.4 without
    # raising, so only its snapshot at 0.6 can stop the batch
    def grad(x, live, t):
        g = np.zeros_like(x)
        if 1 in live and t[live.index(1)] > 0.4:
            g[8:12] = np.nan
        return g

    runs = [(np.zeros((8, 1)), np.ones((8, 1)), [0.25, 1.0], 0.1),
            (np.zeros((4, 1)), np.ones((4, 1)), [0.3, 0.6], 0.1)]
    with pytest.raises(SolverError, match=r"non-finite state at the snapshot t=0.6$"):
        _verlet(runs, grad)


def _resting(label, n, T, dt_target):
    """A stepper run at rest on ``n`` rows of the value ``label``: under the zero
    gradient its state keeps naming the run."""
    return np.full((n, 1), label), np.zeros((n, 1)), [T], dt_target


def _failing_grad(fail_after, calls):
    """A zero gradient that fails once a live run's time passes ``fail_after`` of
    its label.  Alone, a run fails in its own words, with its own cause; a
    batch fails in words no single run uses.  ``calls`` records each call's
    ``live`` and each error raised."""
    def grad(x, live, t):
        calls.append(live)
        labels = dict.fromkeys(x[:, 0].tolist())  # each live run's label, in stacking order
        if any(t[p] > fail_after[label] for p, label in enumerate(labels)):
            if len(live) > 1:
                calls.append(SolverError(f"the batch {live} fails"))
                raise calls[-1]
            assert np.all(x == x[0, 0])  # a run alone gets its own rows
            cause = ValueError(f"{len(x)} rows")
            calls.append(SolverError(f"run {x[0, 0]:g} fails at t={t[0]:.6g}"))
            raise calls[-1] from cause
        return np.zeros_like(x)

    return grad


def _stepper_failure(runs, fail_after) -> tuple:
    """The text and the cause's text of the error ``_verlet`` raises."""
    with pytest.raises(SolverError) as info:
        _verlet(runs, _failing_grad(fail_after, []))
    return str(info.value), str(info.value.__cause__)


def test_stepper_raises_the_earliest_lockstep_failure_in_single_run_words():
    # the long run takes more steps, so it is stacked first; each run fails
    # alone, and whichever fails at the earlier lockstep step raises, in
    # either order
    short, long = _resting(1.0, 3, 0.5, 0.1), _resting(2.0, 4, 1.0, 0.1)
    for fail_after, want in (({1.0: 0.25, 2.0: 0.55}, ("run 1 fails at t=0.3", "3 rows")),
                             ({1.0: 0.45, 2.0: 0.25}, ("run 2 fails at t=0.3", "4 rows"))):
        for runs in ([short, long], [long, short]):
            assert _stepper_failure(runs, fail_after) == want


@pytest.mark.parametrize("fail_after", [0.0, -1.0], ids=["first_step", "first_gradient"])
def test_stepper_tie_raises_the_first_run_in_the_order_given(fail_after):
    # both runs fail at one lockstep step, at different times; the run given
    # first raises, however the runs are stacked
    short, long = _resting(1.0, 3, 0.5, 0.1), _resting(2.0, 4, 1.0, 0.05)
    t = {1.0: "0.1", 2.0: "0.05"} if fail_after == 0.0 else {1.0: "0", 2.0: "0"}
    for runs in ([short, long], [long, short]):
        label = runs[0][0][0, 0]
        assert _stepper_failure(runs, {1.0: fail_after, 2.0: fail_after}) == (
            f"run {label:g} fails at t={t[label]}", f"{len(runs[0][0])} rows")


@pytest.mark.parametrize("n_runs", [1, 2])
def test_stepper_passes_a_single_live_runs_failure_on_without_a_recall(n_runs):
    # the long run fails after the short one has ended (or alone): its error is
    # the one raised, and no call follows the failing one
    runs = [_resting(1.0, 3, 0.2, 0.1), _resting(2.0, 4, 1.0, 0.1)][2 - n_runs:]
    calls = []
    with pytest.raises(SolverError) as info:
        _verlet(runs, _failing_grad({1.0: math.inf, 2.0: 0.55}, calls))
    assert info.value is calls[-1] and str(info.value) == "run 2 fails at t=0.6"
    assert [live for live in calls if isinstance(live, tuple)][-2:] == [(n_runs - 1,)] * 2
    assert len(calls) == 1 + 6 + 1  # the first gradient, six steps, the error


def test_stepper_raises_assertion_when_no_run_fails_alone():
    calls = []
    grad = _failing_grad({1.0: math.inf, 2.0: math.inf}, calls)

    def batch_only(x, live, t):
        if len(live) > 1 and t[0] > 0.15:
            calls.append(SolverError("the batch fails"))
            raise calls[-1]
        return grad(x, live, t)

    with pytest.raises(AssertionError) as info:
        _verlet([_resting(1.0, 3, 0.5, 0.1), _resting(2.0, 4, 1.0, 0.1)], batch_only)
    assert info.value.__cause__ is calls[-3]
    assert calls[-2:] == [(0,), (1,)]  # each run re-called alone, in the order given


def _failure(P, runs):
    with pytest.raises(SolverError) as info:
        dynamics._integrate_runs(P, runs)
    return str(info.value)


def test_batch_raises_the_earliest_lockstep_failure():
    """The run failing at the earliest lockstep step raises; at one step, the
    first in the order given, however the runs are stacked."""
    P = lj_chain()
    slow, fast = _kicked(P, 8, 5.0, [1.0]), _kicked(P, 16, 8.0, [1.0])
    alone = {k: _failure(P, [run]) for k, run in (("slow", slow), ("fast", fast))}
    t_fail = {k: float(msg.split("t=")[1].split(":")[0]) for k, msg in alone.items()}
    assert t_fail["fast"] < t_fail["slow"]
    assert _failure(P, [slow, fast]) == _failure(P, [fast, slow]) == alone["fast"]
    # kicks 20 and 30 both fail at the first step, with different norms
    short, long = _kicked(P, 8, 20.0, [0.5]), _kicked(P, 16, 30.0, [1.0])
    first = {k: _failure(P, [run]) for k, run in (("short", short), ("long", long))}
    assert first["short"] != first["long"]
    for msg, T in zip(first.values(), (0.5, 1.0)):
        dt = T / math.ceil(T / (0.2 / max_frequency(P)) - 1e-12)
        assert msg.startswith(f"dynamics left the admissible region at t={dt:.6g}:")
    assert _failure(P, [short, long]) == first["short"]
    assert _failure(P, [long, short]) == first["long"]


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("kind", ["lj", "eam"])
def test_sweep_matches_the_per_job_reference(kind, workers):
    """The lockstep sweep and the one-job-per-reference sweep agree exactly; the
    EAM sweep repeats a spacing, so two of its runs take equal step counts."""
    P, eps_list = {"lj": (lj_chain(), [1.0 / 8.0, 1.0 / 16.0, 1.0 / 32.0]),
                   "eam": (eam_chain(), [1.0 / 16.0, 1.0 / 8.0, 1.0 / 16.0])}[kind]
    data = InitialData(_sin_field(0.005 / (2.0 * np.pi)), _zero_field())
    kw = dict(T=1.0 / 32.0, eps_list=eps_list, n_snap=3, n_grid=32, cfl=0.1, workers=workers)
    got, ref = dynamic_error_sweep(P, data, **kw), reference_dynamic_error_sweep(P, data, **kw)
    assert got == ref and repr(got) == repr(ref)
    assert got["half_dt"]["error"] > 0.0


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


def _wave_outcome(solve, *args):
    """A wave run's bytes, or its ``SolverError`` text and cause."""
    try:
        traj = solve(*args)
    except SolverError as exc:
        return str(exc), str(exc.__cause__)
    return tuple(getattr(traj, name).tobytes() for name in ("times", "u", "v"))


@pytest.mark.parametrize("case", ["lj", "eam", "generic_lj", "hyperbolicity",
                                  "admissibility", "nan"])
def test_cb_wave_matches_two_call_reference_bit_for_bit(case):
    """Stress and moduli from one bond pass give the two-call solver's wave,
    and its aborts in the same words."""
    got = _wave_outcome(solve_cb_wave, *_wave_case(case))
    assert got == _wave_outcome(reference_solve_cb_wave, *_wave_case(case))
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
# lockstep batches of continuum waves
# ---------------------------------------------------------------------------

def _batch_outcomes(M, data, snap, n_grid, cfls) -> list:
    """Each wave's bytes from ``_cb_waves``, or the batch's ``SolverError``."""
    try:
        trajs = dynamics._cb_waves(M, data, snap, n_grid, cfls)
    except SolverError as exc:
        return [(str(exc), str(exc.__cause__))]
    return [tuple(getattr(t, name).tobytes() for name in ("times", "u", "v")) for t in trajs]


@pytest.mark.parametrize("case", ["lj", "eam"])
def test_wave_batch_matches_single_waves_bit_for_bit(monkeypatch, case):
    """Each wave of a batch has the bits of ``solve_cb_wave`` at its fraction alone
    and of the two-call reference: the pair path and the generic (EAM) path,
    two step sizes, and a snapshot mid-run."""
    M, data, snap, n_grid = _wave_case(case)
    cfls = (0.2, 0.07)
    steps = _record_steps(monkeypatch)
    got = _batch_outcomes(M, data, snap, n_grid, cfls)
    assert len(got) == 2 and len(set(got)) == 2
    single = [_wave_outcome(solve_cb_wave, M, data, snap, n_grid, c) for c in cfls]
    assert steps[:2] == steps[2:] and steps[0] != steps[1]
    ref = [_wave_outcome(reference_solve_cb_wave, M, data, snap, n_grid, c) for c in cfls]
    assert got == single == ref


def test_wave_batch_forms_one_bond_pass_per_lockstep_step(monkeypatch):
    """The wave speed, then the first acceleration and every lockstep step, form
    the bonds of all live waves once: both waves until the shorter one ends."""
    calls = []
    half_bonds = CBModel._half_bonds

    def counted(self, F):
        calls.append(len(F))
        return half_bonds(self, F)

    monkeypatch.setattr(CBModel, "_half_bonds", counted)
    M, data, snap, n_grid = _wave_case("lj")
    dt = _record_steps(monkeypatch)
    dynamics._cb_waves(M, data, snap, n_grid, (0.2, 0.07))
    steps = [sum(max(1, math.ceil(span / h - 1e-12)) for span in np.diff(snap)) for h in dt]
    assert 2 < steps[0] < steps[1]
    assert calls == [n_grid] + [2 * n_grid] * (steps[0] + 1) + [n_grid] * (steps[1] - steps[0])


def _kicked_wave(kick, kappa=0.25):
    """A wave model and data near rest under a cos velocity kick of amplitude
    ``kick``: on 32 points, kicks 50 and 100 fail at the first step."""
    return (CBModel(lj_chain(kappa=kappa)),
            InitialData(_sin_field(0.001), TrigField.from_terms(1, 1, [((1,), 0, "cos", kick)])),
            [0.5], 32)


@pytest.mark.parametrize("case", ["hyperbolicity", "admissibility", "nan"])
def test_wave_batch_raises_the_earliest_failure_in_single_run_words(case):
    """Mid-run, the wave at the larger step fails at the earlier lockstep step,
    in either order, with the message and cause of its own run; NaN data fails
    at the shared wave speed, in the words of a single run."""
    args = _kicked_wave(1.0, kappa=0.1) if case == "admissibility" else _wave_case(case)
    alone = _wave_outcome(solve_cb_wave, *args, 0.2)
    assert {"hyperbolicity": "lost hyperbolicity", "admissibility": "admissible region",
            "nan": "admissible region at T=0"}[case] in alone[0]
    if case == "nan":
        assert "non-finite" in alone[1]
    else:
        assert _wave_outcome(solve_cb_wave, *args, 0.1) != alone
    for cfls in ((0.2, 0.1), (0.1, 0.2)):
        assert _batch_outcomes(*args, cfls) == [alone]


@pytest.mark.parametrize("kick, kappa, kinds", [
    (50.0, 0.25, ("hyperbolicity", "hyperbolicity")),
    (100.0, 0.25, ("admissible", "hyperbolicity")),
    (100.0, 0.05, ("admissible", "admissible")),
])
def test_wave_batch_tie_raises_the_first_wave_in_the_order_given(monkeypatch, kick, kappa, kinds):
    """Both waves fail at the first lockstep step, at different times (and
    norms): the first in the order given raises, in the words and with the
    cause of its own run, whichever check each wave fails."""
    args = _kicked_wave(kick, kappa)
    dt = _record_steps(monkeypatch)
    alone = {c: _wave_outcome(solve_cb_wave, *args, c) for c in (0.2, 0.1)}
    assert alone[0.2] != alone[0.1]
    for (msg, _), kind, h in zip(alone.values(), kinds, dt):
        assert kind in msg and msg.endswith(f" at T={0.5 / math.ceil(0.5 / h - 1e-12):.6g}")
    for cfls in ((0.2, 0.1), (0.1, 0.2)):
        assert _batch_outcomes(*args, cfls) == [alone[cfls[0]]]


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
    # two jobs: both continuum references in one lockstep batch (the sweep's
    # wave, then the half-dt control's at half the CFL fraction), then every
    # lattice run in one lockstep batch, the control (finest spacing, half the
    # fraction) last.
    # Nothing is solved or stepped before the map, and the job order does
    # not change a bit of the result.
    calls, solved, batches, built = [], [], [], []

    def reversed_map(jobs, workers):
        calls.append((jobs, list(solved), list(batches)))
        return [fn(*args) for fn, args in jobs[::-1]][::-1]

    def recorded_waves(M, data, snap_times, n_grid, cfls):
        solved.append(cfls)
        return cb_waves(M, data, snap_times, n_grid, cfls)

    def recorded_data(data, eps):
        built.append(eps)
        return make_initial_data(data, eps)

    def recorded_batch(P, runs):
        batches.append([(u0.lattice.N, cfl) for u0, _, _, cfl in runs])
        return integrate_runs(P, runs)

    args = (_chain(), InitialData(_sin_field(), _zero_field()))
    kw = dict(T=1.0 / 16.0, eps_list=[1.0 / 8.0, 1.0 / 16.0, 1.0 / 32.0], n_snap=3, n_grid=32)
    ref = dynamic_error_sweep(*args, **kw)
    integrate_runs, cb_waves = dynamics._integrate_runs, dynamics._cb_waves
    monkeypatch.setattr(dynamics, "_map_members", reversed_map)
    monkeypatch.setattr(dynamics, "_cb_waves", recorded_waves)
    monkeypatch.setattr(dynamics, "_integrate_runs", recorded_batch)
    monkeypatch.setattr(dynamics, "make_initial_data", recorded_data)
    assert dynamic_error_sweep(*args, **kw) == ref
    ((jobs, solved_before, batches_before),) = calls
    assert solved_before == batches_before == []
    assert solved == [(0.2, 0.1)]
    assert batches == [[(8, 0.2), (16, 0.2), (32, 0.2), (32, 0.1)]]
    # the finest spacing's initial data serves its member and the control
    assert sorted(built) == [1.0 / 32.0, 1.0 / 16.0, 1.0 / 8.0]
    assert [job[0] for job in jobs] == [recorded_waves, dynamics._lattice_runs]
    assert jobs[0][1][3:] == (32, (0.2, 0.1))
    assert jobs[1][1][3] == [(1.0 / 8.0, 0.2), (1.0 / 16.0, 0.2), (1.0 / 32.0, 0.2),
                             (1.0 / 32.0, 0.1)]


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


def test_unknown_probe_kind_is_refused():
    with pytest.raises(ValueError, match="^unknown probe kind: 'bogus'$"):
        dynamics._probe_field(LatticeSpec(d=1, A=np.eye(1), N=8), "bogus")


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
    batches = []
    integrate_runs = dynamics._integrate_runs

    def batched(P, runs):
        batches.append(len(runs))
        return integrate_runs(P, runs)

    monkeypatch.setattr(dynamics, "_integrate_runs", batched)
    instability_demo(1.0 / 64.0)
    # the unstable chain's two probes step in one batch (125 steps), then the
    # stable chain's probe (250 steps), each batch with one force call per step
    # plus the first
    assert (calls.count("total_energy"), calls.count("gradient_array")) == (0, 377)
    assert batches == [2, 1]


@pytest.mark.parametrize("eps", [1.0 / 16.0, 1.0 / 64.0])
def test_instability_demo_matches_the_sequential_reference(eps):
    """The two batches give the three single runs' result, bit for bit."""
    got = instability_demo(eps)
    want = instability_demo_reference.instability_demo(eps)
    assert got == want
    assert repr(got) == repr(want)


def test_instability_demo_requires_even_reciprocal():
    with pytest.raises(ValueError):
        instability_demo(1.0 / 15.0)


@pytest.mark.parametrize("key, top", [("U0", 128), ("U1", 200)])
def test_aliased_initial_data_is_refused_by_the_library(key, top):
    """An initial-data mode at or above n_grid/2 aliases on the wave's grid: the
    wave solver and the sweep refuse it in the CLI's words."""
    fields = {"U0": TrigField.from_terms(1, 1, [((1,), 0, "sin", 0.005)]),
              "U1": TrigField.from_terms(1, 1, [((2,), 0, "cos", 0.001)])}
    fields[key] = TrigField.from_terms(1, 1, [((1,), 0, "sin", 0.005), ((top,), 0, "sin", 1e-4)])
    data = InitialData(**fields)
    msg = f"mode {top} aliases on the continuum grid of n_grid = 256; modes need |m| < 128"
    with pytest.raises(ValueError, match=msg):
        solve_cb_wave(CBModel(lj_chain()), data, np.linspace(0.0, 0.1, 3), n_grid=256)
    with pytest.raises(ValueError, match=msg):
        dynamic_error_sweep(lj_chain(), data, T=0.1, eps_list=[1.0 / 8.0, 1.0 / 16.0],
                            n_snap=3, n_grid=256)


@pytest.mark.parametrize("N", [64, 256, 1024])
def test_demo_norms_match_l2_per_snapshot(monkeypatch, N):
    """The demo's snapshot norms, one reduction per run, have the bits of one
    ``_l2`` call per snapshot: the reported norms of the unstable chain's
    alternating run and the maxima of its smooth run and of the stable chain."""
    trajs = []
    integrate = dynamics._integrate_runs

    def spy(P, runs):
        out = integrate(P, runs)
        trajs.extend(out)
        return out

    monkeypatch.setattr(dynamics, "_integrate_runs", spy)
    rep = instability_demo(1.0 / N)
    alternating, smooth, stable = ([dynamics._l2(v) for v in traj.v] for traj in trajs)
    assert list(map(repr, rep["velocity_norms"])) == list(map(repr, alternating))
    assert repr(rep["smooth_max_norm"]) == repr(max(smooth))
    assert repr(rep["stable_max_norm"]) == repr(max(stable))
