"""Interpolation layer: hat/B-spline profiles, the smoothed interpolant on
shifted grids against its point-wise oracle and its batched rows against
one-shift grids, and the bond localization kernels.

The kernel tests pit the package evaluators against independent oracles:
adaptive quadrature (scipy) for the defining integrals, finite differences
for derivatives, and closed-form lattice sums for the moment identities.
"""

from __future__ import annotations

import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate

from latcb.fields import TrigField
from latcb.interpolation import (
    b3,
    b3_prime,
    chi_eval,
    grad_chi_eval,
    hat,
    interp_sample_shifts,
    zeta_eval,
)
from latcb.lattice import DisplacementField, LatticeSpec, gauss_rule_01, tensor_grid

from conftest import random_displacement, site_coords
from hat_quadrature import zeta_convolve
from offset_gap import interp_sample_at
from point_gap import b3_filter, quasi_grad, quasi_interp, smooth_nodal_interp, trig_grad
from stress_loop import chi_window


# ---------------------------------------------------------------------------
# one-dimensional profiles
# ---------------------------------------------------------------------------

def test_hat_profile_values():
    s = np.array([-2.0, -1.0, -0.5, 0.0, 0.25, 1.0, 3.0])
    assert np.allclose(hat(s), [0.0, 0.0, 0.5, 1.0, 0.75, 0.0, 0.0])


def test_b3_knot_values_and_mass():
    assert b3(np.array([0.0]))[0] == pytest.approx(2.0 / 3.0, abs=1e-15)
    assert b3(np.array([1.0]))[0] == pytest.approx(1.0 / 6.0, abs=1e-15)
    assert b3(np.array([-1.0]))[0] == pytest.approx(1.0 / 6.0, abs=1e-15)
    assert np.all(b3(np.array([2.0, -2.0, 3.5])) == 0.0)
    mass, err = integrate.quad(lambda s: float(b3(np.array([s]))[0]), -2.0, 2.0,
                               points=[-1.0, 0.0, 1.0])
    assert abs(mass - 1.0) < 1e-12


@given(st.floats(-10.0, 10.0))
@settings(max_examples=60, deadline=None)
def test_b3_partition_of_unity(x):
    xi = np.arange(np.floor(x) - 2, np.floor(x) + 4)
    assert abs(np.sum(b3(x - xi)) - 1.0) < 1e-12


def test_b3_prime_matches_finite_differences(rng):
    s = rng.uniform(-2.5, 2.5, size=40)
    h = 1e-6
    fd = (b3(s + h) - b3(s - h)) / (2.0 * h)
    # away from the knots the profile is a cubic polynomial
    mask = np.min(np.abs(s[:, None] - np.array([-2.0, -1.0, 0.0, 1.0, 2.0])), axis=1) > 1e-3
    assert np.max(np.abs(b3_prime(s) - fd)[mask]) < 1e-8


# ---------------------------------------------------------------------------
# tensor hat basis
# ---------------------------------------------------------------------------

def test_zeta_basic_values():
    assert zeta_eval(np.zeros(2)) == 1.0
    assert zeta_eval(np.array([0.5, 0.5])) == pytest.approx(0.25, abs=1e-15)
    # vanishes at every other lattice point
    for xi in ([1, 0], [0, -1], [1, 1], [-2, 3]):
        assert zeta_eval(np.array(xi, dtype=float)) == 0.0
    # even symmetry
    x = np.array([0.3, -0.7])
    assert zeta_eval(x) == pytest.approx(zeta_eval(-x), abs=1e-15)


def test_zeta_affine_reproduction(rng):
    for d in (1, 2):
        a = rng.standard_normal()
        b = rng.standard_normal(d)
        for _ in range(10):
            x = rng.uniform(-3.0, 3.0, size=d)
            lo = np.floor(x).astype(int)
            combos = np.stack(np.meshgrid(*[[0, 1]] * d, indexing="ij"), -1).reshape(-1, d)
            xi = lo + combos
            w = zeta_eval(x - xi)
            val = np.sum(w * (a + xi @ b))
            assert val == pytest.approx(a + x @ b, abs=1e-12)


# ---------------------------------------------------------------------------
# quasi-interpolation (the point-wise oracle of tests/point_gap.py)
# ---------------------------------------------------------------------------

def test_quasi_interp_impulse_profile():
    lattice = LatticeSpec(d=1, A=np.eye(1), N=8)
    vals = np.zeros((8, 1))
    vals[0, 0] = 1.0
    u = DisplacementField(lattice, vals)
    pts = np.array([[0.0], [1.0], [2.0]])
    out = quasi_interp(u, pts)[:, 0]
    assert out[0] == pytest.approx(2.0 / 3.0, abs=1e-14)
    assert out[1] == pytest.approx(1.0 / 6.0, abs=1e-14)
    assert out[2] == pytest.approx(0.0, abs=1e-14)


def test_quasi_interp_reproduces_affine_in_cell(rng):
    lattice = LatticeSpec(d=2, A=np.eye(2), N=7)
    F = rng.standard_normal((2, 2))
    u = DisplacementField(lattice, (site_coords(lattice) @ F.T).reshape(7, 7, 2))
    # stay far enough from the wrap seam: the B-spline window is 4 wide
    pts = rng.uniform(2.0, 4.0, size=(20, 2))
    assert np.allclose(quasi_interp(u, pts), pts @ F.T, atol=1e-12)
    g = quasi_grad(u, pts)
    assert np.allclose(g, np.broadcast_to(F, g.shape), atol=1e-12)


def test_quasi_grad_matches_finite_differences(rng):
    lattice = LatticeSpec(d=2, A=np.eye(2), N=6)
    u = random_displacement(lattice, rng, scale=1.0)
    pts = rng.uniform(0.0, 6.0, size=(25, 2))
    h = 1e-6
    g = quasi_grad(u, pts)
    for alpha in range(2):
        e = np.zeros(2)
        e[alpha] = h
        fd = (quasi_interp(u, pts + e) - quasi_interp(u, pts - e)) / (2.0 * h)
        assert np.max(np.abs(g[..., alpha] - fd)) < 1e-7


# ---------------------------------------------------------------------------
# B-spline filter and deconvolution
# ---------------------------------------------------------------------------

def test_b3_filter_impulse_stencil():
    vals = np.zeros((8, 1))
    vals[3, 0] = 1.0
    out = b3_filter(vals)[:, 0]
    expect = np.zeros(8)
    expect[2:5] = [1.0 / 6.0, 2.0 / 3.0, 1.0 / 6.0]
    assert np.allclose(out, expect, atol=1e-15)


def test_b3_filter_equals_quasi_interp_at_sites(rng):
    for d in (1, 2):
        lattice = LatticeSpec(d=d, A=np.eye(d), N=6)
        u = random_displacement(lattice, rng, scale=1.0)
        sites = site_coords(lattice).astype(float)
        filt = b3_filter(u.values).reshape(-1, d)
        assert np.allclose(quasi_interp(u, sites), filt, atol=1e-13)


def test_smooth_nodal_interp_inverts_filter(rng):
    for d in (1, 2):
        lattice = LatticeSpec(d=d, A=np.eye(d), N=8)
        u = random_displacement(lattice, rng, scale=1.0)
        w = smooth_nodal_interp(u)
        # the quasi-interpolant of the deconvolved field matches u at sites
        assert np.allclose(b3_filter(w.values), u.values, atol=1e-12)
        sites = site_coords(lattice).astype(float)
        assert np.allclose(
            quasi_interp(w, sites), u.values.reshape(-1, d), atol=1e-12
        )


# ---------------------------------------------------------------------------
# smoothed interpolant on shifted grids
# ---------------------------------------------------------------------------

def interp_sample(u, shift=0.0, deriv=None) -> np.ndarray:
    """One row of ``interp_sample_shifts``: the grid ``xi + shift`` (a scalar or a d-vector)."""
    shift = np.broadcast_to(np.asarray(shift, dtype=float), (u.lattice.d,))
    return interp_sample_shifts(u, shift[None], deriv)[0]


@pytest.mark.parametrize("d, N", [(1, 7), (1, 16), (2, 5), (2, 8), (3, 5), (3, 4)])
def test_interp_sample_matches_point_oracle(rng, d, N):
    """Value and every first partial on shifted grids, against the window gather."""
    lattice = LatticeSpec(d=d, A=np.eye(d), N=N)
    u = random_displacement(lattice, rng, scale=1.0)
    w = smooth_nodal_interp(u)
    sites = tensor_grid([np.arange(N, dtype=float)] * d)
    for shift in (0.0, 0.5, 0.2113, rng.uniform(-1.5, 2.5, size=d)):
        pts = sites + np.broadcast_to(shift, (d,))
        ref = quasi_interp(w, pts).reshape((N,) * d + (d,))
        got = interp_sample(u, shift)
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref)), shift
        ref = quasi_grad(w, pts).reshape((N,) * d + (d, d))
        for a, deriv in enumerate(np.eye(d, dtype=int)):
            got = interp_sample(u, shift, deriv=tuple(deriv))
            assert np.max(np.abs(got - ref[..., a])) <= 1e-12 * np.max(np.abs(ref)), (shift, a)


def test_interp_sample_matches_sites(rng):
    for d, N in ((1, 9), (2, 6), (3, 4)):
        u = random_displacement(LatticeSpec(d=d, A=np.eye(d), N=N), rng, scale=1.0)
        assert np.max(np.abs(interp_sample(u, 0.0) - u.values)) <= 1e-14
        # a whole-site shift is a relabelling of the sites
        np.testing.assert_allclose(interp_sample(u, 1.0), np.roll(u.values, -1, axis=tuple(range(d))),
                                   rtol=0.0, atol=1e-14)


@pytest.mark.parametrize("deriv", [(2,), (1, 1), (1,), (0, -1)])
def test_interp_sample_rejects_other_derivatives(rng, deriv):
    u = random_displacement(LatticeSpec(d=2, A=np.eye(2), N=4), rng, scale=1.0)
    with pytest.raises(ValueError, match="at most one 1"):
        interp_sample(u, 0.5, deriv=deriv)


@pytest.mark.parametrize("d, N", [(1, 7), (1, 16), (2, 5), (2, 8), (3, 4)])
def test_interp_sample_shifts_rows_are_one_shift_samples_bit_for_bit(rng, d, N):
    u = random_displacement(LatticeSpec(d=d, A=np.eye(d), N=N), rng, scale=1.0)
    S = np.concatenate([np.zeros((1, d)), rng.uniform(-1.5, 2.5, (5, d))])
    for deriv in [None] + [tuple(e) for e in np.eye(d, dtype=int)]:
        batch = interp_sample_shifts(u, S, deriv=deriv)
        assert batch.shape == (len(S),) + (N,) * d + (d,)
        for row, s in zip(batch, S):
            assert row.tobytes() == interp_sample(u, s, deriv=deriv).tobytes(), (s, deriv)
            # the per-shift real FFT pair that the batch replaced
            assert row.tobytes() == interp_sample_at(u, s, deriv=deriv).tobytes(), (s, deriv)
    assert interp_sample(u, 0.37).tobytes() == interp_sample_at(u, 0.37).tobytes()


@pytest.mark.parametrize("shape", [(2,), (3, 1), (3, 3), (0, 2), (1, 2, 1)])
def test_interp_sample_shifts_rejects_other_shapes(rng, shape):
    u = random_displacement(LatticeSpec(d=2, A=np.eye(2), N=4), rng, scale=1.0)
    with pytest.raises(ValueError, match=rf"shifts must have shape \(Q, 2\).*got {re.escape(str(shape))}"):
        interp_sample_shifts(u, np.zeros(shape))


# ---------------------------------------------------------------------------
# bond localization kernels
# ---------------------------------------------------------------------------

def _random_direction(rng, d, r_max=3.0):
    while True:
        rho = rng.integers(-3, 4, size=d)
        n = np.linalg.norm(rho)
        if 0 < n <= r_max:
            return rho


def test_chi_midpoint_closed_form():
    val = chi_eval(np.zeros(1), np.array([1]), np.array([0.5]))
    assert val == pytest.approx(0.75, abs=1e-14)


def test_chi_matches_adaptive_quadrature(rng):
    """The t-integral against scipy's adaptive rule (independent oracle)."""
    for d in (1, 2):
        for _ in range(12):
            rho = _random_direction(rng, d)
            xi = rng.integers(-2, 3, size=d).astype(float)
            x = xi + rng.uniform(-1.5, 1.5, size=d) + 0.3 * rho
            # hand the hat-profile kink times to the adaptive rule
            breaks = set()
            for alpha in range(d):
                if rho[alpha]:
                    for level in (-1.0, 0.0, 1.0):
                        t = (level - (xi[alpha] - x[alpha])) / rho[alpha]
                        if 0.0 < t < 1.0:
                            breaks.add(float(t))
            ref, err = integrate.quad(
                lambda t: float(zeta_eval(xi + t * rho - x)),
                0.0,
                1.0,
                points=sorted(breaks) or None,
                limit=200,
                epsabs=1e-13,
            )
            assert chi_eval(xi, rho, x) == pytest.approx(ref, abs=1e-12)


def test_chi_nonnegative_and_window_support(rng):
    for d in (1, 2):
        for _ in range(10):
            rho = _random_direction(rng, d)
            x = rng.uniform(-2.0, 2.0, size=d)
            window = chi_window(rho, x)
            vals = chi_eval(window.astype(float), rho, x)
            assert np.all(vals >= -1e-15)
            assert abs(np.sum(vals) - 1.0) < 1e-12  # window misses no mass
            # one ring beyond the window the kernel vanishes identically
            lo = window.min(axis=0) - 1
            hi = window.max(axis=0) + 1
            axes = [np.arange(lo[a], hi[a] + 1) for a in range(d)]
            box = np.stack(np.meshgrid(*axes, indexing="ij"), -1).reshape(-1, d)
            inside = (box[:, None, :] == window[None, :, :]).all(-1).any(1)
            outside = box[~inside].astype(float)
            if outside.size:
                assert np.max(np.abs(chi_eval(outside, rho, x))) == 0.0


def test_grad_chi_matches_finite_differences(rng):
    """Directional derivative of chi against central differences.

    A step of h along rho changes the kernel by h (rho . grad) chi, which
    is exactly what grad_chi_eval returns in closed form.
    """
    h = 1e-5
    for d in (1, 2):
        for _ in range(12):
            rho = _random_direction(rng, d)
            xi = rng.integers(-1, 2, size=d).astype(float)
            x = xi + rng.uniform(-0.9, 0.9, size=d) + rng.uniform(0.0, 1.0) * rho
            fd = (chi_eval(xi, rho, x + h * rho) - chi_eval(xi, rho, x - h * rho)) / (2.0 * h)
            val = float(grad_chi_eval(xi, rho, x))
            assert fd == pytest.approx(val, abs=2e-3), (d, rho, xi, x)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_kernel_direction_rows_are_one_direction_calls_bit_for_bit(rng, d):
    """A (K, d) array of directions against (P, K, d) sites gives every column
    the bits of its one-direction call; chi_eval's directions share their
    nonzero axes, grad_chi_eval's need not."""
    moves = rng.random(d) < 0.5
    moves[rng.integers(d)] = True
    same_axes = rng.integers(1, 4, size=(6, d)) * rng.choice([-1, 1], size=(6, d)) * moves
    any_axes = np.array([_random_direction(rng, d) for _ in range(6)])
    x = rng.uniform(-2.0, 2.0, size=(5, 1, d))
    x[0, 0, 0] = 0.0  # a point on a cell boundary
    xi = (np.floor(x) + rng.integers(-2, 3, size=(5, 6, d))).astype(float)
    for kernel, rho in ((chi_eval, same_axes), (grad_chi_eval, any_axes), (grad_chi_eval, same_axes)):
        got = kernel(xi, rho, x)
        assert got.shape == (5, 6)
        for k in range(6):
            assert np.array_equal(got[:, k], kernel(xi[:, k], rho[k], x[:, 0])), (kernel, k)


def test_kernel_directions_broadcast_against_one_site():
    """Directions (K, d) against one site and one point give K values, each
    with the bits of its one-direction call."""
    xi, x = np.zeros(1), np.array([0.5])
    rho = np.array([[1], [2]])
    assert grad_chi_eval(xi, rho, x).tolist() == [0.0, 0.5]
    got = chi_eval(xi, rho, x)
    assert got.shape == (2,)
    for k in range(2):
        assert got[k].tobytes() == chi_eval(xi, rho[k], x).tobytes()
    xi2, x2 = np.array([[0.0, 1.0], [-1.0, 0.0], [1.0, 1.0]]), np.array([0.3, 0.8])
    rho2 = np.array([[[1, 2]], [[-2, 1]], [[3, 3]]])  # (3, 1, 2) against 3 sites
    got = chi_eval(xi2, rho2, x2)
    assert got.shape == (3, 3)
    for k in range(3):
        for j in range(3):
            assert got[k, j].tobytes() == chi_eval(xi2[j], rho2[k, 0], x2).tobytes(), (k, j)


@pytest.mark.parametrize("rho, match", [
    (np.array([[1, 0], [1, 1]]), "same axes"),
    (np.array([[1, 0], [0, 0]]), "nonzero integer rows"),
    (np.array([[1.0, 0.0]]), "nonzero integer rows"),
    (np.array([[1, 0, 0]]), "nonzero integer rows of length 2"),
])
def test_chi_eval_rejects_bad_direction_arrays(rho, match):
    with pytest.raises(ValueError, match=match):
        chi_eval(np.zeros((3, len(rho), 2)), rho, np.full((3, 1, 2), 0.5))


def _kernel_identity_violations(rng, d, n_samples):
    """Max violations of the five lattice-sum identities of the kernel."""
    worst = np.zeros(5)
    for _ in range(n_samples):
        rho = _random_direction(rng, d)
        x = rng.uniform(-2.0, 2.0, size=d)
        window = chi_window(rho, x).astype(float)
        w = chi_eval(window, rho, x)
        gw = grad_chi_eval(window, rho, x)
        rel = window - x
        rho_f = rho.astype(float)
        worst[0] = max(worst[0], abs(np.sum(w) - 1.0))
        worst[1] = max(worst[1], np.max(np.abs(w @ rel + 0.5 * rho_f)))
        worst[2] = max(worst[2], abs(np.sum(gw)))
        worst[3] = max(worst[3], np.max(np.abs(gw @ rel - rho_f)))
        quad = np.einsum("K,Ka,Kb->ab", gw, rel, rel)
        worst[4] = max(worst[4], np.max(np.abs(quad + np.outer(rho_f, rho_f))))
    return worst


def test_kernel_moment_identities(rng):
    """Partition of unity, first moment, and the three divergence-weight sums."""
    for d in (1, 2):
        worst = _kernel_identity_violations(rng, d, 25)
        assert np.max(worst) < 1e-10, worst


# ---------------------------------------------------------------------------
# localization identity
# ---------------------------------------------------------------------------

def _trig_test_field(rng, d, m, n_modes=3):
    terms = []
    for _ in range(n_modes):
        mode = tuple(int(v) for v in rng.integers(-3, 4, size=d))
        if not any(mode):
            mode = (1,) * d
        comp = int(rng.integers(0, m))
        kind = "sin" if rng.integers(0, 2) else "cos"
        terms.append((mode, comp, kind, float(rng.uniform(-1.0, 1.0))))
    return TrigField.from_terms(d, m, terms)


def test_localization_identity_smooth_fields(rng):
    """int chi_{xi,rho} (rho.grad)v dx telescopes to smeared point values.

    The left side is evaluated by honest quadrature of the defining
    integral (outer Gauss in the bond parameter, inner hat-convolution),
    the right side by the convolution at the two bond ends.
    """
    L = 8.0
    tg, tw = gauss_rule_01(12)
    for d in (1, 2):
        Vf = _trig_test_field(rng, d, d)

        def v_fn(x):
            return Vf.eval(np.asarray(x) / L)

        for _ in range(6):
            rho = _random_direction(rng, d)

            def dv_fn(x, rho=rho):
                return (trig_grad(Vf, np.asarray(x) / L) @ rho.astype(float)) / L

            xi = rng.integers(0, 8, size=d).astype(float)
            line = xi + tg[:, None] * rho  # Gauss nodes along the bond
            inner = zeta_convolve(dv_fn, line, n_components=d, q=10)
            lhs = tw @ inner
            ends = zeta_convolve(v_fn, np.stack([xi + rho, xi]), n_components=d, q=10)
            rhs = ends[0] - ends[1]
            assert np.max(np.abs(lhs - rhs)) < 1e-10


def test_localization_identity_nodal_fields(rng):
    """Same identity with piecewise multilinear fields, integrated exactly.

    In one dimension every kernel is piecewise quadratic with integer
    knots, so per-interval Gauss is exact and the residual is roundoff.
    """
    N = 8
    lattice = LatticeSpec(d=1, A=np.eye(1), N=N)
    u = random_displacement(lattice, rng, scale=1.0)
    filt = b3_filter(u.values)[:, 0]
    xg, xw = gauss_rule_01(4)
    for rho in (1, -1, 2, 3):
        rho_v = np.array([rho])
        for xi in range(N):
            lo = min(xi, xi + rho) - 1
            hi = max(xi, xi + rho) + 1
            acc = 0.0
            for j in range(lo, hi):
                pts = j + xg
                w = np.array([chi_eval(np.array([float(xi)]), rho_v, np.array([p])) for p in pts])
                slope = u.values[(j + 1) % N, 0] - u.values[j % N, 0]
                # (rho . grad) of the nodal interpolant is rho * slope per cell
                acc += float(np.sum(xw * w)) * rho * slope
            lhs = acc
            rhs = filt[(xi + rho) % N] - filt[xi]
            assert lhs == pytest.approx(rhs, abs=1e-12)


# ---------------------------------------------------------------------------
# continuum-field sampling
# ---------------------------------------------------------------------------

def test_zeta_convolve_reproduces_affine(rng):
    for d in (1, 2):
        a = rng.standard_normal(d)
        B = rng.standard_normal((d, d))

        def fn(x):
            return a + np.asarray(x) @ B.T

        sites = rng.uniform(-2.0, 5.0, size=(12, d))
        out = zeta_convolve(fn, sites, n_components=d)
        assert np.allclose(out, fn(sites), atol=1e-12)


def test_zeta_convolve_matches_adaptive_quadrature(rng):
    """Spot check against scipy adaptive quadrature in one and two dimensions."""
    L = 4.0
    Vf = _trig_test_field(rng, 1, 1)

    def f1(x):
        return Vf.eval(np.asarray(x).reshape(-1, 1) / L)

    z = 1.3
    ref, _ = integrate.quad(
        lambda x: float(hat(np.array([z - x]))[0] * f1(np.array([x]))[0, 0]),
        z - 1.0,
        z + 1.0,
        points=[z],
        limit=100,
        epsabs=1e-12,
    )
    out = zeta_convolve(lambda x: f1(x), np.array([[z]]), n_components=1)[0, 0]
    assert out == pytest.approx(ref, abs=1e-10)

    Wf = _trig_test_field(rng, 2, 1, n_modes=2)

    def f2(x):
        return Wf.eval(np.asarray(x) / L)

    z2 = np.array([0.7, -0.4])
    ref2, _ = integrate.dblquad(
        lambda y, x: float(
            zeta_eval(z2 - np.array([x, y])) * f2(np.array([[x, y]]))[0, 0]
        ),
        z2[0] - 1.0,
        z2[0] + 1.0,
        lambda x: z2[1] - 1.0,
        lambda x: z2[1] + 1.0,
        epsabs=1e-10,
    )
    out2 = zeta_convolve(f2, z2.reshape(1, 2), n_components=1)[0, 0]
    assert out2 == pytest.approx(ref2, abs=1e-8)
