"""Lattice geometry, difference stencils, and quadrature."""

from __future__ import annotations

from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from latcb.dynamics import instability_demo
from latcb.fields import TrigField
from latcb.lattice import (
    DisplacementField,
    LatticeSpec,
    StencilSet,
    all_stencils,
    gauss_rule_01,
    supercell_period,
    tensor_grid,
)
from latcb.static import MacroForce, make_forces
from latcb.stress import CBModel, stress_consistency_field

from conftest import index_of, lj_chain, random_displacement, site_coords
from point_gap import site_values


# ---------------------------------------------------------------------------
# geometry validation
# ---------------------------------------------------------------------------

def test_lattice_spec_validation():
    with pytest.raises(ValueError):
        LatticeSpec(d=4, A=np.eye(4), N=8)
    with pytest.raises(ValueError):
        LatticeSpec(d=2, A=np.zeros((2, 2)), N=8)
    with pytest.raises(ValueError):
        LatticeSpec(d=1, A=np.eye(1), N=3)
    with pytest.raises(ValueError):
        LatticeSpec(d=2, A=np.eye(3), N=8)


def test_supercell_period():
    assert supercell_period(1.0 / 8.0) == 8
    assert supercell_period(1.0 / 3.0) == 3
    for eps in (0.126, 0.3, 0.0, -0.125, 5e-324, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="integer number of lattice cells"):
            supercell_period(eps)


def test_library_spacing_checks_share_one_rule():
    # the load transfer, the stress-consistency grid and the instability demo
    # all take their period from supercell_period: 1/8 is one, 0.126 is none
    U = TrigField.from_terms(1, 1, [((1,), 0, "sin", 0.01)])
    P = lj_chain()
    callers = [lambda eps: make_forces(MacroForce(U), eps),
               lambda eps: stress_consistency_field(CBModel(P), U, eps), instability_demo]
    for call in callers:
        call(1.0 / 8.0)
        with pytest.raises(ValueError, match="integer number of lattice cells"):
            call(0.126)
    assert make_forces(MacroForce(U), 1.0 / 8.0).lattice.N == 8
    assert stress_consistency_field(CBModel(P), U, 0.125)["n_points"] == 8 * 4


def test_site_coords_row_major():
    lattice = LatticeSpec(d=2, A=np.eye(2), N=4)
    coords = site_coords(lattice)
    assert coords.shape == (16, 2)
    np.testing.assert_array_equal(coords[0], [0, 0])
    np.testing.assert_array_equal(coords[1], [0, 1])  # last axis varies fastest
    np.testing.assert_array_equal(coords[4], [1, 0])


@pytest.mark.parametrize("lengths", [(3,), (2, 5), (4, 1, 3)])
def test_tensor_grid_is_row_major(lengths):
    # every grid of sites, points, offsets and k-vectors relies on this order
    axes = [np.arange(n) * 10 + i for i, n in enumerate(lengths)]
    grid = tensor_grid(axes)
    assert grid.shape == (int(np.prod(lengths)), len(lengths))
    np.testing.assert_array_equal(grid, np.array(list(product(*axes))))
    assert grid.dtype == axes[0].dtype
    floats = tensor_grid([a + 0.5 for a in axes])
    assert floats.dtype == np.float64
    np.testing.assert_array_equal(floats, grid + 0.5)


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("r_cut", [1.0, 1.5, 2.0, 2.3, 3.0])
def test_ball_matches_product_comprehension(d, r_cut):
    m = int(np.floor(r_cut))
    expect = [r for r in product(range(-m, m + 1), repeat=d)
              if any(r) and np.linalg.norm(r) <= r_cut]
    S = StencilSet.ball(d, r_cut)
    assert S.directions.dtype.kind == "i"
    assert sorted(map(tuple, S.directions.tolist())) == sorted(expect)


@pytest.mark.parametrize("d, r_cut, message", [
    (1, float("nan"), "r_cut must be finite; got nan"),
    (2, float("-inf"), "r_cut must be finite; got -inf"),
    (1, 65.0, "gives at least 130 directions"),
    (2, 6.5, "gives 136 directions"),
    (2, 0.5, r"directions must be a nonempty \(n, d\) integer array"),
])
def test_ball_refuses_nonfinite_or_oversized_stencils(d, r_cut, message):
    with pytest.raises(ValueError, match=message):
        StencilSet.ball(d, r_cut)


def test_ball_builds_stencils_up_to_128_directions():
    assert [StencilSet.ball(d, r).n for d, r in [(1, 64.0), (2, 6.4), (3, 3.0)]] == [128, 128, 122]


# ---------------------------------------------------------------------------
# stencil sets
# ---------------------------------------------------------------------------

def test_stencil_ball_members():
    S1 = StencilSet.ball(1, 3.0)
    assert S1.n == 6
    assert sorted(int(r[0]) for r in S1.directions) == [-3, -2, -1, 1, 2, 3]
    S2 = StencilSet.ball(2, 2.0)
    assert S2.n == 12  # 4 nearest + 4 diagonal + 4 second-axis neighbours
    # lexicographic ordering gives a reproducible slot layout
    as_tuples = [tuple(r) for r in S2.directions]
    assert as_tuples == sorted(as_tuples)


def test_stencil_validation_errors():
    with pytest.raises(ValueError):
        StencilSet(np.array([[1, 0], [-1, 0], [2, 0]]))
    with pytest.raises(ValueError):
        StencilSet(np.array([[0, 0], [1, 0], [-1, 0]]))
    with pytest.raises(ValueError):
        # missing a nearest neighbour axis
        StencilSet(np.array([[1, 0], [-1, 0]]))


def test_stencil_index_and_negation_perm():
    S = StencilSet.ball(2, 1.5)
    for i, rho in enumerate(S.directions):
        assert index_of(S, rho) == i
    perm = [index_of(S, -rho) for rho in S.directions]
    np.testing.assert_array_equal(S.directions[perm], -S.directions)
    with pytest.raises(KeyError):
        index_of(S, [5, 0])


@given(st.integers(1, 2), st.floats(1.0, 3.5))
@settings(max_examples=40, deadline=None)
def test_stencil_ball_invariants(d, r_cut):
    S = StencilSet.ball(d, r_cut)
    dirs = {tuple(r) for r in S.directions}
    assert all(tuple(-np.array(r)) in dirs for r in dirs)
    norms = np.linalg.norm(S.directions, axis=1)
    assert np.all(norms <= r_cut + 1e-12)
    assert np.all(norms >= 1.0)
    for axis in range(d):
        e = tuple(1 if a == axis else 0 for a in range(d))
        assert e in dirs


# ---------------------------------------------------------------------------
# displacement fields and differences
# ---------------------------------------------------------------------------

def test_displacement_field_shape_and_wrap(rng):
    lattice = LatticeSpec(d=2, A=np.eye(2), N=5)
    with pytest.raises(ValueError):
        DisplacementField(lattice, np.zeros((5, 5)))
    u = random_displacement(lattice, rng)
    np.testing.assert_allclose(site_values(u, [7, -3]), u.values[2, 2])
    v = DisplacementField(u.lattice, u.values.copy())
    v.values[0, 0, 0] += 1.0
    assert u.values[0, 0, 0] != v.values[0, 0, 0]


def test_finite_difference_examples():
    lattice = LatticeSpec(d=1, A=np.eye(1), N=8)
    u = DisplacementField(lattice, np.sin(2.0 * np.pi * site_coords(lattice) / 8.0))
    S = StencilSet.ball(1, 3.0)
    # sin(pi/2) - sin(0) = 1 for the two-site difference at the origin
    assert all_stencils(u.values, S)[0, index_of(S, [2]), 0] == pytest.approx(1.0, abs=1e-14)
    const = DisplacementField(lattice, np.full((8, 1), 0.37))
    assert np.max(np.abs(all_stencils(const.values, S))) == 0.0


def test_all_stencils_matches_direct_lookup(rng):
    for d in (1, 2):
        lattice = LatticeSpec(d=d, A=np.eye(d), N=5)
        S = StencilSet.ball(d, 2.0)
        u = random_displacement(lattice, rng)
        g = all_stencils(u.values, S)
        sites = site_coords(lattice)
        direct = site_values(u, sites[:, None] + S.directions) - site_values(u, sites)[:, None]
        np.testing.assert_allclose(
            g.reshape(-1, S.n, d), direct, atol=1e-15
        )
        # and one fully hand-rolled entry
        xi = sites[3]
        for i, rho in enumerate(S.directions):
            expect = site_values(u, xi + rho) - site_values(u, xi)
            np.testing.assert_allclose(direct[3, i], expect, atol=1e-15)


# ---------------------------------------------------------------------------
# quadrature
# ---------------------------------------------------------------------------

def test_gauss_rule_polynomial_exactness():
    for q in (1, 2, 4, 6):
        x, w = gauss_rule_01(q)
        assert np.sum(w) == pytest.approx(1.0, abs=1e-14)
        for k in range(2 * q):
            assert np.sum(w * x**k) == pytest.approx(1.0 / (k + 1), abs=1e-13), (q, k)

