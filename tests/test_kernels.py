"""Gather-table stencil kernels against the ``np.roll`` reference.

``all_stencils``, ``gradient_array`` and the Hessian apply share one cached
neighbour plan per (cell shape, stencil directions).  The generic kernels
(stencils, scatter, EAM and harmonic gradients, every Hessian apply) are
compared with ``np.array_equal``: the plan must reproduce the reference's
floating-point operations in the same order.  The pair-potential gradient
visits each bond once on the positive half stencil, so it sums in another
order; it is compared to a relative 1e-13 of the largest entry, against the
roll reference and against the generic ``site_gradient`` + ``scatter_bonds``
path, which stays the oracle.  Its in-place evaluation is compared bit for
bit with the out-of-place reference in ``pair_reference.py``.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from latcb.lattice import StencilSet, all_stencils, neighbour_plan, scatter_bonds, stacked_plan
from latcb.potentials import (
    AdmissibilityError,
    EAMPotential,
    ExpProfile,
    HarmonicChain,
    MorseProfile,
    PairPotential,
    PolynomialEmbedding,
    PowerLawProfile,
    _sine_plan,
    _energies_and_gradient,
    gradient_array,
    hessian_operator,
    lennard_jones,
    total_energy,
)
from latcb.stress import _layout

from conftest import PAIR_LATTICES, PAIR_PROFILES
from pair_reference import reference_pair_gradient
from roll_kernels import roll_gradient, roll_hessian_operator, roll_scatter, roll_stencils

# widest extra direction per dimension: 1D stencils reach 8+ slots, where a
# sum over a contiguous slot axis would switch to pairwise summation
_REACH = {1: 5, 2: 2, 3: 1}


@st.composite
def stencils(draw, d: int) -> StencilSet:
    """Nearest neighbours plus up to four random extra directions, closed under negation."""
    m = _REACH[d]
    extra = draw(
        st.lists(
            st.tuples(*[st.integers(-m, m)] * d).filter(any), max_size=4
        )
    )
    dirs = {tuple(int(a == k) for a in range(d)) for k in range(d)} | set(extra)
    dirs |= {tuple(-x for x in r) for r in dirs}
    return StencilSet(np.array(sorted(dirs), dtype=int))


@st.composite
def cases(draw):
    """(stencil, cell period, rng) for a random dimension."""
    d = draw(st.sampled_from((1, 2, 3)))
    S = draw(stencils(d))
    N = draw(st.integers(4, 10))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return S, N, rng


def _state(rng, N: int, d: int) -> np.ndarray:
    """Small admissible state: |D_rho u| <= 0.08 sqrt(3) < 0.25 <= kappa |rho|."""
    return rng.uniform(-0.04, 0.04, (N,) * d + (d,))


def _potential(kind: str, S: StencilSet):
    d = S.d
    if kind == "pair":
        return PairPotential(d=d, A=np.eye(d), S=S, kappa=0.25, phi=lennard_jones())
    return EAMPotential(
        d=d, A=np.eye(d), S=S, kappa=0.25, phi=MorseProfile(), psi=ExpProfile(),
        embed=PolynomialEmbedding((0.0, 1.0, 0.3, -0.05)),
    )


@settings(max_examples=60, deadline=None)
@given(cases())
def test_all_stencils_and_scatter_match_roll(case):
    S, N, rng = case
    d = S.d
    u = rng.standard_normal((N,) * d + (d,))
    Vr = rng.standard_normal((N,) * d + (S.n, d))
    assert np.array_equal(all_stencils(u, S), roll_stencils(u, S))
    assert np.array_equal(scatter_bonds(Vr, S), roll_scatter(Vr, S))


@settings(max_examples=40, deadline=None)
@given(cases(), st.sampled_from(("pair", "eam")))
def test_gradient_and_hessian_match_roll(case, kind):
    S, N, rng = case
    P = _potential(kind, S)
    u = _state(rng, N, S.d)
    v = rng.standard_normal(u.shape)
    grad, ref = gradient_array(P, u), roll_gradient(P, u)
    if kind == "pair":
        assert np.max(np.abs(grad - ref)) <= _PAIR_RTOL * np.max(np.abs(ref))
    else:
        assert np.array_equal(grad, ref)
    assert np.array_equal(hessian_operator(P, u)(v), roll_hessian_operator(P, u)(v))


# the half-stencil pair kernel sums each site's bond forces in another order
_PAIR_RTOL = 1e-13

# even power laws beyond Lennard-Jones, for every branch of the Horner plan:
# a constant bond force term (power 2), a last power above 2 (powers of r^2)
# and a repeated power
_EVEN_POWER_LAWS = {
    "lj_plus_r2": PowerLawProfile(powers=(-12, -6, 2), coeffs=(1.0, -2.0, 0.3)),
    "r4": PowerLawProfile(powers=(-8, 4), coeffs=(1.0, 0.1)),
    "repeated": PowerLawProfile(powers=(-12, -12, -6), coeffs=(0.5, 0.5, -2.0)),
    "harmonic_bond": PowerLawProfile(powers=(2,), coeffs=(1.5,)),
}
_ALL_PROFILES = {**PAIR_PROFILES, **_EVEN_POWER_LAWS}


@settings(max_examples=60, deadline=None)
@given(cases(), st.sampled_from(sorted(_ALL_PROFILES)))
def test_pair_kernel_matches_reference_bit_for_bit(case, profile):
    """The in-place kernel keeps the reference's arithmetic, operation for operation."""
    S, N, rng = case
    P = PairPotential(d=S.d, A=np.eye(S.d), S=S, kappa=0.25, phi=_ALL_PROFILES[profile])
    u = _state(rng, N, S.d)
    assert np.array_equal(gradient_array(P, u), reference_pair_gradient(P, u))


@pytest.mark.parametrize("profile", sorted(_ALL_PROFILES))
def test_bond_terms_match_profile_derivatives(profile):
    """``_bond`` gives phi'(r)/r and phi''(r): Horner's rule agrees with the float powers."""
    phi = _ALL_PROFILES[profile]
    P = PairPotential(d=1, A=np.eye(1), S=StencilSet.ball(1, 2.0), kappa=0.25, phi=phi)
    r = np.linspace(0.75, 2.5, 36).reshape(4, 9)
    f, stiff = P._bond(r * r, stiffness=True)
    assert np.array_equal(P._bond(r * r), f)
    assert f.shape == stiff.shape == r.shape
    np.testing.assert_allclose(f, phi.deriv(r, 1) / r, rtol=1e-13, atol=1e-13)
    np.testing.assert_allclose(stiff, phi.deriv(r, 2), rtol=1e-13, atol=1e-13)


def _generic_gradient(P, u):
    """The generic kernel, kept as the oracle of the pair kernel."""
    g = all_stencils(u, P.S)
    P.check_admissible(g)
    return scatter_bonds(P.site_gradient(g), P.S)


@pytest.mark.parametrize("profile", sorted(PAIR_PROFILES))
@pytest.mark.parametrize("d, A, r_cut", PAIR_LATTICES)
def test_pair_kernel_matches_generic_path(rng, profile, d, A, r_cut):
    S = StencilSet.ball(d, r_cut)
    P = PairPotential(d=d, A=A, S=S, kappa=0.25, phi=PAIR_PROFILES[profile])
    N = {1: 64, 2: 12, 3: 6}[d]
    u = rng.uniform(-0.04, 0.04, (N,) * d + (d,))
    grad, ref = gradient_array(P, u), _generic_gradient(P, u)
    assert grad.shape == ref.shape == u.shape
    assert np.max(np.abs(ref)) > 0.0
    assert np.max(np.abs(grad - ref)) <= _PAIR_RTOL * np.max(np.abs(ref))


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("bad", ["nan", "above_kappa"])
def test_pair_kernel_admissibility_matches_generic(rng, d, bad):
    """The half-stencil check rejects what the full-stencil check rejects, in the same words."""
    P = PairPotential(d=d, A=np.eye(d), S=StencilSet.ball(d, 2.0), kappa=0.25, phi=lennard_jones())
    N = 8
    u = rng.uniform(-0.01, 0.01, (N,) * d + (d,))
    site = (3,) * d + (0,)
    u[site] = np.nan if bad == "nan" else 0.4
    with pytest.raises(AdmissibilityError) as generic:
        P.check_admissible(all_stencils(u, P.S))
    with pytest.raises(AdmissibilityError) as pair:
        gradient_array(P, u)
    assert str(pair.value) == str(generic.value)
    assert ("non-finite" if bad == "nan" else "exceeds kappa") in str(pair.value)


@settings(max_examples=40, deadline=None)
@given(cases(), st.lists(st.integers(4, 8), min_size=1, max_size=3),
       st.sampled_from(("pair", "eam", "harmonic")))
def test_stacked_cells_match_their_own_kernels_bit_for_bit(case, periods, kind):
    """Cells laid end to end with ``stacked_plan``: each cell's stencils, scatter,
    gradient and Hessian-apply rows are those of the kernels on the cell alone,
    and its site energies sum to the bits of its own ``total_energy``; the
    fused energies and gradient are those of the cell alone and of
    ``gradient_array``."""
    S, N, rng = case
    if kind == "harmonic":
        P, S, shapes = HarmonicChain.build(2.0, -0.25), StencilSet.ball(1, 2.0), [(N,)]
    else:
        P, shapes = _potential(kind, S), [(N,) * S.d]
    shapes += [(n,) * S.d for n in periods]
    d = S.d
    us = [_state(rng, shape[0], d) for shape in shapes]
    Vrs = [rng.standard_normal(shape + (S.n, d)) for shape in shapes]
    vs = [rng.standard_normal(u.shape) for u in us]
    plan = stacked_plan(shapes, S)
    rows = np.cumsum([0] + [u[..., 0].size for u in us])
    stacked = [np.concatenate([a.reshape(-1, *a.shape[d:]) for a in arrays])
               for arrays in (us, Vrs, vs)]
    energies, grad = _energies_and_gradient(P, stacked[0], plan)
    got = (all_stencils(stacked[0], S, plan), scatter_bonds(stacked[1], S, plan),
           gradient_array(P, stacked[0], plan), hessian_operator(P, stacked[0], plan)(stacked[2]),
           grad, energies)
    for i, (u, Vr, v) in enumerate(zip(us, Vrs, vs)):
        want = (all_stencils(u, S), scatter_bonds(Vr, S), gradient_array(P, u),
                hessian_operator(P, u)(v), *_energies_and_gradient(P, u)[::-1])
        for g, w in zip(got, want):
            assert g[rows[i]:rows[i + 1]].tobytes() == w.tobytes()
        energy = float(np.sum(energies[rows[i]:rows[i + 1]]))
        assert repr(energy) == repr(total_energy(P, u))


def test_stacked_plan_offsets_each_cell(rng):
    S = StencilSet.ball(1, 2.0)
    assert stacked_plan([(6,)], S) is neighbour_plan((6,), S)
    plan = stacked_plan([(6,), (4,)], S)
    for table, one, two, start in zip(plan, neighbour_plan((6,), S), neighbour_plan((4,), S),
                                      (6, 6 * S.n, 6)):
        assert not table.flags.writeable
        tail = table[6:] if table.shape[0] == 10 else table[:, 6:]
        head = table[:6] if table.shape[0] == 10 else table[:, :6]
        assert np.array_equal(head, one) and np.array_equal(tail, two + start)


@pytest.mark.parametrize("kind", ["pair", "eam"])
def test_stacked_admissibility_fails_when_one_cell_does(rng, kind):
    """The rule over stacked cells is the rule over each: one bad cell rejects all."""
    P = _potential(kind, StencilSet.ball(1, 2.0))
    u = [rng.uniform(-0.01, 0.01, (N, 1)) for N in (8, 6)]
    plan = stacked_plan([(8,), (6,)], P.S)
    gradient_array(P, np.concatenate(u), plan)
    u[1][2, 0] = 0.4
    with pytest.raises(AdmissibilityError) as alone:
        gradient_array(P, u[1])
    with pytest.raises(AdmissibilityError) as stacked:
        gradient_array(P, np.concatenate(u), plan)
    assert str(stacked.value) == str(alone.value)


@settings(max_examples=30, deadline=None)
@given(
    st.integers(4, 10),
    st.floats(-2.0, 2.0),
    st.floats(-1.0, 1.0),
    st.integers(0, 2**32 - 1),
)
def test_harmonic_chain_matches_roll(N, a1, a2, seed):
    P = HarmonicChain.build(a1, a2)
    rng = np.random.default_rng(seed)
    u = rng.standard_normal((N, 1))
    v = rng.standard_normal((N, 1))
    assert np.array_equal(gradient_array(P, u), roll_gradient(P, u))
    assert np.array_equal(hessian_operator(P, u)(v), roll_hessian_operator(P, u)(v))


def _stencil_tables(S: StencilSet) -> list:
    """Every table cached on the stencil alone."""
    return [neighbour_plan((4,) * S.d, S), _sine_plan(S), _layout(S)]


def test_stencils_of_equal_directions_share_every_table():
    """A stencil is its directions: balls of one direction set built from
    other radii compare and hash equal and get the same cached tables."""
    a, b = StencilSet.ball(1, 2.0), StencilSet.ball(1, 2.5)
    assert a is not b and a == b and hash(a) == hash(b)
    for one, two in zip(_stencil_tables(a), _stencil_tables(b)):
        assert one is two


def test_pickled_stencil_is_equal_and_hits_the_caches():
    """The copy a pool worker receives is the same stencil: equal, hash
    equal, read-only, and served the tables cached on the original."""
    S = StencilSet.ball(2, 1.5)
    tables = _stencil_tables(S)
    copy = pickle.loads(pickle.dumps(S))
    assert copy is not S and copy == S and hash(copy) == hash(S)
    assert not copy.directions.flags.writeable
    for one, two in zip(tables, _stencil_tables(copy)):
        assert one is two


def test_stencils_of_other_dimensions_differ():
    assert StencilSet.ball(1, 1.0) != StencilSet.ball(2, 1.0)


def test_plan_cache_separates_stencils_of_other_directions(rng):
    """A stencil is its directions: stencils of other directions compare
    unequal and get their own plans."""
    full = StencilSet.ball(1, 2.0)
    nearest = StencilSet(np.array([[-1], [1]]))
    assert full != nearest
    u = rng.standard_normal((8, 1))
    for S in (full, nearest, full):
        g = all_stencils(u, S)
        assert g.shape == (8, S.n, 1)
        assert np.array_equal(g, roll_stencils(u, S))
        assert np.array_equal(scatter_bonds(g, S), roll_scatter(g, S))

    # same slot count, different directions
    diag = StencilSet(np.array(
        [(1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (-1, -1), (1, -1), (-1, 1)]))
    axial = StencilSet(np.array(
        [(1, 0), (-1, 0), (0, 1), (0, -1), (2, 0), (-2, 0), (0, 2), (0, -2)]))
    assert diag != axial and diag.n == axial.n
    w = rng.standard_normal((6, 6, 2))
    for S in (diag, axial, diag):
        g = all_stencils(w, S)
        assert np.array_equal(g, roll_stencils(w, S))
        assert np.array_equal(scatter_bonds(g, S), roll_scatter(g, S))

    # same stencil, different cell shapes
    for N in (5, 9, 5):
        x = rng.standard_normal((N, 1))
        assert np.array_equal(all_stencils(x, full), roll_stencils(x, full))
