"""Cauchy-Born model and the localized atomistic stress field.

Oracles: finite differences for stress/moduli, honest quadrature for the
weak-form pairing, and the affine case where the atomistic field must
collapse onto the continuum stress exactly.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from latcb.fields import TrigField
from latcb.interpolation import chi_eval, grad_chi_eval
from latcb.lattice import (
    DisplacementField,
    LatticeSpec,
    StencilSet,
    all_stencils,
    gauss_rule_01,
    tensor_grid,
)
from latcb.potentials import (
    AdmissibilityError,
    HarmonicChain,
    PairPotential,
    gradient_array,
    lennard_jones,
)
from latcb import stress
from latcb.stress import (
    AffineDisplacement,
    CBModel,
    atomistic_stress,
    div_cb_stress,
    stress_consistency_field,
)

from conftest import (
    PAIR_LATTICES,
    PAIR_PROFILES,
    eam_chain,
    eam_square,
    lj_chain,
    lj_square,
    lj_triangular,
    random_displacement,
    site_coords,
)
from generic_cb import GenericCBModel
from hat_quadrature import zeta_convolve
from point_gap import trig_grad, trig_hess
from stress_directions import direction_div, direction_eval
from stress_loop import loop_div, loop_eval


def _restricted(U: TrigField, N: int) -> DisplacementField:
    """The sites' values u(xi) = N U(xi / N) of U viewed at the spacing 1/N."""
    return DisplacementField(LatticeSpec(d=U.d, A=np.eye(U.d), N=N), U.sample(N) * N)


def _random_F(rng, d, scale):
    """Random matrix with spectral norm at most scale (safely admissible)."""
    F = rng.standard_normal((d, d))
    return F * (scale / max(np.linalg.norm(F, 2), 1e-12))


# ---------------------------------------------------------------------------
# continuum model
# ---------------------------------------------------------------------------

def test_energy_density_reference_and_taylor():
    P = lj_chain(r_cut=1.0)  # nearest neighbours only
    M = CBModel(P)
    assert M.energy_density(np.zeros((1, 1))) == pytest.approx(0.0, abs=1e-15)
    # W(F) = phi(1 + F) - phi(1) for the NN chain: curvature phi''(1) = 72
    F = np.array([[1e-4]])
    assert M.energy_density(F) == pytest.approx(0.5 * 72.0 * 1e-8, rel=1e-2)
    assert M.moduli(np.zeros((1, 1)))[0, 0, 0, 0] == pytest.approx(72.0, rel=1e-12)
    assert M.stress(np.zeros((1, 1)))[0, 0] == pytest.approx(0.0, abs=1e-13)


def test_harmonic_chain_cb_closed_form(rng):
    a1, a2 = 2.0, -0.25
    M = CBModel(HarmonicChain.build(a1=a1, a2=a2))
    gamma = a1 + 4.0 * a2
    for F in rng.uniform(-0.5, 0.5, size=6):
        Fm = np.array([[F]])
        assert M.energy_density(Fm) == pytest.approx(0.5 * gamma * F * F, rel=1e-13)
        assert M.stress(Fm)[0, 0] == pytest.approx(gamma * F, rel=1e-13, abs=1e-15)
        assert M.moduli(Fm)[0, 0, 0, 0] == pytest.approx(gamma, rel=1e-13)


def test_cb_stress_matches_fd_of_energy(rng):
    h = 1e-6
    for P in (lj_chain(), lj_square()):
        M = CBModel(P)
        d = P.d
        F = _random_F(rng, d, 0.1)
        S = M.stress(F)
        for i in range(d):
            for a in range(d):
                Fp, Fm = F.copy(), F.copy()
                Fp[i, a] += h
                Fm[i, a] -= h
                fd = (M.energy_density(Fp) - M.energy_density(Fm)) / (2 * h)
                assert S[i, a] == pytest.approx(float(fd), rel=1e-6, abs=1e-7)


def test_cb_moduli_matches_fd_of_stress(rng):
    h = 1e-6
    for P in (lj_chain(), lj_square()):
        M = CBModel(P)
        d = P.d
        F = _random_F(rng, d, 0.1)
        C = M.moduli(F)
        # minor symmetry in the two (component, axis) pairs
        assert np.allclose(C, np.transpose(C, (2, 3, 0, 1)), atol=1e-9)
        for j in range(d):
            for b in range(d):
                Fp, Fm = F.copy(), F.copy()
                Fp[j, b] += h
                Fm[j, b] -= h
                fd = (M.stress(Fp) - M.stress(Fm)) / (2 * h)
                assert np.max(np.abs(C[:, :, j, b] - fd)) < 1e-4


@pytest.mark.parametrize("batch", [(), (5,), (3, 4)])
@pytest.mark.parametrize("profile", sorted(PAIR_PROFILES))
@pytest.mark.parametrize("d, A, r_cut", PAIR_LATTICES)
def test_pair_cb_path_matches_generic_contraction(rng, profile, d, A, r_cut, batch, monkeypatch):
    """Half-stencil energy, stress and moduli against the full-stencil site derivatives."""
    P = PairPotential(d=d, A=A, S=StencilSet.ball(d, r_cut), kappa=0.25,
                      phi=PAIR_PROFILES[profile])
    F = rng.standard_normal(batch + (d, d))
    # spectral norms spread over (0, 0.8 kappa]: |F rho| / |rho| <= ||F|| stays admissible
    scale = 0.8 * P.kappa * rng.uniform(0.05, 1.0, batch) / np.linalg.norm(F, 2, axis=(-2, -1))
    F *= np.asarray(scale)[..., None, None]
    M, oracle = CBModel(P), GenericCBModel(P)
    assert M._half is not None and oracle._half is None

    def no_site_derivatives(self, g):
        raise AssertionError("the pair path evaluated site derivatives")

    for name in ("energy_density", "stress", "moduli"):
        ref = getattr(oracle, name)(F)
        with monkeypatch.context() as m:
            for method in ("site_energy", "site_gradient", "site_hessian"):
                m.setattr(type(P), method, no_site_derivatives)
            got = getattr(M, name)(F)
        assert got.shape == ref.shape == batch + {"energy_density": (), "stress": (d, d),
                                                   "moduli": (d, d, d, d)}[name]
        assert np.max(np.abs(ref)) > 0.0
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref)), name


def _bad_F(P, bad):
    """A gradient whose stencil leaves the admissible region, or a NaN one."""
    F = np.zeros((3, P.d, P.d))
    F[1] = np.nan if bad == "nan" else 2.0 * P.kappa * np.eye(P.d)
    return F


_TANGENT_MODELS = {
    "lj_chain": lambda: CBModel(lj_chain()),
    "lj_square": lambda: CBModel(lj_square()),
    "lj_triangular": lambda: CBModel(lj_triangular()),
    "eam_chain": lambda: CBModel(eam_chain()),
    "eam_square": lambda: CBModel(eam_square()),
    "generic_lj_chain": lambda: GenericCBModel(lj_chain()),
    "generic_lj_triangular": lambda: GenericCBModel(lj_triangular()),
}


@pytest.mark.parametrize("batch", [(), (7,), (3, 4)])
@pytest.mark.parametrize("model", sorted(_TANGENT_MODELS))
def test_tangent_is_stress_and_moduli_bit_for_bit(rng, model, batch):
    """One bond pass gives the bits of ``stress`` and ``moduli`` called apart,
    and rejects an inadmissible gradient in their words."""
    M = _TANGENT_MODELS[model]()
    d = M.P.d
    F = rng.standard_normal(batch + (d, d))
    scale = 0.8 * M.P.kappa * rng.uniform(0.05, 1.0, batch) / np.linalg.norm(F, 2, axis=(-2, -1))
    F *= np.asarray(scale)[..., None, None]
    S, C = M._tangent(F)
    assert S.shape == batch + (d, d) and C.shape == batch + (d, d, d, d)
    assert np.array_equal(S, M.stress(F)) and np.array_equal(C, M.moduli(F))
    for bad in ("beyond", "nan"):
        F = _bad_F(M.P, bad)
        with pytest.raises(AdmissibilityError) as want:
            M.moduli(F)
        with pytest.raises(AdmissibilityError, match="Cauchy-Born gradient") as got:
            M._tangent(F)
        assert str(got.value) == str(want.value)


@pytest.mark.parametrize("bad", ["beyond", "nan"])
@pytest.mark.parametrize("make", [lj_chain, lj_square, lj_triangular])
def test_cb_model_rejects_inadmissible_gradients(make, bad):
    """Every CBModel method, and the divergence built on it, checks its gradients;
    the pair path's half-stencil check words its rejection as the generic one does."""
    P = make()
    M, F = CBModel(P), _bad_F(P, bad)
    H2 = np.zeros(F.shape + (P.d,))
    text = "non-finite" if bad == "nan" else "exceeds kappa"
    with pytest.raises(AdmissibilityError) as generic:
        GenericCBModel(P).stress(F)
    for call in (M.energy_density, M.stress, M.moduli, lambda F: div_cb_stress(M, F, H2)):
        with pytest.raises(AdmissibilityError, match=f"{text}.*Cauchy-Born gradient") as info:
            call(F)
        assert str(info.value) == str(generic.value)


@pytest.mark.parametrize("bad", ["beyond", "nan"])
@pytest.mark.parametrize("make", [lj_chain, lj_square])
def test_stress_consistency_rejects_inadmissible_fields(make, bad):
    P = make()
    amp = np.nan if bad == "nan" else 2.0 * P.kappa / (2.0 * np.pi)
    U = TrigField.from_terms(P.d, P.d, [((1,) * P.d, 0, "sin", amp)])
    with pytest.raises(AdmissibilityError, match=r"\(lattice displacement of period N=8\)$"):
        stress_consistency_field(CBModel(P), U, 1.0 / 8.0)


# ---------------------------------------------------------------------------
# affine exactness of the atomistic stress
# ---------------------------------------------------------------------------

def test_affine_states_reproduce_cb_stress(rng):
    for P in (lj_chain(), lj_square()):
        M = CBModel(P)
        d = P.d
        for _ in range(10):
            F = _random_F(rng, d, 0.9 * P.kappa)
            field = atomistic_stress(P, AffineDisplacement(F))
            x = rng.uniform(-2.0, 2.0, size=(4, d))
            Sa = field.eval(x)
            Sc = M.stress(F)
            assert np.max(np.abs(Sa - Sc)) < 1e-12
            assert np.max(np.abs(field.div(x))) < 1e-12


def test_atomistic_stress_rejects_other_displacement_providers():
    with pytest.raises(TypeError, match="^unsupported displacement provider: <class 'object'>$"):
        atomistic_stress(lj_chain(), object())


def test_reference_stress_values():
    # the NN chain reference is stress-free; the truncated r_cut=3 chain
    # carries the residual sum_{rho>0} rho phi'(rho) of the cut-off tails
    phi = lennard_jones()
    assert CBModel(lj_chain(r_cut=1.0)).stress(np.zeros((1, 1)))[0, 0] == pytest.approx(
        0.0, abs=1e-14
    )
    resid = sum(r * float(phi.deriv(np.array([float(r)]), 1)[0]) for r in (1, 2, 3))
    S0 = CBModel(lj_chain()).stress(np.zeros((1, 1)))[0, 0]
    assert S0 == pytest.approx(resid, rel=1e-12)
    field = atomistic_stress(
        lj_chain(), AffineDisplacement(np.zeros((1, 1)))
    )
    assert field.eval(np.array([0.37]))[0, 0] == pytest.approx(resid, rel=1e-12)


# ---------------------------------------------------------------------------
# batched field against the per-point loop
# ---------------------------------------------------------------------------

_POTENTIALS = {"lj_chain": lj_chain, "lj_square": lj_square, "eam_square": eam_square}


@st.composite
def stress_cases(draw):
    """(field, points): a periodic or affine field and points, some on cell boundaries."""
    P = _POTENTIALS[draw(st.sampled_from(sorted(_POTENTIALS)))]()
    d = P.d
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        F = rng.standard_normal((d, d))
        u = AffineDisplacement(F * (0.9 * P.kappa / np.linalg.norm(F, 2)))
    else:
        mode = tuple(int(m) for m in rng.integers(-2, 3, size=d))
        terms = [((1,) * d, 0, "cos", 0.01), (mode if any(mode) else (2,) * d, d - 1, "sin", 0.01)]
        u = _restricted(TrigField.from_terms(d, d, terms), 8)
    n = draw(st.integers(1, 24))
    pts = rng.uniform(-9.0, 17.0, size=(n, d))
    # snap some coordinates onto cell boundaries (integers)
    snap = rng.random((n, d)) < draw(st.sampled_from((0.0, 0.3, 1.0)))
    pts[snap] = np.round(pts[snap])
    return atomistic_stress(P, u), pts


@settings(max_examples=30, deadline=None)
@given(stress_cases())
def test_batched_stress_matches_point_loop(case):
    """Batched eval/div against the per-point loop of ``tests/stress_loop.py``.

    Off the cell boundaries the fixed window holds the same sites in the
    same order as ``chi_window``, so the results are bit-identical.  At an
    integer coordinate the fixed window leaves out sites of zero weight,
    which may regroup a reduction: there the gap is held to 1e-14 of the
    largest bond gradient.
    """
    field, pts = case
    scale = 1e-14 * float(np.max(np.abs(field.table)))
    on_boundary = (pts == np.round(pts)).any(axis=1)
    for batched, loop in ((field.eval(pts), loop_eval(field, pts)),
                          (field.div(pts), loop_div(field, pts))):
        assert np.array_equal(batched[~on_boundary], loop[~on_boundary])
        assert np.max(np.abs(batched - loop), initial=0.0) <= scale


def test_batched_stress_shapes():
    P = lj_square()
    field = atomistic_stress(P, AffineDisplacement(np.zeros((2, 2))))
    assert field.table.shape == (1, 1, P.S.n, 2)  # an affine map is a one-cell table
    U = TrigField.from_terms(2, 2, [((1, 0), 0, "sin", 0.01)])
    assert atomistic_stress(P, _restricted(U, 8)).table.shape == (8, 8, P.S.n, 2)
    assert field.eval(np.array([0.3, 0.7])).shape == (2, 2)
    assert field.eval(np.zeros((3, 4, 2)) + 0.5).shape == (3, 4, 2, 2)
    assert field.div(np.zeros((3, 4, 2)) + 0.5).shape == (3, 4, 2)


def _staggered_grid(d, n_cells, n_per_cell, shift=0.0):
    """The comparison grid of ``stress_consistency_field`` over ``n_cells`` cells
    per axis, its cell indices moved by ``shift``."""
    offsets = (np.arange(n_per_cell) + 0.5) / n_per_cell
    axis = np.add.outer(np.arange(n_cells, dtype=float) + shift, offsets).ravel()
    return tensor_grid([axis] * d)


@pytest.mark.parametrize("shift", [0.0, -7.0, -2.0**20, 2.0**30])
@pytest.mark.parametrize("n_per_cell", [3, 4, 5])
@pytest.mark.parametrize("make", [lj_chain, lj_square, lj_triangular])
def test_staggered_grid_stress_matches_point_loop(make, n_per_cell, shift):
    """On the staggered grid every cell position repeats in every cell, so each
    block shares one kernel row per position among its points; the result is
    still bit-identical to the per-point loop, far from the origin too."""
    P = make()
    d = P.d
    U = TrigField.from_terms(d, d, [((1,) * d, 0, "cos", 0.01), ((2,) * d, d - 1, "sin", 0.01)])
    field = atomistic_stress(P, _restricted(U, 8))
    pts = _staggered_grid(d, 9 if d == 1 else 2, n_per_cell, shift)
    assert np.array_equal(field.eval(pts), loop_eval(field, pts))
    assert np.array_equal(field.div(pts), loop_div(field, pts))


@pytest.mark.parametrize("make", [lj_chain, lj_square])
def test_stress_just_below_zero_matches_point_loop(make, rng):
    """Points in (-1/2, 0): ``x - floor(x)`` rounds there, ``x - trunc(x)`` does
    not, so the shared kernels keep the bits of the per-point loop."""
    P = make()
    d = P.d
    U = TrigField.from_terms(d, d, [((1,) * d, 0, "cos", 0.01)])
    field = atomistic_stress(P, _restricted(U, 8))
    pts = np.concatenate([rng.uniform(-0.5, 0.0, size=(20, d)), np.full((1, d), -1e-20)])
    assert np.array_equal(field.eval(pts), loop_eval(field, pts))
    assert np.array_equal(field.div(pts), loop_div(field, pts))


_SIZING_FIELDS = {"lj_chain": lj_chain, "lj_square": lj_square, "lj_triangular": lj_triangular,
                  "eam_square": eam_square, "eam_chain": eam_chain}


@pytest.mark.parametrize("block", [None, 7])
@pytest.mark.parametrize("kind", ["periodic", "affine"])
@pytest.mark.parametrize("name", sorted(_SIZING_FIELDS))
def test_grouped_stress_matches_per_direction_reference(name, kind, block, rng, monkeypatch):
    """One kernel call per direction group and one gather per block give the
    bits of the per-direction batches of ``tests/stress_directions.py``, on
    random points with integer coordinates among them, in one block or in
    blocks of 7 points."""
    P = _SIZING_FIELDS[name]()
    d = P.d
    if kind == "affine":
        F = rng.standard_normal((d, d))
        u = AffineDisplacement(F * (0.9 * P.kappa / np.linalg.norm(F, 2)))
    else:
        U = TrigField.from_terms(d, d, [((1,) * d, 0, "cos", 0.01), ((2,) * d, d - 1, "sin", 0.01)])
        u = _restricted(U, 8)
    field = atomistic_stress(P, u)
    pts = rng.uniform(-9.0, 17.0, size=(300, d))
    snap = rng.random(pts.shape) < 0.3
    pts[snap] = np.round(pts[snap])
    pts = np.concatenate([pts, _staggered_grid(d, 3, 4)])
    if block is not None:
        monkeypatch.setattr(stress, "_BLOCK", block)
    assert np.array_equal(field.eval(pts), direction_eval(field, pts))
    assert np.array_equal(field.div(pts), direction_div(field, pts))


def _counted(monkeypatch, kernel, calls):
    """Replace ``kernel`` in ``latcb.stress`` by a pass-through that records
    each call's (cell positions, window sites)."""

    def counted(xi, rho, x):
        calls.append(xi.shape[:2])
        return kernel(xi, rho, x)

    monkeypatch.setattr(f"latcb.stress.{kernel.__name__}", counted)


def _group_windows(P) -> list:
    """Window sites of each group of directions that move along the same axes,
    groups in the order of their first direction."""
    sizes: dict = {}
    for rho in P.S.directions:
        key = tuple(rho != 0)
        sizes[key] = sizes.get(key, 0) + int(np.prod(2 + np.abs(rho)))
    return list(sizes.values())


@pytest.mark.parametrize("make", [lj_chain, lj_square])
def test_stress_kernels_run_once_per_cell_position(make, rng, monkeypatch):
    """64 cells with 4 points each share 4 cell positions per axis; random
    points share none.  Each group of directions that move along the same
    axes (1 in 1D, 3 on the square) is one call over the group's windows at
    every cell position."""
    P = make()
    d = P.d
    U = TrigField.from_terms(d, d, [((1,) * d, 0, "sin", 0.01)])
    field = atomistic_stress(P, _restricted(U, 8))
    grid = _staggered_grid(d, 64 if d == 1 else 8, 4)
    scattered = rng.uniform(-9.0, 17.0, size=(50, d))
    windows = _group_windows(P)
    assert len(windows) == (1 if d == 1 else 3)
    for pts, positions in ((grid, 4**d), (scattered, 50)):
        ref = field.eval(pts), field.div(pts)
        eval_calls, div_calls = [], []
        with monkeypatch.context() as m:
            _counted(m, chi_eval, eval_calls)
            _counted(m, grad_chi_eval, div_calls)
            S, div = field.eval(pts), field.div(pts)
        assert eval_calls == div_calls == [(positions, k) for k in windows]
        assert np.array_equal(S, ref[0]) and np.array_equal(div, ref[1])


def test_stress_kernel_calls_hold_at_most_a_block_of_the_widest_window(rng, monkeypatch):
    """5,000 random points on the LJ square: the 4,096 distinct positions of
    the first block are split so that no call exceeds ``_BLOCK`` times the
    widest window of one direction, the largest per-direction call."""
    P = lj_square()
    field = atomistic_stress(P, AffineDisplacement(np.zeros((2, 2))))
    widest = max(int(np.prod(2 + np.abs(rho))) for rho in P.S.directions)
    pts = rng.uniform(-9.0, 17.0, size=(5000, 2))
    for method, kernel in (("eval", chi_eval), ("div", grad_chi_eval)):
        calls = []
        with monkeypatch.context() as m:
            _counted(m, kernel, calls)
            getattr(field, method)(pts)
        rows = [positions * sites for positions, sites in calls]
        assert max(rows) <= stress._BLOCK * widest
        assert sum(positions for positions, _ in calls) == 5000 * len(_group_windows(P))


@pytest.mark.parametrize("shape", [(), (3, 2), (4, 1, 3), (0,)])
@pytest.mark.parametrize("method", ["eval", "div"])
def test_stress_field_rejects_points_of_another_dimension(method, shape, monkeypatch):
    """Points whose last axis is not of length d raise before any kernel runs,
    naming the expected axis (the chain has d = 1)."""
    field = atomistic_stress(lj_chain(), AffineDisplacement(np.zeros((1, 1))))

    def no_kernel(*args):
        raise AssertionError("a kernel ran on points of another dimension")

    monkeypatch.setattr("latcb.stress.chi_eval", no_kernel)
    monkeypatch.setattr("latcb.stress.grad_chi_eval", no_kernel)
    with pytest.raises(ValueError, match=r"last axis of length d = 1, got shape"):
        getattr(field, method)(np.full(shape, 0.5))


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
@pytest.mark.parametrize("method", ["eval", "div"])
@pytest.mark.parametrize("make", [lj_chain, lj_square])
def test_stress_field_rejects_non_finite_points(make, method, bad, monkeypatch):
    """A non-finite point raises before any kernel runs, naming its row and value."""
    P = make()
    d = P.d
    field = atomistic_stress(P, AffineDisplacement(np.zeros((d, d))))
    pts = np.full((2, 3, d), 0.5)
    pts[1, 0, d - 1] = bad
    pts[1, 2, 0] = bad  # a later row is not the one named

    def no_kernel(*args):
        raise AssertionError("a kernel ran on non-finite points")

    monkeypatch.setattr("latcb.stress.chi_eval", no_kernel)
    monkeypatch.setattr("latcb.stress.grad_chi_eval", no_kernel)
    value = [0.5] * (d - 1) + [float(bad)]
    with pytest.raises(ValueError, match="must be finite") as info:
        getattr(field, method)(pts)
    assert str(info.value).endswith(f"row 3 is {value}")


@pytest.mark.parametrize("x", [3.0 * 2.0**63, 2.0**52, -(2.0**52)])
@pytest.mark.parametrize("method", ["eval", "div"])
@pytest.mark.parametrize("make", [lj_chain, lj_square])
def test_stress_field_rejects_points_beyond_a_cell_position(make, method, x, monkeypatch):
    """From 2**52 on a double holds no position inside a cell (and from 2**63
    on the window bases would overflow): such a point raises, naming its row."""
    P = make()
    d = P.d
    field = atomistic_stress(P, AffineDisplacement(np.zeros((d, d))))
    pts = np.full((4, d), 0.5)
    pts[3, d - 1] = x

    def no_kernel(*args):
        raise AssertionError("a kernel ran on an out-of-range point")

    monkeypatch.setattr("latcb.stress.chi_eval", no_kernel)
    monkeypatch.setattr("latcb.stress.grad_chi_eval", no_kernel)
    with pytest.raises(ValueError, match="below 2\\*\\*52 in magnitude") as info:
        getattr(field, method)(pts)
    assert str(info.value).endswith(f"row 3 is {[0.5] * (d - 1) + [x]}")


@pytest.mark.parametrize("make", [lj_chain, lj_square])
def test_stress_field_largest_points_match_their_periodic_image(make, rng):
    """2**52 - 1 is the largest integer point kept; on a period-6 field it is
    the image of 3.0, and eval and div there have the image's bits."""
    P = make()
    d = P.d
    field = atomistic_stress(P, random_displacement(LatticeSpec(d=d, A=np.eye(d), N=6), rng))
    far = np.full((2, d), 2.0**52 - 1)
    far[1, 0] = 0.5
    near = np.full((2, d), 3.0)
    near[1, 0] = 0.5
    for method in ("eval", "div"):
        got, want = getattr(field, method)(far), getattr(field, method)(near)
        assert np.max(np.abs(want)) > 0.0
        assert np.array_equal(got, want), method


# ---------------------------------------------------------------------------
# weak-form pairing
# ---------------------------------------------------------------------------

def _trig_velocity(rng, d, n_modes=3):
    terms = []
    for _ in range(n_modes):
        mode = tuple(int(v) for v in rng.integers(-2, 3, size=d))
        if not any(mode):
            mode = (1,) * d
        terms.append(
            (mode, int(rng.integers(0, d)), "sin" if rng.integers(0, 2) else "cos",
             float(rng.uniform(-1.0, 1.0)))
        )
    return TrigField.from_terms(d, d, terms)


def weak_form_mismatch(P, u, Vf, q_t=12, q_conv=8):
    """Relative gap between int S^a : grad v dx and <dE(u), zeta * v>.

    The left side integrates the bond decomposition of the stress with an
    outer Gauss rule along each bond and the hat convolution inside; the
    right side pairs the assembled energy gradient with the smeared test
    field.  ``Vf`` is a unit-torus field, viewed at the supercell scale.
    """
    lattice = u.lattice
    N, d = lattice.N, lattice.d

    def v_fn(x):
        return Vf.eval(np.asarray(x) / N)

    sites = site_coords(lattice).astype(float)
    Phi = P.site_gradient(all_stencils(u.values, P.S)).reshape(-1, P.S.n, d)
    tg, tw = gauss_rule_01(q_t)
    lhs = 0.0
    for slot, rho in enumerate(P.S.directions):
        rho_f = rho.astype(float)

        def dv_fn(x, rho_f=rho_f):
            return (trig_grad(Vf, np.asarray(x) / N) @ rho_f) / N

        line = sites[:, None, :] + tg[None, :, None] * rho_f
        inner = zeta_convolve(dv_fn, line.reshape(-1, d), n_components=d, q=q_conv)
        I_slot = (inner.reshape(-1, q_t, d) * tw[None, :, None]).sum(axis=1)
        lhs += float(np.sum(Phi[:, slot, :] * I_slot))
    smeared = zeta_convolve(v_fn, sites, n_components=d, q=q_conv)
    rhs = float(np.sum(gradient_array(P, u.values).reshape(-1, d) * smeared))
    return abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-12)


def test_weak_form_identity(rng):
    for P, N in ((lj_chain(), 8), (lj_square(), 6)):
        lattice = LatticeSpec(d=P.d, A=P.A, N=N)
        for _ in range(4):
            u = random_displacement(lattice, rng, scale=0.02)
            Vf = _trig_velocity(rng, P.d)
            assert weak_form_mismatch(P, u, Vf) < 1e-8


def test_weak_form_direct_grid_quadrature(rng):
    """1D cross-check integrating the assembled field itself.

    The stress is piecewise polynomial between integer knots, so Gauss per
    unit interval is exact; this exercises StressField.eval rather than the
    bond decomposition.
    """
    P = lj_chain()
    N = 8
    lattice = LatticeSpec(d=1, A=np.eye(1), N=N)
    u = random_displacement(lattice, rng, scale=0.02)
    Vf = _trig_velocity(rng, 1)
    field = atomistic_stress(P, u)
    xg, xw = gauss_rule_01(10)
    pts = (np.arange(N)[:, None] + xg[None, :]).reshape(-1, 1)
    Sa = field.eval(pts)[:, 0, 0]
    dv = trig_grad(Vf, pts / N)[:, 0, 0] / N
    lhs = float(np.sum(np.tile(xw, N) * Sa * dv))
    sites = site_coords(lattice).astype(float)
    smeared = zeta_convolve(lambda x: Vf.eval(np.asarray(x) / N), sites, n_components=1)
    rhs = float(np.sum(gradient_array(P, u.values).reshape(-1, 1) * smeared))
    assert abs(lhs - rhs) / max(abs(lhs), abs(rhs)) < 1e-10


# ---------------------------------------------------------------------------
# divergences
# ---------------------------------------------------------------------------

def test_div_atomistic_matches_fd_of_eval(rng):
    h = 1e-5
    for P, N in ((lj_chain(), 8), (lj_square(), 6)):
        d = P.d
        lattice = LatticeSpec(d=d, A=P.A, N=N)
        u = random_displacement(lattice, rng, scale=0.02)
        field = atomistic_stress(P, u)
        pts = rng.uniform(0.1, N - 0.1, size=(6, d))
        div = field.div(pts)
        fd = np.zeros_like(div)
        for a in range(d):
            e = np.zeros(d)
            e[a] = h
            fd += (field.eval(pts + e)[..., a] - field.eval(pts - e)[..., a]) / (2 * h)
        assert np.max(np.abs(div - fd)) < 5e-4, P.variant


def test_div_cb_matches_fd_of_stress(rng):
    h = 1e-6
    for P in (lj_chain(), lj_square()):
        d = P.d
        M = CBModel(P)
        terms = []
        for _ in range(2):
            mode = tuple(int(v) for v in rng.integers(-2, 3, size=d)) or (1,) * d
            if not any(mode):
                mode = (1,) * d
            terms.append((mode, int(rng.integers(0, d)), "sin", 0.003))
        U = TrigField.from_terms(d, d, terms)
        eps = 1.0 / 8.0
        pts = rng.uniform(0.0, 8.0, size=(5, d))
        div = div_cb_stress(M, trig_grad(U, eps * pts), eps * trig_hess(U, eps * pts))
        fd = np.zeros_like(div)
        for a in range(d):
            e = np.zeros(d)
            e[a] = h
            Sp = M.stress(trig_grad(U, eps * (pts + e)))
            Sm = M.stress(trig_grad(U, eps * (pts - e)))
            fd += (Sp[..., a] - Sm[..., a]) / (2 * h)
        assert np.max(np.abs(div - fd)) < 1e-5


# ---------------------------------------------------------------------------
# consistency experiment plumbing
# ---------------------------------------------------------------------------

def _div_cb_slots(M, F, H2):
    """Divergence of the Cauchy-Born stress contracted slot by slot.

    The former ``div_cb_stress``: site Hessian blocks ``(V_{rho sigma})_{ij}``
    against ``rho . (hess u_j) . sigma`` for every pair of stencil slots.
    """
    d = M.P.d
    blocks = M.P.site_hessian(M.homogeneous_stencil(F.reshape(-1, d, d)))
    dirs = M.P.S.directions.astype(float)
    t = np.einsum("ap,kjpq,bq->kabj", dirs, H2.reshape(-1, d, d, d), dirs)
    return np.einsum("kaibj,kabj->ki", blocks, t).reshape(F.shape[:-1])


@pytest.mark.parametrize("name", sorted(_POTENTIALS))
def test_div_cb_stress_matches_slot_contraction(rng, name):
    P = _POTENTIALS[name]()
    M, d = CBModel(P), P.d
    F = np.stack([_random_F(rng, d, 0.2) for _ in range(12)]).reshape(3, 4, d, d)
    H2 = rng.standard_normal((3, 4, d, d, d))
    H2 = 0.5 * (H2 + np.swapaxes(H2, -1, -2))  # second derivatives are symmetric
    div, ref = div_cb_stress(M, F, H2), _div_cb_slots(M, F, H2)
    assert div.shape == (3, 4, d)
    assert np.max(np.abs(div - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_stress_consistency_field_decay(rng):
    M = CBModel(lj_chain())
    U = TrigField.from_terms(1, 1, [((1,), 0, "sin", 0.05 / (2.0 * np.pi))])
    r8 = stress_consistency_field(M, U, 1.0 / 8.0)
    r16 = stress_consistency_field(M, U, 1.0 / 16.0)
    assert r8["err_stress"] > 0.0 and r16["err_stress"] > 0.0
    assert r8["err_stress"] / r16["err_stress"] > 3.0  # second-order decay
    assert r8["err_div"] / r16["err_div"] > 3.0
    assert r8["n_points"] == 8 * 4


def test_stress_consistency_field_decay_2d():
    """Second-order stress and divergence gaps on the LJ square crystal."""
    M = CBModel(lj_square())
    U = TrigField.from_terms(2, 2, [((1, 0), 0, "sin", 0.005), ((0, 1), 1, "cos", 0.005)])
    r16 = stress_consistency_field(M, U, 1.0 / 16.0)
    r32 = stress_consistency_field(M, U, 1.0 / 32.0)
    for key in ("err_stress", "err_div"):
        assert 1.8 <= np.log2(r16[key] / r32[key]) <= 2.2, key


@pytest.mark.parametrize("P, terms", [
    (lj_chain(), [((1,), 0, "sin", 0.008)]),
    (lj_square(), [((1, 0), 0, "sin", 0.004), ((1, 2), 1, "cos", 0.003)]),
])
def test_stress_consistency_grid_matches_point_evaluation(P, terms):
    """The staggered sample grid gives the gaps of point-wise ``TrigField.eval``."""
    M, U, eps, n_per_cell = CBModel(P), TrigField.from_terms(P.d, P.d, terms), 1.0 / 8.0, 2
    rep = stress_consistency_field(M, U, eps, n_per_cell=n_per_cell)
    axis = (np.arange(8 * n_per_cell) + 0.5) / n_per_cell
    pts = tensor_grid([axis] * P.d)
    field = atomistic_stress(P, _restricted(U, 8))
    F, H2 = trig_grad(U, eps * pts), eps * trig_hess(U, eps * pts)
    err_stress = np.max(np.abs(field.eval(pts) - M.stress(F)))
    err_div = np.max(np.abs(field.div(pts) - div_cb_stress(M, F, H2))) / eps
    assert rep["n_points"] == pts.shape[0]
    assert rep["err_stress"] == pytest.approx(err_stress, rel=1e-12)
    assert rep["err_div"] == pytest.approx(err_div, rel=1e-12)
