"""Site potentials: profiles, energies, analytic derivatives vs finite
differences, admissibility, and assembly operators.

The finite-difference checks are the primary oracle: every analytic
gradient/Hessian path (per-site and assembled) is compared against central
differences of the level below it, for every potential variant.
"""

from __future__ import annotations

import dataclasses
import math
import pickle

import numpy as np
import pytest

from latcb.lattice import DisplacementField, LatticeSpec, StencilSet, all_stencils
from latcb.potentials import (
    AdmissibilityError,
    EAMPotential,
    ExpProfile,
    HarmonicChain,
    MorseProfile,
    PairPotential,
    PolynomialEmbedding,
    PowerLawProfile,
    gradient_array,
    hessian_operator,
    lennard_jones,
    potential_from_config,
    total_energy,
)
from latcb.stability import dynamical_symbol
from latcb.stress import CBModel

from conftest import (
    eam_chain,
    eam_square,
    index_of,
    lj_chain,
    lj_square,
    lj_triangular,
    morse_chain,
    random_displacement,
)


def _variants():
    return [
        ("lj_chain", lj_chain()),
        ("lj_square", lj_square()),
        ("morse_chain", morse_chain()),
        ("eam_chain", eam_chain()),
        ("eam_square", eam_square()),
        ("harmonic", HarmonicChain.build(a1=2.0, a2=-0.25)),
    ]


# ---------------------------------------------------------------------------
# radial profiles
# ---------------------------------------------------------------------------

def test_lennard_jones_well():
    phi = lennard_jones()
    assert phi.deriv(np.array([1.0]), 0)[0] == pytest.approx(-1.0, abs=1e-14)
    assert phi.deriv(np.array([1.0]), 1)[0] == pytest.approx(0.0, abs=1e-12)
    assert phi.deriv(np.array([1.0]), 2)[0] == pytest.approx(72.0, rel=1e-13)
    # r^-12 - 2 r^-6 at r = 2
    assert phi.deriv(np.array([2.0]), 0)[0] == pytest.approx(2.0**-12 - 2.0 * 2.0**-6, rel=1e-14)


def test_morse_well():
    phi = MorseProfile(well_depth=1.3, stiffness=2.5, r0=1.1)
    assert phi.deriv(np.array([1.1]), 0)[0] == pytest.approx(-1.3, abs=1e-13)
    assert phi.deriv(np.array([1.1]), 1)[0] == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize(
    "profile",
    [
        lennard_jones(),
        PowerLawProfile(powers=(-8, -4), coeffs=(1.0, -2.0)),
        MorseProfile(),
        ExpProfile(),
    ],
    ids=["lj", "power", "morse", "exp"],
)
def test_profile_derivatives_match_fd(profile):
    r = np.linspace(0.8, 2.5, 9)
    h = 1e-6
    for order in (1, 2, 3):
        fd = (profile.deriv(r + h, order - 1) - profile.deriv(r - h, order - 1)) / (2 * h)
        got = profile.deriv(r, order)
        assert np.max(np.abs(got - fd) / (1.0 + np.abs(fd))) < 1e-6


def test_polynomial_embedding_derivatives_are_polyder_bit_for_bit():
    # the derivative coefficients are built once; past the degree the zero
    # polynomial serves every order
    poly = np.polynomial.polynomial
    for coeffs in [(0.0, 1.0, 0.3, -0.05), (0.0, 1.0), (2.5,), (1, 2, 3)]:
        G = PolynomialEmbedding(coeffs)
        c = np.asarray(coeffs, dtype=float)
        for s in [np.linspace(-1.0, 3.0, 9), np.float64(0.7), 1.3]:
            for order in range(7):
                want = poly.polyval(np.asarray(s, dtype=float), poly.polyder(c, order))
                got = G.deriv(s, order)
                assert np.shape(got) == np.shape(want)
                assert np.asarray(got).tobytes() == np.asarray(want).tobytes(), (coeffs, order)
        assert all(not a.flags.writeable for a in G._derivs)


def test_polynomial_embedding_derivatives():
    G = PolynomialEmbedding((0.0, 1.0, 0.3, -0.05))
    s = np.linspace(0.1, 3.0, 7)
    h = 1e-6
    for order in (1, 2):
        fd = (G.deriv(s + h, order - 1) - G.deriv(s - h, order - 1)) / (2 * h)
        assert np.allclose(G.deriv(s, order), fd, atol=1e-7)


# ---------------------------------------------------------------------------
# site-level values and symmetries
# ---------------------------------------------------------------------------

def test_reference_energy_is_zero():
    for name, P in _variants():
        g0 = np.zeros((P.S.n, P.d))
        P.check_admissible(g0)
        assert abs(float(P.site_energy(g0))) < 1e-14, name


def test_site_energy_matches_hand_formula(rng):
    """Recompute V(g) from the defining formulas via raw profile calls."""
    for name, P in _variants():
        g = 0.03 * rng.standard_normal((P.S.n, P.d))
        P.check_admissible(g)
        r = np.linalg.norm(P.bond_ref + g, axis=1)
        r0 = P.bond_len
        if P.variant == "pair":
            want = 0.5 * float(np.sum(P.phi.deriv(r, 0) - P.phi.deriv(r0, 0)))
        elif P.variant == "eam":
            want = float(np.sum(P.phi.deriv(r, 0) - P.phi.deriv(r0, 0)))
            s, s0 = float(np.sum(P.psi.deriv(r, 0))), float(np.sum(P.psi.deriv(r0, 0)))
            want += float(P.embed.deriv(np.array([s]), 0)[0] - P.embed.deriv(np.array([s0]), 0)[0])
        elif P.variant == "harmonic_chain":
            want = 0.0
            for i, rho in enumerate(P.S.directions):
                a = P.a1 if abs(int(rho[0])) == 1 else P.a2
                want += (a / 4.0) * float(g[i, 0] ** 2)
        else:  # pragma: no cover - future variants
            continue
        assert float(P.site_energy(g)) == pytest.approx(want, rel=1e-12, abs=1e-15), name


def test_point_symmetry(rng):
    """V((-g_{-rho})_rho) = V(g) for every variant (inversion symmetry)."""
    for name, P in _variants():
        g = 0.04 * rng.standard_normal((P.S.n, P.d))
        P.check_admissible(g)
        flipped = -g[[index_of(P.S, -rho) for rho in P.S.directions]]
        assert float(P.site_energy(flipped)) == pytest.approx(
            float(P.site_energy(g)), rel=1e-12, abs=1e-15
        ), name


def test_site_gradient_matches_fd(rng):
    h = 1e-6
    for name, P in _variants():
        g = 0.03 * rng.standard_normal((P.S.n, P.d))
        P.check_admissible(g)
        grad = P.site_gradient(g)
        for i in range(P.S.n):
            for a in range(P.d):
                gp, gm = g.copy(), g.copy()
                gp[i, a] += h
                gm[i, a] -= h
                fd = (float(P.site_energy(gp)) - float(P.site_energy(gm))) / (2 * h)
                assert grad[i, a] == pytest.approx(fd, rel=1e-6, abs=1e-9), (name, i, a)


def test_site_hessian_matches_fd(rng):
    h = 1e-6
    for name, P in _variants():
        g = 0.03 * rng.standard_normal((P.S.n, P.d))
        P.check_admissible(g)
        H = P.site_hessian(g)
        n, d = P.S.n, P.d
        # symmetry of the block tensor
        assert np.allclose(H, np.transpose(H, (2, 3, 0, 1)), atol=1e-10), name
        for i in range(n):
            for a in range(d):
                gp, gm = g.copy(), g.copy()
                gp[i, a] += h
                gm[i, a] -= h
                fd = (P.site_gradient(gp) - P.site_gradient(gm)) / (2 * h)
                assert np.max(np.abs(H[:, :, i, a] - fd)) < 1e-5 * (1.0 + np.max(np.abs(fd))), name


# ---------------------------------------------------------------------------
# admissibility
# ---------------------------------------------------------------------------

def test_admissibility_checks():
    P = lj_chain()
    g_bad = np.zeros((P.S.n, 1))
    g_bad[index_of(P.S, [1]), 0] = 0.3  # scaled stencil norm 0.3 > kappa
    with pytest.raises(AdmissibilityError):
        P.check_admissible(g_bad)
    # quadratic chains are globally defined
    Q = HarmonicChain.build(a1=1.0, a2=0.0)
    assert math.isinf(Q.kappa)
    Q.check_admissible(10.0 * np.ones((Q.S.n, 1)))


def test_admissibility_scales_by_bond_length():
    # the rule bounds |g_rho| / |rho|: a difference of 0.5 on the bond of
    # length 2 has norm 0.25, kappa itself, and the boundary is admissible
    P = lj_chain(r_cut=2.0, kappa=0.25)
    g = np.zeros((P.S.n, 1))
    g[index_of(P.S, [2]), 0] = 0.5
    P.check_admissible(g)
    g[index_of(P.S, [2]), 0] = 0.51
    with pytest.raises(AdmissibilityError, match="stencil norm 0.255 exceeds kappa=0.25"):
        P.check_admissible(g)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_nonfinite_stencils_rejected(bad):
    # an infinite kappa (quadratic chain) admits every finite stencil, not these
    for P in (lj_chain(), HarmonicChain.build(a1=1.0, a2=0.0)):
        g = np.zeros((P.S.n, 1))
        g[0, 0] = bad
        with pytest.raises(AdmissibilityError, match="non-finite"):
            P.check_admissible(g)


# states around the admissibility boundary: u(3) = 0.25 on a zero field
# gives |g_rho| / |rho| = 0.25 on the nearest-neighbour bonds of site 3
_BOUNDARY_STATES = {
    "at_kappa": 0.25,
    "ulp_above": math.nextafter(0.25, math.inf),
    "nan": math.nan,
    "inf": math.inf,
}


def _boundary_case(make, state, kappa):
    P = make(kappa=kappa)
    values = np.zeros((8,) * P.d + (P.d,))
    values.reshape(-1, P.d)[3, 0] = _BOUNDARY_STATES[state]
    return P, values


def _outcome(call):
    try:
        call()
    except AdmissibilityError as exc:
        return str(exc)
    return None


@pytest.mark.parametrize("state, kappa", [
    ("at_kappa", 0.25), ("ulp_above", 0.25), ("nan", 0.25), ("inf", 0.25),
    ("nan", math.inf), ("inf", math.inf),
])
@pytest.mark.parametrize("make", [lj_chain, lj_square, lj_triangular])
def test_pair_kernel_decides_admissibility_as_the_rule(make, state, kappa, monkeypatch):
    """The pair kernel's one-reduction bound accepts and rejects exactly as the
    rule on the full stencil does, in the same words; an admissible state
    never reaches the rule from the kernel."""
    P, values = _boundary_case(make, state, kappa)
    want = _outcome(lambda: P.check_admissible(all_stencils(values, P.S)))
    assert (want is None) == (state == "at_kappa")
    rule_calls = []
    rule = PairPotential._require_admissible

    def counted(self, *args, **kwargs):
        rule_calls.append(args)
        return rule(self, *args, **kwargs)

    monkeypatch.setattr(PairPotential, "_require_admissible", counted)
    with np.errstate(invalid="ignore", over="ignore"):
        got = _outcome(lambda: gradient_array(P, values))
    assert got == want
    assert len(rule_calls) == (want is not None)
    if want is None:
        # a random admissible state stays on the bound as well
        u = 0.02 * np.random.default_rng(7).standard_normal(values.shape)
        gradient_array(P, u)
        assert rule_calls == []


@pytest.mark.parametrize("state, kappa", [
    ("at_kappa", 0.25), ("ulp_above", 0.25), ("nan", 0.25), ("inf", 0.25),
    ("nan", math.inf), ("inf", math.inf),
])
@pytest.mark.parametrize("make", [lj_chain, lj_square, lj_triangular])
def test_cauchy_born_pair_path_decides_admissibility_as_the_rule(make, state, kappa,
                                                                monkeypatch):
    """Every Cauchy-Born method of a pair potential accepts and rejects a batch
    of gradients exactly as ``homogeneous_stencil`` does, in the same words;
    an admissible batch reaches the rule only when the one-reduction bound
    ``sqrt(max |F rho|^2)`` cannot clear it."""
    P = make(kappa=kappa)
    M = CBModel(P)
    # gradient 3 of the batch stretches the bond e_1 by the state: |F rho| / |rho|
    # is at most the state, with equality on e_1
    F = np.zeros((5, P.d, P.d))
    F[3, 0, 0] = _BOUNDARY_STATES[state]
    with np.errstate(invalid="ignore", over="ignore"):
        want = _outcome(lambda: M.homogeneous_stencil(F))
    assert (want is None) == (state == "at_kappa")
    # at kappa, the bound clears only a stencil whose largest |F rho| is on a
    # unit rho (the triangular index ball); a longer rho = 2 e_1 goes to the rule
    ruled = want is not None or np.abs(P.S.directions[:, 0]).max() > 1
    rule_calls = []
    rule = PairPotential._require_admissible

    def counted(self, *args, **kwargs):
        rule_calls.append(args)
        return rule(self, *args, **kwargs)

    monkeypatch.setattr(PairPotential, "_require_admissible", counted)
    methods = (M.energy_density, M.stress, M.moduli, M._tangent)
    for method in methods:
        rule_calls.clear()
        with np.errstate(invalid="ignore", over="ignore"):
            got = _outcome(lambda: method(F))
        assert got == want, method.__name__
        assert len(rule_calls) == ruled, method.__name__
    if want is None:
        # a random admissible batch stays on the bound
        F = 0.02 * np.random.default_rng(7).standard_normal(F.shape)
        rule_calls.clear()
        for method in methods:
            method(F)
        assert rule_calls == []


@pytest.mark.parametrize("make, quantity", [
    (lambda d: PairPotential(d=d, A=np.eye(d), S=StencilSet.ball(d, 2.0), kappa=0.25,
                             phi=PowerLawProfile(powers=(-12,), coeffs=(math.nan,))), "phi"),
    (lambda d: EAMPotential(d=d, A=np.eye(d), S=StencilSet.ball(d, 1.5), kappa=0.25,
                            phi=PowerLawProfile(powers=(-12, -6), coeffs=(1e307, -2.0))),
     "phi''"),
    (lambda d: EAMPotential(d=d, A=np.eye(d), S=StencilSet.ball(d, 1.5), kappa=0.25,
                            embed=PolynomialEmbedding((0.0, 1.0, 1e308))), "G"),
], ids=["pair_phi", "eam_phi2", "eam_G"])
@pytest.mark.parametrize("d", [1, 2])
def test_nonfinite_reference_state_rejected(make, quantity, d):
    # a NaN or inf at the reference state would reach every symbol and solver
    # (psi'' and the pair phi'' go through the CLI in test_harness)
    with pytest.raises(ValueError, match=f"^{quantity} is not finite at the reference"):
        make(d)


@pytest.mark.parametrize("a1, a2, bad", [(math.inf, 0.0, "a1 = inf"), (1.0, math.nan, "a2 = nan")])
def test_harmonic_chain_rejects_nonfinite_coefficients(a1, a2, bad):
    # JSON's Infinity and NaN tokens reach the chain; gamma would be NaN
    with pytest.raises(ValueError, match=f"^{bad} is not finite$"):
        HarmonicChain.build(a1=a1, a2=a2)


def test_kappa_guard_against_bond_collapse():
    with pytest.raises(ValueError):
        lj_chain(kappa=1.0)  # mu = 1 - kappa ||A^-1|| would reach zero
    assert lj_chain(kappa=0.25).mu == pytest.approx(0.75)


@pytest.mark.parametrize("make, message", [
    (lambda: PairPotential(d=1, A=np.eye(2), S=StencilSet.ball(1, 3.0), kappa=0.25),
     r"A must be \(1, 1\)"),
    (lambda: PairPotential(d=2, A=np.eye(2), S=StencilSet.ball(1, 3.0), kappa=0.25),
     "stencil dimension does not match potential dimension"),
    (lambda: lj_chain(kappa=0.0), "kappa must be positive"),
    # mu = 1e-9: the shortest admissible bond is below the power law's r_min
    (lambda: lj_chain(kappa=1.0 - 1e-9), "admissible bonds can leave the profile domain"),
    (lambda: eam_chain(kappa=1.0), "kappa=1.0 allows bond collapse"),
    (lambda: HarmonicChain(d=2, A=np.eye(2), S=StencilSet.ball(2, 2.0), kappa=math.inf),
     "HarmonicChain requires d = 1"),
], ids=["A_shape", "stencil_d", "kappa_zero", "pair_profile_domain", "eam_collapse",
        "harmonic_d2"])
def test_potential_constructors_reject_bad_input(make, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        make()


def test_total_energy_rejects_inadmissible(rng):
    P = lj_chain()
    lattice = LatticeSpec(d=1, A=np.eye(1), N=8)
    u = random_displacement(lattice, rng, scale=1.0)
    with pytest.raises(AdmissibilityError):
        total_energy(P, u.values)


# ---------------------------------------------------------------------------
# assembled operators
# ---------------------------------------------------------------------------

def test_gradient_array_matches_fd_of_energy(rng):
    h = 1e-6
    for name, P in _variants():
        N = 5
        lattice = LatticeSpec(d=P.d, A=P.A, N=N)
        u = random_displacement(lattice, rng, scale=0.02)
        G = gradient_array(P, u.values)
        flat = u.values.ravel()
        idx = rng.choice(flat.size, size=min(12, flat.size), replace=False)
        for j in idx:
            vp, vm = flat.copy(), flat.copy()
            vp[j] += h
            vm[j] -= h
            ep = total_energy(P, vp.reshape(u.values.shape))
            em = total_energy(P, vm.reshape(u.values.shape))
            fd = (ep - em) / (2 * h)
            assert G.ravel()[j] == pytest.approx(fd, rel=1e-6, abs=1e-8), (name, j)


def test_gradient_translation_invariance_and_equilibrium(rng):
    for name, P in _variants():
        lattice = LatticeSpec(d=P.d, A=P.A, N=5)
        u = random_displacement(lattice, rng, scale=0.02)
        shift = rng.standard_normal(P.d)
        G1 = gradient_array(P, u.values)
        G2 = gradient_array(P, u.values + shift)
        assert np.max(np.abs(G1 - G2)) < 1e-11, name
        # the homogeneous reference is always an equilibrium of the supercell
        G0 = gradient_array(P, np.zeros_like(u.values))
        assert np.max(np.abs(G0)) < 1e-12, name


def test_hessian_operator_matches_fd_of_gradient(rng):
    h = 1e-6
    for name, P in _variants():
        lattice = LatticeSpec(d=P.d, A=P.A, N=5)
        u = random_displacement(lattice, rng, scale=0.02)
        v = rng.standard_normal(u.values.shape)
        Hv = hessian_operator(P, u.values)(v)
        fd = (
            gradient_array(P, u.values + h * v) - gradient_array(P, u.values - h * v)
        ) / (2 * h)
        scale = 1.0 + np.max(np.abs(fd))
        assert np.max(np.abs(Hv - fd)) / scale < 1e-6, name


def test_hessian_operator_is_symmetric(rng):
    """<H v, w> = <v, H w> for random v, w at a random admissible state."""
    for name, P in [("lj_chain", lj_chain()), ("eam_square", eam_square())]:
        lattice = LatticeSpec(d=P.d, A=P.A, N=4)
        u = random_displacement(lattice, rng, scale=0.02)
        apply = hessian_operator(P, u.values)
        for _ in range(3):
            v = rng.standard_normal(u.values.shape)
            w = rng.standard_normal(u.values.shape)
            Hv, Hw = apply(v), apply(w)
            gap = abs(float(np.sum(Hv * w)) - float(np.sum(v * Hw)))
            assert gap <= 1e-12 * np.linalg.norm(Hv) * np.linalg.norm(w), name


def _arrays(value):
    if isinstance(value, np.ndarray):
        yield value
    elif isinstance(value, tuple):
        for item in value:
            yield from _arrays(item)


@pytest.mark.parametrize("name", [name for name, _ in _variants()])
def test_potentials_are_frozen_with_read_only_arrays(name):
    P = dict(_variants())[name]
    P.force_constants  # the cached reference data joins the instance
    for f in dataclasses.fields(P):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(P, f.name, getattr(P, f.name))
    for attr in ("bond_ref", "force_constants", "extra"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(P, attr, None)
    arrays = [(key, a) for key, value in vars(P).items() for a in _arrays(value)]
    names = {key for key, _ in arrays}
    assert {"A", "bond_ref", "bond_len", "force_constants"} <= names
    assert {"pair": {"_phi_ref", "_half_ref", "_half_inv_sq"}, "eam": {"_phi_ref", "_psi_ref"},
            "harmonic_chain": {"_c"}}[P.variant] <= names
    for key, a in arrays:
        assert not a.flags.writeable, key
    # the stencil the cached data were built from is read-only too
    for a in (P.S.directions, P.S.inv_sq_norms, P.S.half):
        assert not a.flags.writeable


def test_a_variant_cannot_override_site_hessian_and_keep_its_blocks():
    # hessian_operator contracts the blocks, so an overriding site_hessian would go unused
    with pytest.raises(TypeError, match="overrides site_hessian but keeps hessian_blocks"):
        class _Coupled(HarmonicChain):
            def site_hessian(self, g):
                return super().site_hessian(g) + 1.0


def test_potential_leaves_the_callers_matrix_writable():
    A = np.eye(2)
    P = PairPotential(d=2, A=A, S=StencilSet.ball(2, 2.0), kappa=0.25, phi=lennard_jones())
    assert A.flags.writeable and not P.A.flags.writeable and not np.shares_memory(A, P.A)


@pytest.mark.parametrize("name", [name for name, _ in _variants()])
@pytest.mark.parametrize("cached", [False, True], ids=["fresh", "cached"])
def test_pickle_round_trip_keeps_every_bit(rng, name, cached):
    P = dict(_variants())[name]
    if cached:
        P.force_constants
    Q = pickle.loads(pickle.dumps(P))
    assert type(Q) is type(P) and ("force_constants" in vars(Q)) == cached
    # pickle rebuilds arrays writable; unpickling marks them read-only again
    for X in (Q, Q.S) + ((Q.embed,) if P.variant == "eam" else ()):
        if isinstance(X, PolynomialEmbedding):
            X._derivs
        for key, value in vars(X).items():
            for a in _arrays(value):
                assert not a.flags.writeable, key
    lattice = LatticeSpec(d=P.d, A=P.A, N=6)
    u = random_displacement(lattice, rng, scale=0.02).values
    v = rng.standard_normal(u.shape)
    k = rng.uniform(-np.pi, np.pi, size=(9, P.d))
    for f in (lambda X: gradient_array(X, u), lambda X: hessian_operator(X, u)(v),
              lambda X: dynamical_symbol(X, k)):
        assert f(Q).tobytes() == f(P).tobytes()


@pytest.mark.parametrize("name", [name for name, _ in _variants()])
def test_slot_diagonal_hessian_is_its_blocks_on_the_diagonal(rng, name, monkeypatch):
    P = dict(_variants())[name]
    lattice = LatticeSpec(d=P.d, A=P.A, N=5)
    u = random_displacement(lattice, rng, scale=0.02).values
    v = rng.standard_normal(u.shape)
    g = all_stencils(u, P.S)
    M = P.site_hessian(g)
    calls = []
    site_hessian = type(P).site_hessian

    def counted(self, g):
        calls.append(g.shape)
        return site_hessian(self, g)

    monkeypatch.setattr(type(P), "site_hessian", counted)
    hessian_operator(P, u)(v)
    if P.variant == "eam":
        # the embedding couples every slot pair: the dense blocks
        assert P.hessian_blocks is None and calls == [g.shape]
        return
    assert calls == []  # the operator keeps the (..., n, d, d) blocks only
    B = P.hessian_blocks(g)
    assert B.shape == g.shape[:-1] + (P.d, P.d)
    idx = np.arange(P.S.n)
    off = M.copy()
    off[..., idx, :, idx, :] = 0.0
    assert np.array_equal(np.moveaxis(M[..., idx, :, idx, :], 0, -3), B) and not off.any()


def test_harmonic_chain_quadratic_identities(rng):
    """For a quadratic energy: E(u) = <Hu, u>/2 and grad E(u) = Hu exactly."""
    P = HarmonicChain.build(a1=2.0, a2=-0.25)
    lattice = LatticeSpec(d=1, A=np.eye(1), N=8)
    u = random_displacement(lattice, rng, scale=0.5)
    Hu = hessian_operator(P, np.zeros_like(u.values))(u.values)
    energy = total_energy(P, u.values)
    assert energy == pytest.approx(0.5 * float(np.sum(Hu * u.values)), rel=1e-12)
    np.testing.assert_allclose(gradient_array(P, u.values), Hu, atol=1e-12)


def test_harmonic_chain_strain_energies():
    P = HarmonicChain.build(a1=2.0, a2=-0.25)
    # homogeneous unit strain: (a1 + 4 a2)/2 per site
    g_hom = P.S.directions.astype(float)
    assert float(P.site_energy(g_hom)) == pytest.approx((2.0 - 1.0) / 2.0, abs=1e-14)
    # unit alternating strain: a1/2 per site (second neighbours cancel)
    lattice = LatticeSpec(d=1, A=np.eye(1), N=8)
    vals = (0.5 * (-1.0) ** np.arange(8)).reshape(8, 1)
    u = DisplacementField(lattice, vals)
    g = all_stencils(u.values, P.S)
    np.testing.assert_allclose(P.site_energy(g), 2.0 / 2.0, atol=1e-14)


def test_gradient_array_newtons_third_law(rng):
    P = lj_chain()
    lattice = LatticeSpec(d=1, A=np.eye(1), N=6)
    u = random_displacement(lattice, rng)
    assert abs(float(np.sum(gradient_array(P, u.values)))) < 1e-12  # on the torus


# ---------------------------------------------------------------------------
# configuration factory
# ---------------------------------------------------------------------------

def test_potential_from_config_variants():
    P = potential_from_config({"variant": "pair", "d": 1, "r_cut": 3.0})
    assert P.variant == "pair" and P.S.n == 6 and P.kappa == pytest.approx(0.25)
    Q = potential_from_config({"variant": "harmonic_chain", "a1": -1.0, "a2": 0.5})
    assert isinstance(Q, HarmonicChain) and math.isinf(Q.kappa)
    E = potential_from_config(
        {"variant": "eam", "d": 1, "r_cut": 2.0, "embed": {"coeffs": [0.0, 1.0, 0.2]}}
    )
    assert isinstance(E, EAMPotential)
    with pytest.raises(ValueError):
        potential_from_config({"variant": "nope"})
    with pytest.raises(ValueError, match="unknown radial profile kind"):
        potential_from_config({"variant": "pair", "r_cut": 1.0, "phi": {"kind": "unknown"}})


@pytest.mark.parametrize("cfg, key", [
    ({"variant": "pair", "d": 1, "rcut": 3.0}, "'rcut'"),
    ({"variant": "pair", "d": 1, "r_cut": 3.0, "phi": {"kind": "lennard_jones", "rO": 1.1}},
     "'phi.rO'"),
    ({"variant": "eam", "d": 1, "r_cut": 2.0, "psi": {"kind": "exp", "beat": 2.0}},
     "'psi.beat'"),
    ({"variant": "eam", "d": 1, "r_cut": 2.0, "embed": {"coefs": [0.0, 1.0]}}, "'embed.coefs'"),
    ({"variant": "harmonic_chain", "a1": 1.0, "r_cut": 2.0}, "'r_cut'"),
])
def test_potential_from_config_rejects_unread_keys(cfg, key):
    # a misspelt key would otherwise fall back to its default without a word
    with pytest.raises(ValueError, match=f"key {key} is not read"):
        potential_from_config(cfg)


def _profile(block: dict):
    """The radial profile a config block builds (as the phi of an EAM chain)."""
    return potential_from_config({"variant": "eam", "d": 1, "r_cut": 2.0, "phi": block}).phi


@pytest.mark.parametrize("kind, make, explicit", [
    ("lennard_jones", lennard_jones, {"well_depth": 2.0, "r0": 1.1}),
    ("morse", MorseProfile, {"well_depth": 0.5, "stiffness": 4.0, "r0": 1.2}),
    ("exp", ExpProfile, {"amplitude": 2.0, "beta": 2.5, "r0": 0.9}),
])
def test_profile_defaults_are_the_constructors(kind, make, explicit):
    # a block without parameters is the constructor called without arguments
    assert _profile({"kind": kind}) == make()
    assert _profile({"kind": kind, **explicit}) == make(**explicit) != make()


def test_power_law_profile_lists_become_tuples():
    phi = _profile({"kind": "power_law", "powers": [-12, -6], "coeffs": [1.0, -2.0]})
    assert phi == PowerLawProfile(powers=(-12, -6), coeffs=(1.0, -2.0))
    assert type(phi.powers) is tuple and type(phi.coeffs) is tuple
    with pytest.raises(TypeError, match="'coeffs'"):
        _profile({"kind": "power_law", "powers": [-12, -6]})


@pytest.mark.parametrize("kind", ["lennard_jones", "morse", "exp", "power_law"])
def test_profile_block_rejects_r_min(kind):
    with pytest.raises(ValueError, match="key 'phi.r_min' is not read"):
        _profile({"kind": kind, "r_min": 0.5})


def test_profile_r_min_is_a_class_constant():
    for cls, r_min in ((PowerLawProfile, 1e-8), (MorseProfile, 0.0), (ExpProfile, 0.0)):
        assert cls.r_min == r_min
        assert "r_min" not in {f.name for f in dataclasses.fields(cls)}


def test_potential_from_config_requires_r_cut():
    for variant in ("pair", "eam"):
        with pytest.raises(ValueError, match="needs r_cut"):
            potential_from_config({"variant": variant, "d": 1})

