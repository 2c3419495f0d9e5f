"""Dynamical symbol, stability constants, and the instability probes.

The two-neighbour harmonic chain has a fully explicit symbol
``H(k) = 4 a1 sin^2(k/2) + 4 a2 sin^2(k)`` which pins everything down in
closed form; the Lennard-Jones values are frozen regression anchors backed
by the closed-form modulus sum at k -> 0.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from latcb import stability
from latcb.harness import ExperimentConfig
from latcb.lattice import StencilSet
from latcb.potentials import HarmonicChain, PairPotential, lennard_jones
from latcb.stability import (
    ZONE_GRID,
    difference_symbol,
    dispersion_spectrum,
    dynamical_symbol,
    instability_eigenprobe,
    legendre_hadamard_min,
    max_frequency,
    stability_constant,
    zone_grid,
)
from latcb.stress import CBModel

from compass_reference import polished_min
from conftest import eam_chain, eam_square, lj_chain, lj_square, lj_triangular, morse_chain
from lh_scan import lh_scan
from scipy_polish import scipy_lh_min, scipy_stability_constant
from symbol_einsum import einsum_symbol, term_magnitude

GOLDEN_FRAC = 0.6180339887498949

LJ_GAMMA = 70.6106531415735
LJ_OMEGA_MAX = 16.968976526137023
LJ_GRID_MIN_RATIO = 70.61068787676165  # 256-point golden-offset grid


def _lj_cubic():
    """A 3D simple-cubic Lennard-Jones crystal (face and edge neighbours)."""
    return PairPotential(
        d=3, A=np.eye(3), S=StencilSet.ball(3, 1.5), kappa=0.25, phi=lennard_jones()
    )


def _chain_symbol(a1, a2, k):
    return 4.0 * a1 * np.sin(0.5 * k) ** 2 + 4.0 * a2 * np.sin(k) ** 2


# ---------------------------------------------------------------------------
# symbol structure
# ---------------------------------------------------------------------------

def test_symbol_structure(rng):
    for P in (lj_chain(), lj_square(), eam_chain(), eam_square(), lj_triangular()):
        d = P.d
        H0 = dynamical_symbol(P, np.zeros(d))
        assert H0.dtype == np.float64 and not H0.any()
        k = rng.uniform(-np.pi, np.pi, size=(7, d))
        H = dynamical_symbol(P, k)
        assert H.shape == (7, d, d) and H.dtype == np.float64
        assert H.tobytes() == np.ascontiguousarray(np.transpose(H, (0, 2, 1))).tobytes()
        assert dynamical_symbol(P, -k).tobytes() == H.tobytes()


@pytest.mark.parametrize("make", [lj_chain, lj_square, lj_triangular, _lj_cubic],
                         ids=["chain", "square", "triangular", "cubic"])
def test_pair_force_constants_keep_the_half_stencil(make):
    # a pair potential couples each bond to itself only: one sine-square
    # term per bond +-rho, none from the differences rho - sigma
    P = make()
    half, W = P.force_constants
    assert half.shape == (P.d, len(P.S.half)) and W.shape == (len(P.S.half), P.d * P.d)


class _SkewChain(HarmonicChain):
    """A harmonic chain with a symmetric Hessian that is not point symmetric:
    the bond pair (-2, -1) is coupled but (2, 1) is not."""

    hessian_blocks = None  # the coupling leaves the slot diagonal

    def site_hessian(self, g):
        blocks = HarmonicChain.hessian_blocks(self, g)
        n = self.S.n
        out = np.zeros(g.shape[:-2] + (n, 1, n, 1))
        out[..., range(n), :, range(n), :] = np.moveaxis(blocks, -3, 0)
        out[..., 0, 0, 1, 0] = out[..., 1, 0, 0, 0] = 0.1
        return out


def test_symbol_rejects_point_asymmetric_blocks():
    P = _SkewChain(d=1, A=np.eye(1), S=StencilSet.ball(1, 2.0), kappa=np.inf, a1=2.0, a2=-0.25)
    for call in (lambda: dynamical_symbol(P, np.zeros(1)), lambda: max_frequency(P),
                 lambda: stability_constant(P), lambda: dispersion_spectrum(P, np.ones((3, 1)))):
        with pytest.raises(ValueError, match="not point symmetric"):
            call()


@pytest.mark.parametrize("make", [
    lj_chain, morse_chain, eam_chain, lj_square, eam_square, lj_triangular, _lj_cubic,
    lambda: HarmonicChain.build(a1=2.0, a2=-0.25), lambda: HarmonicChain.build(a1=-1.0, a2=0.5),
], ids=["lj_chain", "morse_chain", "eam_chain", "lj_square", "eam_square", "lj_triangular",
        "lj_cubic", "chain_stable", "chain_unstable"])
def test_shipped_potential_kinds_are_point_symmetric(make):
    P = make()
    V = P.site_hessian(np.zeros((P.S.n, P.d)))
    assert np.array_equal(V, V[::-1, :, ::-1])  # slot n-1-a holds -rho_a
    P.force_constants


_ORACLE_CASES = {
    "lj_chain": lj_chain,
    "lj_square": lj_square,
    "chain_stable": lambda: HarmonicChain.build(a1=2.0, a2=-0.25),
    "chain_unstable": lambda: HarmonicChain.build(a1=-1.0, a2=0.5),
    "eam_chain": eam_chain,
    "eam_square": eam_square,
}


@pytest.mark.parametrize("name", list(_ORACLE_CASES))
def test_symbol_matches_einsum_oracle(rng, name):
    # per wave vector, to 1e-14 of the oracle's own roundoff scale, which
    # vanishes to second order at k = 0; worst measured ratio 1.1e-15
    P = _ORACLE_CASES[name]()
    d = P.d
    batches = [rng.uniform(-np.pi, np.pi, size=(K, d)) for K in (1, 2048, 2049)]
    batches += [rng.uniform(-np.pi, np.pi, size=(3, 5, d)), rng.uniform(-np.pi, np.pi, size=d),
                zone_grid(d, 512 if d == 1 else 64)]
    u = rng.normal(size=(8, d))
    u /= np.linalg.norm(u, axis=1)[:, None]
    batches.append((np.logspace(-8, -1, 15)[:, None, None] * u).reshape(-1, d))
    for k in batches:
        H, ref = dynamical_symbol(P, k), einsum_symbol(P, k)
        assert H.shape == ref.shape == k.shape[:-1] + (d, d)
        rows = k.reshape(-1, d)
        gap = np.max(np.abs(H - ref).reshape(-1, d * d), axis=1)
        scale = np.max(term_magnitude(P, rows).reshape(-1, d * d), axis=1)
        assert np.all(gap <= 1e-14 * scale)


@pytest.mark.parametrize("make", [lj_chain, lj_square], ids=["1d", "2d"])
def test_stability_constant_builds_the_symbol_blocks_once(monkeypatch, make):
    P = make()
    calls = []
    site_hessian = type(P).site_hessian

    def counted(self, g):
        calls.append(g.shape)
        return site_hessian(self, g)

    monkeypatch.setattr(type(P), "site_hessian", counted)
    legendre_hadamard_min(CBModel(P))
    lh_calls = len(calls)
    calls.clear()
    stability_constant(P, n_grid=64)
    # the grid sample and every refinement step share one reference build;
    # the rest come from the k -> 0 limit through CBModel.moduli
    assert calls[0] == (P.S.n, P.d)
    assert len(calls) == 1 + lh_calls


def test_chain_symbol_closed_form(rng):
    for _ in range(5):
        a1 = float(rng.uniform(-2.0, 3.0))
        a2 = float(rng.uniform(-1.0, 1.0))
        P = HarmonicChain.build(a1=a1, a2=a2)
        k = rng.uniform(-np.pi, np.pi, size=(11, 1))
        H = dynamical_symbol(P, k)
        np.testing.assert_allclose(H[:, 0, 0], _chain_symbol(a1, a2, k[:, 0]),
                                   rtol=1e-12, atol=1e-12)


def test_difference_symbol_values(rng):
    k = rng.uniform(-np.pi, np.pi, size=(9, 2))
    np.testing.assert_allclose(
        difference_symbol(k), np.sum(4.0 * np.sin(0.5 * k) ** 2, axis=-1), rtol=1e-14
    )
    assert difference_symbol(np.array([np.pi, np.pi])) == pytest.approx(8.0)


# ---------------------------------------------------------------------------
# symbol eigenvalues: closed forms for d <= 2, checked against LAPACK
# ---------------------------------------------------------------------------

_BLOCK_KINDS = ("random", "diagonal", "a_eq_c", "rank_one", "zero", "negative_trace", "graded")


def _sym_blocks(kind, rng, n=64):
    """``n`` symmetric 2x2 blocks of one kind, entries of order one except
    "graded": definite blocks of either sign whose eigenvalues are about 1
    and 1e-8, with ``b^2 << ac``, so the small one is well conditioned."""
    a, b, c = rng.normal(size=(3, n))
    if kind == "diagonal":
        b = np.zeros(n)
    elif kind == "a_eq_c":
        c = a.copy()
    elif kind == "rank_one":
        u, v = rng.normal(size=(2, n))
        sign = rng.choice([-1.0, 1.0], size=n)
        a, b, c = sign * u * u, sign * u * v, sign * v * v
    elif kind == "zero":
        a = b = c = np.zeros(n)
    elif kind == "negative_trace":
        a, c = -np.abs(a) - np.abs(b), -np.abs(c) - np.abs(b)
    elif kind == "graded":
        sign = rng.choice([-1.0, 1.0], size=n)
        a, b, c = sign * (1.0 + np.abs(a)), sign * 1e-6 * b, sign * 1e-8 * (1.0 + np.abs(c))
    return np.stack([np.stack([a, b], -1), np.stack([b, c], -1)], -2)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(_BLOCK_KINDS), st.integers(-150, 150), st.integers(0, 2**32 - 1))
def test_closed_form_2x2_eigenvalues_match_lapack(kind, exponent, seed):
    # ascending, and within a few ulps of max |lambda| of eigvalsh per block;
    # on graded blocks the small eigenvalue keeps its own few ulps, which
    # tr - big would not (worst measured: 2.9 and 3.8 ulps)
    H = _sym_blocks(kind, np.random.default_rng(seed)) * 10.0 ** exponent
    lam, ref = stability._eigvalsh(H), np.linalg.eigvalsh(H)
    assert lam.shape == ref.shape == (len(H), 2)
    assert np.all(lam[:, 0] <= lam[:, 1])
    eps = np.finfo(float).eps
    scale = np.abs(ref).max(axis=1)
    assert np.all(np.abs(lam - ref).max(axis=1) <= 4.0 * eps * scale)
    if kind == "graded":
        assert np.all(np.abs(lam - ref) <= 8.0 * eps * np.abs(ref))
    if kind == "zero":
        assert not lam.any()


def test_1d_eigenvalues_are_the_entries_bit_for_bit(rng):
    H = np.concatenate([rng.normal(size=999) * 10.0 ** rng.integers(-300, 300, size=999),
                        [0.0, -0.0, 5e-324, -1e308]]).reshape(-1, 1, 1)
    assert stability._eigvalsh(H).tobytes() == np.linalg.eigvalsh(H).tobytes()
    P = lj_chain()
    k = zone_grid(1, 512)
    ref = np.linalg.eigvalsh(dynamical_symbol(P, k))
    assert dispersion_spectrum(P, k).eigs.tobytes() == ref.tobytes()


@pytest.mark.parametrize("make, lapack", [(lj_chain, False), (lj_square, False),
                                          (eam_square, False), (_lj_cubic, True)],
                         ids=["1d", "2d_pair", "2d_eam", "3d"])
def test_only_3d_symbols_go_to_lapack(monkeypatch, make, lapack):
    P = make()
    calls = []
    eigvalsh = np.linalg.eigvalsh

    def counted(H):
        calls.append(H.shape)
        return eigvalsh(H)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    stability.stability_constants(P, n_grid=8)
    max_frequency(P, n_grid=8)
    dispersion_spectrum(P, zone_grid(P.d, 4))
    assert bool(calls) == lapack
    assert all(shape[-2:] == (3, 3) for shape in calls)


# gamma, lh_min and omega_max at the default grids, as LAPACK's eigvalsh gave
# them before the 2x2 closed form; no shipped config is 2D
_2D_PINS = {
    "lj_square": (lj_square, -3.3749999999999973, -3.190429687499999, 16.969312139085687),
    "eam_square": (eam_square, -8.863826434590072, -8.863826434590063, 20.0603261131619),
    "lj_triangular": (lj_triangular, 18.000000000000018, 18.285322359396453,
                      20.783044647942724),
}


@pytest.mark.parametrize("name", list(_2D_PINS))
def test_2d_stability_numbers_pinned(name):
    make, gamma, lh_min, omega_max = _2D_PINS[name]
    P = make()
    got = stability.stability_constants(P) + (max_frequency(P),)
    np.testing.assert_allclose(got, (gamma, lh_min, omega_max), rtol=1e-13, atol=0.0)


# ---------------------------------------------------------------------------
# stability constants (closed forms and frozen anchors)
# ---------------------------------------------------------------------------

def test_chain_stability_constants():
    # ratio = 1 + sin^2(k/2) >= 1 for (2, -1/4); = 1 - 2 sin^2(k/2) -> -1 for (-1, 1/2)
    assert stability_constant(HarmonicChain.build(a1=2.0, a2=-0.25)) == pytest.approx(
        1.0, abs=1e-6
    )
    # the search lands on the zone boundary k = pi
    assert stability_constant(HarmonicChain.build(a1=-1.0, a2=0.5)) == pytest.approx(
        -1.0, abs=1e-12
    )


def test_lj_chain_stability_constant_frozen():
    gamma = stability_constant(lj_chain())
    assert gamma == pytest.approx(LJ_GAMMA, rel=1e-9)
    # the infimum sits in the long-wave limit and equals the elastic modulus
    phi = lennard_jones()
    modulus = sum(r * r * float(phi.deriv(np.array([float(r)]), 2)[0]) for r in (1, 2, 3))
    assert gamma == pytest.approx(modulus, rel=1e-7)


def test_lj_square_shear_instability():
    # square pair lattices are shear-soft: the row-sliding wave k = (0, pi)
    # drives the infimum to exactly -27/8 for this truncated Lennard-Jones
    gamma = stability_constant(lj_square(), n_grid=96)
    assert gamma == pytest.approx(-27.0 / 8.0, abs=1e-6)
    H = dynamical_symbol(lj_square(), np.array([0.0, np.pi]))
    assert np.linalg.eigvalsh(H)[0] / 4.0 == pytest.approx(-27.0 / 8.0, rel=1e-12)


def test_dispersion_spectrum_grid_minimum():
    P = lj_chain()
    n = 256
    axis = -np.pi + (np.arange(n) + GOLDEN_FRAC) * (2.0 * np.pi / n)
    spec = dispersion_spectrum(P, axis[:, None])
    assert spec.eigs.shape == (n, 1)
    finite = spec.ratios[np.isfinite(spec.ratios)]
    assert np.min(finite) == pytest.approx(LJ_GRID_MIN_RATIO, rel=1e-12)
    assert np.min(finite) >= LJ_GAMMA - 1e-9
    np.testing.assert_allclose(spec.normalizer, difference_symbol(spec.k), rtol=1e-14)
    assert spec.to_rows().shape == (n, 4)


def test_max_frequency():
    # chain symbol maxima: 8 at the zone boundary for (2,-1/4); |-4| for (-1,1/2)
    assert max_frequency(HarmonicChain.build(a1=2.0, a2=-0.25)) == pytest.approx(
        np.sqrt(8.0), rel=1e-4
    )
    assert max_frequency(HarmonicChain.build(a1=-1.0, a2=0.5)) == pytest.approx(
        2.0, rel=1e-4
    )
    assert max_frequency(lj_chain()) == pytest.approx(LJ_OMEGA_MAX, rel=1e-6)
    # the 1D default grid is 512 points, which fixes every 1D step size
    assert max_frequency(lj_chain()) == max_frequency(lj_chain(), n_grid=512)


@pytest.mark.parametrize("make", [lj_chain, eam_square])
def test_default_grid_zone_maximum_has_the_bits_of_its_explicit_grid(make):
    P = make()
    assert max_frequency(P).hex() == max_frequency(P, n_grid=ZONE_GRID[P.d]).hex()


def test_max_frequency_2d_default_grid():
    # the 128^2 default loses < 1e-4 against 512^2 and still bounds the
    # 48^2 golden-offset dispersion sample that the harness reports
    for P in (lj_square(), eam_square()):
        omega = max_frequency(P)
        assert omega == pytest.approx(max_frequency(P, n_grid=512), rel=1e-4)
        eigs = dispersion_spectrum(P, zone_grid(2, 48)).eigs
        assert omega >= np.sqrt(np.max(np.abs(eigs)))


def test_zone_grid_layout():
    k = zone_grid(2, 4, offset=0.5)
    assert k.shape == (16, 2)
    axis = -np.pi + (np.arange(4) + 0.5) * (np.pi / 2.0)
    np.testing.assert_array_equal(k[:4, 0], np.full(4, axis[0]))  # row-major: last axis fastest
    np.testing.assert_array_equal(k[:4, 1], axis)
    assert zone_grid(3, 5).shape == (125, 3)
    # the default golden offset reproduces the sampler stability_constant
    # used before the helper existed, bit for bit
    for d, n in ((1, 256), (2, 96), (3, 12)):
        h = 2.0 * np.pi / n
        axis = -np.pi + (np.arange(n) + GOLDEN_FRAC) * h
        grids = np.meshgrid(*([axis] * d), indexing="ij")
        np.testing.assert_array_equal(
            zone_grid(d, n), np.stack([g.ravel() for g in grids], axis=-1)
        )


# ---------------------------------------------------------------------------
# Legendre-Hadamard constant
# ---------------------------------------------------------------------------

def test_legendre_hadamard_1d_is_the_modulus():
    M = CBModel(lj_chain())
    lh = legendre_hadamard_min(M)
    assert lh == pytest.approx(float(M.moduli(np.zeros((1, 1)))[0, 0, 0, 0]), rel=1e-13)
    assert lh == pytest.approx(70.61065314157345, rel=1e-12)


def test_legendre_hadamard_2d_bounds():
    M = CBModel(lj_square())
    lh = legendre_hadamard_min(M)
    C = M.moduli(np.zeros((2, 2)))
    # shear-soft but axis-stiff; the lattice infimum is below the long-wave one
    assert lh == pytest.approx(-3.1904296875, rel=1e-9)
    assert lh <= float(C[0, 0, 0, 0]) + 1e-10
    assert float(C[0, 0, 0, 0]) > 0.0
    assert stability_constant(lj_square(), n_grid=96) <= lh + 1e-9


@pytest.mark.parametrize("make", [lj_square, eam_square, _lj_cubic],
                         ids=["lj_square", "eam_square", "lj_cubic"])
def test_legendre_hadamard_matches_joint_scan(make):
    # the smallest acoustic-tensor eigenvalue searched over b alone reaches
    # the minimum of the joint (a, b) scan
    M = CBModel(make())
    d = M.P.d
    assert legendre_hadamard_min(M) == pytest.approx(
        lh_scan(M.moduli(np.zeros((d, d)))), rel=1e-12
    )


# (factory, n_grid) of the compass-search checks; 3D at a small grid
_POLISH_CASES = {
    "chain_stable": (lambda: HarmonicChain.build(a1=2.0, a2=-0.25), 512),
    "chain_unstable": (lambda: HarmonicChain.build(a1=-1.0, a2=0.5), 512),
    "lj_chain": (lj_chain, 512),
    "lj_square": (lj_square, 128),
    "eam_square": (eam_square, 128),
    "lj_triangular": (lj_triangular, 128),
    "lj_cubic": (_lj_cubic, 12),
}


@pytest.mark.parametrize("name", list(_POLISH_CASES))
def test_compass_search_matches_scipy_polish(name):
    # the one numpy search reaches the minima of the Brent and Nelder-Mead polishes
    make, n_grid = _POLISH_CASES[name]
    P = make()
    assert stability_constant(P, n_grid) == pytest.approx(
        scipy_stability_constant(P, n_grid), rel=1e-12)
    M = CBModel(P)
    assert legendre_hadamard_min(M) == pytest.approx(scipy_lh_min(M), rel=1e-12)


_CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def _shipped_stability(name):
    cfg = ExperimentConfig.from_file(_CONFIGS / f"{name}.json")
    return cfg.P, cfg.values["n_grid"]


_COMPASS_CASES = {
    **{name: (lambda make=make, n=n: (make(), n)) for name, (make, n) in _POLISH_CASES.items()},
    "eam_chain": lambda: (eam_chain(), 512),
    "morse_chain": lambda: (morse_chain(), 512),
    **{name: (lambda name=name: _shipped_stability(name))
       for name in ("stability_lj", "stability_chain_stable", "stability_chain_unstable")},
}


@pytest.mark.parametrize("name", list(_COMPASS_CASES))
def test_compass_search_has_the_bits_of_one_step_length_per_call(name, monkeypatch):
    """Trying every step length in one call moves where halving one call at a
    time moves: ``(gamma, lh_min)`` is hex-equal to the loop of
    ``tests/compass_reference.py``, in fewer calls."""
    P, n_grid = _COMPASS_CASES[name]()
    calls = []

    def counted(search):
        def run(fn, grid, h):
            return search(lambda pts: calls.append(len(pts)) or fn(pts), grid, h)
        return run

    with monkeypatch.context() as m:
        m.setattr(stability, "_polished_min", counted(stability._polished_min))
        got = stability.stability_constants(P, n_grid)
        batched = len(calls)
        m.setattr(stability, "_polished_min", counted(polished_min))
        want = stability.stability_constants(P, n_grid)
    assert [v.hex() for v in got] == [v.hex() for v in want]
    assert batched < len(calls) - batched


@pytest.mark.parametrize("make", [lj_chain, lj_square, _lj_cubic], ids=["1d", "2d", "3d"])
def test_stability_constant_default_grid_is_the_zone_grid(make):
    P = make()
    assert stability_constant(P) == stability_constant(P, n_grid=ZONE_GRID[P.d])


def test_stability_constant_long_wave_limit_is_the_lh_minimum():
    # both chains are stable with the infimum at k -> 0, so it is the modulus
    for P in (lj_chain(), HarmonicChain.build(a1=2.0, a2=-0.25)):
        assert stability_constant(P) == legendre_hadamard_min(CBModel(P))


@pytest.mark.parametrize("make", [lj_chain, lj_square], ids=["1d", "2d"])
def test_stability_constants_take_the_lh_minimum_once(monkeypatch, make):
    P = make()
    want = (stability_constant(P, n_grid=64), legendre_hadamard_min(CBModel(P)))
    calls = []

    def counted(M):
        calls.append(M)
        return legendre_hadamard_min(M)

    monkeypatch.setattr(stability, "legendre_hadamard_min", counted)
    assert stability.stability_constants(P, n_grid=64) == want
    assert len(calls) == 1


def test_eam_square_infimum_is_long_wave():
    P = eam_square()
    gamma = stability_constant(P, n_grid=96)
    lh = legendre_hadamard_min(CBModel(P))
    assert gamma == pytest.approx(lh, rel=1e-6)
    assert gamma < 0.0


# ---------------------------------------------------------------------------
# real-space probes
# ---------------------------------------------------------------------------

def test_instability_eigenprobe_closed_forms():
    q = instability_eigenprobe(HarmonicChain.build(a1=-1.0, a2=0.5), N=16)
    assert q == pytest.approx(-1.0, abs=1e-10)
    q2 = instability_eigenprobe(HarmonicChain.build(a1=2.0, a2=-0.25), N=16)
    assert q2 == pytest.approx(2.0, abs=1e-12)


def test_instability_eigenprobe_matches_zone_boundary_symbol():
    P = lj_chain()
    q = instability_eigenprobe(P, N=12)
    Hpi = float(dynamical_symbol(P, np.array([np.pi]))[0, 0])
    assert q == pytest.approx(Hpi / 4.0, rel=1e-12)


def test_instability_eigenprobe_errors():
    with pytest.raises(ValueError):
        instability_eigenprobe(lj_chain(), N=9)
    with pytest.raises(ValueError):
        instability_eigenprobe(lj_square(), N=8)
