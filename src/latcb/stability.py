"""Lattice stability analysis via the dynamical symbol.

For a plane wave ``v(xi) = a exp(i k . xi)`` the energy Hessian at the
reference state acts through the symbol

    H(k) = sum_{rho, sigma} V_{rho sigma}(0) (e^{ik.rho} - 1)(e^{-ik.sigma} - 1).

latcb potentials are point symmetric, V_{-rho,-sigma} = V_{rho sigma}, so by
Re[(e^{ix} - 1)(e^{-iy} - 1)] = 2 [sin^2(x/2) + sin^2(y/2) - sin^2((x - y)/2)]
H(k) is the real Born-von Karman series ``sum_tau W_tau sin^2(k.tau/2)``,
each term second order at k = 0, so free of cancellation there.  Each potential
builds its force constants ``(tau / 2, W)`` once (``Potential.force_constants``).
The stability constant is the infimum of the smallest symbol eigenvalue
normalized by the first-difference symbol ``sum_alpha 4 sin^2(k_alpha / 2)``;
it bounds Rayleigh quotients of the real-space Hessian with respect to the
discrete gradient norm, and its positivity is the sharp condition
separating stable lattices from ones with short-wavelength (typically
zone-boundary) instabilities.  In one dimension with nearest/next-nearest
coupling all of these objects have closed forms that the tests pin down.

The symbol blocks are (d, d); their eigenvalues come from ``_eigvalsh``,
closed forms for d = 1 and 2 and LAPACK for d = 3, and the same helper
serves the acoustic tensors of the Legendre-Hadamard minimum.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lattice import tensor_grid
from .potentials import Potential, hessian_operator
from .stress import CBModel

__all__ = [
    "DispersionSpectrum",
    "dynamical_symbol",
    "difference_symbol",
    "dispersion_spectrum",
    "stability_constant",
    "stability_constants",
    "max_frequency",
    "zone_grid",
    "ZONE_GRID",
    "legendre_hadamard_min",
    "instability_eigenprobe",
]

_GOLDEN_FRAC = 0.6180339887498949  # fractional grid offset avoiding symmetry points

# default k-points per axis, per dimension, of the max_frequency sample
# (also the default grid of stability_constant and the stability runner)
ZONE_GRID = {1: 512, 2: 128, 3: 32}


def zone_grid(d: int, n: int, offset: float = _GOLDEN_FRAC) -> np.ndarray:
    """Offset k-grid of the Brillouin zone [-pi, pi)^d, shape (n^d, d).

    Per axis ``k_j = -pi + (j + offset) 2 pi / n``, j = 0..n-1; rows run in
    row-major (``ij``) order.  The default golden-ratio offset hits no
    symmetry point of the zone, ``offset = 0.5`` gives the cell midpoints.
    """
    axis = -np.pi + (np.arange(n) + offset) * (2.0 * np.pi / n)
    return tensor_grid([axis] * d)


def _symbol(fc: tuple[np.ndarray, np.ndarray], pts: np.ndarray) -> np.ndarray:
    """H(k) at the rows of ``pts`` (K, d) from the force constants; shape (K, d, d)."""
    s = pts @ fc[0]
    np.sin(s, out=s)
    s *= s
    return (s @ fc[1]).reshape(-1, pts.shape[1], pts.shape[1])


def _eigvalsh(H: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of the real symmetric blocks ``H`` (..., d, d).

    d = 1 is the entry itself, bit-equal to ``np.linalg.eigvalsh``.  d = 2
    follows LAPACK ``dlaev2``: the larger-magnitude eigenvalue is
    ``big = (tr + copysign(hypot(a - c, 2 b), tr)) / 2``, the sum of two terms
    of one sign, and the other is ``det / big = (a / big) c - (b / big) b``
    (0 for a zero block); both are within a few ulps of max |lambda|.
    d = 3 goes to ``np.linalg.eigvalsh``, as a closed form would lose accuracy
    near degenerate eigenvalues.
    """
    d = H.shape[-1]
    if d == 1:
        return H[..., 0]
    if d > 2:
        return np.linalg.eigvalsh(H)
    a, b, c = H[..., 0, 0], H[..., 0, 1], H[..., 1, 1]
    tr = a + c
    big = np.hypot(a - c, 2.0 * b)
    np.copysign(big, tr, out=big)
    big += tr
    big *= 0.5
    with np.errstate(divide="ignore", invalid="ignore"):
        other = (a / big) * c - (b / big) * b
    other[big == 0.0] = 0.0
    lam = np.empty(H.shape[:-1])
    np.minimum(big, other, out=lam[..., 0])
    np.maximum(big, other, out=lam[..., 1])
    return lam


def dynamical_symbol(P: Potential, k) -> np.ndarray:
    """Real symmetric symbol H(k) of the reference Hessian, shape (..., d, d).

    ``k`` is a wave-vector batch of shape (..., d) (components in
    [-pi, pi] per axis, though any values are accepted by periodicity).
    H(0) = 0, H(-k) = H(k).
    """
    k = np.asarray(k, dtype=float)
    H = _symbol(P.force_constants, k.reshape(-1, k.shape[-1]))
    return H[0] if k.ndim == 1 else H.reshape(k.shape[:-1] + H.shape[-2:])


def difference_symbol(k) -> np.ndarray:
    """Normalizer g(k) = sum_alpha 4 sin^2(k_alpha / 2) (first-difference symbol)."""
    k = np.asarray(k, dtype=float)
    return np.sum(4.0 * np.sin(0.5 * k) ** 2, axis=-1)


@dataclass
class DispersionSpectrum:
    """Symbol eigenvalues along a wave-vector sample.

    ``eigs`` are sorted ascending per row; ``ratios`` divide them by the
    first-difference normalizer (the stability-constant integrand).
    """

    k: np.ndarray
    eigs: np.ndarray
    normalizer: np.ndarray
    ratios: np.ndarray

    def to_rows(self) -> np.ndarray:
        return np.concatenate(
            [self.k, self.eigs, self.normalizer[:, None], self.ratios], axis=1
        )


def dispersion_spectrum(P: Potential, k_grid) -> DispersionSpectrum:
    """Ascending symbol eigenvalues (``_eigvalsh``) along a k sample."""
    k = np.atleast_2d(np.asarray(k_grid, dtype=float))
    H = dynamical_symbol(P, k)
    eigs = _eigvalsh(H)
    g = difference_symbol(k)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.where(g[:, None] > 1e-300, eigs / g[:, None], np.nan)
    return DispersionSpectrum(k=k, eigs=eigs, normalizer=g, ratios=ratios)


def _min_ratio(fc: tuple[np.ndarray, np.ndarray], k: np.ndarray) -> np.ndarray:
    """Smallest symbol eigenvalue over the normalizer at the rows of ``k``, +inf at k ~ 0."""
    lam = _eigvalsh(_symbol(fc, k))[..., 0]
    g = difference_symbol(k)
    out = np.full(lam.shape, np.inf)
    ok = g > 1e-13
    out[ok] = lam[ok] / g[ok]
    return out


def stability_constant(P: Potential, n_grid: int | None = None) -> float:
    """Stability constant: inf over k != 0 of lambda_min(H(k)) / g(k).

    Sampling uses ``n_grid`` points per axis with a golden-ratio offset
    (no symmetry point of the zone is hit exactly; ``None`` takes
    ``ZONE_GRID[d]``), followed by a compass search around the grid
    minimizer.  As k -> 0 along a unit direction b the ratio tends to the
    smallest eigenvalue of the acoustic tensor A(b), so the
    Legendre-Hadamard minimum is the exact k -> 0 value.  Accuracy is well
    below 1e-6 for the closed-form chain examples.
    """
    return stability_constants(P, n_grid)[0]


def stability_constants(P: Potential, n_grid: int | None = None) -> tuple[float, float]:
    """The stability constant and its k -> 0 limit, ``(gamma, lh_min)``.

    ``gamma`` is ``stability_constant(P, n_grid)``: the smaller of the zone
    minimum and ``lh_min``, the Legendre-Hadamard minimum of ``CBModel(P)``,
    which is computed once for both.
    """
    n_grid = ZONE_GRID[P.d] if n_grid is None else n_grid
    lh_min = legendre_hadamard_min(CBModel(P))
    return min(_zone_min(P, n_grid), lh_min), lh_min


def _polished_min(fn, grid: np.ndarray, h: float) -> float:
    """Smallest value of ``fn`` (rows of points -> values) over ``grid``,
    polished by a compass search from the grid minimizer: try the 3^d - 1
    points ``x + h s`` (s in {-1, 0, 1}^d, s != 0), the diagonals following
    oblique valleys; move to the best while it improves, else halve ``h``,
    down to ``h < 1e-10``.  One call tries every step length ``h, h/2, ...``
    down to the last one of at least 1e-10 and moves at the first that
    improves, the move of halving one call at a time.  Never above the grid
    minimum."""
    vals = fn(grid)
    i = int(np.argmin(vals))
    x, f = grid[i], float(vals[i])
    steps = tensor_grid([[-1.0, 0.0, 1.0]] * x.size)
    steps = steps[steps.any(axis=1)]
    while h >= 1e-10:
        hs = [h]
        while hs[-1] * 0.5 >= 1e-10:
            hs.append(hs[-1] * 0.5)
        trials = x + np.array(hs)[:, None, None] * steps  # (levels, 3^d - 1, d)
        vals = fn(trials.reshape(-1, x.size)).reshape(len(hs), -1)
        best = np.argmin(vals, axis=1)
        moves = np.flatnonzero(vals[np.arange(len(hs)), best] < f)
        if not moves.size:
            break
        level = moves[0]
        h, x, f = hs[level], trials[level, best[level]], float(vals[level, best[level]])
    return f


def _zone_min(P: Potential, n_grid: int) -> float:
    """The stability constant's minimum over k != 0 of the zone: the grid
    minimum, polished by a compass search from its minimizer, grid spacing first."""
    fc = P.force_constants
    return _polished_min(lambda k: _min_ratio(fc, k), zone_grid(P.d, n_grid),
                         2.0 * np.pi / n_grid)


def max_frequency(P: Potential, n_grid: int | None = None) -> float:
    """Spectral radius sqrt(max_k |lambda|(H(k))) (sets stable step sizes).

    The symbol is sampled at the cell midpoints of an ``n_grid^d`` zone
    grid; ``None`` takes ``ZONE_GRID[d]``: 512 points in 1D, 128^2 in 2D
    and 32^3 in 3D.  A midpoint sample can only underestimate the maximum;
    in 2D the 128^2 default lies within 1e-4 relative of the 512^2 value
    (LJ square 16.969312 against 16.970485, EAM square 20.060326 against
    20.061733), which the CFL fraction absorbs.  For unstable potentials
    this also dominates the exponential growth rate sqrt(-lambda_min), so a
    CFL fraction of it is safe either way.
    """
    n_grid = ZONE_GRID[P.d] if n_grid is None else n_grid
    lam = _eigvalsh(dynamical_symbol(P, zone_grid(P.d, n_grid, offset=0.5)))
    return float(np.sqrt(np.max(np.abs(lam))))


# ---------------------------------------------------------------------------
# Legendre-Hadamard constant of the continuum model
# ---------------------------------------------------------------------------

def _acoustic_min(C: np.ndarray, ang: np.ndarray) -> np.ndarray:
    """Smallest eigenvalue of A(b)_ij = C_ipjq b_p b_q at the unit vectors b of
    the angle rows ``ang`` (one angle in 2D, polar and azimuth in 3D)."""
    if ang.shape[1] == 1:
        b = np.stack([np.cos(ang[:, 0]), np.sin(ang[:, 0])], axis=1)
    else:
        t, p = ang[:, 0], ang[:, 1]
        b = np.stack([np.sin(t) * np.cos(p), np.sin(t) * np.sin(p), np.cos(t)], axis=1)
    return _eigvalsh(np.einsum("ipjq,Kp,Kq->Kij", C, b, b))[:, 0]


def legendre_hadamard_min(M: CBModel) -> float:
    """Minimum of (a x b) : C(0) : (a x b) over unit vectors a, b.

    C(0) are the moduli at the reference state; in one dimension this is
    just the scalar modulus.  For fixed b the minimum over a is the
    smallest eigenvalue of the acoustic tensor A(b)_ij = C_ipjq b_p b_q,
    so only b is searched: an angular grid over the half sphere (b and -b
    give the same tensor), polished by a compass search from its minimizer,
    grid spacing first.
    """
    d = M.P.d
    C = M.moduli(np.zeros((d, d)))
    if d == 1:
        return float(C[0, 0, 0, 0])
    n = 48 if d == 2 else 24
    ang = tensor_grid([np.linspace(0.0, np.pi, n)] * (d - 1))
    return _polished_min(lambda t: _acoustic_min(C, t), ang, np.pi / (n - 1))


# ---------------------------------------------------------------------------
# real-space probes
# ---------------------------------------------------------------------------

def instability_eigenprobe(P: Potential, N: int) -> float:
    """Rayleigh quotient of the alternating-strain probe.

    The probe ``v(xi) = (-1)^xi / 2`` has unit alternating strain; its
    quotient <H v, v> / ||D v||^2 with respect to the first-difference norm
    equals the zone-boundary symbol ratio (= a1 for the harmonic chain) and
    is negative exactly when the chain supports the short-wavelength
    instability.  Requires an even supercell (the pattern must close up).
    """
    if P.d != 1:
        raise ValueError("the alternating probe is one-dimensional")
    if N % 2:
        raise ValueError("N must be even for the alternating pattern to be periodic")
    vals = (0.5 * (-1.0) ** np.arange(N)).reshape(N, 1)
    Hv = hessian_operator(P, np.zeros_like(vals))(vals)
    num = float(np.sum(vals * Hv))
    diff = np.roll(vals, -1, axis=0) - vals
    den = float(np.sum(diff * diff))
    return num / den
