"""Band-limited periodic fields on the unit torus.

Continuum data (macroscopic displacements, forces, wave snapshots) are
represented as finite trigonometric sums

    U(X) = Re sum_k a_k exp(2 pi i m_k . X),

which gives exact derivatives of any order, exact Sobolev norms and exact
convolutions with the hat kernel (the transfer to lattice sites), so the
convergence experiments are not polluted by an extra discretization layer.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lattice import _leading_entry

__all__ = ["TrigField"]

_TWO_PI = 2.0 * np.pi


def _canonical(modes: np.ndarray, amps: np.ndarray):
    """Fold modes into a half-space and merge duplicates.

    With the Re convention, a term at ``-m`` equals a term at ``m`` with
    conjugated amplitude; canonicalizing makes norms and evaluations
    unambiguous.  Modes whose first nonzero entry is negative flip, and
    duplicates add in input order onto a ``-0.0`` start, which keeps the
    signed zeros of a lone term; the modes come out sorted.
    """
    flip = (_leading_entry(modes) < 0)[:, None]
    M, inv = np.unique(np.where(flip, -modes, modes), axis=0, return_inverse=True)
    A = np.full((M.shape[0], amps.shape[1]), complex(-0.0, -0.0))
    np.add.at(A, inv, np.where(flip, np.conj(amps), amps))
    zero = ~M.any(axis=1)
    A[zero] = A[zero].real  # the constant term must be real
    return M, A


def _require_resolved(U, n_grid: int) -> None:
    """ValueError unless every mode of the field ``U`` resolves on the continuum
    grid of ``n_grid`` points: a mode ``m`` with ``2 |m| >= n_grid`` aliases,
    sampled there as another, lower mode."""
    top = int(np.abs(U.modes).max(initial=0))
    if 2 * top >= n_grid:
        raise ValueError(f"mode {top} aliases on the continuum grid of n_grid = {n_grid}; "
                         f"modes need |m| < {(n_grid + 1) // 2}")


@dataclass
class TrigField:
    """Real trigonometric polynomial on the unit torus.

    Attributes
    ----------
    d : torus dimension.
    modes : (K, d) integer array (one representative per +-m pair).
    amps : (K, m) complex amplitudes; the field value is
        ``Re sum_k amps[k] exp(2 pi i modes[k] . X)``.
    """

    d: int
    modes: np.ndarray
    amps: np.ndarray

    def __post_init__(self):
        self.modes = np.asarray(self.modes, dtype=int).reshape(-1, self.d)
        self.amps = np.atleast_2d(np.asarray(self.amps, dtype=complex))
        if self.amps.shape[0] != self.modes.shape[0]:
            raise ValueError("modes and amps must align")
        self.modes, self.amps = _canonical(self.modes, self.amps)

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_terms(cls, d: int, n_components: int, terms) -> "TrigField":
        """Build from (mode, component, 'sin'|'cos', amplitude) tuples."""
        modes, amps = [], []
        for mode, comp, kind, amp in terms:
            a = np.zeros(n_components, dtype=complex)
            a[comp] = {"cos": amp, "sin": -1j * amp}[kind]
            modes.append(tuple(mode) if np.ndim(mode) else (mode,))
            amps.append(a)
        return cls(d=d, modes=np.array(modes), amps=np.array(amps))

    @classmethod
    def from_grid_1d(cls, values: np.ndarray) -> "TrigField":
        """Exact trigonometric interpolant of equispaced 1D samples.

        ``values`` has shape (M,) or (M, m); sample j sits at X = j / M.
        The modes 0, ..., M // 2 are canonical and the constant term's
        imaginary part is +0.0, so the result skips the fold of
        ``__post_init__``, as ``hat_smoothed`` does: it would change no bit.
        """
        v = np.atleast_2d(values.T).T  # (M, m)
        M = v.shape[0]
        amps = np.fft.rfft(v, axis=0) / M
        amps[1:] *= 2.0
        if M % 2 == 0:
            amps[-1] *= 0.5  # Nyquist mode is its own reflection
        out = object.__new__(cls)
        out.d, out.modes, out.amps = 1, np.arange(len(amps)).reshape(-1, 1), amps
        return out

    @property
    def n_components(self) -> int:
        return self.amps.shape[1]

    # -- evaluation ---------------------------------------------------------

    def _deriv_amps(self, deriv: tuple | None) -> np.ndarray:
        """Amplitudes of the mixed partial ``deriv`` (order per axis), shape (K, m)."""
        coeff = self.amps
        if deriv is not None:
            fac = np.ones(self.modes.shape[0], dtype=complex)
            for axis, order in enumerate(deriv):
                if order:
                    fac = fac * (_TWO_PI * 1j * self.modes[:, axis]) ** order
            coeff = coeff * fac[:, None]
        return coeff

    def eval(self, X, deriv: tuple | None = None) -> np.ndarray:
        """Evaluate a mixed partial derivative at points of shape (..., d).

        ``deriv`` gives the derivative order per axis (default: none).
        Returns an array of shape (..., n_components).  On the grids of
        ``sample`` that method is exact and far cheaper.
        """
        X = np.asarray(X, dtype=float)
        squeeze = X.ndim == 1
        pts = np.atleast_2d(X)
        phase = pts @ self.modes.T  # (..., K)
        E = np.exp(_TWO_PI * 1j * phase)
        out = np.real(E @ self._deriv_amps(deriv))
        return out[0] if squeeze else out.reshape(X.shape[:-1] + (self.n_components,))

    def sample(self, N: int, shift=0.0, deriv: tuple | None = None) -> np.ndarray:
        """The field or a mixed partial on the grid ``X = (j + shift) / N``.

        ``j`` runs over ``{0, ..., N-1}^d`` and ``shift`` is a scalar or a
        d-vector.  Returns shape (N,)*d + (n_components,): the one-row case
        of ``sample_shifts``.
        """
        shift = np.broadcast_to(np.asarray(shift, dtype=float), (self.d,))
        return self.sample_shifts(N, shift[None], deriv)[0]

    def sample_shifts(self, N: int, shifts, deriv: tuple | None = None) -> np.ndarray:
        """``sample`` on the grids ``X = (j + shifts[q]) / N`` of a (Q, d) batch of shifts.

        Returns shape (Q,) + (N,)*d + (n_components,).  Since
        ``exp(2 pi i m . j / N)`` depends on ``m`` only mod N, the modes
        fold onto one N^d spectrum per shift, each times its shift phase
        ``exp(2 pi i m . shifts[q] / N)``, and one batched inverse FFT sums
        them: exact to roundoff for any modes, those at or above N/2
        included.  Each row has the bits of a one-shift call.
        """
        shifts = np.asarray(shifts, dtype=float)
        if shifts.ndim != 2 or shifts.shape[0] < 1 or shifts.shape[1] != self.d:
            raise ValueError(f"shifts must have shape (Q, {self.d}) with Q >= 1, got {shifts.shape}")
        # m . s elementwise, one axis after another: a matrix product may add
        # it up in an order that the shifts' memory layout picks
        phase = shifts[:, 0, None] * self.modes[:, 0]
        for a in range(1, self.d):
            phase = phase + shifts[:, a, None] * self.modes[:, a]
        coeff = self._deriv_amps(deriv) * np.exp(_TWO_PI * 1j * phase / N)[:, :, None]
        spec = np.zeros((len(shifts),) + (N,) * self.d + (self.n_components,), dtype=complex)
        np.add.at(spec, (slice(None),) + tuple(np.mod(self.modes, N).T), coeff)
        axes = tuple(range(1, self.d + 1))
        return np.real(np.fft.ifftn(spec, axes=axes)) * float(N) ** self.d

    # -- norms --------------------------------------------------------------

    def sobolev_norm(self, s: float) -> float:
        """Homogeneous Sobolev norm (sum over components).

        ||U||_{H^s}^2 = sum_k' |a_k|^2 (2 pi |m_k|)^{2s} / 2 with the
        constant mode contributing only for s = 0.  Negative ``s`` requires
        a mean-zero field.
        """
        nz = self.modes.any(axis=1)
        mags = np.sum(np.abs(self.amps) ** 2, axis=1)
        knorm = _TWO_PI * np.linalg.norm(self.modes, axis=1)
        total = 0.5 * np.sum(mags[nz] * knorm[nz] ** (2.0 * s))
        if (~nz).any():
            a0 = np.sum(np.real(self.amps[~nz]) ** 2)
            if s == 0:
                total += a0
            elif a0 > 1e-300 and s < 0:
                raise ValueError("negative-order norm of a field with nonzero mean")
        return float(np.sqrt(total))

    def mean(self) -> np.ndarray:
        nz = self.modes.any(axis=1)
        if (~nz).any():
            return np.real(self.amps[~nz][0])
        return np.zeros(self.n_components)

    def scale(self, c: float) -> "TrigField":
        return TrigField(self.d, self.modes.copy(), self.amps * c)

    def hat_smoothed(self, h: float) -> "TrigField":
        """Convolution with the hat kernel ``prod_a (hat(X_a / h) / h)``.

        The kernel's Fourier coefficient at mode ``m`` is
        ``prod_a sinc(m_a h)^2``, so the convolution is exact: the same
        modes with their amplitudes multiplied by it.  The result skips the
        fold of ``__post_init__``: on canonical modes times a factor >= 0 it
        would change no bit.
        """
        mult = np.prod(np.sinc(self.modes * h) ** 2, axis=1)
        out = object.__new__(TrigField)
        out.d, out.modes, out.amps = self.d, self.modes.copy(), self.amps * mult[:, None]
        return out
