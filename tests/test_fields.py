"""``TrigField.sample`` against point-wise ``TrigField.eval`` on its grids,
the rows of ``TrigField.sample_shifts`` against one-shift samples, the numpy
mode folding against the dict-loop oracle, and hat smoothing
against the folded construction."""

from __future__ import annotations

import re

import numpy as np
import pytest

from latcb import fields
from latcb.fields import TrigField, _canonical
from latcb.lattice import tensor_grid

from canonical_loop import canonical_loop
from offset_gap import trig_sample


def _random_field(rng, d: int, n_components: int, top: int) -> TrigField:
    """Random complex amplitudes on random modes with entries in [-top, top]."""
    modes = rng.integers(-top, top + 1, (6, d))
    amps = rng.standard_normal((6, n_components)) + 1j * rng.standard_normal((6, n_components))
    return TrigField(d, modes, amps)


def _derivs(d: int):
    """No derivative, every first partial and every second partial."""
    eye = np.eye(d, dtype=int)
    firsts = [tuple(e) for e in eye]
    seconds = [tuple(eye[a] + eye[b]) for a in range(d) for b in range(a, d)]
    return [None] + firsts + seconds


@pytest.mark.parametrize("d, N", [(1, 16), (1, 7), (2, 8), (3, 6)])
@pytest.mark.parametrize("shift", ["zero", "scalar", "vector"])
def test_sample_matches_eval(rng, d, N, shift):
    # modes reach 3N/2: at and above N/2 they alias onto lower grid modes
    U = _random_field(rng, d, 3, 3 * N // 2)
    assert np.max(np.abs(U.modes)) >= N / 2
    s = {"zero": 0.0, "scalar": 0.37, "vector": rng.random(d)}[shift]
    X = (tensor_grid([np.arange(N)] * d) + s) / N
    for deriv in _derivs(d):
        got = U.sample(N, s, deriv=deriv)
        ref = U.eval(X, deriv=deriv).reshape((N,) * d + (3,))
        assert got.shape == ref.shape
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref)), deriv


def test_sample_of_a_mode_at_half_the_grid_vanishes():
    """sin(2 pi (N/2) j / N) = 0 at every grid point: why such modes are rejected as input."""
    U = TrigField.from_terms(1, 1, [((8,), 0, "sin", 1.0)])
    assert np.max(np.abs(U.sample(16))) <= 1e-13
    assert np.max(np.abs(U.sample(16, shift=0.5))) == pytest.approx(1.0, rel=1e-13)


@pytest.mark.parametrize("d, N", [(1, 16), (1, 7), (2, 8), (3, 5)])
def test_sample_shifts_rows_are_one_shift_samples_bit_for_bit(rng, d, N):
    # modes reach 3N/2, so the fold merges aliased modes in every row
    U = _random_field(rng, d, 3, 3 * N // 2)
    S = np.concatenate([np.zeros((1, d)), rng.uniform(-1.5, 2.5, (5, d))])
    for deriv in _derivs(d):
        batch = U.sample_shifts(N, S, deriv=deriv)
        assert batch.shape == (len(S),) + (N,) * d + (3,)
        for row, s in zip(batch, S):
            assert row.tobytes() == U.sample(N, s, deriv=deriv).tobytes(), (s, deriv)
            # the per-shift fold and inverse FFT that the batch replaced
            assert row.tobytes() == trig_sample(U, N, s, deriv=deriv).tobytes(), (s, deriv)
    # a scalar shift keeps the bits of the per-shift code too
    assert U.sample(N, 0.37).tobytes() == trig_sample(U, N, 0.37).tobytes()
    # the phase does not depend on how the shifts are laid out in memory
    assert U.sample(N, 0.37).tobytes() == U.sample(N, np.full(d, 0.37)).tobytes()
    assert U.sample_shifts(N, np.asfortranarray(S)).tobytes() == U.sample_shifts(N, S).tobytes()


@pytest.mark.parametrize("shape", [(2,), (3, 1), (3, 3), (0, 2), (1, 2, 1)])
def test_sample_shifts_rejects_other_shapes(rng, shape):
    U = _random_field(rng, 2, 1, 3)
    with pytest.raises(ValueError, match=rf"shifts must have shape \(Q, 2\).*got {re.escape(str(shape))}"):
        U.sample_shifts(8, np.zeros(shape))


def test_modes_and_amplitudes_must_align():
    with pytest.raises(ValueError, match="^modes and amps must align$"):
        TrigField(1, np.array([[1], [2]]), np.array([[1.0]]))


def test_sobolev_norm_counts_the_mean_only_at_order_zero():
    # U = 3 + cos(2 pi X): the mean adds 3^2 to the squared L2 norm, is not
    # seen by positive orders and leaves negative orders undefined
    U = TrigField.from_terms(1, 1, [((0,), 0, "cos", 3.0), ((1,), 0, "cos", 1.0)])
    assert U.sobolev_norm(0) == pytest.approx(np.sqrt(9.0 + 0.5), rel=1e-15)
    assert U.sobolev_norm(1) == pytest.approx(2.0 * np.pi / np.sqrt(2.0), rel=1e-15)
    with pytest.raises(ValueError, match="^negative-order norm of a field with nonzero mean$"):
        U.sobolev_norm(-1)


def _signed_parts(rng, shape):
    """Parts drawn from signed zeros, small exact values and normals."""
    pool = np.array([0.0, -0.0, 1.5, -2.25])
    return np.where(rng.random(shape) < 0.5, rng.choice(pool, shape), rng.standard_normal(shape))


def test_canonical_matches_dict_loop_bit_for_bit(rng):
    # few distinct modes, so duplicates, +-m pairs and the zero mode are common;
    # lone terms keep a -0.0 part, which a zeros accumulator would make +0.0
    for _ in range(500):
        d, m = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        K = int(rng.integers(1, 30))
        modes = rng.integers(-2, 3, (K, d))
        amps = np.empty((K, m), dtype=complex)
        amps.real, amps.imag = _signed_parts(rng, (K, m)), _signed_parts(rng, (K, m))
        M, A = _canonical(modes, amps)
        ref_M, ref_A = canonical_loop(modes, amps)
        assert M.dtype == ref_M.dtype and M.tobytes() == ref_M.tobytes()
        assert A.shape == ref_A.shape and A.tobytes() == ref_A.tobytes()



def test_hat_smoothed_skips_the_fold_bit_for_bit(rng, monkeypatch):
    # canonical modes times a multiplier >= 0 (1 at m = 0) fold onto
    # themselves, so smoothing gives the folded construction's bits unfolded
    cases = []
    for _ in range(300):
        d, m, K = int(rng.integers(1, 4)), int(rng.integers(1, 4)), int(rng.integers(1, 30))
        amps = np.empty((K, m), dtype=complex)
        amps.real, amps.imag = _signed_parts(rng, (K, m)), _signed_parts(rng, (K, m))
        U = TrigField(d, rng.integers(-3, 4, (K, d)), amps)
        h = float(rng.choice([1.0 / 8.0, 1.0 / 64.0, 0.37, 0.5, 1.0]))
        mult = np.prod(np.sinc(U.modes * h) ** 2, axis=1)
        cases.append((U, h, TrigField(d, U.modes.copy(), U.amps * mult[:, None])))
    folds = []
    monkeypatch.setattr(fields, "_canonical", lambda *args: folds.append(args) or _canonical(*args))
    for U, h, ref in cases:
        got = U.hat_smoothed(h)
        assert got.d == ref.d
        assert got.modes.dtype == ref.modes.dtype and got.modes.tobytes() == ref.modes.tobytes()
        assert got.amps.shape == ref.amps.shape and got.amps.tobytes() == ref.amps.tobytes()
        assert got.modes is not U.modes
    assert folds == []
