"""``TrigField.sample`` against point-wise ``TrigField.eval`` on its grids,
and the numpy mode folding against the dict-loop oracle."""

from __future__ import annotations

import numpy as np
import pytest

from latcb.fields import TrigField, _canonical
from latcb.lattice import tensor_grid

from canonical_loop import canonical_loop


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

