"""``TrigField.sample`` against point-wise ``TrigField.eval`` on its grids."""

from __future__ import annotations

import numpy as np
import pytest

from latcb.fields import TrigField
from latcb.lattice import tensor_grid


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
